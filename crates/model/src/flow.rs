use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use archrel_expr::Expr;
use serde::{Deserialize, Serialize};

use crate::index::state_id;
use crate::{FlowIndex, InternalFailureModel, Result, ServiceId};

/// Identifier of a state in a service flow.
///
/// `Start` and `End` are the distinguished entry and success states of every
/// flow (paper §3); user states carry a name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StateId {
    /// Entry point of the flow; represents no real behavior, so no failure
    /// can occur in it (paper §3.2).
    Start,
    /// Absorbing state representing successful completion.
    End,
    /// A user-defined state holding service requests.
    Named(Arc<str>),
}

impl StateId {
    /// Creates a named state id.
    pub fn named(name: impl AsRef<str>) -> StateId {
        StateId::Named(Arc::from(name.as_ref()))
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateId::Start => f.write_str("Start"),
            StateId::End => f.write_str("End"),
            StateId::Named(n) => f.write_str(n),
        }
    }
}

impl From<&str> for StateId {
    fn from(s: &str) -> StateId {
        StateId::named(s)
    }
}

impl From<String> for StateId {
    fn from(s: String) -> StateId {
        StateId::named(&s)
    }
}

/// Completion model of a flow state (paper §3.2): when is the transition to
/// the next state enabled, given that some requests may have failed?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompletionModel {
    /// All requests in the state must succeed (eq. 4).
    And,
    /// At least one request must succeed (eq. 5) — models fault-tolerant
    /// replication inside a component.
    Or,
    /// At least `k` requests must succeed — the "k out of n" extension the
    /// paper names but does not analyze; implemented here for the ablation
    /// experiments.
    KOutOfN {
        /// Required number of successful requests.
        k: usize,
    },
}

/// Dependency model of a flow state (paper §3.2): are the requests
/// stochastically independent?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DependencyModel {
    /// Requests share no common service — failures are independent
    /// (eqs. 6–8).
    #[default]
    Independent,
    /// All requests in the state address the **same service through the same
    /// connector** (eqs. 9–13): one external failure takes all of them down.
    Shared,
}

/// Binding of a request to the connector that transports it, with the
/// connector's own actual parameters (the `[Sj, apj]` of the paper: e.g. the
/// RPC connector's `ip`/`op` sizes as functions of the caller's formals).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectorBinding {
    /// The connector service.
    pub connector: ServiceId,
    /// Actual parameters handed to the connector, keyed by the connector's
    /// formal parameter names.
    pub actual_params: Vec<(String, Expr)>,
}

impl ConnectorBinding {
    /// Creates a binding with no parameters.
    pub fn new(connector: impl Into<ServiceId>) -> Self {
        ConnectorBinding {
            connector: connector.into(),
            actual_params: Vec::new(),
        }
    }

    /// Adds an actual parameter.
    #[must_use]
    pub fn with_param(mut self, name: impl Into<String>, expr: Expr) -> Self {
        self.actual_params.push((name.into(), expr));
        self
    }
}

/// A single cascading service request `Aij = call(Sj, apj)` (paper §3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCall {
    /// The requested service.
    pub target: ServiceId,
    /// Actual parameters, keyed by the target's formal parameter names; each
    /// expression is over the **caller's** formal parameters.
    pub actual_params: Vec<(String, Expr)>,
    /// The connector transporting the request; `None` models a direct,
    /// perfectly reliable association (like the paper's "local processing"
    /// connectors).
    pub connector: Option<ConnectorBinding>,
    /// Internal-failure law of the request (the caller-side `Pfail_int`).
    pub internal_failure: InternalFailureModel,
}

impl ServiceCall {
    /// Creates a call with no parameters, no connector, and no internal
    /// failure.
    pub fn new(target: impl Into<ServiceId>) -> Self {
        ServiceCall {
            target: target.into(),
            actual_params: Vec::new(),
            connector: None,
            internal_failure: InternalFailureModel::None,
        }
    }

    /// Adds an actual parameter.
    #[must_use]
    pub fn with_param(mut self, name: impl Into<String>, expr: Expr) -> Self {
        self.actual_params.push((name.into(), expr));
        self
    }

    /// Routes the request through a connector.
    #[must_use]
    pub fn via(mut self, binding: ConnectorBinding) -> Self {
        self.connector = Some(binding);
        self
    }

    /// Sets the internal-failure law.
    #[must_use]
    pub fn with_internal(mut self, model: InternalFailureModel) -> Self {
        self.internal_failure = model;
        self
    }
}

/// A state of a service flow: a set of requests plus the models governing
/// their joint completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowState {
    /// State identifier (always [`StateId::Named`] for states with calls).
    pub id: StateId,
    /// The requests `Ai1 ... Ain` issued in this state.
    pub calls: Vec<ServiceCall>,
    /// Completion model for the requests.
    pub completion: CompletionModel,
    /// Dependency model for the requests.
    pub dependency: DependencyModel,
}

impl FlowState {
    /// Creates a state with AND completion and independent requests — the
    /// paper's default combination.
    pub fn new(id: impl Into<StateId>, calls: Vec<ServiceCall>) -> Self {
        FlowState {
            id: id.into(),
            calls,
            completion: CompletionModel::And,
            dependency: DependencyModel::Independent,
        }
    }

    /// Sets the completion model.
    #[must_use]
    pub fn with_completion(mut self, completion: CompletionModel) -> Self {
        self.completion = completion;
        self
    }

    /// Sets the dependency model.
    #[must_use]
    pub fn with_dependency(mut self, dependency: DependencyModel) -> Self {
        self.dependency = dependency;
        self
    }
}

impl From<&str> for StateIdOrRef {
    fn from(s: &str) -> Self {
        StateIdOrRef(StateId::named(s))
    }
}

impl From<StateId> for StateIdOrRef {
    fn from(s: StateId) -> Self {
        StateIdOrRef(s)
    }
}

/// Conversion helper so builder methods accept `"name"`, `StateId::Start`,
/// and `StateId::End` uniformly.
#[derive(Debug, Clone)]
pub struct StateIdOrRef(StateId);

/// A transition of a service flow with a (possibly parametric) probability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Source state.
    pub from: StateId,
    /// Target state.
    pub to: StateId,
    /// Transition probability as an expression over the service's formal
    /// parameters (paper §2: "both the transition probabilities and the
    /// actual parameters ... may be defined as functions of the formal
    /// parameters").
    pub probability: Expr,
}

/// The probabilistic flow (usage profile) of a composite service: a DTMC
/// skeleton whose nodes carry sets of service requests (paper §2, Fig. 1–2).
///
/// Equality and `Debug` cover the states and transitions only; the
/// [`FlowIndex`] built alongside them is derived data.
#[derive(Clone, Serialize, Deserialize)]
pub struct Flow {
    states: Vec<FlowState>,
    transitions: Vec<Transition>,
    index: Arc<FlowIndex>,
}

impl PartialEq for Flow {
    fn eq(&self, other: &Flow) -> bool {
        self.states == other.states && self.transitions == other.transitions
    }
}

impl fmt::Debug for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Flow")
            .field("states", &self.states)
            .field("transitions", &self.transitions)
            .finish()
    }
}

impl Flow {
    /// The named states (in declaration order).
    pub fn states(&self) -> &[FlowState] {
        &self.states
    }

    /// Looks up a named state.
    pub fn state(&self, id: &StateId) -> Option<&FlowState> {
        let i = FlowIndex::named_position(self.dense_id(id)?)?;
        Some(&self.states[i])
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Outgoing transitions of a state, in declaration order.
    pub fn outgoing<'a>(&'a self, from: &'a StateId) -> impl Iterator<Item = &'a Transition> + 'a {
        let row = match self.dense_id(from) {
            Some(id) => self.index.row(id),
            None => &[],
        };
        row.iter().map(move |&t| &self.transitions[t as usize])
    }

    /// The flow's interned layout, shared so lowerings can keep it.
    pub fn index(&self) -> &Arc<FlowIndex> {
        &self.index
    }

    /// Dense id of a state of this flow (see [`FlowIndex`]), by binary
    /// search over the named states' `StateId` order.
    fn dense_id(&self, id: &StateId) -> Option<u32> {
        match id {
            StateId::Start => Some(FlowIndex::START),
            StateId::End => Some(FlowIndex::END),
            named => {
                let sorted = &self.index.sorted()[2..];
                sorted
                    .binary_search_by(|&d| state_id(&self.states, d).cmp(named))
                    .ok()
                    .map(|k| sorted[k])
            }
        }
    }

    /// Every service id referenced by any call or connector in the flow.
    pub fn referenced_services(&self) -> BTreeSet<ServiceId> {
        let mut out = BTreeSet::new();
        for state in &self.states {
            for call in &state.calls {
                out.insert(call.target.clone());
                if let Some(c) = &call.connector {
                    out.insert(c.connector.clone());
                }
            }
        }
        out
    }
}

/// Builder for [`Flow`].
///
/// # Examples
///
/// The paper's `sort` flow (Fig. 1): a single state requesting
/// `cpu(list · log₂ list)`:
///
/// ```
/// use archrel_expr::Expr;
/// use archrel_model::{FlowBuilder, FlowState, ServiceCall, StateId};
///
/// # fn main() -> Result<(), archrel_model::ModelError> {
/// let cost = Expr::param("list") * Expr::param("list").log2();
/// let flow = FlowBuilder::new()
///     .state(FlowState::new(
///         "1",
///         vec![ServiceCall::new("cpu1").with_param("n", cost)],
///     ))
///     .transition(StateId::Start, "1", Expr::one())
///     .transition("1", StateId::End, Expr::one())
///     .build()?;
/// assert_eq!(flow.states().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowBuilder {
    states: Vec<FlowState>,
    transitions: Vec<Transition>,
}

impl FlowBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        FlowBuilder::default()
    }

    /// Adds a state.
    #[must_use]
    pub fn state(mut self, state: FlowState) -> Self {
        self.states.push(state);
        self
    }

    /// Adds a transition; `from`/`to` accept `"name"`, [`StateId::Start`],
    /// and [`StateId::End`].
    #[must_use]
    pub fn transition(
        mut self,
        from: impl Into<StateIdOrRef>,
        to: impl Into<StateIdOrRef>,
        probability: Expr,
    ) -> Self {
        self.transitions.push(Transition {
            from: from.into().0,
            to: to.into().0,
            probability,
        });
        self
    }

    /// Validates and builds the flow.
    ///
    /// Structural checks (parameter checks against callees happen later, at
    /// assembly validation):
    ///
    /// - state ids are unique and named;
    /// - every transition endpoint is `Start`, `End`, or a declared state;
    /// - `Start` has outgoing transitions and no incoming ones;
    /// - `End` has no outgoing transitions;
    /// - every named state has at least one outgoing transition;
    /// - `End` is reachable from `Start`;
    /// - constant transition probabilities lie in `[0, 1]`, and rows whose
    ///   probabilities are all constant sum to 1;
    /// - `k`-out-of-`n` states satisfy `1 ≤ k ≤ n`.
    ///
    /// The checks run over the flow's [`FlowIndex`], built in the same
    /// pass, so validation is linear in states plus transitions.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::MalformedFlow`] (or
    /// [`crate::ModelError::InvalidKOutOfN`]) describing the first defect
    /// found.
    pub fn build(self) -> Result<Flow> {
        let index = FlowIndex::new(&self.states, &self.transitions)?;
        Ok(Flow {
            states: self.states,
            transitions: self.transitions,
            index: Arc::new(index),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelError;

    fn call() -> ServiceCall {
        ServiceCall::new("cpu").with_param("n", Expr::num(10.0))
    }

    fn simple_flow() -> Result<Flow> {
        FlowBuilder::new()
            .state(FlowState::new("work", vec![call()]))
            .transition(StateId::Start, "work", Expr::one())
            .transition("work", StateId::End, Expr::one())
            .build()
    }

    #[test]
    fn valid_flow_builds() {
        let flow = simple_flow().unwrap();
        assert_eq!(flow.states().len(), 1);
        assert_eq!(flow.transitions().len(), 2);
        assert_eq!(flow.outgoing(&StateId::Start).count(), 1);
        assert!(flow.state(&StateId::named("work")).is_some());
        assert!(flow.state(&StateId::named("zzz")).is_none());
        assert!(flow.state(&StateId::End).is_none());
        assert_eq!(flow.outgoing(&StateId::End).count(), 0);
        assert_eq!(flow.outgoing(&StateId::named("zzz")).count(), 0);
    }

    /// Validation and indexing are linear: a 20,000-state chain builds at
    /// once, where scanning every transition per state took minutes in a
    /// debug build.
    #[test]
    fn long_chains_build_in_linear_time() {
        let n = 20_000;
        let name = |i: usize| StateId::named(format!("s{i}"));
        let mut builder = FlowBuilder::new();
        for i in 0..n {
            builder = builder.state(FlowState::new(name(i), vec![call()]));
        }
        builder = builder.transition(StateId::Start, name(0), Expr::one());
        for i in 1..n {
            builder = builder.transition(name(i - 1), name(i), Expr::one());
        }
        builder = builder.transition(name(n - 1), StateId::End, Expr::one());
        let flow = builder.build().unwrap();
        assert_eq!(flow.index().edge_count(), n + 1);
        assert_eq!(flow.index().id_count(), n + 2);
        let tail = name(n - 1);
        let last: Vec<_> = flow.outgoing(&tail).collect();
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].to, StateId::End);
        assert_eq!(flow.state(&name(12_345)).unwrap().id, name(12_345));
    }

    #[test]
    fn referenced_services_include_connectors() {
        let c = ServiceCall::new("sort")
            .with_param("list", Expr::param("list"))
            .via(ConnectorBinding::new("rpc").with_param("ip", Expr::param("list")));
        let flow = FlowBuilder::new()
            .state(FlowState::new("s", vec![c]))
            .transition(StateId::Start, "s", Expr::one())
            .transition("s", StateId::End, Expr::one())
            .build()
            .unwrap();
        let refs = flow.referenced_services();
        assert!(refs.contains(&ServiceId::new("sort")));
        assert!(refs.contains(&ServiceId::new("rpc")));
    }

    #[test]
    fn duplicate_state_rejected() {
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", StateId::End, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn reserved_state_ids_rejected() {
        let err = FlowBuilder::new()
            .state(FlowState {
                id: StateId::Start,
                calls: vec![],
                completion: CompletionModel::And,
                dependency: DependencyModel::Independent,
            })
            .transition(StateId::Start, StateId::End, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let err = FlowBuilder::new()
            .transition(StateId::Start, "ghost", Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn end_cannot_emit_and_start_cannot_receive() {
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", StateId::End, Expr::one())
            .transition(StateId::End, "a", Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));

        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", StateId::Start, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn dangling_state_rejected() {
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .state(FlowState::new("sink", vec![]))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", StateId::End, Expr::num(0.5))
            .transition("a", "sink", Expr::num(0.5))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn unreachable_end_rejected() {
        // "a" loops forever.
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", "a", Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn constant_rows_must_sum_to_one() {
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::num(0.7))
            .transition("a", StateId::End, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn parametric_rows_are_deferred() {
        // q + (1-q) can't be checked statically; accepted at build time.
        let q = Expr::param("q");
        let flow = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .state(FlowState::new("b", vec![]))
            .transition(StateId::Start, "a", q.clone())
            .transition(StateId::Start, "b", Expr::one() - q)
            .transition("a", StateId::End, Expr::one())
            .transition("b", StateId::End, Expr::one())
            .build();
        assert!(flow.is_ok());
    }

    #[test]
    fn out_of_range_constant_probability_rejected() {
        let err = FlowBuilder::new()
            .state(FlowState::new("a", vec![]))
            .transition(StateId::Start, "a", Expr::num(1.5))
            .transition("a", StateId::End, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MalformedFlow { .. }));
    }

    #[test]
    fn k_out_of_n_bounds_checked() {
        let state = FlowState::new("a", vec![call(), call()])
            .with_completion(CompletionModel::KOutOfN { k: 3 });
        let err = FlowBuilder::new()
            .state(state)
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", StateId::End, Expr::one())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidKOutOfN { k: 3, n: 2 }));
    }

    #[test]
    fn state_id_display() {
        assert_eq!(StateId::Start.to_string(), "Start");
        assert_eq!(StateId::End.to_string(), "End");
        assert_eq!(StateId::named("x").to_string(), "x");
    }
}
