//! Failure-structure augmentation (paper §3.2, Fig. 5, and the loop of
//! `Pfail_Alg` lines 8–12).
//!
//! Given a composite service's flow, concrete bindings for its formal
//! parameters, and the already-computed per-state failure probabilities
//! `p(i, Fail)`, this module produces the concrete absorbing DTMC: a new
//! `Fail` absorbing state, a transition `i → Fail` with probability
//! `p(i, Fail)` from every request-carrying state, and every pre-existing
//! transition out of `i` reweighted by `1 − p(i, Fail)`. Transitions out of
//! `Start` are left untouched — `Start` represents no real behavior, so no
//! failure can occur in it.
//!
//! The chain's layout comes from the flow's [`FlowIndex`], built once with
//! the flow: parallel transitions merge per `(from, to)` edge in `StateId`
//! order, states follow `End` and `Fail` in order of first appearance over
//! those edges, and each row holds its merged edges before its `→ Fail`
//! edge. [`augmented_chain`], the staged sweeps and the assembly programs
//! all build chains through [`build_chain`], so they agree on every label,
//! row and slot.

use std::collections::BTreeMap;

use archrel_expr::Bindings;
use archrel_markov::{Dtmc, DtmcBuilder};
use archrel_model::{CompositeService, FlowIndex, Probability, ServiceId, StateId};

use crate::{CoreError, Result};

/// A state of the failure-augmented chain: the flow's own states plus the
/// added `Fail` absorbing state.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AugmentedState {
    /// A state of the original flow (`Start`, `End`, or named).
    Flow(StateId),
    /// The added absorbing failure state.
    Fail,
}

impl std::fmt::Display for AugmentedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AugmentedState::Flow(s) => write!(f, "{s}"),
            AugmentedState::Fail => f.write_str("Fail"),
        }
    }
}

/// Builds the failure-augmented DTMC of `service` under `env`.
///
/// `state_failures` maps each named flow state to its `p(i, Fail)`; states
/// absent from the map are treated as failure-free (pure routing states),
/// and entries naming no state of the flow are ignored.
///
/// # Errors
///
/// - [`CoreError::Expr`] when a transition probability fails to evaluate;
/// - [`CoreError::BadTransitions`] when a state's evaluated outgoing
///   probabilities do not sum to one (within 1e-9) or leave `[0, 1]`;
/// - [`CoreError::Markov`] when the resulting chain is malformed.
pub fn augmented_chain(
    service: &CompositeService,
    env: &Bindings,
    state_failures: &BTreeMap<StateId, Probability>,
) -> Result<Dtmc<AugmentedState>> {
    let failures: Vec<Probability> = service
        .flow()
        .states()
        .iter()
        .map(|s| {
            state_failures
                .get(&s.id)
                .copied()
                .unwrap_or(Probability::ZERO)
        })
        .collect();
    flow_chain(service, env, &failures)
}

/// [`augmented_chain`] over the failure probability of each named state in
/// declaration order.
pub(crate) fn flow_chain(
    service: &CompositeService,
    env: &Bindings,
    failures: &[Probability],
) -> Result<Dtmc<AugmentedState>> {
    let ps = transition_values(service, env)?;
    let flow = service.flow();
    let index = flow.index();
    let merged: Vec<f64> = (0..index.edge_count())
        .map(|e| {
            let failure = FlowIndex::named_position(index.edge(e).0)
                .map_or(Probability::ZERO, |i| failures[i]);
            edge_sum(index, e, &ps) * failure.complement().value()
        })
        .collect();
    let fails: Vec<f64> = failures.iter().map(|f| f.value()).collect();
    let ids = flow.states().iter().map(|s| &s.id);
    Ok(build_chain(index, ids, &merged, &fails)?.0)
}

/// Evaluates `service`'s transition probabilities under `env` (in flow
/// order) and validates them as the augmented chain requires: range checks
/// first, in flow order; row sums next, in `StateId` order — so the first
/// bad transition or row is the one reported.
///
/// # Errors
///
/// See [`augmented_chain`].
pub(crate) fn transition_values(service: &CompositeService, env: &Bindings) -> Result<Vec<f64>> {
    let flow = service.flow();
    let (index, id) = (flow.index(), service.id());
    let mut ps = Vec::with_capacity(flow.transitions().len());
    for t in flow.transitions() {
        ps.push(checked_transition(id, &t.from, t.probability.eval(env)?)?);
    }
    if let Some((t, sum)) = first_bad_row(index, &ps) {
        return Err(bad_transitions(id, &flow.transitions()[t].from, sum));
    }
    Ok(ps)
}

/// `p`, the evaluated probability of a transition out of `from` in
/// `service`'s flow, when it lies in `[0, 1]` (within 1e-9).
///
/// # Errors
///
/// [`CoreError::BadTransitions`] when it does not.
pub(crate) fn checked_transition(service: &ServiceId, from: &StateId, p: f64) -> Result<f64> {
    if (0.0..=1.0 + 1e-9).contains(&p) {
        Ok(p)
    } else {
        Err(bad_transitions(service, from, p))
    }
}

/// The error for a transition out of `from` in `service`'s flow, or for
/// `from`'s whole row, whose probability is `sum`.
pub(crate) fn bad_transitions(service: &ServiceId, from: &StateId, sum: f64) -> CoreError {
    CoreError::BadTransitions {
        service: service.to_string(),
        state: from.to_string(),
        sum,
    }
}

/// Checks that state `id`'s evaluated outgoing probabilities `ps`,
/// accumulated in declaration order from zero, sum to one within 1e-9.
/// For a row that does not, returns its first transition and its sum.
pub(crate) fn bad_row(index: &FlowIndex, id: u32, ps: &[f64]) -> Option<(usize, f64)> {
    let row = index.row(id);
    let &first = row.first()?;
    let sum = row.iter().fold(0.0, |s, &t| s + ps[t as usize]);
    ((sum - 1.0).abs() > 1e-9).then_some((first as usize, sum))
}

/// The first row, in `StateId` order, that [`bad_row`] rejects.
pub(crate) fn first_bad_row(index: &FlowIndex, ps: &[f64]) -> Option<(usize, f64)> {
    index.sorted().iter().find_map(|&id| bad_row(index, id, ps))
}

/// Probability of merged edge `e` before failure scaling: its transitions'
/// evaluated probabilities `ps`, accumulated in declaration order from
/// zero.
pub(crate) fn edge_sum(index: &FlowIndex, e: usize, ps: &[f64]) -> f64 {
    index
        .edge_transitions(e)
        .iter()
        .fold(0.0, |s, &t| s + ps[t as usize])
}

/// Position of the added `Fail` state in the augmented chain.
const FAIL_POSITION: usize = 1;

/// Where [`build_chain`] put each edge it kept, as `(row, slot)` addresses
/// into the chain's adjacency (the addresses [`Dtmc::set_edge_probability`]
/// takes).
pub(crate) struct ChainSlots {
    /// Address of each merged edge; `None` for a zero edge.
    pub(crate) edges: Vec<Option<(usize, usize)>>,
    /// Address of each named state's `→ Fail` edge (declaration order);
    /// `None` for failure-free states.
    pub(crate) fails: Vec<Option<(usize, usize)>>,
    /// Number of explicit edges in each chain row.
    pub(crate) row_len: Vec<usize>,
}

/// Builds the augmented chain of a flow from its merged-edge probabilities
/// `merged` (already failure-scaled, in the index's edge order) and its
/// named states' failure probabilities `fails` (declaration order).
/// `state_ids` yields the named states' ids in declaration order.
///
/// The chain's states are `End`, `Fail`, then every other flow state in
/// order of first appearance over the merged edges, source before target.
/// Merged edges are declared first, then one `→ Fail` edge per state with
/// a nonzero failure probability, in `StateId` order. Zero edges are left
/// out, as the builder would drop them; it validates every other value.
///
/// # Errors
///
/// The builder's validation errors.
pub(crate) fn build_chain<'a>(
    index: &FlowIndex,
    state_ids: impl Iterator<Item = &'a StateId>,
    merged: &[f64],
    fails: &[f64],
) -> archrel_markov::Result<(Dtmc<AugmentedState>, ChainSlots)> {
    // Every id appears in some merged edge: `Start` and every named state
    // emit, and `End` is reachable.
    let mut position = vec![usize::MAX; index.id_count()];
    position[FlowIndex::END as usize] = 0;
    let mut len = FAIL_POSITION + 1;
    for e in 0..index.edge_count() {
        let (from, to) = index.edge(e);
        for id in [from, to] {
            if position[id as usize] == usize::MAX {
                position[id as usize] = len;
                len += 1;
            }
        }
    }
    let at = |id: u32| position[id as usize];

    let mut labels = vec![AugmentedState::Fail; len];
    labels[at(FlowIndex::START)] = AugmentedState::Flow(StateId::Start);
    labels[at(FlowIndex::END)] = AugmentedState::Flow(StateId::End);
    for (i, id) in state_ids.enumerate() {
        labels[at(FlowIndex::named_id(i))] = AugmentedState::Flow(id.clone());
    }
    let mut builder = DtmcBuilder::with_capacity(len, merged.len() + fails.len());
    for label in labels {
        builder = builder.state(label);
    }
    let mut row_len = vec![0usize; len];
    let mut slot = |row: usize, p: f64| {
        (p != 0.0).then(|| {
            row_len[row] += 1;
            (row, row_len[row] - 1)
        })
    };
    let mut edges = Vec::with_capacity(merged.len());
    for (e, &p) in merged.iter().enumerate() {
        let (from, to) = index.edge(e);
        let kept = slot(at(from), p);
        if kept.is_some() {
            builder = builder.transition_by_index(at(from), at(to), p);
        }
        edges.push(kept);
    }
    let mut fail_slots = vec![None; fails.len()];
    for &id in index.sorted() {
        if let Some(i) = FlowIndex::named_position(id) {
            fail_slots[i] = slot(at(id), fails[i]);
            if fail_slots[i].is_some() {
                builder = builder.transition_by_index(at(id), FAIL_POSITION, fails[i]);
            }
        }
    }
    let slots = ChainSlots {
        edges,
        fails: fail_slots,
        row_len,
    };
    Ok((builder.build()?, slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use archrel_expr::Expr;
    use archrel_markov::{structure_fingerprint, AbsorbingAnalysis};
    use archrel_model::{FlowBuilder, FlowState};

    fn two_state_service(q: f64) -> CompositeService {
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", vec![]))
            .state(FlowState::new("2", vec![]))
            .transition(StateId::Start, "1", Expr::num(q))
            .transition(StateId::Start, "2", Expr::num(1.0 - q))
            .transition("1", "2", Expr::one())
            .transition("2", StateId::End, Expr::one())
            .build()
            .unwrap();
        CompositeService::new("svc", vec![], flow).unwrap()
    }

    fn failures(f1: f64, f2: f64) -> BTreeMap<StateId, Probability> {
        BTreeMap::from([
            (StateId::named("1"), Probability::new(f1).unwrap()),
            (StateId::named("2"), Probability::new(f2).unwrap()),
        ])
    }

    /// The search-flow shape of Fig. 5: Pfail = (1-q)·f2 + q·(1-(1-f1)(1-f2)).
    #[test]
    fn absorption_matches_hand_computation() {
        let (q, f1, f2) = (0.9, 0.01, 0.002);
        let svc = two_state_service(q);
        let chain = augmented_chain(&svc, &Bindings::new(), &failures(f1, f2)).unwrap();
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        let p_end = analysis
            .absorption_probability(
                &AugmentedState::Flow(StateId::Start),
                &AugmentedState::Flow(StateId::End),
            )
            .unwrap();
        let expected_success = q * (1.0 - f1) * (1.0 - f2) + (1.0 - q) * (1.0 - f2);
        assert!((p_end - expected_success).abs() < 1e-12);
        // Complement goes to Fail.
        let p_fail = analysis
            .absorption_probability(&AugmentedState::Flow(StateId::Start), &AugmentedState::Fail)
            .unwrap();
        assert!((p_end + p_fail - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_failures_reach_end_certainly() {
        let svc = two_state_service(0.5);
        let chain = augmented_chain(&svc, &Bindings::new(), &BTreeMap::new()).unwrap();
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        let p_end = analysis
            .absorption_probability(
                &AugmentedState::Flow(StateId::Start),
                &AugmentedState::Flow(StateId::End),
            )
            .unwrap();
        assert!((p_end - 1.0).abs() < 1e-12);
        // Fail state exists but is unreachable.
        assert!(chain.index_of(&AugmentedState::Fail).is_some());
    }

    #[test]
    fn certain_failure_absorbs_everything() {
        let svc = two_state_service(1.0);
        let chain = augmented_chain(&svc, &Bindings::new(), &failures(1.0, 1.0)).unwrap();
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        let p_fail = analysis
            .absorption_probability(&AugmentedState::Flow(StateId::Start), &AugmentedState::Fail)
            .unwrap();
        assert!((p_fail - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parametric_transitions_use_bindings() {
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", vec![]))
            .state(FlowState::new("2", vec![]))
            .transition(StateId::Start, "1", Expr::param("q"))
            .transition(StateId::Start, "2", Expr::one() - Expr::param("q"))
            .transition("1", StateId::End, Expr::one())
            .transition("2", StateId::End, Expr::one())
            .build()
            .unwrap();
        let svc = CompositeService::new("svc", vec!["q".to_string()], flow).unwrap();
        let env = Bindings::new().with("q", 0.25);
        let chain = augmented_chain(&svc, &env, &failures(1.0, 0.0)).unwrap();
        let analysis = AbsorbingAnalysis::new(&chain).unwrap();
        let p_end = analysis
            .absorption_probability(
                &AugmentedState::Flow(StateId::Start),
                &AugmentedState::Flow(StateId::End),
            )
            .unwrap();
        // Only the 1-q branch survives (state 1 always fails).
        assert!((p_end - 0.75).abs() < 1e-12);
    }

    /// Failure-map keys that name no state of the flow are ignored: the
    /// chain gains no stray `→ Fail` row.
    #[test]
    fn failures_of_unknown_states_are_ignored() {
        let svc = two_state_service(0.9);
        let mut with_ghost = failures(0.01, 0.0);
        with_ghost.insert(StateId::named("ghost"), Probability::new(0.3).unwrap());
        let chain = augmented_chain(&svc, &Bindings::new(), &with_ghost).unwrap();
        let expected = augmented_chain(&svc, &Bindings::new(), &failures(0.01, 0.0)).unwrap();
        assert_eq!(chain, expected);
        let (start, end) = (
            AugmentedState::Flow(StateId::Start),
            AugmentedState::Flow(StateId::End),
        );
        assert_eq!(
            structure_fingerprint(&chain, &start, &end),
            structure_fingerprint(&expected, &start, &end)
        );
        assert_eq!(chain.len(), 5);
    }

    #[test]
    fn unbound_parameter_is_reported() {
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", vec![]))
            .transition(StateId::Start, "1", Expr::param("q"))
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let svc = CompositeService::new("svc", vec!["q".to_string()], flow).unwrap();
        let err = augmented_chain(&svc, &Bindings::new(), &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, CoreError::Expr(_)));
    }

    #[test]
    fn bad_row_sum_is_reported() {
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", vec![]))
            .transition(StateId::Start, "1", Expr::param("q"))
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let svc = CompositeService::new("svc", vec!["q".to_string()], flow).unwrap();
        let env = Bindings::new().with("q", 0.5);
        let err = augmented_chain(&svc, &env, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, CoreError::BadTransitions { .. }));
    }

    #[test]
    fn out_of_range_probability_is_reported() {
        let flow = FlowBuilder::new()
            .state(FlowState::new("1", vec![]))
            .transition(StateId::Start, "1", Expr::param("q"))
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let svc = CompositeService::new("svc", vec!["q".to_string()], flow).unwrap();
        let env = Bindings::new().with("q", 1.5);
        let err = augmented_chain(&svc, &env, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, CoreError::BadTransitions { .. }));
    }
}
