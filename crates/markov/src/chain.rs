use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use archrel_linalg::Matrix;

use crate::{MarkovError, Result, STOCHASTIC_TOLERANCE};

/// Trait bound for types usable as DTMC state labels.
///
/// Blanket-implemented; any cloneable, hashable, debuggable type qualifies
/// (string slices, enums, the reliability engine's `FlowStateId`, ...).
pub trait StateLabel: Clone + Eq + Hash + fmt::Debug {}
impl<T: Clone + Eq + Hash + fmt::Debug> StateLabel for T {}

/// A validated discrete-time Markov chain over states of type `S`.
///
/// States with no declared outgoing transitions are *absorbing* (an implicit
/// probability-one self-loop), matching the paper's `End` and `Fail` states.
/// All other states must have outgoing probabilities summing to one within
/// [`STOCHASTIC_TOLERANCE`].
///
/// Construct through [`DtmcBuilder`].
///
/// # Examples
///
/// ```
/// use archrel_markov::DtmcBuilder;
///
/// # fn main() -> Result<(), archrel_markov::MarkovError> {
/// let chain = DtmcBuilder::new()
///     .transition("Start", "Work", 1.0)
///     .transition("Work", "End", 0.99)
///     .transition("Work", "Fail", 0.01)
///     .build()?;
/// assert!(chain.is_absorbing(&"End")?);
/// assert!(!chain.is_absorbing(&"Work")?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dtmc<S: StateLabel> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    /// Sparse outgoing adjacency: `adjacency[i]` lists `(target, probability)`.
    adjacency: Vec<Vec<(usize, f64)>>,
}

impl<S: StateLabel> Dtmc<S> {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the chain has no states.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// All states, in insertion order.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Index of a state, if present.
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.index.get(state).copied()
    }

    /// Index of a state, or a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::UnknownState`] when absent.
    pub fn require_index(&self, state: &S) -> Result<usize> {
        self.index_of(state)
            .ok_or_else(|| MarkovError::UnknownState {
                state: format!("{state:?}"),
            })
    }

    /// The state at a given index.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn state_at(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// Transition probability between two states (0.0 when no edge exists).
    ///
    /// Absorbing states report a probability-one self-loop.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::UnknownState`] when either state is absent.
    pub fn transition_probability(&self, from: &S, to: &S) -> Result<f64> {
        let i = self.require_index(from)?;
        let j = self.require_index(to)?;
        if self.adjacency[i].is_empty() {
            return Ok(if i == j { 1.0 } else { 0.0 });
        }
        Ok(self.adjacency[i]
            .iter()
            .find(|(t, _)| *t == j)
            .map(|(_, p)| *p)
            .unwrap_or(0.0))
    }

    /// Outgoing transitions of a state as `(target, probability)` pairs.
    ///
    /// Absorbing states yield their implicit self-loop.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::UnknownState`] when the state is absent.
    pub fn successors(&self, state: &S) -> Result<Vec<(&S, f64)>> {
        let i = self.require_index(state)?;
        if self.adjacency[i].is_empty() {
            return Ok(vec![(&self.states[i], 1.0)]);
        }
        Ok(self.adjacency[i]
            .iter()
            .map(|&(j, p)| (&self.states[j], p))
            .collect())
    }

    /// Whether a state is absorbing (no outgoing edges, or a single
    /// probability-one self-loop).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::UnknownState`] when the state is absent.
    pub fn is_absorbing(&self, state: &S) -> Result<bool> {
        let i = self.require_index(state)?;
        Ok(self.is_absorbing_index(i))
    }

    pub(crate) fn is_absorbing_index(&self, i: usize) -> bool {
        match self.adjacency[i].as_slice() {
            [] => true,
            [(j, p)] => *j == i && (*p - 1.0).abs() <= STOCHASTIC_TOLERANCE,
            _ => false,
        }
    }

    /// Indices of absorbing states.
    pub fn absorbing_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.is_absorbing_index(i))
            .collect()
    }

    /// Indices of transient (non-absorbing) states.
    pub fn transient_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| !self.is_absorbing_index(i))
            .collect()
    }

    pub(crate) fn adjacency(&self) -> &[Vec<(usize, f64)>] {
        &self.adjacency
    }

    /// Number of explicit transitions (structural non-zeros of `P`, not
    /// counting the implicit self-loops of absorbing states).
    ///
    /// Together with [`Dtmc::len`] this gives the edge density that solver
    /// dispatch heuristics key on.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// Dense transition matrix `P` with rows/columns in state insertion
    /// order; absorbing states get their self-loop made explicit.
    pub fn transition_matrix(&self) -> Matrix {
        let n = self.len();
        let mut p = Matrix::zeros(n, n);
        for i in 0..n {
            if self.adjacency[i].is_empty() {
                p.set(i, i, 1.0);
                continue;
            }
            for &(j, prob) in &self.adjacency[i] {
                p.set(i, j, p.get(i, j) + prob);
            }
        }
        p
    }

    /// Position of the explicit `from → to` edge in `from`'s adjacency row,
    /// as `(row, slot)` for [`Dtmc::set_edge_probability`].
    ///
    /// Returns `None` when either state is absent or no explicit edge exists
    /// (implicit absorbing self-loops are not explicit edges).
    pub fn edge_position(&self, from: &S, to: &S) -> Option<(usize, usize)> {
        let i = self.index_of(from)?;
        let j = self.index_of(to)?;
        let slot = self.adjacency[i].iter().position(|(t, _)| *t == j)?;
        Some((i, slot))
    }

    /// Overwrites the probability of an existing explicit edge in place,
    /// applying the same per-edge validation and clamping as
    /// [`DtmcBuilder::build`].
    ///
    /// This is the refresh entry for evaluators that re-use a validated
    /// chain structure with new numeric values (same positivity pattern).
    /// It cannot add or drop edges: a non-positive probability is rejected
    /// because the builder would have dropped that edge, changing structure.
    /// Callers should re-check row sums with [`Dtmc::validate_stochastic`]
    /// after a batch of updates.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidProbability`] when the value is not
    /// finite, outside `(0, 1 + STOCHASTIC_TOLERANCE]`, or non-positive.
    ///
    /// # Panics
    ///
    /// Panics when `row`/`slot` do not address an explicit edge (indices
    /// come from [`Dtmc::edge_position`]).
    pub fn set_edge_probability(
        &mut self,
        row: usize,
        slot: usize,
        probability: f64,
    ) -> Result<()> {
        if !probability.is_finite()
            || !(0.0..=1.0 + STOCHASTIC_TOLERANCE).contains(&probability)
            || probability <= 0.0
        {
            let target = self.adjacency[row][slot].0;
            return Err(MarkovError::InvalidProbability {
                value: probability,
                context: format!("{:?} -> {:?}", self.states[row], self.states[target]),
            });
        }
        self.adjacency[row][slot].1 = probability.min(1.0);
        Ok(())
    }

    /// Re-runs the builder's row-stochasticity validation over the current
    /// values (summing each row in slot order, exactly like
    /// [`DtmcBuilder::build`]).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotStochastic`] for the first row whose sum
    /// deviates from one by more than [`STOCHASTIC_TOLERANCE`].
    pub fn validate_stochastic(&self) -> Result<()> {
        for (i, out) in self.adjacency.iter().enumerate() {
            if out.is_empty() {
                continue; // absorbing
            }
            let sum: f64 = out.iter().map(|(_, p)| p).sum();
            if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
                return Err(MarkovError::NotStochastic {
                    state: format!("{:?}", self.states[i]),
                    sum,
                });
            }
        }
        Ok(())
    }

    /// Maps state labels through `f`, preserving the transition structure.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::DuplicateTransition`] if `f` merges two states.
    pub fn map_states<T: StateLabel>(&self, mut f: impl FnMut(&S) -> T) -> Result<Dtmc<T>> {
        let mut builder = DtmcBuilder::new();
        for (i, s) in self.states.iter().enumerate() {
            let from = f(s);
            builder = builder.state(from.clone());
            for &(j, p) in &self.adjacency[i] {
                builder = builder.transition(from.clone(), f(&self.states[j]), p);
            }
        }
        builder.build()
    }
}

/// Incremental builder for [`Dtmc`].
///
/// Accepts transitions in any order; `build` validates probabilities,
/// row-stochasticity, and duplicate edges.
#[derive(Debug, Clone, Default)]
pub struct DtmcBuilder<S: StateLabel> {
    states: Vec<S>,
    index: HashMap<S, usize>,
    edges: Vec<(usize, usize, f64)>,
}

impl<S: StateLabel> DtmcBuilder<S> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DtmcBuilder {
            states: Vec::new(),
            index: HashMap::new(),
            edges: Vec::new(),
        }
    }

    /// Creates an empty builder with room for `states` states and
    /// `transitions` transitions.
    pub fn with_capacity(states: usize, transitions: usize) -> Self {
        DtmcBuilder {
            states: Vec::with_capacity(states),
            index: HashMap::with_capacity(states),
            edges: Vec::with_capacity(transitions),
        }
    }

    fn intern(&mut self, s: S) -> usize {
        if let Some(&i) = self.index.get(&s) {
            return i;
        }
        let i = self.states.len();
        self.index.insert(s.clone(), i);
        self.states.push(s);
        i
    }

    /// Declares a state without any transitions (useful for absorbing states
    /// that no edge has mentioned yet).
    #[must_use]
    pub fn state(mut self, s: S) -> Self {
        self.intern(s);
        self
    }

    /// Adds a transition `from -> to` with the given probability.
    ///
    /// Zero-probability edges are accepted and dropped at build time, which
    /// lets callers generate transitions uniformly from parametric formulas.
    #[must_use]
    pub fn transition(mut self, from: S, to: S, probability: f64) -> Self {
        let i = self.intern(from);
        let j = self.intern(to);
        self.edges.push((i, j, probability));
        self
    }

    /// Adds a transition between two declared states addressed by their
    /// declaration order (the indices [`Dtmc::index_of`] reports once
    /// built), skipping the label lookups of [`DtmcBuilder::transition`].
    /// `build` validates it like any other transition.
    ///
    /// # Panics
    ///
    /// Panics when either index names no declared state.
    #[must_use]
    pub fn transition_by_index(mut self, from: usize, to: usize, probability: f64) -> Self {
        assert!(
            from < self.states.len() && to < self.states.len(),
            "transition between undeclared states {from} -> {to}"
        );
        self.edges.push((from, to, probability));
        self
    }

    /// Validates and builds the chain.
    ///
    /// # Errors
    ///
    /// - [`MarkovError::EmptyChain`] if no state was declared;
    /// - [`MarkovError::InvalidProbability`] for probabilities outside `[0,1]`;
    /// - [`MarkovError::DuplicateTransition`] for repeated `(from, to)` pairs;
    /// - [`MarkovError::NotStochastic`] when a state with outgoing edges does
    ///   not sum to one within [`STOCHASTIC_TOLERANCE`].
    pub fn build(self) -> Result<Dtmc<S>> {
        if self.states.is_empty() {
            return Err(MarkovError::EmptyChain);
        }
        let n = self.states.len();
        let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (i, j, p) in self.edges {
            if !p.is_finite() || !(0.0..=1.0 + STOCHASTIC_TOLERANCE).contains(&p) {
                return Err(MarkovError::InvalidProbability {
                    value: p,
                    context: format!("{:?} -> {:?}", self.states[i], self.states[j]),
                });
            }
            if p <= 0.0 {
                continue;
            }
            if adjacency[i].iter().any(|(t, _)| *t == j) {
                return Err(MarkovError::DuplicateTransition {
                    from: format!("{:?}", self.states[i]),
                    to: format!("{:?}", self.states[j]),
                });
            }
            adjacency[i].push((j, p.min(1.0)));
        }
        for (i, out) in adjacency.iter().enumerate() {
            if out.is_empty() {
                continue; // absorbing
            }
            let sum: f64 = out.iter().map(|(_, p)| p).sum();
            if (sum - 1.0).abs() > STOCHASTIC_TOLERANCE {
                return Err(MarkovError::NotStochastic {
                    state: format!("{:?}", self.states[i]),
                    sum,
                });
            }
        }
        Ok(Dtmc {
            states: self.states,
            index: self.index,
            adjacency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_chain() -> Dtmc<&'static str> {
        DtmcBuilder::new()
            .transition("a", "b", 0.5)
            .transition("a", "c", 0.5)
            .transition("b", "c", 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_interns_states_in_order() {
        let c = simple_chain();
        assert_eq!(c.states(), &["a", "b", "c"]);
        assert_eq!(c.index_of(&"b"), Some(1));
    }

    #[test]
    fn implicit_absorbing_state() {
        let c = simple_chain();
        assert!(c.is_absorbing(&"c").unwrap());
        assert_eq!(c.transition_probability(&"c", &"c").unwrap(), 1.0);
        assert_eq!(c.transition_probability(&"c", &"a").unwrap(), 0.0);
    }

    #[test]
    fn explicit_self_loop_is_absorbing() {
        let c = DtmcBuilder::new()
            .transition("x", "y", 1.0)
            .transition("y", "y", 1.0)
            .build()
            .unwrap();
        assert!(c.is_absorbing(&"y").unwrap());
    }

    #[test]
    fn partial_self_loop_is_not_absorbing() {
        let c = DtmcBuilder::new()
            .transition("x", "x", 0.5)
            .transition("x", "y", 0.5)
            .build()
            .unwrap();
        assert!(!c.is_absorbing(&"x").unwrap());
    }

    #[test]
    fn rejects_non_stochastic_rows() {
        let err = DtmcBuilder::new()
            .transition("a", "b", 0.3)
            .build()
            .unwrap_err();
        assert!(matches!(err, MarkovError::NotStochastic { .. }));
    }

    #[test]
    fn rejects_invalid_probability() {
        let err = DtmcBuilder::new()
            .transition("a", "b", 1.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, MarkovError::InvalidProbability { .. }));
        let err = DtmcBuilder::new()
            .transition("a", "b", f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(err, MarkovError::InvalidProbability { .. }));
    }

    #[test]
    fn indexed_transitions_build_the_labelled_chain() {
        let indexed = DtmcBuilder::new()
            .state("a")
            .state("b")
            .state("c")
            .transition_by_index(0, 1, 0.5)
            .transition_by_index(0, 2, 0.5)
            .transition_by_index(1, 2, 1.0)
            .build()
            .unwrap();
        assert_eq!(indexed, simple_chain());
        let err = DtmcBuilder::new()
            .state("a")
            .state("b")
            .transition_by_index(0, 1, 0.5)
            .transition_by_index(0, 1, 0.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, MarkovError::DuplicateTransition { .. }));
    }

    #[test]
    fn rejects_duplicate_edges() {
        let err = DtmcBuilder::new()
            .transition("a", "b", 0.5)
            .transition("a", "b", 0.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, MarkovError::DuplicateTransition { .. }));
    }

    #[test]
    fn zero_probability_edges_are_dropped() {
        let c = DtmcBuilder::new()
            .transition("a", "b", 1.0)
            .transition("a", "c", 0.0)
            .build()
            .unwrap();
        // "c" exists as a state but has no incoming edge.
        assert_eq!(c.len(), 3);
        assert_eq!(c.transition_probability(&"a", &"c").unwrap(), 0.0);
    }

    #[test]
    fn rejects_empty_chain() {
        let err = DtmcBuilder::<&str>::new().build().unwrap_err();
        assert!(matches!(err, MarkovError::EmptyChain));
    }

    #[test]
    fn unknown_state_error() {
        let c = simple_chain();
        assert!(matches!(
            c.transition_probability(&"zzz", &"a"),
            Err(MarkovError::UnknownState { .. })
        ));
    }

    #[test]
    fn transition_matrix_rows_sum_to_one() {
        let c = simple_chain();
        let p = c.transition_matrix();
        for i in 0..c.len() {
            let sum: f64 = p.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn successors_of_absorbing_state() {
        let c = simple_chain();
        let succ = c.successors(&"c").unwrap();
        assert_eq!(succ, vec![(&"c", 1.0)]);
    }

    #[test]
    fn map_states_preserves_structure() {
        let c = simple_chain();
        let mapped = c.map_states(|s| s.to_uppercase()).unwrap();
        assert_eq!(
            mapped
                .transition_probability(&"A".to_string(), &"B".to_string())
                .unwrap(),
            0.5
        );
    }

    #[test]
    fn map_states_detects_merges() {
        let c = simple_chain();
        let err = c.map_states(|_| "same").unwrap_err();
        assert!(matches!(err, MarkovError::DuplicateTransition { .. }));
    }

    #[test]
    fn edge_position_addresses_explicit_edges_only() {
        let c = simple_chain();
        assert_eq!(c.edge_position(&"a", &"b"), Some((0, 0)));
        assert_eq!(c.edge_position(&"a", &"c"), Some((0, 1)));
        assert_eq!(c.edge_position(&"b", &"c"), Some((1, 0)));
        // Implicit absorbing self-loop is not an explicit edge.
        assert_eq!(c.edge_position(&"c", &"c"), None);
        assert_eq!(c.edge_position(&"zzz", &"a"), None);
    }

    #[test]
    fn set_edge_probability_refreshes_in_place() {
        let mut c = simple_chain();
        let (row, slot) = c.edge_position(&"a", &"b").unwrap();
        c.set_edge_probability(row, slot, 0.25).unwrap();
        let (row, slot) = c.edge_position(&"a", &"c").unwrap();
        c.set_edge_probability(row, slot, 0.75).unwrap();
        c.validate_stochastic().unwrap();
        assert_eq!(c.transition_probability(&"a", &"b").unwrap(), 0.25);
        assert_eq!(c.transition_probability(&"a", &"c").unwrap(), 0.75);
    }

    #[test]
    fn set_edge_probability_rejects_structure_changes_and_bad_values() {
        let mut c = simple_chain();
        let (row, slot) = c.edge_position(&"a", &"b").unwrap();
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                c.set_edge_probability(row, slot, bad),
                Err(MarkovError::InvalidProbability { .. })
            ));
        }
        // Clamping mirrors the builder: 1 + ε/2 is accepted and clamped.
        c.set_edge_probability(row, slot, 1.0 + STOCHASTIC_TOLERANCE / 2.0)
            .unwrap();
        assert_eq!(c.transition_probability(&"a", &"b").unwrap(), 1.0);
    }

    #[test]
    fn validate_stochastic_flags_broken_rows() {
        let mut c = simple_chain();
        c.validate_stochastic().unwrap();
        let (row, slot) = c.edge_position(&"a", &"b").unwrap();
        c.set_edge_probability(row, slot, 0.9).unwrap();
        assert!(matches!(
            c.validate_stochastic(),
            Err(MarkovError::NotStochastic { .. })
        ));
    }

    #[test]
    fn transient_and_absorbing_partition() {
        let c = simple_chain();
        assert_eq!(c.transient_indices(), vec![0, 1]);
        assert_eq!(c.absorbing_indices(), vec![2]);
    }
}
