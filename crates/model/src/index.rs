//! The interned, indexed layout of a [`Flow`](crate::Flow), built once by
//! [`FlowBuilder::build`](crate::FlowBuilder::build).

use std::collections::HashMap;

use crate::flow::{CompletionModel, FlowState, StateId, Transition};
use crate::{ModelError, Result};

/// Dense, interned layout of a flow's structure.
///
/// Every state of a flow gets a dense `u32` id: [`FlowIndex::START`] is 0,
/// [`FlowIndex::END`] is 1, and the named state declared at position `i`
/// is `i + 2` ([`FlowIndex::named_id`]). Over those ids the index holds
/// flat arrays:
///
/// - the endpoint ids of each transition ([`FlowIndex::endpoints`]);
/// - the transitions leaving each state, grouped into CSR rows, in
///   declaration order inside each row ([`FlowIndex::row`]);
/// - the ids in [`StateId`] order, the inverse of each state's sort rank
///   ([`FlowIndex::sorted`]): `Start < End <` named states by string, so
///   `s10 < s2`;
/// - the merged edges: parallel transitions collapsed onto one
///   `(from, to)` edge, listed in `(from, to)` [`StateId`] order, each with
///   its transitions in declaration order ([`FlowIndex::edge`],
///   [`FlowIndex::edge_transitions`]).
///
/// A flow's structure cannot change after it is built, so every lowering
/// (the augmented chain, staged sweeps, assembly programs) reads these
/// arrays instead of re-deriving them from `StateId` strings.
#[derive(Debug)]
pub struct FlowIndex {
    /// Source id of each transition.
    from: Box<[u32]>,
    /// Target id of each transition.
    to: Box<[u32]>,
    /// CSR offsets into `row_trans`, one row per id plus the end offset.
    row_start: Box<[u32]>,
    /// Transition indices grouped by source id, declaration order per row.
    row_trans: Box<[u32]>,
    /// Every id, in `StateId` order.
    sorted: Box<[u32]>,
    /// Offsets into `edge_trans`, one per merged edge plus the end offset.
    edge_start: Box<[u32]>,
    /// Transition indices grouped by merged edge, declaration order per edge.
    edge_trans: Box<[u32]>,
}

impl FlowIndex {
    /// Dense id of `Start`.
    pub const START: u32 = 0;
    /// Dense id of `End`.
    pub const END: u32 = 1;

    /// Dense id of the named state declared at position `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i + 2` does not fit a `u32`; no built flow has such a
    /// state.
    pub fn named_id(i: usize) -> u32 {
        dense(i + 2)
    }

    /// Declaration position of a named state's id; `None` for `Start` and
    /// `End`.
    pub fn named_position(id: u32) -> Option<usize> {
        (id >= 2).then(|| id as usize - 2)
    }

    /// Number of dense ids: the named states plus `Start` and `End`.
    pub fn id_count(&self) -> usize {
        self.sorted.len()
    }

    /// `(from, to)` ids of transition `t`.
    pub fn endpoints(&self, t: usize) -> (u32, u32) {
        (self.from[t], self.to[t])
    }

    /// Indices of the transitions leaving `id`, in declaration order.
    pub fn row(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.row_trans[self.row_start[id] as usize..self.row_start[id + 1] as usize]
    }

    /// Every id in [`StateId`] order: `Start`, `End`, then the named
    /// states by name.
    pub fn sorted(&self) -> &[u32] {
        &self.sorted
    }

    /// Number of merged edges.
    pub fn edge_count(&self) -> usize {
        self.edge_start.len() - 1
    }

    /// `(from, to)` ids of merged edge `e`.
    pub fn edge(&self, e: usize) -> (u32, u32) {
        self.endpoints(self.edge_transitions(e)[0] as usize)
    }

    /// Indices of the transitions merged into edge `e`, in declaration
    /// order (the order their probabilities accumulate in).
    pub fn edge_transitions(&self, e: usize) -> &[u32] {
        &self.edge_trans[self.edge_start[e] as usize..self.edge_start[e + 1] as usize]
    }

    /// Validates a flow's states and transitions and builds their index, in
    /// O(states + transitions) apart from sorting the state names.
    ///
    /// Checks run in the order [`crate::FlowBuilder::build`] documents, so
    /// the first defect is reported: states in declaration order, then
    /// transitions in declaration order, then outgoing coverage and
    /// constant row sums in [`StateId`] order, then reachability of `End`.
    pub(crate) fn new(states: &[FlowState], transitions: &[Transition]) -> Result<FlowIndex> {
        let malformed = |reason: String| ModelError::MalformedFlow {
            service: "<unattached flow>".to_string(),
            reason,
        };
        if u32::try_from(states.len() + 2).is_err() || u32::try_from(transitions.len()).is_err() {
            return Err(malformed(format!(
                "{} states and {} transitions exceed the flow index",
                states.len(),
                transitions.len()
            )));
        }

        let mut ids: HashMap<&StateId, u32> = HashMap::with_capacity(states.len());
        for (i, s) in states.iter().enumerate() {
            if !matches!(s.id, StateId::Named(_)) {
                return Err(malformed(format!(
                    "state `{}` is reserved and cannot carry calls",
                    s.id
                )));
            }
            if ids.insert(&s.id, FlowIndex::named_id(i)).is_some() {
                return Err(malformed(format!("duplicate state `{}`", s.id)));
            }
            if let CompletionModel::KOutOfN { k } = s.completion {
                if k == 0 || k > s.calls.len() {
                    return Err(ModelError::InvalidKOutOfN {
                        k,
                        n: s.calls.len(),
                    });
                }
            }
        }

        let id_of = |id: &StateId| match id {
            StateId::Start => Some(FlowIndex::START),
            StateId::End => Some(FlowIndex::END),
            named => ids.get(named).copied(),
        };
        let mut from = Vec::with_capacity(transitions.len());
        let mut to = Vec::with_capacity(transitions.len());
        for t in transitions {
            let Some(f) = id_of(&t.from) else {
                return Err(malformed(format!(
                    "transition from unknown state `{}`",
                    t.from
                )));
            };
            let Some(d) = id_of(&t.to) else {
                return Err(malformed(format!("transition to unknown state `{}`", t.to)));
            };
            if f == FlowIndex::END {
                return Err(malformed(
                    "End state has an outgoing transition".to_string(),
                ));
            }
            if d == FlowIndex::START {
                return Err(malformed(
                    "Start state has an incoming transition".to_string(),
                ));
            }
            if let Some(p) = t.probability.as_const() {
                if !(0.0..=1.0).contains(&p) {
                    return Err(malformed(format!(
                        "constant transition probability {p} on `{}` -> `{}`",
                        t.from, t.to
                    )));
                }
            }
            from.push(f);
            to.push(d);
        }

        let n = states.len() + 2;
        let mut row_start = vec![0u32; n + 1];
        for &f in &from {
            row_start[f as usize + 1] += 1;
        }
        for i in 0..n {
            row_start[i + 1] += row_start[i];
        }
        let mut fill: Vec<u32> = row_start[..n].to_vec();
        let mut row_trans = vec![0u32; transitions.len()];
        for (t, &f) in from.iter().enumerate() {
            row_trans[fill[f as usize] as usize] = dense(t);
            fill[f as usize] += 1;
        }
        let row = |id: u32| {
            &row_trans[row_start[id as usize] as usize..row_start[id as usize + 1] as usize]
        };
        let name = |id: u32| state_id(states, id);

        let mut sorted: Vec<u32> = (0..n).map(dense).collect();
        sorted[2..].sort_unstable_by(|&a, &b| name(a).cmp(name(b)));

        // `Start` and every named state must emit (in `StateId` order).
        for &id in &sorted {
            if id != FlowIndex::END && row(id).is_empty() {
                return Err(malformed(format!(
                    "state `{}` has no outgoing transition",
                    name(id)
                )));
            }
        }
        // Constant-only rows must sum to one.
        for &id in &sorted {
            let outgoing = row(id);
            let constant = |&t: &u32| transitions[t as usize].probability.as_const();
            if id != FlowIndex::END && outgoing.iter().all(|t| constant(t).is_some()) {
                let sum: f64 = outgoing.iter().filter_map(constant).sum();
                if (sum - 1.0).abs() > 1e-9 {
                    return Err(malformed(format!(
                        "outgoing probabilities of `{}` sum to {sum}",
                        name(id)
                    )));
                }
            }
        }
        // End reachable from Start (ignoring probabilities).
        let mut reached = vec![false; n];
        reached[FlowIndex::START as usize] = true;
        let mut stack = vec![FlowIndex::START];
        while let Some(v) = stack.pop() {
            for &t in row(v) {
                let w = to[t as usize];
                if !reached[w as usize] {
                    reached[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        if !reached[FlowIndex::END as usize] {
            return Err(malformed("End is unreachable from Start".to_string()));
        }

        // Merged edges: each row in `StateId` order, its transitions
        // stably sorted by target rank, equal targets grouped.
        let mut rank = vec![0u32; n];
        for (r, &id) in sorted.iter().enumerate() {
            rank[id as usize] = dense(r);
        }
        let mut edge_trans: Vec<u32> = Vec::with_capacity(transitions.len());
        let mut edge_start: Vec<u32> = Vec::new();
        for &id in &sorted {
            let begin = edge_trans.len();
            edge_trans.extend_from_slice(row(id));
            edge_trans[begin..].sort_by_key(|&t| rank[to[t as usize] as usize]);
            for k in begin..edge_trans.len() {
                if k == begin || to[edge_trans[k - 1] as usize] != to[edge_trans[k] as usize] {
                    edge_start.push(dense(k));
                }
            }
        }
        edge_start.push(dense(edge_trans.len()));

        Ok(FlowIndex {
            from: from.into_boxed_slice(),
            to: to.into_boxed_slice(),
            row_start: row_start.into_boxed_slice(),
            row_trans: row_trans.into_boxed_slice(),
            sorted: sorted.into_boxed_slice(),
            edge_start: edge_start.into_boxed_slice(),
            edge_trans: edge_trans.into_boxed_slice(),
        })
    }
}

/// A size or offset known to fit the index's `u32` ids.
fn dense(i: usize) -> u32 {
    u32::try_from(i).expect("flow sizes are checked against u32 before indexing")
}

/// The [`StateId`] behind a dense id of `states`' flow.
pub(crate) fn state_id(states: &[FlowState], id: u32) -> &StateId {
    static START: StateId = StateId::Start;
    static END: StateId = StateId::End;
    match FlowIndex::named_position(id) {
        Some(i) => &states[i].id,
        None if id == FlowIndex::START => &START,
        None => &END,
    }
}

#[cfg(test)]
mod tests {
    use archrel_expr::Expr;

    use crate::{FlowBuilder, FlowIndex, FlowState, StateId};

    const START: u32 = FlowIndex::START;
    const END: u32 = FlowIndex::END;

    /// Names out of string order (`s10 < s2`), a pair of parallel edges
    /// and a self-loop.
    #[test]
    fn layout_follows_state_id_order() {
        let flow = FlowBuilder::new()
            .state(FlowState::new("s2", vec![]))
            .state(FlowState::new("s10", vec![]))
            .transition(StateId::Start, "s2", Expr::one())
            .transition("s2", "s10", Expr::num(0.25))
            .transition("s2", StateId::End, Expr::num(0.5))
            .transition("s2", "s10", Expr::num(0.25))
            .transition("s10", "s10", Expr::num(0.5))
            .transition("s10", StateId::End, Expr::num(0.5))
            .build()
            .unwrap();
        let index = flow.index();
        let (s2, s10) = (FlowIndex::named_id(0), FlowIndex::named_id(1));
        assert_eq!(index.sorted(), &[START, END, s10, s2]);
        assert_eq!(index.row(s2), &[1, 2, 3]);
        assert_eq!(index.row(END), &[] as &[u32]);
        assert_eq!(index.endpoints(4), (s10, s10));
        let edges: Vec<_> = (0..index.edge_count())
            .map(|e| (index.edge(e), index.edge_transitions(e).to_vec()))
            .collect();
        assert_eq!(
            edges,
            vec![
                ((START, s2), vec![0]),
                ((s10, END), vec![5]),
                ((s10, s10), vec![4]),
                ((s2, END), vec![2]),
                ((s2, s10), vec![1, 3]),
            ]
        );
        assert_eq!(FlowIndex::named_position(s10), Some(1));
        assert_eq!(FlowIndex::named_position(END), None);
    }
}
