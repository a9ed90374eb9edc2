//! Differential property test for flow validation.
//!
//! [`FlowBuilder::build`] validates over the flow's index in linear time.
//! This suite pins its verdict against `string_keyed_build`, a copy of the
//! validator it replaced, which scanned every transition once per state:
//! on random flows carrying zero, one or two injected defects, both must
//! accept the same flows and report the same first defect with the same
//! message.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use archrel_expr::Expr;
use archrel_model::{CompletionModel, FlowBuilder, FlowState, ModelError, ServiceCall, StateId};
use proptest::arbitrary::any;
use proptest::prelude::*;

/// The flow validator as it was before flows carried an index.
fn string_keyed_build(
    states: &[FlowState],
    transitions: &[(StateId, StateId, Expr)],
) -> Result<(), ModelError> {
    let malformed = |reason: String| ModelError::MalformedFlow {
        service: "<unattached flow>".to_string(),
        reason,
    };

    let mut seen = BTreeSet::new();
    for s in states {
        match &s.id {
            StateId::Named(_) => {}
            other => {
                return Err(malformed(format!(
                    "state `{other}` is reserved and cannot carry calls"
                )))
            }
        }
        if !seen.insert(s.id.clone()) {
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

    let known = |id: &StateId| match id {
        StateId::Start | StateId::End => true,
        named => seen.contains(named),
    };
    for (from, to, p) in transitions {
        if !known(from) {
            return Err(malformed(format!("transition from unknown state `{from}`")));
        }
        if !known(to) {
            return Err(malformed(format!("transition to unknown state `{to}`")));
        }
        if *from == StateId::End {
            return Err(malformed(
                "End state has an outgoing transition".to_string(),
            ));
        }
        if *to == StateId::Start {
            return Err(malformed(
                "Start state has an incoming transition".to_string(),
            ));
        }
        if let Some(p) = p.as_const() {
            if !(0.0..=1.0).contains(&p) {
                return Err(malformed(format!(
                    "constant transition probability {p} on `{from}` -> `{to}`"
                )));
            }
        }
    }

    let mut has_outgoing: BTreeMap<StateId, bool> = BTreeMap::new();
    has_outgoing.insert(StateId::Start, false);
    for s in states {
        has_outgoing.insert(s.id.clone(), false);
    }
    for (from, _, _) in transitions {
        if let Some(flag) = has_outgoing.get_mut(from) {
            *flag = true;
        }
    }
    for (id, emitted) in &has_outgoing {
        if !emitted {
            return Err(malformed(format!(
                "state `{id}` has no outgoing transition"
            )));
        }
    }

    for id in has_outgoing.keys() {
        let outgoing: Vec<&Expr> = transitions
            .iter()
            .filter(|(from, _, _)| from == id)
            .map(|(_, _, p)| p)
            .collect();
        let consts: Vec<f64> = outgoing.iter().filter_map(|p| p.as_const()).collect();
        if consts.len() == outgoing.len() {
            let sum: f64 = consts.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(malformed(format!(
                    "outgoing probabilities of `{id}` sum to {sum}"
                )));
            }
        }
    }

    let mut reached: BTreeSet<StateId> = BTreeSet::new();
    let mut queue = VecDeque::from([StateId::Start]);
    reached.insert(StateId::Start);
    while let Some(v) = queue.pop_front() {
        for (_, to, _) in transitions.iter().filter(|(from, _, _)| *from == v) {
            if reached.insert(to.clone()) {
                queue.push_back(to.clone());
            }
        }
    }
    if !reached.contains(&StateId::End) {
        return Err(malformed("End is unreachable from Start".to_string()));
    }
    Ok(())
}

/// SplitMix64: the random flows are a pure function of one seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random flow (a forward chain of states with random extra edges, names
/// out of `StateId` order) with up to two injected defects.
fn random_flow(seed: u64) -> (Vec<FlowState>, Vec<(StateId, StateId, Expr)>) {
    let mut g = Gen(seed);
    let n = 1 + g.below(8);
    let mut names: Vec<StateId> = (0..n)
        .map(|_| StateId::named(format!("s{}", g.below(16))))
        .collect();
    names.sort();
    names.dedup();
    for i in (1..names.len()).rev() {
        names.swap(i, g.below(i + 1));
    }
    let n = names.len();
    let call = || ServiceCall::new("cpu").with_param("n", Expr::num(1.0));
    let mut states: Vec<FlowState> = names
        .iter()
        .map(|id| FlowState::new(id.clone(), vec![call(), call()]))
        .collect();
    let mut transitions = Vec::new();
    for source in 0..=n {
        let from = if source == 0 {
            StateId::Start
        } else {
            names[source - 1].clone()
        };
        let forward = match source + g.below(n + 1 - source) {
            k if k >= n => StateId::End,
            k => names[k].clone(),
        };
        if g.below(3) == 0 {
            let extra = match g.below(n + 1) {
                k if k == n => StateId::End,
                k => names[k].clone(),
            };
            transitions.push((from.clone(), forward, Expr::num(0.25)));
            transitions.push((from.clone(), extra, Expr::num(0.75)));
        } else if g.below(4) == 0 {
            transitions.push((from.clone(), forward, Expr::param("q")));
        } else {
            transitions.push((from.clone(), forward, Expr::one()));
        }
    }

    for _ in 0..g.below(3) {
        let some_state = |g: &mut Gen| names[g.below(n)].clone();
        let t = g.below(transitions.len());
        match g.below(11) {
            0 => {
                let reserved = if g.below(2) == 0 {
                    StateId::Start
                } else {
                    StateId::End
                };
                let at = g.below(states.len() + 1);
                states.insert(at, FlowState::new(reserved, vec![]));
            }
            1 => {
                let copy = states[g.below(states.len())].clone();
                let at = g.below(states.len() + 1);
                states.insert(at, copy);
            }
            2 => {
                let i = g.below(states.len());
                let k = if g.below(2) == 0 { 0 } else { 3 };
                states[i].completion = CompletionModel::KOutOfN { k };
            }
            3 => transitions[t].0 = StateId::named("ghost"),
            4 => transitions[t].1 = StateId::named("ghost"),
            5 => transitions.push((StateId::End, some_state(&mut g), Expr::one())),
            6 => transitions.push((some_state(&mut g), StateId::Start, Expr::one())),
            7 => transitions[t].2 = Expr::num(if g.below(2) == 0 { 1.5 } else { -0.25 }),
            8 => {
                let victim = some_state(&mut g);
                transitions.retain(|(from, _, _)| *from != victim);
            }
            9 => transitions[t].2 = Expr::num(0.5),
            _ => {
                for tr in transitions.iter_mut().filter(|tr| tr.1 == StateId::End) {
                    tr.1 = tr.0.clone();
                }
            }
        }
    }
    (states, transitions)
}

fn build(states: &[FlowState], transitions: &[(StateId, StateId, Expr)]) -> Result<(), ModelError> {
    let mut builder = FlowBuilder::new();
    for s in states {
        builder = builder.state(s.clone());
    }
    for (from, to, p) in transitions {
        builder = builder.transition(from.clone(), to.clone(), p.clone());
    }
    builder.build().map(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn indexed_validation_reports_the_same_first_defect(seed in any::<u64>()) {
        let (states, transitions) = random_flow(seed);
        let indexed = build(&states, &transitions);
        let reference = string_keyed_build(&states, &transitions);
        prop_assert_eq!(format!("{indexed:?}"), format!("{reference:?}"));
    }
}

/// The generator reaches a valid flow and every defect the validator
/// reports.
#[test]
fn random_flows_cover_every_defect() {
    let mut messages = BTreeSet::new();
    for seed in 0..2048u64 {
        let (states, transitions) = random_flow(seed);
        let verdict = match string_keyed_build(&states, &transitions) {
            Ok(()) => "ok".to_string(),
            Err(ModelError::InvalidKOutOfN { .. }) => "k-out-of-n".to_string(),
            // The message without its state names and numbers.
            Err(ModelError::MalformedFlow { reason, .. }) => reason
                .split('`')
                .step_by(2)
                .flat_map(str::chars)
                .filter(|c| c.is_alphabetic() || *c == ' ')
                .collect(),
            Err(other) => panic!("unexpected error {other:?}"),
        };
        messages.insert(verdict);
    }
    assert_eq!(messages.len(), 12, "covered verdicts: {messages:?}");
}
