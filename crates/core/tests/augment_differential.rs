//! Differential property test for the failure-augmented chain.
//!
//! [`augmented_chain`] builds its chain from the flow's interned
//! [`archrel_model::FlowIndex`]. This suite pins it against
//! `string_keyed_chain`, a copy of the construction it replaced, which
//! re-derives the same layout from `StateId` strings with `BTreeMap`s on
//! every call. On random flows both must give the same labels in the same
//! order, the same rows bitwise, the same [`structure_fingerprint`], or
//! the same error.
//!
//! The random flows mix names whose string order differs from their
//! declaration order (`s10 < s2`), parallel and zero-probability edges,
//! self-loops, parametric rows, and states that never fail. The binding
//! of the rows' parameter sometimes leaves `[0, 1]`, breaks a row sum, or
//! is missing, so every error path is compared too.

use std::collections::{BTreeMap, BTreeSet};

use archrel_core::{augmented_chain, AugmentedState, CoreError};
use archrel_expr::{Bindings, Expr};
use archrel_markov::{structure_fingerprint, Dtmc, DtmcBuilder};
use archrel_model::{CompositeService, FlowBuilder, FlowState, Probability, StateId};
use proptest::arbitrary::any;
use proptest::prelude::*;

/// The augmented chain as it was built before flows carried an index:
/// every layout decision re-derived from `StateId` strings.
fn string_keyed_chain(
    service: &CompositeService,
    env: &Bindings,
    state_failures: &BTreeMap<StateId, Probability>,
) -> Result<Dtmc<AugmentedState>, CoreError> {
    let flow = service.flow();
    let mut evaluated: Vec<(StateId, StateId, f64)> = Vec::new();
    let mut row_sums: BTreeMap<StateId, f64> = BTreeMap::new();
    for t in flow.transitions() {
        let p = t.probability.eval(env)?;
        if !(0.0..=1.0 + 1e-9).contains(&p) {
            return Err(CoreError::BadTransitions {
                service: service.id().to_string(),
                state: t.from.to_string(),
                sum: p,
            });
        }
        *row_sums.entry(t.from.clone()).or_insert(0.0) += p;
        evaluated.push((t.from.clone(), t.to.clone(), p));
    }
    for (state, sum) in &row_sums {
        if (sum - 1.0).abs() > 1e-9 {
            return Err(CoreError::BadTransitions {
                service: service.id().to_string(),
                state: state.to_string(),
                sum: *sum,
            });
        }
    }
    let mut builder = DtmcBuilder::new()
        .state(AugmentedState::Flow(StateId::End))
        .state(AugmentedState::Fail);
    let mut merged: BTreeMap<(StateId, StateId), f64> = BTreeMap::new();
    for (from, to, p) in evaluated {
        *merged.entry((from, to)).or_insert(0.0) += p;
    }
    for ((from, to), p) in merged {
        let failure = match &from {
            StateId::Start => Probability::ZERO,
            named => state_failures
                .get(named)
                .copied()
                .unwrap_or(Probability::ZERO),
        };
        let scaled = p * failure.complement().value();
        builder = builder.transition(AugmentedState::Flow(from), AugmentedState::Flow(to), scaled);
    }
    for (state, failure) in state_failures {
        if failure.is_zero() {
            continue;
        }
        builder = builder.transition(
            AugmentedState::Flow(state.clone()),
            AugmentedState::Fail,
            failure.value(),
        );
    }
    Ok(builder.build()?)
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

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// What one random case exercises, for the generator's own check.
#[derive(Default)]
struct Features {
    name_order_differs: bool,
    parallel_edge: bool,
    zero_edge: bool,
    self_loop: bool,
    parametric_row: bool,
    zero_failure_state: bool,
}

/// One random flow, its failure map, and a binding of its parameter `q`.
fn random_case(
    seed: u64,
) -> (
    CompositeService,
    BTreeMap<StateId, Probability>,
    Bindings,
    Features,
) {
    let mut g = Gen(seed);
    let mut features = Features::default();
    let n = 1 + g.below(10);
    let mut numbers = BTreeSet::new();
    while numbers.len() < n {
        numbers.insert(g.below(24));
    }
    let mut names: Vec<StateId> = numbers
        .into_iter()
        .map(|k| StateId::named(format!("s{k}")))
        .collect();
    // Declare in a random order, so declaration and `StateId` order differ.
    for i in (1..names.len()).rev() {
        names.swap(i, g.below(i + 1));
    }
    features.name_order_differs = names.windows(2).any(|w| w[0] > w[1]);

    let q = || Expr::param("q");
    let mut flow = FlowBuilder::new();
    for name in &names {
        flow = flow.state(FlowState::new(name.clone(), vec![]));
    }
    // Row sources: `Start`, then every state. Each row has one forward
    // target (`End` or a later state), so `End` stays reachable.
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
        let any_target = |g: &mut Gen| match g.below(n + 1) {
            k if k == n => StateId::End,
            k => names[k].clone(),
        };
        let mut targets = vec![forward];
        for _ in 0..g.below(3) {
            targets.push(any_target(&mut g));
        }
        let mut row: Vec<(StateId, Expr)> = if g.chance(0.3) {
            features.parametric_row = true;
            let second = targets[g.below(targets.len())].clone();
            let mut row = vec![(targets[0].clone(), q())];
            if g.chance(0.1) {
                // Sums to one only when q = 0.5.
                row.push((second, Expr::num(0.5)));
            } else {
                row.push((second, Expr::one() - q()));
            }
            row
        } else {
            let weights: Vec<f64> = targets.iter().map(|_| 0.1 + g.unit()).collect();
            let total: f64 = weights.iter().sum();
            targets
                .iter()
                .zip(&weights)
                .map(|(t, w)| (t.clone(), Expr::num(w / total)))
                .collect()
        };
        if g.chance(0.25) {
            row.push((any_target(&mut g), Expr::num(0.0)));
            features.zero_edge = true;
        }
        let mut seen = BTreeSet::new();
        for (to, p) in row {
            if to == from {
                features.self_loop = true;
            }
            if !seen.insert(to.clone()) {
                features.parallel_edge = true;
            }
            flow = flow.transition(from.clone(), to, p);
        }
    }
    let flow = flow.build().expect("generated flows are well formed");
    let service = CompositeService::new("svc", vec!["q".to_string()], flow).unwrap();

    let mut failures = BTreeMap::new();
    for name in &names {
        let f = match g.below(10) {
            0..=2 => continue,
            3 => 0.0,
            4 => 1.0,
            _ => 0.2 * g.unit(),
        };
        features.zero_failure_state |= f == 0.0;
        failures.insert(name.clone(), Probability::new(f).unwrap());
    }
    features.zero_failure_state |= failures.len() < names.len();

    let env = match g.below(20) {
        0 => Bindings::new(),
        1 => Bindings::new().with("q", 1.5),
        2 => Bindings::new().with("q", 0.5),
        3 => Bindings::new().with("q", 0.0),
        _ => Bindings::new().with("q", g.unit()),
    };
    (service, failures, env, features)
}

fn bits(chain: &Dtmc<AugmentedState>, state: &AugmentedState) -> Vec<(AugmentedState, u64)> {
    chain
        .successors(state)
        .unwrap()
        .into_iter()
        .map(|(to, p)| (to.clone(), p.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn indexed_chain_matches_string_keyed_construction(seed in any::<u64>()) {
        let (service, failures, env, _) = random_case(seed);
        let indexed = augmented_chain(&service, &env, &failures);
        let reference = string_keyed_chain(&service, &env, &failures);
        match (indexed, reference) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.states(), b.states());
                for state in a.states() {
                    prop_assert_eq!(bits(&a, state), bits(&b, state));
                }
                let start = AugmentedState::Flow(StateId::Start);
                let end = AugmentedState::Flow(StateId::End);
                prop_assert_eq!(
                    structure_fingerprint(&a, &start, &end),
                    structure_fingerprint(&b, &start, &end)
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => prop_assert!(false, "indexed {a:?} vs string-keyed {b:?}"),
        }
    }
}

/// The generator reaches every shape the differential is meant to cover,
/// and both outcomes: chains and each kind of error.
#[test]
fn random_flows_cover_every_feature() {
    let mut covered = [0usize; 9];
    for seed in 0..512u64 {
        let (service, failures, env, f) = random_case(seed);
        let outcome = string_keyed_chain(&service, &env, &failures);
        for (slot, hit) in [
            f.name_order_differs,
            f.parallel_edge,
            f.zero_edge,
            f.self_loop,
            f.parametric_row,
            f.zero_failure_state,
            outcome.is_ok(),
            matches!(outcome, Err(CoreError::BadTransitions { .. })),
            matches!(outcome, Err(CoreError::Expr(_))),
        ]
        .into_iter()
        .enumerate()
        {
            covered[slot] += usize::from(hit);
        }
    }
    assert!(
        covered.iter().all(|&c| c > 0),
        "uncovered features: {covered:?}"
    );
}
