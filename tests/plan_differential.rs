//! Compiled-plan ↔ dense differential suite.
//!
//! A compiled evaluation plan (`markov::SolvePlan`) must be
//! indistinguishable, to the user, from the dense fundamental-matrix solve
//! it replaces. The properties pin that down:
//!
//! 1. on randomly generated absorbing DTMCs — with self-loops, cycles,
//!    dangling states (implicitly absorbing), and multiple absorbing
//!    states — a plan compiles exactly when the transient graph is acyclic
//!    up to self-loops, and then agrees with a fresh dense solve to 1e-10;
//! 2. degenerate cases behave like the direct solvers: a perturbation that
//!    drives a transition to 0 or 1 changes the structure (the plan refuses
//!    the stale shape and a recompile agrees with dense), a Start → End
//!    chain predicts certain success, and an unreachable End errors
//!    identically to the dense route.

use archrel::core::{EvalOptions, Evaluator, SolverPolicy};
use archrel::markov::{
    absorption_probability_to, structure_fingerprint, Dtmc, DtmcBuilder, SolvePlan,
};
use proptest::prelude::*;

const END: u32 = 1000;
const FAIL: u32 = 1001;

/// Specification of one random transient state's outgoing row (same shape
/// as the dense ↔ sparse suite in `solver_differential.rs`).
#[derive(Debug, Clone)]
struct RowSpec {
    /// Fraction of the row leaking straight to absorbing states.
    leak: f64,
    /// Share of the leak going to `end` (kept ≥ 0.01 of the row, so `end`
    /// stays reachable from every transient state).
    end_share: f64,
    /// Weight of the self-loop.
    self_weight: f64,
    /// Weights of transitions to other transient states (target picked by
    /// index modulo the state count, or modulo the later states when the
    /// chain is generated acyclic).
    targets: Vec<(usize, f64)>,
    /// Whether this state also feeds a dangling (implicitly absorbing)
    /// state.
    dangling: bool,
}

fn row_spec() -> impl Strategy<Value = RowSpec> {
    (
        0.05..0.9f64,
        0.2..1.0f64,
        0.0..1.0f64,
        proptest::collection::vec((0usize..32, 0.01..1.0f64), 1..4),
        proptest::bool::ANY,
    )
        .prop_map(
            |(leak, end_share, self_weight, targets, dangling)| RowSpec {
                leak,
                end_share,
                self_weight,
                targets,
                dangling,
            },
        )
}

/// Expands specs into explicit merged rows over transient states `0..n`
/// plus absorbing `END`, `FAIL`, and per-state dangling sinks (2000 + i).
/// With `forward_only`, transient targets lie after their source, so the
/// transient graph is acyclic up to self-loops.
fn rows_from_specs(specs: &[RowSpec], forward_only: bool) -> Vec<Vec<(u32, f64)>> {
    let n = specs.len();
    let mut rows = Vec::with_capacity(n);
    for (i, spec) in specs.iter().enumerate() {
        let mut row: Vec<(u32, f64)> = Vec::new();
        let end_p = spec.leak * spec.end_share.max(0.01 / spec.leak);
        let fail_p = spec.leak - end_p;
        row.push((END, end_p));
        if fail_p > 0.0 {
            row.push((FAIL, fail_p));
        }
        let mut weights: Vec<(u32, f64)> = vec![(i as u32, spec.self_weight)];
        for &(raw, w) in &spec.targets {
            let target = if forward_only {
                if i + 1 == n {
                    continue;
                }
                i + 1 + raw % (n - i - 1)
            } else {
                raw % n
            };
            weights.push((target as u32, w));
        }
        if spec.dangling {
            weights.push((2000 + i as u32, 0.05));
        }
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let body = 1.0 - spec.leak;
        for (t, w) in weights {
            if w > 0.0 {
                row.push((t, body * w / total));
            }
        }
        // Merge duplicate targets (a spec target may collide with the
        // self-loop index).
        row.sort_by_key(|&(t, _)| t);
        let mut merged: Vec<(u32, f64)> = Vec::new();
        for (t, p) in row {
            match merged.last_mut() {
                Some((lt, lp)) if *lt == t => *lp += p,
                _ => merged.push((t, p)),
            }
        }
        rows.push(merged);
    }
    rows
}

fn chain_from_rows(rows: &[Vec<(u32, f64)>]) -> Dtmc<u32> {
    let mut b = DtmcBuilder::new();
    for (i, row) in rows.iter().enumerate() {
        for &(t, p) in row {
            b = b.transition(i as u32, t, p);
        }
    }
    b.state(END).state(FAIL).build().expect("rows sum to one")
}

/// Whether the transient graph of `rows` (states `0..rows.len()`) has a
/// cycle other than a self-loop.
fn has_cycle(rows: &[Vec<(u32, f64)>]) -> bool {
    let n = rows.len();
    // 0 = unvisited, 1 = on the DFS stack, 2 = done.
    fn visit(k: usize, rows: &[Vec<(u32, f64)>], mark: &mut [u8]) -> bool {
        mark[k] = 1;
        for &(t, _) in &rows[k] {
            let t = t as usize;
            if t >= rows.len() || t == k {
                continue;
            }
            if mark[t] == 1 || (mark[t] == 0 && visit(t, rows, mark)) {
                return true;
            }
        }
        mark[k] = 2;
        false
    }
    let mut mark = vec![0u8; n];
    (0..n).any(|k| mark[k] == 0 && visit(k, rows, &mut mark))
}

proptest! {
    /// Random absorbing DTMCs, cyclic or acyclic: a plan compiles exactly
    /// for the acyclic ones, and, replayed from every transient state,
    /// agrees with a fresh dense fundamental-matrix solve to 1e-10.
    #[test]
    fn compiled_plan_agrees_with_dense_on_random_chains(
        specs in proptest::collection::vec(row_spec(), 2..10),
        forward_only in proptest::bool::ANY,
    ) {
        let rows = rows_from_specs(&specs, forward_only);
        let chain = chain_from_rows(&rows);
        let cyclic = has_cycle(&rows);
        prop_assert!(!(forward_only && cyclic));
        for from in 0..specs.len() as u32 {
            let plan = SolvePlan::compile(&chain, &from, &END).unwrap();
            prop_assert_eq!(plan.is_none(), cyclic, "from {}", from);
            let Some(plan) = plan else { continue };
            let params = plan.parameters(&chain).unwrap();
            let compiled = plan.evaluate(&params).unwrap();
            let dense = absorption_probability_to(&chain, &from, &END).unwrap();
            prop_assert!(
                (dense - compiled).abs() < 1e-10,
                "from {}: dense {} vs compiled {}",
                from, dense, compiled
            );
        }
    }
}

/// A perturbation that drives a transition to 0 removes the edge, so the
/// structure fingerprint changes, the stale plan refuses the new chain's
/// shape, and a recompiled plan agrees with dense.
#[test]
fn perturbation_to_zero_changes_structure_and_recompiles() {
    let chain = |p_fail: f64| {
        let mut b = DtmcBuilder::new()
            .transition(0u32, 1u32, 0.6)
            .transition(0u32, END, 0.4)
            .transition(1u32, 1u32, 0.5)
            .transition(1u32, END, 0.5 - p_fail);
        if p_fail > 0.0 {
            b = b.transition(1u32, FAIL, p_fail);
        }
        b.state(FAIL).build().unwrap()
    };
    let baseline = chain(0.25);
    let degenerate = chain(0.0);
    assert_ne!(
        structure_fingerprint(&baseline, &0u32, &END),
        structure_fingerprint(&degenerate, &0u32, &END)
    );
    let stale = SolvePlan::compile(&baseline, &0u32, &END).unwrap().unwrap();
    // The stale plan refuses the degenerate chain's shape instead of
    // silently misreading it.
    assert!(stale.parameters(&degenerate).is_err());
    // A recompile (what the structure-keyed cache does on the new
    // fingerprint) agrees with dense — here certain success.
    let fresh = SolvePlan::compile(&degenerate, &0u32, &END)
        .unwrap()
        .unwrap();
    let params = fresh.parameters(&degenerate).unwrap();
    let compiled = fresh.evaluate(&params).unwrap();
    let dense = absorption_probability_to(&degenerate, &0u32, &END).unwrap();
    assert!((dense - compiled).abs() < 1e-12);
    assert!((compiled - 1.0).abs() < 1e-12);
}

/// A perturbation that drives a transition to 1 drops every sibling edge —
/// again a structure change, again caught by the shape check.
#[test]
fn perturbation_to_one_changes_structure_and_recompiles() {
    let chain = |p_end: f64| {
        let mut b = DtmcBuilder::new().transition(0u32, END, p_end);
        if p_end < 1.0 {
            b = b.transition(0u32, FAIL, 1.0 - p_end);
        }
        b.state(FAIL).build().unwrap()
    };
    let baseline = chain(0.7);
    let certain = chain(1.0);
    assert_ne!(
        structure_fingerprint(&baseline, &0u32, &END),
        structure_fingerprint(&certain, &0u32, &END)
    );
    let stale = SolvePlan::compile(&baseline, &0u32, &END).unwrap().unwrap();
    assert!(stale.parameters(&certain).is_err());
    let fresh = SolvePlan::compile(&certain, &0u32, &END).unwrap().unwrap();
    let value = fresh
        .evaluate(&fresh.parameters(&certain).unwrap())
        .unwrap();
    assert_eq!(value, 1.0);
    assert_eq!(
        value,
        absorption_probability_to(&certain, &0u32, &END).unwrap()
    );
}

/// The Start → End boundary case: a single transient step into `END` is a
/// one-step tape whose answer is exactly 1, like the dense route's.
#[test]
fn start_straight_to_end_is_certain_success() {
    let chain = DtmcBuilder::new()
        .transition(0u32, END, 1.0)
        .build()
        .unwrap();
    let plan = SolvePlan::compile(&chain, &0u32, &END).unwrap().unwrap();
    let value = plan.evaluate(&plan.parameters(&chain).unwrap()).unwrap();
    assert_eq!(value, 1.0);
    assert_eq!(
        value,
        absorption_probability_to(&chain, &0u32, &END).unwrap()
    );
}

/// An unreachable End errors identically to the dense solver — and through
/// the core evaluator every policy folds that into Pfail = 1.
#[test]
fn unreachable_end_errors_like_the_dense_solver() {
    // State 0 drains into FAIL only; END exists but cannot be reached.
    let chain = DtmcBuilder::new()
        .transition(0u32, FAIL, 1.0)
        .state(END)
        .build()
        .unwrap();
    let dense_err = absorption_probability_to(&chain, &0u32, &END).unwrap_err();
    let plan_err = SolvePlan::compile(&chain, &0u32, &END).unwrap_err();
    assert_eq!(dense_err.to_string(), plan_err.to_string());

    // End-to-end: a flow whose states always fail predicts Pfail = 1 under
    // every policy.
    use archrel::expr::Expr;
    use archrel::model::{
        catalog, AssemblyBuilder, CompositeService, FlowBuilder, FlowState, Service, ServiceCall,
        StateId,
    };
    let flow = FlowBuilder::new()
        .state(FlowState::new(
            "doomed",
            vec![ServiceCall::new("broken").with_param("x", Expr::one())],
        ))
        .transition(StateId::Start, "doomed", Expr::one())
        .transition("doomed", StateId::End, Expr::one())
        .build()
        .unwrap();
    let assembly = AssemblyBuilder::new()
        .service(catalog::blackbox_service("broken", "x", 1.0))
        .service(Service::Composite(
            CompositeService::new("app", vec![], flow).unwrap(),
        ))
        .build()
        .unwrap();
    for policy in [
        SolverPolicy::Auto,
        SolverPolicy::Dense,
        SolverPolicy::Sparse,
    ] {
        let p = Evaluator::with_options(
            &assembly,
            EvalOptions {
                solver: policy,
                ..EvalOptions::default()
            },
        )
        .failure_probability(&"app".into(), &archrel::expr::Bindings::new())
        .unwrap();
        assert_eq!(p.value(), 1.0, "{policy:?}");
    }
}
