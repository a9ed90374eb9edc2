//! Dense ↔ sparse differential suite.
//!
//! The sparse absorbing solve (`markov::absorption_probability_sparse`) must
//! be indistinguishable, to the user, from the dense fundamental-matrix
//! route it replaces when the adaptive dispatcher picks it. Two properties
//! pin that down:
//!
//! 1. on randomly generated absorbing DTMCs — with self-loops, dangling
//!    states (implicitly absorbing), and multiple absorbing states — the
//!    two backends agree to 1e-10 (and both sparse methods agree with each
//!    other);
//! 2. batch evaluation stays bitwise-deterministic across worker counts
//!    under **every** `SolverPolicy`, so forcing the sparse path never
//!    reintroduces scheduling-dependent results.

use archrel::core::batch::{BatchEvaluator, Query};
use archrel::core::{EvalOptions, SolverPolicy};
use archrel::markov::{
    absorption_probability_sparse, absorption_probability_to, Dtmc, DtmcBuilder, SparseMethod,
    SparseSolveOptions,
};
use archrel::model::paper;
use proptest::prelude::*;

/// Specification of one random transient state's outgoing row.
#[derive(Debug, Clone)]
struct RowSpec {
    /// Fraction of the row leaking straight to absorbing states (≥ 0.05 so
    /// Gauss–Seidel always converges and no mass is trapped).
    leak: f64,
    /// Share of the leak going to `end` (≥ 0.01 of the row, so `end` stays
    /// reachable from every transient state).
    end_share: f64,
    /// Weight of the self-loop.
    self_weight: f64,
    /// Weights of transitions to other transient states (target picked by
    /// index modulo the state count).
    targets: Vec<(usize, f64)>,
    /// Whether this state also feeds a dangling state — a state with no
    /// outgoing transitions, which the chain treats as absorbing.
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

/// Builds an absorbing chain over transient states `0..n` plus absorbing
/// `end` (1000), `fail` (1001), and per-state dangling sinks (2000 + i).
fn build_chain(specs: &[RowSpec]) -> Dtmc<u32> {
    let n = specs.len();
    let end = 1000u32;
    let fail = 1001u32;
    let mut b = DtmcBuilder::new();
    for (i, spec) in specs.iter().enumerate() {
        let mut row: Vec<(u32, f64)> = Vec::new();
        let end_p = spec.leak * spec.end_share.max(0.01 / spec.leak);
        let fail_p = spec.leak - end_p;
        row.push((end, end_p));
        if fail_p > 0.0 {
            row.push((fail, fail_p));
        }
        let mut weights: Vec<(u32, f64)> = vec![(i as u32, spec.self_weight)];
        for &(raw, w) in &spec.targets {
            weights.push(((raw % n) as u32, w));
        }
        if spec.dangling {
            // A dangling sink: declared only as a target, never given an
            // outgoing row, so the chain classifies it as absorbing.
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
        for (t, p) in merged {
            b = b.transition(i as u32, t, p);
        }
    }
    b.state(end).state(fail).build().expect("rows sum to one")
}

proptest! {
    /// Random absorbing DTMCs: dense fundamental-matrix and sparse
    /// (Gauss–Seidel *and* Jacobi) `Start → end` absorption probabilities
    /// agree to 1e-10 from every transient state.
    #[test]
    fn dense_and_sparse_agree_on_random_chains(
        specs in proptest::collection::vec(row_spec(), 2..10),
    ) {
        let chain = build_chain(&specs);
        let end = 1000u32;
        for from in 0..specs.len() as u32 {
            let dense = absorption_probability_to(&chain, &from, &end).unwrap();
            for method in [SparseMethod::GaussSeidel, SparseMethod::Jacobi] {
                let sparse = absorption_probability_sparse(
                    &chain,
                    &from,
                    &end,
                    SparseSolveOptions { method, ..SparseSolveOptions::default() },
                )
                .unwrap();
                prop_assert!(
                    (dense - sparse).abs() < 1e-10,
                    "from {}: dense {} vs {:?} {}",
                    from, dense, method, sparse
                );
            }
        }
    }
}

fn paper_queries() -> (archrel::model::Assembly, Vec<Query>) {
    let assembly = paper::local_assembly(&paper::PaperParams::default()).unwrap();
    let queries = (0..24)
        .map(|i| {
            Query::new(
                paper::SEARCH,
                paper::search_bindings(2.0 + i as f64, f64::from(64 << (i % 6)), 1.0),
            )
        })
        .collect();
    (assembly, queries)
}

/// Under each `SolverPolicy`, batch results are bitwise-identical to the
/// sequential single-worker run at every worker count.
#[test]
fn batch_is_bitwise_deterministic_under_every_policy() {
    let (assembly, queries) = paper_queries();
    for policy in [
        SolverPolicy::Auto,
        SolverPolicy::Dense,
        SolverPolicy::Sparse,
    ] {
        let options = EvalOptions {
            solver: policy,
            ..EvalOptions::default()
        };
        let reference: Vec<u64> = BatchEvaluator::with_options(&assembly, options)
            .with_workers(1)
            .evaluate_all(&queries)
            .into_iter()
            .map(|r| r.unwrap().value().to_bits())
            .collect();
        for workers in [2usize, 8] {
            let got: Vec<u64> = BatchEvaluator::with_options(&assembly, options)
                .with_workers(workers)
                .evaluate_all(&queries)
                .into_iter()
                .map(|r| r.unwrap().value().to_bits())
                .collect();
            assert_eq!(reference, got, "{policy:?} with {workers} workers");
        }
    }
}

/// Dense and sparse policies agree on the paper assembly to 1e-10 (the
/// paper's flows are acyclic, so the sparse path is exact here).
#[test]
fn policies_agree_on_the_paper_assembly() {
    let (assembly, queries) = paper_queries();
    let solve = |policy| {
        BatchEvaluator::with_options(
            &assembly,
            EvalOptions {
                solver: policy,
                ..EvalOptions::default()
            },
        )
        .evaluate_all(&queries)
        .into_iter()
        .map(|r| r.unwrap().value())
        .collect::<Vec<f64>>()
    };
    let dense = solve(SolverPolicy::Dense);
    let sparse = solve(SolverPolicy::Sparse);
    for (i, (d, s)) in dense.iter().zip(&sparse).enumerate() {
        assert!((d - s).abs() < 1e-10, "query {i}: dense {d} vs sparse {s}");
    }
}
