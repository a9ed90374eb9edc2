//! Archived ↔ freshly-compiled differential suite for the persistent
//! artifact store.
//!
//! The store's contract (ISSUE 7, DESIGN.md "Persistent artifact store"):
//! an evaluation answered from an archived `SolvePlan` / program bundle
//! loaded off disk must be **bitwise identical** to the same evaluation
//! with every plan compiled fresh in-process — across solver policies,
//! evaluation engines, fixed-point schemes, and batch worker counts.
//! The properties pin that down:
//!
//! 1. on randomly generated *acyclic* flow assemblies, warm-then-read
//!    through a shared artifact directory reproduces the store-free
//!    reference bit for bit under every `{solver} × {engine}` row, the
//!    read pass actually serves archives (`store_hits > 0`, zero writes,
//!    zero rejects), and `BatchEvaluator` at 1/2/4 workers over an
//!    archived cache matches the sequential store-free reference;
//! 2. the same holds on randomly generated *cyclic* flow assemblies,
//!    where the archived plan's Sherman–Morrison baseline is replayed
//!    against the same query order as the fresh compile;
//! 3. a recursive (cyclic call-graph) assembly under
//!    `CycleMode::FixedPoint` stays bitwise-stable through the store for
//!    both fixed-point schemes, exercising the program-bundle warm-start
//!    path.
//!
//! Evaluators are always built with an explicit store (or explicitly
//! none) via `PlanCache::with_artifact_store`, never `env::set_var` —
//! the suite must stay correct when CI runs it *inside* a forced
//! `ARCHREL_ARTIFACT_DIR` matrix row.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use archrel::core::batch::{BatchEvaluator, Query};
use archrel::core::{CycleMode, EvalOptions, Evaluator, FixedPointMode, PlanCache, SolverPolicy};
use archrel::expr::{Bindings, Expr};
use archrel::model::{
    catalog, Assembly, AssemblyBuilder, CompositeService, FlowBuilder, FlowState, Service,
    ServiceCall, StateId,
};
use archrel::store::{ArtifactMode, ArtifactStore};
use proptest::prelude::*;

/// Fresh per-invocation scratch directory under the system temp dir (the
/// same keying as the CLI tests: pid + counter, so parallel test binaries
/// and parallel proptest cases never collide).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "archrel-store-diff-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Specification of one random flow state: which backing service it
/// calls, its CPU demand, and the weights of its outgoing edges.
#[derive(Debug, Clone)]
struct NodeSpec {
    /// Index (mod the service count) of the blackbox service this state
    /// calls alongside its CPU demand.
    svc: usize,
    /// CPU demand issued from this state, scaled by the query's `n`.
    demand: f64,
    /// Weight of the edge straight to `End` (kept ≥ 0.05, so `End` stays
    /// reachable from every state).
    end_weight: f64,
    /// Weights of forward edges (target picked modulo the remaining
    /// forward range).
    forward: Vec<(usize, f64)>,
    /// Optional backward edge (target picked modulo the preceding range);
    /// only honored when generating cyclic flows.
    back: Option<(usize, f64)>,
}

fn node_spec() -> impl Strategy<Value = NodeSpec> {
    (
        0usize..16,
        1e3..1e5f64,
        0.05..1.0f64,
        proptest::collection::vec((0usize..32, 0.01..1.0f64), 0..3),
        (proptest::bool::ANY, 0usize..32, 0.01..0.6f64),
    )
        .prop_map(
            |(svc, demand, end_weight, forward, (has_back, raw, w))| NodeSpec {
                svc,
                demand,
                end_weight,
                forward,
                back: has_back.then_some((raw, w)),
            },
        )
}

/// The pool of simple services random flows draw on: three blackboxes
/// with distinct failure laws plus a CPU whose failure depends on the
/// queried demand (so different `Bindings` produce different plan
/// parameters over one structure).
fn service_pool() -> Vec<Service> {
    vec![
        catalog::blackbox_service("svc0", "x", 0.004),
        catalog::blackbox_service("svc1", "x", 0.017),
        catalog::blackbox_service("svc2", "x", 0.0008),
        catalog::cpu_resource("cpu", 1e9, 2e-9),
    ]
}

/// Builds the assembly for a random flow over `specs`, acyclic or (when
/// `cyclic` and some spec carries a back edge) cyclic. Edge weights are
/// normalized per state so every row is stochastic.
fn flow_assembly(specs: &[NodeSpec], cyclic: bool) -> Assembly {
    let n = specs.len();
    let mut flow = FlowBuilder::new();
    for (i, spec) in specs.iter().enumerate() {
        flow = flow.state(FlowState::new(
            format!("s{i}"),
            vec![
                ServiceCall::new(format!("svc{}", spec.svc % 3)).with_param("x", Expr::num(1.0)),
                ServiceCall::new("cpu").with_param(
                    catalog::CPU_PARAM,
                    Expr::num(spec.demand) * Expr::param("n"),
                ),
            ],
        ));
    }
    flow = flow.transition(StateId::Start, "s0", Expr::one());
    for (i, spec) in specs.iter().enumerate() {
        // Collect this state's outgoing edges, merging duplicate targets
        // (two forward picks may land on the same state).
        let mut edges: Vec<(usize, f64)> = Vec::new();
        let push = |edges: &mut Vec<(usize, f64)>, target: usize, w: f64| match edges
            .iter_mut()
            .find(|(t, _)| *t == target)
        {
            Some((_, wt)) => *wt += w,
            None => edges.push((target, w)),
        };
        for &(raw, w) in &spec.forward {
            if i + 1 < n {
                push(&mut edges, i + 1 + raw % (n - i - 1).max(1), w);
            }
        }
        if cyclic {
            if let Some((raw, w)) = spec.back {
                push(&mut edges, raw % (i + 1), w);
            }
        }
        let total: f64 = spec.end_weight + edges.iter().map(|(_, w)| w).sum::<f64>();
        flow = flow.transition(
            StateId::from(format!("s{i}")),
            StateId::End,
            Expr::num(spec.end_weight / total),
        );
        for (target, w) in edges {
            flow = flow.transition(
                StateId::from(format!("s{i}")),
                StateId::from(format!("s{}", target.min(n - 1))),
                Expr::num(w / total),
            );
        }
    }
    let mut builder = AssemblyBuilder::new();
    for svc in service_pool() {
        builder = builder.service(svc);
    }
    builder
        .service(Service::Composite(
            CompositeService::new(
                "app",
                vec!["n".into()],
                flow.build().expect("stochastic flow"),
            )
            .unwrap(),
        ))
        .build()
        .expect("closed assembly")
}

/// How a pass reaches the evaluation engines — by the evaluator's
/// sighting rule, as production does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Engine {
    /// One evaluator, one query at a time: the first query walks the
    /// recursive path, later ones run the compiled program.
    Sighting,
    /// A fresh evaluator per query over the pass's one plan cache: every
    /// query is a first sighting, on the recursive path.
    Recursive,
    /// One evaluator, every query in one batch of at least two points:
    /// the program compiles before the first query.
    Program,
}

/// The matrix this suite pins: both plan-compiling solver policies under
/// each engine, set explicitly on `EvalOptions` so the test is identical
/// under any ambient environment.
const MATRIX: [(SolverPolicy, Engine); 6] = [
    (SolverPolicy::Auto, Engine::Sighting),
    (SolverPolicy::Auto, Engine::Program),
    (SolverPolicy::Auto, Engine::Recursive),
    (SolverPolicy::Compiled, Engine::Sighting),
    (SolverPolicy::Compiled, Engine::Program),
    (SolverPolicy::Compiled, Engine::Recursive),
];

fn options(solver: SolverPolicy, cycle_mode: CycleMode) -> EvalOptions {
    EvalOptions {
        cycle_mode,
        solver,
        ..EvalOptions::default()
    }
}

/// A plan cache that uses exactly `store` (including explicitly *no*
/// store for the fresh reference — `PlanCache::new()` would otherwise
/// adopt an ambient `ARCHREL_ARTIFACT_DIR`).
fn plan_cache(store: Option<Arc<ArtifactStore>>) -> Arc<PlanCache> {
    Arc::new(PlanCache::new().with_artifact_store(store))
}

/// Builds an evaluator over `assembly` whose plan cache uses exactly
/// `store`.
fn evaluator_with<'a>(
    assembly: &'a Assembly,
    opts: &EvalOptions,
    store: Option<Arc<ArtifactStore>>,
) -> Evaluator<'a> {
    Evaluator::with_plan_cache(assembly, *opts, plan_cache(store))
}

/// Evaluates every query, in order, through `engine` over one plan cache
/// using `store`, asserting which engine answered; returns the raw f64
/// bits.
fn run_queries(
    assembly: &Assembly,
    opts: &EvalOptions,
    store: Option<Arc<ArtifactStore>>,
    engine: Engine,
    queries: &[Query],
) -> Vec<u64> {
    let plans = plan_cache(store);
    let bits = |r: archrel::core::Result<archrel::model::Probability>| {
        r.expect("closed assembly evaluates").value().to_bits()
    };
    let (bits, compiled) = match engine {
        Engine::Sighting => {
            let eval = Evaluator::with_plan_cache(assembly, *opts, plans);
            let out = queries
                .iter()
                .map(|q| bits(eval.failure_probability(&q.service, &q.env)))
                .collect();
            (out, eval.cache_stats().programs_compiled)
        }
        Engine::Recursive => {
            let mut compiled = 0;
            let out = queries
                .iter()
                .map(|q| {
                    let eval = Evaluator::with_plan_cache(assembly, *opts, Arc::clone(&plans));
                    let b = bits(eval.failure_probability(&q.service, &q.env));
                    compiled += eval.cache_stats().programs_compiled;
                    b
                })
                .collect();
            (out, compiled)
        }
        Engine::Program => {
            let eval = Evaluator::with_plan_cache(assembly, *opts, plans);
            let mut envs: Vec<&Bindings> = queries.iter().map(|q| &q.env).collect();
            if envs.len() == 1 {
                // A one-point batch is a first sighting: repeat the point
                // (last, so the earlier answers are unaffected).
                envs.push(envs[0]);
            }
            let out = eval
                .failure_probabilities(&queries[0].service, &envs)
                .into_iter()
                .take(queries.len())
                .map(bits)
                .collect();
            (out, eval.cache_stats().programs_compiled)
        }
    };
    let want = match engine {
        Engine::Sighting => u64::from(queries.len() >= 2),
        Engine::Recursive => 0,
        Engine::Program => 1,
    };
    assert_eq!(compiled, want, "{engine:?}");
    bits
}

/// The core warm-then-read differential, shared by the acyclic and
/// cyclic properties. Queries are replayed in the same order in every
/// pass: a cyclic plan's archived Sherman–Morrison baseline is the first
/// evaluation it saw, so order is part of the bitwise contract.
fn assert_archived_matches_fresh(
    assembly: &Assembly,
    queries: &[Query],
    cycle_mode: CycleMode,
    tag: &str,
) {
    for (solver, engine) in MATRIX {
        let opts = options(solver, cycle_mode);
        let dir = scratch_dir(tag);

        // Store-free reference: every plan compiled fresh in-process.
        let fresh = run_queries(assembly, &opts, None, engine, queries);

        // Warm pass: read-through misses compile and publish.
        let warm_store =
            Arc::new(ArtifactStore::open(&dir, ArtifactMode::ReadWrite).expect("open rw store"));
        let warm = run_queries(
            assembly,
            &opts,
            Some(Arc::clone(&warm_store)),
            engine,
            queries,
        );
        prop_assert_eq!(&warm, &fresh, "warm pass diverged ({solver:?}/{engine:?})");

        // Read pass: a cold process answering from the archive alone.
        let read_store =
            Arc::new(ArtifactStore::open(&dir, ArtifactMode::Read).expect("open ro store"));
        let archived = run_queries(
            assembly,
            &opts,
            Some(Arc::clone(&read_store)),
            engine,
            queries,
        );
        prop_assert_eq!(
            &archived,
            &fresh,
            "archived pass diverged ({solver:?}/{engine:?})"
        );
        let stats = read_store.stats();
        prop_assert_eq!(stats.writes, 0, "read-only store wrote");
        prop_assert_eq!(stats.validate_rejects, 0, "archive failed validation");
        if solver == SolverPolicy::Compiled {
            prop_assert!(
                stats.hits > 0,
                "compiled policy never touched the warm archive ({engine:?})"
            );
        }

        // Batch replay over the archived cache at 1/2/4 workers.
        for workers in [1usize, 2, 4] {
            let store = Arc::new(ArtifactStore::open(&dir, ArtifactMode::Read).unwrap());
            let batch =
                BatchEvaluator::from_evaluator(evaluator_with(assembly, &opts, Some(store)))
                    .with_workers(workers);
            let got = batch.evaluate_all(queries);
            for (i, (g, e)) in got.iter().zip(&fresh).enumerate() {
                let g = g.as_ref().expect("batch query evaluates").value().to_bits();
                prop_assert_eq!(
                    g,
                    *e,
                    "batch query {} with {} workers diverged ({:?}/{:?})",
                    i,
                    workers,
                    solver,
                    engine
                );
            }
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}

fn queries_for(ns: &[f64]) -> Vec<Query> {
    ns.iter()
        .map(|&n| Query::new("app", Bindings::new().with("n", n)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random acyclic flow assemblies: archived evaluation is bitwise
    /// the store-free reference across the solver × engine matrix and
    /// batch worker counts 1/2/4.
    #[test]
    fn acyclic_archived_evaluation_is_bitwise_fresh(
        specs in proptest::collection::vec(node_spec(), 2..8),
        ns in proptest::collection::vec(1.0..64.0f64, 1..4),
    ) {
        let assembly = flow_assembly(&specs, false);
        assert_archived_matches_fresh(
            &assembly,
            &queries_for(&ns),
            CycleMode::Error,
            "acyclic",
        );
    }

    /// Random cyclic flow assemblies (back edges enabled): the archived
    /// cyclic plan — factorization, permutation, and Sherman–Morrison
    /// baseline — replays bitwise against fresh compilation.
    #[test]
    fn cyclic_archived_evaluation_is_bitwise_fresh(
        specs in proptest::collection::vec(node_spec(), 2..8),
        ns in proptest::collection::vec(1.0..64.0f64, 1..4),
    ) {
        let assembly = flow_assembly(&specs, true);
        assert_archived_matches_fresh(
            &assembly,
            &queries_for(&ns),
            CycleMode::Error,
            "cyclic",
        );
    }
}

/// A recursive resolver (cyclic call graph, the shape `examples/
/// recursive_service.rs` demonstrates): the fixed-point driver over an
/// archived program-bundle warm start stays bitwise-stable under both
/// update schemes.
#[test]
fn fixed_point_archived_evaluation_is_bitwise_fresh() {
    let flow = FlowBuilder::new()
        .state(FlowState::new(
            "hit",
            vec![ServiceCall::new("cpu").with_param(catalog::CPU_PARAM, Expr::num(1e4))],
        ))
        .state(FlowState::new(
            "fetch",
            vec![ServiceCall::new("svc0").with_param("x", Expr::one())],
        ))
        .state(FlowState::new(
            "recurse",
            vec![ServiceCall::new("app").with_param("n", Expr::param("n"))],
        ))
        .transition(StateId::Start, "hit", Expr::num(0.65))
        .transition(StateId::Start, "fetch", Expr::num(0.35))
        .transition("hit", StateId::End, Expr::one())
        .transition("fetch", "recurse", Expr::one())
        .transition("recurse", StateId::End, Expr::one())
        .build()
        .unwrap();
    let mut builder = AssemblyBuilder::new();
    for svc in service_pool() {
        builder = builder.service(svc);
    }
    let assembly = builder
        .service(Service::Composite(
            CompositeService::new("app", vec!["n".into()], flow).unwrap(),
        ))
        .build()
        .unwrap();
    let queries = queries_for(&[1.0, 8.0]);
    let cycle_mode = CycleMode::FixedPoint {
        max_iterations: 1000,
        tolerance: 1e-13,
    };

    for fixed_point in [FixedPointMode::Plain, FixedPointMode::Aitken] {
        for engine in [Engine::Sighting, Engine::Program] {
            let opts = EvalOptions {
                fixed_point,
                ..options(SolverPolicy::Compiled, cycle_mode)
            };
            let dir = scratch_dir("fixedpoint");

            let fresh = run_queries(&assembly, &opts, None, engine, &queries);
            let warm_store = Arc::new(ArtifactStore::open(&dir, ArtifactMode::ReadWrite).unwrap());
            let warm = run_queries(&assembly, &opts, Some(warm_store), engine, &queries);
            assert_eq!(warm, fresh, "warm diverged ({fixed_point:?}/{engine:?})");

            let read_store = Arc::new(ArtifactStore::open(&dir, ArtifactMode::Read).unwrap());
            let archived = run_queries(
                &assembly,
                &opts,
                Some(Arc::clone(&read_store)),
                engine,
                &queries,
            );
            assert_eq!(
                archived, fresh,
                "archived diverged ({fixed_point:?}/{engine:?})"
            );
            let stats = read_store.stats();
            assert_eq!(stats.writes, 0);
            assert_eq!(stats.validate_rejects, 0);
            assert!(
                stats.hits > 0,
                "fixed-point pass never touched the archive ({fixed_point:?}/{engine:?})"
            );

            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
