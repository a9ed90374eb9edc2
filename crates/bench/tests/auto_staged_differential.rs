//! `Auto` ≡ `Sparse`, bitwise, across every staged sweep driver.
//!
//! Under the default `SolverPolicy::Auto`, a sweep driver stages a flow
//! (zero-`Bindings` rows replayed on a compiled tape) exactly when `Auto`
//! would answer that flow from an acyclic tape anyway: its augmented chain
//! is in the sparse regime and its structure is acyclic. There the tape
//! replays the sparse back-substitution bit for bit, so every driver must
//! return what the unstaged, explicitly `Sparse` run returns — not close,
//! identical. Everywhere else (dense-regime chains, cyclic flows, the
//! explicit `Dense`/`Sparse` policies) staging must decline.
//!
//! Engagement is observed through [`PlanCache::stats`]'s `stage_nanos`
//! where a driver exposes its cache (uncertainty propagation,
//! sensitivities) and through [`FleetRefresh::staged_count`] for fleet
//! refresh. Results are compared through their `Debug` rendering, which
//! prints every `f64` in shortest round-trip form and therefore
//! distinguishes any two different values.

use std::sync::Arc;

use archrel_bench::scenarios::{
    parameterized_flow_assembly, synthetic_flow_assembly, SyntheticTopology,
};
use archrel_core::improvement::{rank_levers_with_options, required_factor_with_options, Lever};
use archrel_core::selection::{select_with_workers, SelectionProblem, Slot};
use archrel_core::sensitivity::binding_sensitivities_with_workers;
use archrel_core::uncertainty::{
    interval_with_options, propagate_with_plan_cache, FactorDistribution, UncertainQuantity,
    UncertaintySummary,
};
use archrel_core::{CancelToken, EvalOptions, Evaluator, FleetRefresh, PlanCache, SolverPolicy};
use archrel_expr::{Bindings, Expr};
use archrel_model::{
    catalog, Assembly, AssemblyBuilder, CompositeService, FlowBuilder, FlowState, Probability,
    Service, ServiceCall, ServiceId, StateId,
};

const STEP_PFAIL: f64 = 1e-5;
const SAMPLES: usize = 48;
const SEED: u64 = 11;

fn options(solver: SolverPolicy) -> EvalOptions {
    EvalOptions {
        solver,
        ..EvalOptions::default()
    }
}

fn app() -> ServiceId {
    ServiceId::from("app")
}

fn same<T: std::fmt::Debug>(auto: &T, sparse: &T, what: &str) {
    assert_eq!(
        format!("{auto:?}"),
        format!("{sparse:?}"),
        "{what}: Auto differs from Sparse"
    );
}

/// The `≥ 65`-state acyclic flows in `Auto`'s sparse regime, with an env
/// for their formals (empty for the synthetic shapes).
fn sparse_acyclic_flows() -> Vec<(&'static str, Assembly, Bindings)> {
    let synthetic = |topology| synthetic_flow_assembly(topology, 96, STEP_PFAIL).unwrap();
    let (params, env) = parameterized_flow_assembly(96, 8, STEP_PFAIL).unwrap();
    vec![
        (
            "chain",
            synthetic(SyntheticTopology::Chain),
            Bindings::new(),
        ),
        (
            "fan-out",
            synthetic(SyntheticTopology::FanOut { branches: 4 }),
            Bindings::new(),
        ),
        (
            "mesh",
            synthetic(SyntheticTopology::Mesh { width: 4 }),
            Bindings::new(),
        ),
        ("parameterized", params, env),
    ]
}

/// `states` sequential calls to the shared `unit` blackbox, leaving the
/// last state through `exits` (a retry loop back to `s0`, or a parametric
/// exit row); `formals` are the composite's formal parameters.
fn sequence_with_exits(states: usize, exits: Vec<(StateId, Expr)>, formals: &[&str]) -> Assembly {
    let name = |i: usize| StateId::named(format!("s{i}"));
    let mut flow = FlowBuilder::new().transition(StateId::Start, name(0), Expr::one());
    for i in 0..states {
        flow = flow.state(FlowState::new(
            name(i),
            vec![ServiceCall::new("unit").with_param("x", Expr::num(1.0))],
        ));
        if i > 0 {
            flow = flow.transition(name(i - 1), name(i), Expr::one());
        }
    }
    for (to, p) in exits {
        flow = flow.transition(name(states - 1), to, p);
    }
    AssemblyBuilder::new()
        .service(catalog::blackbox_service("unit", "x", STEP_PFAIL))
        .service(Service::Composite(
            CompositeService::new(
                "app",
                formals.iter().map(|f| f.to_string()).collect(),
                flow.build().unwrap(),
            )
            .unwrap(),
        ))
        .build()
        .unwrap()
}

/// An 80-state flow whose last state retries from `s0`: cyclic, so `Auto`
/// solves it iteratively and must not stage it.
fn retry_loop_flow() -> Assembly {
    sequence_with_exits(
        80,
        vec![
            (StateId::named("s0"), Expr::num(0.1)),
            (StateId::End, Expr::num(0.9)),
        ],
        &[],
    )
}

fn unit_quantity(low: f64, high: f64) -> Vec<UncertainQuantity> {
    vec![UncertainQuantity {
        lever: Lever::ServiceFailure("unit".into()),
        distribution: FactorDistribution::Uniform { low, high },
    }]
}

/// One uncertainty propagation over a fresh plan cache: the summary and
/// the nanoseconds the run spent staging rows.
fn propagate(
    assembly: &Assembly,
    env: &Bindings,
    solver: SolverPolicy,
    workers: usize,
) -> (archrel_core::Result<UncertaintySummary>, u64) {
    let plans = Arc::new(PlanCache::new());
    let summary = propagate_with_plan_cache(
        assembly,
        &app(),
        env,
        &unit_quantity(0.5, 2.0),
        SAMPLES,
        SEED,
        workers,
        options(solver),
        &plans,
    );
    (summary, plans.stats().stage_nanos)
}

/// Binding sensitivities on a fresh evaluator: the rows and the
/// nanoseconds its plan cache spent staging.
fn sensitivities(
    assembly: &Assembly,
    env: &Bindings,
    solver: SolverPolicy,
    workers: usize,
) -> (
    archrel_core::Result<Vec<archrel_core::sensitivity::Sensitivity>>,
    u64,
) {
    let evaluator = Evaluator::with_options(assembly, options(solver));
    let rows = binding_sensitivities_with_workers(&evaluator, &app(), env, workers);
    (rows, evaluator.plan_cache().stats().stage_nanos)
}

#[test]
fn uncertainty_propagation_stages_and_matches_sparse() {
    for (name, assembly, env) in sparse_acyclic_flows() {
        for workers in [1, 2] {
            let (auto, staged) = propagate(&assembly, &env, SolverPolicy::Auto, workers);
            let (sparse, unstaged) = propagate(&assembly, &env, SolverPolicy::Sparse, workers);
            same(&auto.unwrap(), &sparse.unwrap(), name);
            assert!(staged > 0, "{name}: Auto did not stage ({workers} workers)");
            assert_eq!(unstaged, 0, "{name}: Sparse staged");
        }
    }
}

#[test]
fn interval_matches_sparse_including_structural_fallback() {
    // A zero lower factor removes every `→ Fail` edge: that bracket changes
    // the chain's structure and must leave the staged path for the generic
    // one, still bitwise equal to `Sparse`.
    for (name, assembly, env) in sparse_acyclic_flows() {
        for low in [0.5, 0.0] {
            let quantities = unit_quantity(low, 2.0);
            let run = |solver| {
                interval_with_options(&assembly, &app(), &env, &quantities, options(solver))
                    .unwrap()
            };
            same(
                &run(SolverPolicy::Auto),
                &run(SolverPolicy::Sparse),
                &format!("{name} interval (low {low})"),
            );
        }
    }
}

#[test]
fn binding_sensitivities_stage_and_match_sparse() {
    let (assembly, env) = parameterized_flow_assembly(96, 8, STEP_PFAIL).unwrap();
    for workers in [1, 2] {
        let (auto, staged) = sensitivities(&assembly, &env, SolverPolicy::Auto, workers);
        let (sparse, unstaged) = sensitivities(&assembly, &env, SolverPolicy::Sparse, workers);
        same(
            &auto.unwrap(),
            &sparse.unwrap(),
            &format!("sensitivities ({workers} workers)"),
        );
        assert!(staged > 0, "Auto did not stage ({workers} workers)");
        assert_eq!(unstaged, 0, "Sparse staged");
    }
}

#[test]
fn cancelled_sensitivities_fail_like_sparse() {
    // Staged probes bypass the evaluator, so the driver polls the token
    // itself: a tripped token must still surface as the same typed error.
    let (assembly, env) = parameterized_flow_assembly(96, 8, STEP_PFAIL).unwrap();
    let error = |solver| {
        let token = CancelToken::new();
        token.cancel();
        let evaluator =
            Evaluator::with_options(&assembly, options(solver)).with_cancellation(token);
        binding_sensitivities_with_workers(&evaluator, &app(), &env, 1)
            .unwrap_err()
            .to_string()
    };
    same(
        &error(SolverPolicy::Auto),
        &error(SolverPolicy::Sparse),
        "cancellation",
    );
}

#[test]
fn improvement_levers_match_sparse() {
    for (name, assembly, env) in sparse_acyclic_flows() {
        let rank = |solver| rank_levers_with_options(&assembly, &app(), &env, options(solver));
        let auto = rank(SolverPolicy::Auto).unwrap();
        same(&auto, &rank(SolverPolicy::Sparse).unwrap(), name);

        let baseline = Evaluator::with_options(&assembly, options(SolverPolicy::Sparse))
            .failure_probability(&app(), &env)
            .unwrap();
        let lever = Lever::ServiceFailure("unit".into());
        // A reachable target bisects; an unreachable one stops at factor 0.
        for target in [baseline.value() * 0.3, 0.0] {
            let target = Probability::new(target).unwrap();
            let required = |solver| {
                required_factor_with_options(
                    &assembly,
                    &app(),
                    &env,
                    &lever,
                    target,
                    options(solver),
                )
                .unwrap()
            };
            same(
                &required(SolverPolicy::Auto),
                &required(SolverPolicy::Sparse),
                &format!("{name} required factor"),
            );
        }
    }
}

#[test]
fn selection_matches_sparse() {
    for (name, assembly, env) in sparse_acyclic_flows() {
        let composite = assembly.service(&app()).unwrap().clone();
        let candidates = [STEP_PFAIL, 3e-5, 1e-6]
            .iter()
            .map(|&p| catalog::blackbox_service("unit", "x", p))
            .collect();
        let problem = SelectionProblem::new(
            vec![composite],
            vec![Slot::new("unit", candidates)],
            app(),
            env,
        );
        for workers in [1, 2] {
            let run = |solver| {
                select_with_workers(&problem.clone().with_eval_options(options(solver)), workers)
                    .unwrap()
            };
            same(
                &run(SolverPolicy::Auto),
                &run(SolverPolicy::Sparse),
                &format!("{name} selection ({workers} workers)"),
            );
        }
    }
}

#[test]
fn fleet_refresh_stages_and_matches_sparse() {
    let (assembly, env) = parameterized_flow_assembly(96, 8, STEP_PFAIL).unwrap();
    let varied: Vec<String> = env.iter().map(|(name, _)| name.to_string()).collect();
    let rounds: [&[(&str, f64)]; 3] = [
        &[("v0", 1.5)],
        &[("v3", 0.25), ("v7", 4.0)],
        &[("v0", 1.0), ("v1", 2.0), ("v2", 3.0)],
    ];
    let mut auto = FleetRefresh::new(&assembly, options(SolverPolicy::Auto));
    let mut sparse = FleetRefresh::new(&assembly, options(SolverPolicy::Sparse));
    same(
        &auto.register(app(), env.clone(), &varied).unwrap(),
        &sparse.register(app(), env.clone(), &varied).unwrap(),
        "registration",
    );
    assert_eq!(auto.staged_count(), 1, "Auto did not stage the service");
    assert_eq!(sparse.staged_count(), 0, "Sparse staged the service");
    for (i, round) in rounds.iter().enumerate() {
        let deltas: Vec<(String, f64)> = round.iter().map(|&(n, x)| (n.to_string(), x)).collect();
        let auto_stats = auto.apply(&deltas).unwrap();
        sparse.apply(&deltas).unwrap();
        assert_eq!(auto_stats.staged_rows, 1, "round {i} left the staged path");
        same(&auto.failure(&app()), &sparse.failure(&app()), "refresh");
    }
}

#[test]
fn staging_declines_outside_the_sparse_acyclic_regime() {
    let chain =
        |states| synthetic_flow_assembly(SyntheticTopology::Chain, states, STEP_PFAIL).unwrap();
    let env = Bindings::new();
    // The augmented chain adds `Start`, `End` and `Fail`: 61 flow states
    // make a 64-state chain, the largest `Auto` always solves densely; 62
    // cross into the sparse regime.
    let (_, staged) = propagate(&chain(61), &env, SolverPolicy::Auto, 1);
    assert_eq!(staged, 0, "a dense-regime chain staged");
    let (_, staged) = propagate(&chain(62), &env, SolverPolicy::Auto, 1);
    assert!(staged > 0, "the smallest sparse-regime chain did not stage");

    // Large but dense: two fully connected 126-wide layers give a 255-state
    // chain with 16,380 edges, above `Auto`'s density threshold.
    let dense_mesh =
        synthetic_flow_assembly(SyntheticTopology::Mesh { width: 126 }, 252, STEP_PFAIL).unwrap();
    let (_, staged) = propagate(&dense_mesh, &env, SolverPolicy::Auto, 1);
    assert_eq!(staged, 0, "a density-dense chain staged");

    // Cyclic: `Auto` iterates instead of replaying a tape, and so does
    // `Sparse` — still the same answer, still unstaged.
    let looped = retry_loop_flow();
    let (auto, staged) = propagate(&looped, &env, SolverPolicy::Auto, 1);
    let (sparse, _) = propagate(&looped, &env, SolverPolicy::Sparse, 1);
    same(&auto.unwrap(), &sparse.unwrap(), "retry loop");
    assert_eq!(staged, 0, "a cyclic flow staged under Auto");

    // The explicit direct policies are the unstaged reference.
    for solver in [SolverPolicy::Dense, SolverPolicy::Sparse] {
        let (_, staged) = propagate(&chain(96), &env, solver, 1);
        assert_eq!(staged, 0, "{solver:?} staged");
        let (params, params_env) = parameterized_flow_assembly(96, 8, STEP_PFAIL).unwrap();
        let (_, staged) = sensitivities(&params, &params_env, solver, 1);
        assert_eq!(staged, 0, "{solver:?} staged sensitivities");
    }
}

#[test]
fn malformed_models_report_the_same_first_error() {
    // A parametric exit row summing to 0.9, and a parameterized flow with
    // two demands outside the per-unit law's domain (the first one met
    // must be reported). Under `Auto` the staged compiler sees the model
    // before the generic path does and must raise exactly its error.
    let bad_row = sequence_with_exits(80, vec![(StateId::End, Expr::param("p"))], &["p"]);
    let bad_row_env = Bindings::new().with("p", 0.9);
    let (bad_demand, mut bad_demand_env) = parameterized_flow_assembly(96, 8, STEP_PFAIL).unwrap();
    bad_demand_env.insert("v3", -1.0);
    bad_demand_env.insert("v5", -2.0);
    for (name, assembly, env) in [
        ("row sum", bad_row, bad_row_env),
        ("demand", bad_demand, bad_demand_env),
    ] {
        let error = |solver| {
            let (summary, _) = propagate(&assembly, &env, solver, 1);
            let (rows, _) = sensitivities(&assembly, &env, solver, 1);
            (
                summary.unwrap_err().to_string(),
                rows.unwrap_err().to_string(),
            )
        };
        let auto = error(SolverPolicy::Auto);
        same(&auto, &error(SolverPolicy::Sparse), name);
    }
}
