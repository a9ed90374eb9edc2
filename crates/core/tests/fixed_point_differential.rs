//! Differential tests for the fixed-point acceleration schemes.
//!
//! Plain successive substitution is the bitwise reference for cyclic
//! assemblies; Aitken Δ² ([`FixedPointMode::Aitken`]) must agree with it
//! to 1e-10 on converging meshes in fewer sweeps, fall back to the raw
//! iterate on degenerate denominators without changing results, and
//! surface [`CoreError::FixedPointDiverged`] (with the iteration budget)
//! instead of returning garbage when the budget is too small — on both
//! the recursive and the compiled-program engines, each reached by the
//! evaluator's sighting rule.

use archrel_core::{
    CacheStats, CancelToken, CoreError, CycleMode, EvalOptions, Evaluator, FixedPointMode,
    SolverPolicy,
};
use archrel_expr::{Bindings, Expr};
use archrel_model::{
    catalog, Assembly, AssemblyBuilder, CompositeService, FlowBuilder, FlowState, Service,
    ServiceCall, StateId,
};

/// A two-member mutually recursive mesh over one blackbox leaf: each
/// member re-enters the cycle with probability `q` and otherwise calls the
/// leaf, so the fixed point contracts at rate ~`q` per sweep.
fn two_member_mesh(q: f64, leaf_fail: f64) -> Assembly {
    let member = |name: &str, partner: &str| {
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "loop",
                vec![ServiceCall::new(partner.to_string())],
            ))
            .state(FlowState::new(
                "down",
                vec![ServiceCall::new("leaf").with_param("x", Expr::num(1.0))],
            ))
            .transition(StateId::Start, "loop", Expr::num(q))
            .transition(StateId::Start, "down", Expr::num(1.0 - q))
            .transition(StateId::named("loop"), StateId::End, Expr::one())
            .transition(StateId::named("down"), StateId::End, Expr::one())
            .build()
            .expect("flow is valid");
        Service::Composite(CompositeService::new(name, vec![], flow).expect("service is valid"))
    };
    AssemblyBuilder::new()
        .service(catalog::blackbox_service("leaf", "x", leaf_fail))
        .service(member("a", "b"))
        .service(member("b", "a"))
        .build()
        .expect("assembly is valid")
}

/// A self-recursive service whose recursion state is *probabilistically*
/// unreachable (`Start → again` carries probability zero) but structurally
/// present: every sweep still breaks the self-call and records the cycle
/// key, yet the raw iterate is constant — the exact shape that makes
/// Aitken's Δ² denominator vanish. `top` pairs it with the slowly
/// converging mesh so the iteration keeps running long enough for the
/// three-point history to fill.
fn degenerate_plus_mesh(q: f64) -> Assembly {
    let flow = FlowBuilder::new()
        .state(FlowState::new("again", vec![ServiceCall::new("ghost")]))
        .state(FlowState::new(
            "base",
            vec![ServiceCall::new("leaf").with_param("x", Expr::num(2.0))],
        ))
        .transition(StateId::Start, "again", Expr::num(0.0))
        .transition(StateId::Start, "base", Expr::one())
        .transition(StateId::named("again"), StateId::End, Expr::one())
        .transition(StateId::named("base"), StateId::End, Expr::one())
        .build()
        .expect("flow is valid");
    let mesh = two_member_mesh(q, 1e-3);
    let mut builder = AssemblyBuilder::new();
    for service in mesh.services() {
        builder = builder.service(service.clone());
    }
    let top_flow = FlowBuilder::new()
        .state(FlowState::new(
            "s0",
            vec![ServiceCall::new("ghost"), ServiceCall::new("a")],
        ))
        .transition(StateId::Start, "s0", Expr::one())
        .transition(StateId::named("s0"), StateId::End, Expr::one())
        .build()
        .expect("flow is valid");
    builder
        .service(Service::Composite(
            CompositeService::new("ghost", vec![], flow).expect("service is valid"),
        ))
        .service(Service::Composite(
            CompositeService::new("top", vec![], top_flow).expect("service is valid"),
        ))
        .build()
        .expect("assembly is valid")
}

/// How a test reaches an engine, by the evaluator's sighting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Engine {
    /// A fresh evaluator's first point walks the recursive path.
    Recursive,
    /// A batch of two points compiles the program before its first point.
    Program,
}

const ENGINES: [Engine; 2] = [Engine::Recursive, Engine::Program];

fn options(mode: FixedPointMode, max_iterations: usize, tolerance: f64) -> EvalOptions {
    EvalOptions {
        cycle_mode: CycleMode::FixedPoint {
            max_iterations,
            tolerance,
        },
        solver: SolverPolicy::Auto,
        fixed_point: mode,
        ..EvalOptions::default()
    }
}

/// Evaluates `target` with no bindings on a fresh evaluator through
/// `engine`, returning the first point's result and the counters.
fn evaluate(
    assembly: &Assembly,
    target: &str,
    engine: Engine,
    options: EvalOptions,
) -> (archrel_core::Result<archrel_model::Probability>, CacheStats) {
    let evaluator = Evaluator::with_options(assembly, options);
    let env = Bindings::new();
    let result = match engine {
        Engine::Recursive => evaluator.failure_probability(&target.into(), &env),
        Engine::Program => evaluator
            .failure_probabilities(&target.into(), &[&env, &env])
            .remove(0),
    };
    let stats = evaluator.cache_stats();
    let compiled = u64::from(engine == Engine::Program);
    assert_eq!(stats.programs_compiled, compiled, "{engine:?}: {stats:?}");
    (result, stats)
}

fn run(
    assembly: &Assembly,
    target: &str,
    engine: Engine,
    options: EvalOptions,
) -> (f64, CacheStats) {
    let (result, stats) = evaluate(assembly, target, engine, options);
    (result.expect("fixed point converges").value(), stats)
}

#[test]
fn aitken_agrees_with_plain_to_1e_10_on_converging_meshes() {
    for q in [0.3, 0.6, 0.8] {
        let assembly = two_member_mesh(q, 1e-3);
        for engine in ENGINES {
            let (plain, plain_stats) = run(
                &assembly,
                "a",
                engine,
                options(FixedPointMode::Plain, 5000, 1e-12),
            );
            let (aitken, aitken_stats) = run(
                &assembly,
                "a",
                engine,
                options(FixedPointMode::Aitken, 5000, 1e-12),
            );
            assert!(
                (plain - aitken).abs() < 1e-10,
                "q={q} {engine:?}: plain {plain} vs aitken {aitken}"
            );
            assert!(
                aitken_stats.aitken_accels > 0,
                "q={q} {engine:?}: {aitken_stats:?}"
            );
            assert_eq!(plain_stats.aitken_accels, 0, "plain must never accelerate");
            // Acceleration pays off here: fewer sweeps, and no
            // extrapolation was ever refused.
            assert!(
                aitken_stats.fixed_point_sweeps < plain_stats.fixed_point_sweeps,
                "q={q} {engine:?}: aitken {} vs plain {} sweeps",
                aitken_stats.fixed_point_sweeps,
                plain_stats.fixed_point_sweeps
            );
            assert_eq!(
                aitken_stats.aitken_fallbacks, 0,
                "q={q} {engine:?}: {aitken_stats:?}"
            );
        }
    }
}

#[test]
fn aitken_is_engine_agnostic_bitwise() {
    // The recursive and compiled drivers share one solver, so Aitken's
    // accelerated trajectory is bitwise identical across engines — same
    // guarantee the plain differential proptests pin.
    for mode in [FixedPointMode::Plain, FixedPointMode::Aitken] {
        let assembly = two_member_mesh(0.6, 1e-3);
        let options = options(mode, 5000, 1e-12);
        let (recursive, _) = run(&assembly, "a", Engine::Recursive, options);
        // A cyclic batch compiles one program before its first point...
        let evaluator = Evaluator::with_options(&assembly, options);
        let env = Bindings::new();
        let batch = evaluator.failure_probabilities(&"a".into(), &[&env, &env]);
        let batch_stats = evaluator.cache_stats();
        assert_eq!(batch_stats.programs_compiled, 1, "{mode:?}");
        for p in batch {
            let p = p.expect("fixed point converges").value();
            assert_eq!(
                recursive.to_bits(),
                p.to_bits(),
                "{mode:?}: engines disagree"
            );
        }
        // ...so its program driver ran both points: one more point adds
        // exactly half the batch's SCC iterations.
        evaluator
            .failure_probability(&"a".into(), &env)
            .expect("fixed point converges");
        let per_point = evaluator.cache_stats().scc_iterations - batch_stats.scc_iterations;
        assert!(per_point > 0, "{mode:?}");
        assert_eq!(batch_stats.scc_iterations, 2 * per_point, "{mode:?}");
    }
}

#[test]
fn aitken_falls_back_on_degenerate_denominators_without_changing_results() {
    let assembly = degenerate_plus_mesh(0.6);
    for engine in ENGINES {
        let (plain, _) = run(
            &assembly,
            "top",
            engine,
            options(FixedPointMode::Plain, 5000, 1e-12),
        );
        let (aitken, stats) = run(
            &assembly,
            "top",
            engine,
            options(FixedPointMode::Aitken, 5000, 1e-12),
        );
        assert!(
            stats.aitken_fallbacks > 0,
            "{engine:?}: the constant ghost iterate must trip the \
             degenerate-denominator guard: {stats:?}"
        );
        assert!(
            (plain - aitken).abs() < 1e-10,
            "{engine:?}: plain {plain} vs aitken {aitken}"
        );
    }
}

#[test]
fn both_engines_and_modes_surface_diverged_with_the_iteration_budget() {
    let assembly = two_member_mesh(0.5, 1e-3);
    for engine in ENGINES {
        for mode in [FixedPointMode::Plain, FixedPointMode::Aitken] {
            // Two sweeps cannot reach a 1e-18 residual at contraction 0.5.
            let (result, _) = evaluate(&assembly, "a", engine, options(mode, 2, 1e-18));
            match result.unwrap_err() {
                CoreError::FixedPointDiverged {
                    iterations,
                    residual,
                } => {
                    assert_eq!(iterations, 2, "{engine:?}/{mode:?}");
                    assert!(residual.is_finite(), "{engine:?}/{mode:?}");
                }
                other => panic!("{engine:?}/{mode:?}: expected FixedPointDiverged, got {other:?}"),
            }
        }
    }
}

/// Regression: a tripped token stops the compiled fixed-point driver as
/// it stops the recursive sweeps. The cyclic program path never reads the
/// value cache, so it used to re-run its sweeps to a converged value
/// under a cancelled token.
#[test]
fn both_engines_stop_on_a_tripped_token() {
    let assembly = two_member_mesh(0.9, 1e-3);
    let env = Bindings::new();
    for engine in ENGINES {
        for mode in [FixedPointMode::Plain, FixedPointMode::Aitken] {
            let token = CancelToken::new();
            let evaluator = Evaluator::with_options(&assembly, options(mode, 10_000, 1e-12))
                .with_cancellation(token.clone());
            if engine == Engine::Program {
                // A batch of two compiles the program; both points converge.
                for r in evaluator.failure_probabilities(&"a".into(), &[&env, &env]) {
                    r.expect("fixed point converges");
                }
            }
            token.cancel();
            let result = evaluator.failure_probability(&"a".into(), &env);
            let compiled = u64::from(engine == Engine::Program);
            assert_eq!(
                evaluator.cache_stats().programs_compiled,
                compiled,
                "{engine:?}/{mode:?}"
            );
            assert!(
                matches!(result, Err(CoreError::Cancelled)),
                "{engine:?}/{mode:?}: expected Cancelled, got {result:?}"
            );
        }
    }
}
