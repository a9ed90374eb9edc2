//! Differential property tests for compiled assembly programs.
//!
//! Random layered DAG assemblies — parametric CPU leaves, three to four
//! composite layers with diamond sharing (a node calls the previous layer
//! *and* a leaf directly) and shared sub-services (several parents calling
//! the same child) — are evaluated through the compiled program path and
//! the recursive evaluator. The two must agree **bitwise** under every
//! [`SolverPolicy`] and at any batch worker count. About half the DAGs give
//! `top` a long acyclic flow in `Auto`'s sparse regime, so the program pins
//! that flow's plan and answers it by tape replay.
//!
//! Each engine is reached the way production reaches it, by the
//! evaluator's sighting rule: a fresh evaluator's first point walks the
//! recursive path, and a batch of two or more points compiles the program
//! before its first point. Every helper asserts which engine answered.
//!
//! A second generator produces random *cyclic* assemblies — stacked
//! mutually-recursive mesh groups (single- and multi-service SCCs,
//! self-loops, extra back edges) over the same leaf tier — and pins the
//! compiled fixed-point driver bitwise to the recursive
//! [`CycleMode::FixedPoint`] sweeps under plain substitution, across the
//! same solver/worker matrix.

use archrel_core::{
    BatchEvaluator, CoreError, CycleMode, EvalOptions, Evaluator, Query, SolverPolicy,
};
use archrel_expr::{Bindings, Expr};
use archrel_model::{
    catalog, Assembly, AssemblyBuilder, CompletionModel, CompositeService, DependencyModel,
    FlowBuilder, FlowState, Service, ServiceCall, StateId,
};
use proptest::prelude::*;

/// One composite node in a mid layer of the random DAG.
#[derive(Debug, Clone)]
struct NodeSpec {
    /// Calls into the previous layer: (index modulo layer width, demand
    /// coefficient). Several nodes picking the same index is how shared
    /// sub-services arise.
    calls: Vec<(usize, f64)>,
    /// 0 = And, 1 = Or, 2.. = KOutOfN.
    completion: usize,
    /// Optional direct call to a layer-0 leaf, closing a diamond: the leaf
    /// is then reachable both through the previous layer and directly.
    extra_leaf: Option<(usize, f64)>,
}

#[derive(Debug, Clone)]
struct DagSpec {
    /// Failure rates of the CPU leaf resources (capacity fixed at 1e9).
    leaf_rates: Vec<f64>,
    /// Mid layers, bottom-up. Three or more layers plus the implicit `top`
    /// keeps the composite call depth at four or deeper.
    layers: Vec<Vec<NodeSpec>>,
    /// Whether `top` runs its calls through a [`LONG_TOP_STATES`]-state
    /// chain instead of one state.
    long_top: bool,
}

/// Flow states of a long `top`: its augmented chain is in `Auto`'s sparse
/// regime (more than 64 states).
const LONG_TOP_STATES: usize = 64;

fn spec_strategy() -> impl Strategy<Value = DagSpec> {
    let node = (
        proptest::collection::vec((0usize..8, 0.5..4.0f64), 1..3),
        0usize..4,
        (proptest::bool::ANY, 0usize..8, 0.5..4.0f64),
    )
        .prop_map(|(calls, completion, (diamond, leaf, coeff))| NodeSpec {
            calls,
            completion,
            extra_leaf: diamond.then_some((leaf, coeff)),
        });
    let layer = proptest::collection::vec(node, 1..4);
    (
        proptest::collection::vec(1e-6..1e-3f64, 2..5),
        proptest::collection::vec(layer, 3..5),
        proptest::bool::ANY,
    )
        .prop_map(|(leaf_rates, layers, long_top)| DagSpec {
            leaf_rates,
            layers,
            long_top,
        })
}

/// Single-state flow: Start -> s0 -> End with the given calls.
fn one_state_flow(calls: Vec<ServiceCall>, completion: CompletionModel) -> archrel_model::Flow {
    FlowBuilder::new()
        .state(
            FlowState::new("s0", calls)
                .with_completion(completion)
                .with_dependency(DependencyModel::Independent),
        )
        .transition(StateId::Start, "s0", Expr::one())
        .transition(StateId::named("s0"), StateId::End, Expr::one())
        .build()
        .expect("flow is valid")
}

fn build(spec: &DagSpec) -> Assembly {
    let mut builder = AssemblyBuilder::new();
    for (i, rate) in spec.leaf_rates.iter().enumerate() {
        builder = builder.service(catalog::cpu_resource(format!("leaf{i}"), 1e9, *rate));
    }
    let mut prev: Vec<String> = (0..spec.leaf_rates.len())
        .map(|i| format!("leaf{i}"))
        .collect();
    for (li, layer) in spec.layers.iter().enumerate() {
        let mut names = Vec::with_capacity(layer.len());
        for (ni, node) in layer.iter().enumerate() {
            let name = format!("m{li}_{ni}");
            let mut calls: Vec<ServiceCall> = node
                .calls
                .iter()
                .map(|(idx, coeff)| {
                    ServiceCall::new(prev[idx % prev.len()].clone()).with_param(
                        catalog::CPU_PARAM,
                        Expr::param(catalog::CPU_PARAM) * Expr::num(*coeff) + Expr::num(1.0),
                    )
                })
                .collect();
            if let Some((leaf, coeff)) = node.extra_leaf {
                calls.push(
                    ServiceCall::new(format!("leaf{}", leaf % spec.leaf_rates.len())).with_param(
                        catalog::CPU_PARAM,
                        Expr::param(catalog::CPU_PARAM) * Expr::num(coeff),
                    ),
                );
            }
            let completion = match node.completion {
                0 => CompletionModel::And,
                1 => CompletionModel::Or,
                k => CompletionModel::KOutOfN {
                    k: ((k - 1) % calls.len()) + 1,
                },
            };
            builder = builder.service(Service::Composite(
                CompositeService::new(
                    name.clone(),
                    vec![catalog::CPU_PARAM.to_string()],
                    one_state_flow(calls, completion),
                )
                .expect("service is valid"),
            ));
            names.push(name);
        }
        prev = names;
    }
    // `top` calls every node of the last layer, so the whole DAG is live.
    let call = |i: usize| {
        ServiceCall::new(prev[i].clone()).with_param(
            catalog::CPU_PARAM,
            Expr::param(catalog::CPU_PARAM) + Expr::num(i as f64),
        )
    };
    let flow = if spec.long_top {
        // One call per state, cycling through the last layer.
        let name = |i: usize| StateId::named(format!("s{i}"));
        let mut flow = FlowBuilder::new().transition(StateId::Start, name(0), Expr::one());
        for i in 0..LONG_TOP_STATES {
            flow = flow.state(FlowState::new(name(i), vec![call(i % prev.len())]));
            let next = if i + 1 == LONG_TOP_STATES {
                StateId::End
            } else {
                name(i + 1)
            };
            flow = flow.transition(name(i), next, Expr::one());
        }
        flow.build().expect("flow is valid")
    } else {
        one_state_flow((0..prev.len()).map(call).collect(), CompletionModel::And)
    };
    builder
        .service(Service::Composite(
            CompositeService::new("top", vec![catalog::CPU_PARAM.to_string()], flow)
                .expect("service is valid"),
        ))
        .build()
        .expect("assembly is valid")
}

fn opts(solver: SolverPolicy) -> EvalOptions {
    EvalOptions {
        solver,
        ..EvalOptions::default()
    }
}

/// Like [`opts`], but evaluating cycles by fixed point (the only mode a
/// cyclic assembly evaluates under).
fn fp_opts(solver: SolverPolicy) -> EvalOptions {
    EvalOptions {
        cycle_mode: CycleMode::FixedPoint {
            max_iterations: 1000,
            tolerance: 1e-10,
        },
        ..opts(solver)
    }
}

fn demand(n: f64) -> Bindings {
    Bindings::new().with(catalog::CPU_PARAM, n)
}

/// The recursive engine: `top` at each demand point on a fresh evaluator,
/// whose first point walks the recursive path. Returns the raw f64 bits.
fn recursive_bits(assembly: &Assembly, options: EvalOptions, points: &[f64]) -> Vec<u64> {
    points
        .iter()
        .map(|&n| {
            let evaluator = Evaluator::with_options(assembly, options);
            let bits = evaluator
                .failure_probability(&"top".into(), &demand(n))
                .expect("evaluation succeeds")
                .value()
                .to_bits();
            assert_eq!(evaluator.cache_stats().programs_compiled, 0);
            bits
        })
        .collect()
}

/// The compiled program: every demand point in one batch, which compiles
/// `top`'s program before its first point. Returns the raw f64 bits and
/// the evaluator's plan tape replays.
fn program_run(assembly: &Assembly, options: EvalOptions, points: &[f64]) -> (Vec<u64>, u64) {
    let evaluator = Evaluator::with_options(assembly, options);
    let envs: Vec<Bindings> = points.iter().map(|&n| demand(n)).collect();
    let refs: Vec<&Bindings> = envs.iter().collect();
    let bits = evaluator
        .failure_probabilities(&"top".into(), &refs)
        .into_iter()
        .map(|r| r.expect("evaluation succeeds").value().to_bits())
        .collect();
    let stats = evaluator.cache_stats();
    assert_eq!(stats.programs_compiled, 1);
    (bits, stats.rank1_solves)
}

fn program_bits(assembly: &Assembly, options: EvalOptions, points: &[f64]) -> Vec<u64> {
    program_run(assembly, options, points).0
}

const POINTS: [f64; 5] = [1.0, 1e3, 4.5e4, 1e6, 1e6];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled program path is bitwise identical to the recursive
    /// evaluator under every solver policy.
    #[test]
    fn program_matches_recursive_under_every_solver(spec in spec_strategy()) {
        let assembly = build(&spec);
        for solver in [SolverPolicy::Auto, SolverPolicy::Dense, SolverPolicy::Sparse] {
            let recursive = recursive_bits(&assembly, opts(solver), &POINTS);
            let (program, replays) = program_run(&assembly, opts(solver), &POINTS);
            prop_assert_eq!(
                &recursive,
                &program,
                "program path diverged from recursive under {:?}",
                solver
            );
            // Only `Auto` answers from plans, and only the long `top`'s
            // sparse-regime flow: the program pins its plan on the second
            // sighting and replays the tape for the later points.
            let pinned = solver == SolverPolicy::Auto && spec.long_top;
            prop_assert_eq!(replays > 0, pinned, "tape replays under {:?}: {}", solver, replays);
        }
    }

    /// Batch evaluation through the program path is bitwise identical to
    /// the scalar recursive path at every worker count.
    #[test]
    fn batch_workers_match_scalar_recursive(spec in spec_strategy()) {
        let assembly = build(&spec);
        let points: Vec<f64> = (0..16).map(|i| 1e3 * (i as f64 + 1.0)).collect();
        let expected = recursive_bits(&assembly, opts(SolverPolicy::Auto), &points);
        let queries: Vec<Query> = points.iter().map(|&n| Query::new("top", demand(n))).collect();
        for workers in [1, 2, 4] {
            let batch = BatchEvaluator::with_options(&assembly, opts(SolverPolicy::Auto))
                .with_workers(workers);
            let got: Vec<u64> = batch
                .evaluate_all(&queries)
                .into_iter()
                .map(|r| r.expect("evaluation succeeds").value().to_bits())
                .collect();
            prop_assert_eq!(batch.cache_stats().programs_compiled, 1);
            prop_assert_eq!(
                &expected,
                &got,
                "batch program path diverged at {} workers",
                workers
            );
        }
    }
}

/// One mutually-recursive mesh group of the cyclic generator. Member `m`
/// enters its recursion state with probability `q` (calling member
/// `(m+1) % size`, plus optional self-loop and back edges) and otherwise
/// calls down into the previous tier — so the group is a strongly
/// connected component with a contraction factor of roughly `q`.
#[derive(Debug, Clone)]
struct GroupSpec {
    size: usize,
    /// Member 0 additionally calls itself (a self-loop inside the SCC).
    selfloop: bool,
    /// The last member additionally calls member 0 (an extra back edge —
    /// a diamond feeding back into its ancestor).
    back: bool,
    /// Probability of entering the recursion state.
    q: f64,
    /// Demand transform coefficient for the downward (exit) call.
    down_coeff: f64,
}

#[derive(Debug, Clone)]
struct CycleSpec {
    leaf_rates: Vec<f64>,
    /// Mesh groups, bottom-up: each group's exit calls land in the
    /// previous group (or the leaves), so the condensation is a chain of
    /// nontrivial SCCs.
    groups: Vec<GroupSpec>,
}

fn cycle_strategy() -> impl Strategy<Value = CycleSpec> {
    let group = (
        1usize..=3,
        proptest::bool::ANY,
        proptest::bool::ANY,
        0.05..0.45f64,
        0.5..4.0f64,
    )
        .prop_map(|(size, selfloop, back, q, down_coeff)| GroupSpec {
            size,
            selfloop,
            back,
            q,
            down_coeff,
        });
    (
        proptest::collection::vec(1e-6..1e-3f64, 1..3),
        proptest::collection::vec(group, 1..3),
    )
        .prop_map(|(leaf_rates, groups)| CycleSpec { leaf_rates, groups })
}

fn build_cyclic(spec: &CycleSpec) -> Assembly {
    let mut builder = AssemblyBuilder::new();
    for (i, rate) in spec.leaf_rates.iter().enumerate() {
        builder = builder.service(catalog::cpu_resource(format!("leaf{i}"), 1e9, *rate));
    }
    let mut prev: Vec<String> = (0..spec.leaf_rates.len())
        .map(|i| format!("leaf{i}"))
        .collect();
    for (gi, group) in spec.groups.iter().enumerate() {
        let names: Vec<String> = (0..group.size).map(|m| format!("g{gi}_{m}")).collect();
        for m in 0..group.size {
            // In-SCC calls forward the formal unchanged: the recursion
            // keys then repeat per sweep, exactly like the recursive
            // evaluator's `(service, bindings)` keys.
            let forward = |target: &String| {
                ServiceCall::new(target.clone())
                    .with_param(catalog::CPU_PARAM, Expr::param(catalog::CPU_PARAM))
            };
            let mut loop_calls = vec![forward(&names[(m + 1) % group.size])];
            if m == 0 && group.selfloop {
                loop_calls.push(forward(&names[0]));
            }
            if m + 1 == group.size && group.back && group.size > 1 {
                loop_calls.push(forward(&names[0]));
            }
            let down_call = ServiceCall::new(prev[m % prev.len()].clone()).with_param(
                catalog::CPU_PARAM,
                Expr::param(catalog::CPU_PARAM) * Expr::num(group.down_coeff) + Expr::num(1.0),
            );
            let flow = FlowBuilder::new()
                .state(
                    FlowState::new("loop", loop_calls)
                        .with_completion(CompletionModel::And)
                        .with_dependency(DependencyModel::Independent),
                )
                .state(
                    FlowState::new("down", vec![down_call])
                        .with_completion(CompletionModel::And)
                        .with_dependency(DependencyModel::Independent),
                )
                .transition(StateId::Start, "loop", Expr::num(group.q))
                .transition(StateId::Start, "down", Expr::num(1.0 - group.q))
                .transition(StateId::named("loop"), StateId::End, Expr::one())
                .transition(StateId::named("down"), StateId::End, Expr::one())
                .build()
                .expect("flow is valid");
            builder = builder.service(Service::Composite(
                CompositeService::new(names[m].clone(), vec![catalog::CPU_PARAM.to_string()], flow)
                    .expect("service is valid"),
            ));
        }
        prev = names;
    }
    let calls: Vec<ServiceCall> = prev
        .iter()
        .enumerate()
        .map(|(i, name)| {
            ServiceCall::new(name.clone()).with_param(
                catalog::CPU_PARAM,
                Expr::param(catalog::CPU_PARAM) + Expr::num(i as f64),
            )
        })
        .collect();
    builder
        .service(Service::Composite(
            CompositeService::new(
                "top",
                vec![catalog::CPU_PARAM.to_string()],
                one_state_flow(calls, CompletionModel::And),
            )
            .expect("service is valid"),
        ))
        .build()
        .expect("assembly is valid")
}

const CYCLE_POINTS: [f64; 4] = [1.0, 1e3, 4.5e4, 1e6];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The compiled fixed-point driver is bitwise identical to the
    /// recursive `CycleMode::FixedPoint` sweeps under every solver policy.
    #[test]
    fn cyclic_program_matches_recursive_under_every_solver(spec in cycle_strategy()) {
        let assembly = build_cyclic(&spec);
        for solver in [SolverPolicy::Auto, SolverPolicy::Dense, SolverPolicy::Sparse] {
            let recursive = recursive_bits(&assembly, fp_opts(solver), &CYCLE_POINTS);
            let program = program_bits(&assembly, fp_opts(solver), &CYCLE_POINTS);
            prop_assert_eq!(
                &recursive,
                &program,
                "cyclic program path diverged from recursive under {:?}",
                solver
            );
        }
    }

    /// Batch evaluation of cyclic targets is bitwise identical to the
    /// scalar recursive path at every worker count.
    #[test]
    fn cyclic_batch_workers_match_scalar_recursive(spec in cycle_strategy()) {
        let assembly = build_cyclic(&spec);
        let points: Vec<f64> = (0..8).map(|i| 1e3 * (i as f64 + 1.0)).collect();
        let expected = recursive_bits(&assembly, fp_opts(SolverPolicy::Auto), &points);
        let queries: Vec<Query> = points.iter().map(|&n| Query::new("top", demand(n))).collect();
        for workers in [1, 2, 4] {
            let batch = BatchEvaluator::with_options(&assembly, fp_opts(SolverPolicy::Auto))
                .with_workers(workers);
            let got: Vec<u64> = batch
                .evaluate_all(&queries)
                .into_iter()
                .map(|r| r.expect("evaluation succeeds").value().to_bits())
                .collect();
            prop_assert_eq!(batch.cache_stats().programs_compiled, 1);
            prop_assert_eq!(
                &expected,
                &got,
                "cyclic batch program path diverged at {} workers",
                workers
            );
        }
    }
}

/// A cyclic assembly compiles, errors under the default `CycleMode::Error`
/// with the offending path (exactly like the recursive evaluator reports
/// it), and evaluates under `CycleMode::FixedPoint` bitwise equal to the
/// recursive sweeps.
#[test]
fn cyclic_assembly_errors_by_default_and_evaluates_by_fixed_point() {
    let calls_to = |target: &str| {
        one_state_flow(
            vec![ServiceCall::new(target.to_string())],
            CompletionModel::And,
        )
    };
    let assembly = AssemblyBuilder::new()
        .service(Service::Composite(
            CompositeService::new("a", vec![], calls_to("b")).expect("service is valid"),
        ))
        .service(Service::Composite(
            CompositeService::new("b", vec![], calls_to("a")).expect("service is valid"),
        ))
        .build()
        .expect("assembly is valid");
    // A batch of two compiles the program before its first point.
    let env = Bindings::new();
    let evaluator = Evaluator::with_options(&assembly, opts(SolverPolicy::Auto));
    let err = evaluator
        .failure_probabilities(&"a".into(), &[&env, &env])
        .remove(0)
        .unwrap_err();
    assert_eq!(evaluator.cache_stats().programs_compiled, 1);
    match err {
        CoreError::RecursiveAssembly { cycle } => {
            assert_eq!(
                cycle,
                vec!["a".to_string(), "b".to_string(), "a".to_string()]
            );
        }
        other => panic!("expected RecursiveAssembly, got {other:?}"),
    }
    // Under fixed-point mode the same assembly evaluates; program and
    // recursive paths agree bitwise.
    let fresh = Evaluator::with_options(&assembly, fp_opts(SolverPolicy::Auto));
    let recursive = fresh
        .failure_probability(&"a".into(), &env)
        .expect("fixed point converges");
    assert_eq!(fresh.cache_stats().programs_compiled, 0);
    let batched = Evaluator::with_options(&assembly, fp_opts(SolverPolicy::Auto));
    let program = batched
        .failure_probabilities(&"a".into(), &[&env, &env])
        .remove(0)
        .expect("fixed point converges");
    assert_eq!(batched.cache_stats().programs_compiled, 1);
    assert_eq!(recursive.value().to_bits(), program.value().to_bits());
}
