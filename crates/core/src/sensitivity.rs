//! Sensitivity analysis: how strongly the predicted unreliability reacts to
//! each input.
//!
//! Two flavors:
//!
//! - [`binding_sensitivities`]: finite-difference derivatives and
//!   elasticities of `Pfail` with respect to the **formal parameters** of the
//!   invocation (e.g. the list size of the paper's search service);
//! - [`finite_difference`]: a generic helper for sensitivities with respect
//!   to **model attributes** (failure rates, speeds, bandwidths) — the caller
//!   supplies a closure that rebuilds the assembly with a perturbed
//!   attribute, which is how the Figure 6 harness explores γ and ϕ₁.

use std::sync::Arc;
use std::time::Instant;

use archrel_expr::Bindings;
use archrel_model::{Assembly, Probability, ServiceId};

use crate::batch::{striped, striped_probabilities};
use crate::eval::FlowBlockAccumulator;
use crate::staged::{StagedSweep, Staging};
use crate::{symbolic, CoreError, Evaluator, Result};

/// Sensitivity of `Pfail` with respect to one input.
#[derive(Debug, Clone, PartialEq)]
pub struct Sensitivity {
    /// Name of the input (binding name or caller-chosen attribute label).
    pub name: String,
    /// Value at which the derivative was taken.
    pub at: f64,
    /// Central finite-difference derivative `dPfail/dx`.
    pub derivative: f64,
    /// Elasticity `(dPfail/dx) · (x / Pfail)` — the unitless "% change in
    /// unreliability per % change in input"; `0` when `Pfail` is zero.
    pub elasticity: f64,
}

/// Relative step used for central differences.
const REL_STEP: f64 = 1e-4;

/// Central finite-difference derivative of an arbitrary scalar map, plus the
/// elasticity at `x0`.
///
/// # Errors
///
/// Propagates errors from `f`.
pub fn finite_difference(
    name: impl Into<String>,
    x0: f64,
    mut f: impl FnMut(f64) -> Result<f64>,
) -> Result<Sensitivity> {
    let h = step(x0);
    let up = f(x0 + h)?;
    let down = f(x0 - h)?;
    let value = f(x0)?;
    let derivative = (up - down) / (2.0 * h);
    let elasticity = if value == 0.0 {
        0.0
    } else {
        derivative * x0 / value
    };
    Ok(Sensitivity {
        name: name.into(),
        at: x0,
        derivative,
        elasticity,
    })
}

/// Sensitivities of `Pfail(service, env)` with respect to every binding in
/// `env`, sorted by descending absolute elasticity (most influential first).
///
/// Runs on the batch path: the finite-difference stencil (two perturbed
/// probes per binding plus the shared center point) is expanded up front and
/// evaluated across worker threads against one shared evaluator, so probes
/// that resolve to the same `(service, parameters)` fingerprint — notably
/// every binding's center probe — are solved once. The evaluator's
/// [`crate::SolverPolicy`] (and every other [`crate::EvalOptions`] field)
/// applies to all probes: build the evaluator with
/// [`Evaluator::with_options`] to force a solver. Because all probes run on
/// **one** evaluator, they also share its compiled-plan cache: a stencil
/// only perturbs parameter *values*, so under [`crate::SolverPolicy::Compiled`],
/// or [`crate::SolverPolicy::Auto`] on a sparse-regime acyclic flow, every
/// probe is staged straight into a compiled evaluation tape's parameter row
/// instead of re-eliminating the chain.
///
/// # Errors
///
/// Propagates evaluation errors (e.g. a perturbed parameter leaving a
/// function's domain).
pub fn binding_sensitivities(
    evaluator: &Evaluator<'_>,
    service: &ServiceId,
    env: &Bindings,
) -> Result<Vec<Sensitivity>> {
    binding_sensitivities_with_workers(evaluator, service, env, default_workers())
}

/// [`binding_sensitivities`] with an explicit worker-thread count.
///
/// # Errors
///
/// See [`binding_sensitivities`].
pub fn binding_sensitivities_with_workers(
    evaluator: &Evaluator<'_>,
    service: &ServiceId,
    env: &Bindings,
    workers: usize,
) -> Result<Vec<Sensitivity>> {
    struct Probe {
        name: String,
        x0: f64,
        h: f64,
        // Probe value for each stencil point: [x0 + h, x0 - h, x0].
        envs: [Bindings; 3],
    }
    let probes: Vec<Probe> = env
        .iter()
        .map(|(name, x0)| {
            let h = step(x0);
            let at = |x: f64| {
                let mut perturbed = env.clone();
                perturbed.insert(name, x);
                perturbed
            };
            Probe {
                name: name.to_string(),
                x0,
                h,
                envs: [at(x0 + h), at(x0 - h), at(x0)],
            }
        })
        .collect();

    // All stencil points target one service, so each worker's probes are
    // one batch call that compiles the target's assembly program. The
    // probes only move the stencil's own parameters, so declare them
    // varied: services fed purely by constants pin outside the dirty cone
    // when the assembly-program path answers.
    let varied: Vec<String> = env.iter().map(|(name, _)| name.to_string()).collect();
    evaluator.declare_varied(service, &varied);
    let flat: Vec<&Bindings> = probes.iter().flat_map(|p| p.envs.iter()).collect();
    // Which binding each flattened probe perturbs — the staged path uses
    // it to restage only that binding's dependency cone per probe.
    let names: Vec<&str> = probes.iter().flat_map(|p| [p.name.as_str(); 3]).collect();
    // Staged fast path: when the target compiles to a staged sweep, every
    // probe's parameter row is generated directly from the stencil env —
    // no per-probe state resolution or chain build — and replayed through
    // lane-blocked tapes. A sweep that declines (or a compile error)
    // routes through the generic batch path unchanged.
    let staged = StagedSweep::compile(
        evaluator.assembly(),
        service,
        env,
        evaluator.plan_cache(),
        evaluator.options(),
    )
    .unwrap_or(None);
    let values = match &staged {
        Some(sweep) => staged_probes(sweep, evaluator, service, env, &names, &flat, workers),
        None => striped_probabilities(evaluator, service, &flat, workers),
    };
    let mut values = values.into_iter().map(|r| r.map(|p| p.value()));
    let mut out = Vec::with_capacity(probes.len());
    for probe in &probes {
        let up = values.next().expect("one value per probe")?;
        let down = values.next().expect("one value per probe")?;
        let value = values.next().expect("one value per probe")?;
        let derivative = (up - down) / (2.0 * probe.h);
        let elasticity = if value == 0.0 {
            0.0
        } else {
            derivative * probe.x0 / value
        };
        out.push(Sensitivity {
            name: probe.name.clone(),
            at: probe.x0,
            derivative,
            elasticity,
        });
    }
    out.sort_by(|a, b| {
        b.elasticity
            .abs()
            .partial_cmp(&a.elasticity.abs())
            .expect("elasticities are finite")
    });
    Ok(out)
}

fn step(x0: f64) -> f64 {
    if x0 == 0.0 {
        REL_STEP
    } else {
        x0.abs() * REL_STEP
    }
}

pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Evaluate every probe env through a staged sweep: each row is generated
/// straight from the stencil env — no per-probe state resolution or chain
/// build — then replayed through lane-blocked tapes. The stencil contract
/// (each probe moves exactly one binding, `names[i]`) lets the sweep stage
/// the center once and restage only each probe's dependency cone —
/// bitwise what full staging computes. Probes whose
/// values change the flow structure fall back to the generic evaluator,
/// which is bitwise-identical on compiled structures.
fn staged_probes(
    sweep: &StagedSweep,
    evaluator: &Evaluator<'_>,
    service: &ServiceId,
    center_env: &Bindings,
    names: &[&str],
    envs: &[&Bindings],
    workers: usize,
) -> Vec<Result<Probability>> {
    debug_assert_eq!(names.len(), envs.len());
    let plans = evaluator.plan_cache();
    // A center that fails to stage sends every probe through full
    // staging, which reports any error probe by probe exactly as before.
    let center = {
        let mut scratch = sweep.new_scratch();
        sweep
            .prepare_env_center(center_env, &mut scratch)
            .unwrap_or(None)
    };
    let center = center.as_ref();
    striped(envs.len(), workers, |stripe| {
        let mut acc = FlowBlockAccumulator::new(Arc::clone(plans));
        let mut success = vec![f64::NAN; stripe.len()];
        let mut results: Vec<Option<Result<Probability>>> = Vec::with_capacity(stripe.len());
        results.resize_with(stripe.len(), || None);
        let mut deferred: Vec<usize> = Vec::new();
        let mut scratch = sweep.new_scratch();
        let mut stage_nanos = 0u64;
        for (pos, &i) in stripe.iter().enumerate() {
            // Staged probes never enter the evaluator, so poll its
            // cancellation token here, as the generic path would.
            if let Some(Err(err)) = evaluator.cancel_token().map(|token| token.check()) {
                results[pos] = Some(Err(err));
                continue;
            }
            let stage_started = Instant::now();
            let staging = match center {
                Some(c) => sweep.stage_env_delta(c, names[i], envs[i], &mut scratch),
                None => sweep.stage_env(envs[i], &mut scratch),
            };
            stage_nanos += u64::try_from(stage_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            match staging {
                Ok(Staging::Row) => {
                    match acc.submit_row(sweep.plan(), &scratch.row, pos, &mut success) {
                        Ok(()) => deferred.push(pos),
                        Err(err) => results[pos] = Some(Err(err.into())),
                    }
                }
                Ok(Staging::Fallback) => {
                    results[pos] = Some(evaluator.failure_probability(service, envs[i]));
                }
                Err(err) => results[pos] = Some(Err(err)),
            }
        }
        plans.record_stage_nanos(stage_nanos);
        acc.finish(&mut success);
        for (tag, err) in acc.take_errors() {
            results[tag] = Some(Err(err));
        }
        for pos in deferred {
            if results[pos].is_some() {
                continue;
            }
            results[pos] = Some(
                Probability::new(success[pos])
                    .map(|p| p.complement())
                    .map_err(CoreError::from),
            );
        }
        results
            .into_iter()
            .map(|r| r.expect("every probe resolved"))
            .collect()
    })
}

/// **Exact** sensitivities of `Pfail(service, ·)` with respect to every
/// formal parameter, obtained by symbolically differentiating the
/// closed-form failure expression (no truncation error, unlike
/// [`binding_sensitivities`]). Requires an acyclic assembly (symbolic
/// evaluation's domain); results are sorted by descending absolute
/// elasticity.
///
/// # Errors
///
/// - [`crate::CoreError::SymbolicUnsupported`] for recursive assemblies or
///   cyclic flows;
/// - expression errors when a derivative cannot be formed (`min`/`max`
///   kinks) or evaluated at `env`.
pub fn symbolic_sensitivities(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
) -> Result<Vec<Sensitivity>> {
    let formula = symbolic::failure_expression(assembly, service)?;
    let value = formula.eval(env)?;
    let mut out = Vec::new();
    for param in formula.free_params() {
        let x0 = env.get(&param).ok_or_else(|| {
            crate::CoreError::Expr(archrel_expr::ExprError::UnboundParameter {
                name: param.clone(),
            })
        })?;
        let derivative_expr = formula.differentiate(&param)?;
        let derivative = derivative_expr.eval(env)?;
        let elasticity = if value == 0.0 {
            0.0
        } else {
            derivative * x0 / value
        };
        out.push(Sensitivity {
            name: param,
            at: x0,
            derivative,
            elasticity,
        });
    }
    out.sort_by(|a, b| {
        b.elasticity
            .abs()
            .partial_cmp(&a.elasticity.abs())
            .expect("elasticities are finite")
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use archrel_model::paper;

    #[test]
    fn finite_difference_of_quadratic() {
        let s = finite_difference("x", 3.0, |x| Ok(x * x)).unwrap();
        assert!((s.derivative - 6.0).abs() < 1e-6);
        // elasticity of x^2 is 2 everywhere.
        assert!((s.elasticity - 2.0).abs() < 1e-6);
    }

    #[test]
    fn finite_difference_at_zero_uses_absolute_step() {
        let s = finite_difference("x", 0.0, |x| Ok(2.0 * x)).unwrap();
        assert!((s.derivative - 2.0).abs() < 1e-9);
        assert_eq!(s.elasticity, 0.0);
    }

    #[test]
    fn list_size_dominates_search_sensitivity() {
        let params = paper::PaperParams::default();
        let assembly = paper::local_assembly(&params).unwrap();
        let eval = Evaluator::new(&assembly);
        let env = paper::search_bindings(4.0, 4096.0, 1.0);
        let sens = binding_sensitivities(&eval, &paper::SEARCH.into(), &env).unwrap();
        // The most influential parameter is the list size: the sort leg costs
        // list·log(list) operations while elem/res only feed the connector.
        assert_eq!(sens[0].name, "list");
        assert!(
            sens[0].derivative > 0.0,
            "unreliability grows with list size"
        );
    }

    #[test]
    fn gamma_sensitivity_via_attribute_closure() {
        // Sensitivity w.r.t. the network failure rate γ by rebuilding the
        // remote assembly per probe.
        let base = paper::PaperParams::default();
        let env = paper::search_bindings(4.0, 2048.0, 1.0);
        let s = finite_difference("gamma", base.gamma, |gamma| {
            let params = base.clone().with_gamma(gamma);
            let assembly = paper::remote_assembly(&params).unwrap();
            Ok(Evaluator::new(&assembly)
                .failure_probability(&paper::SEARCH.into(), &env)?
                .value())
        })
        .unwrap();
        assert!(s.derivative > 0.0, "unreliability grows with γ");
        assert!(s.elasticity > 0.0);
    }

    #[test]
    fn symbolic_sensitivities_match_finite_differences() {
        let params = paper::PaperParams::default();
        let assembly = paper::remote_assembly(&params).unwrap();
        let env = paper::search_bindings(4.0, 2048.0, 1.0);
        let exact = symbolic_sensitivities(&assembly, &paper::SEARCH.into(), &env).unwrap();
        let eval = Evaluator::new(&assembly);
        let approx = binding_sensitivities(&eval, &paper::SEARCH.into(), &env).unwrap();
        for e in &exact {
            let a = approx
                .iter()
                .find(|s| s.name == e.name)
                .expect("same parameter set");
            let scale = e.derivative.abs().max(1e-12);
            assert!(
                (e.derivative - a.derivative).abs() / scale < 1e-3,
                "{}: exact {} vs finite-difference {}",
                e.name,
                e.derivative,
                a.derivative
            );
        }
        // list dominates, exactly as in the finite-difference ranking.
        assert_eq!(exact[0].name, "list");
    }

    #[test]
    fn symbolic_sensitivities_reject_recursive_assemblies() {
        use archrel_expr::Expr;
        use archrel_model::{
            AssemblyBuilder, CompositeService, FlowBuilder, FlowState, Service, ServiceCall,
            StateId,
        };
        let make = |name: &str, target: &str| {
            let flow = FlowBuilder::new()
                .state(FlowState::new("1", vec![ServiceCall::new(target)]))
                .transition(StateId::Start, "1", Expr::one())
                .transition("1", StateId::End, Expr::one())
                .build()
                .unwrap();
            Service::Composite(CompositeService::new(name, vec![], flow).unwrap())
        };
        let assembly = AssemblyBuilder::new()
            .service(make("a", "b"))
            .service(make("b", "a"))
            .build()
            .unwrap();
        assert!(symbolic_sensitivities(&assembly, &"a".into(), &Bindings::new()).is_err());
    }

    #[test]
    fn worker_count_does_not_change_sensitivities() {
        let params = paper::PaperParams::default();
        let assembly = paper::remote_assembly(&params).unwrap();
        let env = paper::search_bindings(4.0, 2048.0, 1.0);
        let reference = {
            let eval = Evaluator::new(&assembly);
            binding_sensitivities_with_workers(&eval, &paper::SEARCH.into(), &env, 1).unwrap()
        };
        for workers in [2, 8] {
            let eval = Evaluator::new(&assembly);
            let got =
                binding_sensitivities_with_workers(&eval, &paper::SEARCH.into(), &env, workers)
                    .unwrap();
            assert_eq!(reference.len(), got.len());
            for (r, g) in reference.iter().zip(&got) {
                assert_eq!(r.name, g.name);
                assert_eq!(r.derivative.to_bits(), g.derivative.to_bits());
                assert_eq!(r.elasticity.to_bits(), g.elasticity.to_bits());
            }
        }
    }

    #[test]
    fn solver_policy_flows_through_the_shared_evaluator() {
        use crate::{EvalOptions, SolverPolicy};
        let params = paper::PaperParams::default();
        let assembly = paper::remote_assembly(&params).unwrap();
        let env = paper::search_bindings(4.0, 2048.0, 1.0);
        let dense = {
            let eval = Evaluator::with_options(
                &assembly,
                EvalOptions {
                    solver: SolverPolicy::Dense,
                    ..EvalOptions::default()
                },
            );
            binding_sensitivities(&eval, &paper::SEARCH.into(), &env).unwrap()
        };
        let sparse = {
            let eval = Evaluator::with_options(
                &assembly,
                EvalOptions {
                    solver: SolverPolicy::Sparse,
                    ..EvalOptions::default()
                },
            );
            binding_sensitivities(&eval, &paper::SEARCH.into(), &env).unwrap()
        };
        assert_eq!(dense.len(), sparse.len());
        for (d, s) in dense.iter().zip(&sparse) {
            assert_eq!(d.name, s.name);
            let scale = d.derivative.abs().max(1e-12);
            assert!(
                (d.derivative - s.derivative).abs() / scale < 1e-6,
                "{}: dense {} vs sparse {}",
                d.name,
                d.derivative,
                s.derivative
            );
        }
    }

    /// An acyclic assembly the staged sweep compiler accepts. Acyclic on
    /// purpose: the bitwise block ≡ scalar contract the reference values
    /// rely on covers the straight-line tape, not incremental re-solves.
    fn stageable_assembly() -> (Assembly, Bindings) {
        use archrel_expr::Expr;
        use archrel_model::{
            AssemblyBuilder, CompositeService, FailureModel, FlowBuilder, FlowState,
            InternalFailureModel, Service, ServiceCall, SimpleService, StateId,
        };
        let call_a = ServiceCall {
            target: "cpu".into(),
            actual_params: vec![("ops".to_string(), Expr::param("n"))],
            connector: None,
            internal_failure: InternalFailureModel::PerOperation { phi: 1e-4 },
        };
        let call_b = ServiceCall {
            target: "disk".into(),
            actual_params: vec![("ops".to_string(), Expr::param("m"))],
            connector: None,
            internal_failure: InternalFailureModel::None,
        };
        let flow = FlowBuilder::new()
            .state(FlowState::new("a", vec![call_a]))
            .state(FlowState::new("b", vec![call_b]))
            .transition(StateId::Start, "a", Expr::num(0.6))
            .transition(StateId::Start, "b", Expr::num(0.4))
            .transition("a", "b", Expr::one())
            .transition("b", StateId::End, Expr::one())
            .build()
            .unwrap();
        let assembly = AssemblyBuilder::new()
            .service(Service::Simple(SimpleService::new(
                "cpu",
                "ops",
                FailureModel::ExponentialRate {
                    rate: 0.02,
                    capacity: 1.0,
                },
            )))
            .service(Service::Simple(SimpleService::new(
                "disk",
                "ops",
                FailureModel::PerUnit { probability: 1e-3 },
            )))
            .service(Service::Composite(
                CompositeService::new("app", vec!["n".to_string(), "m".to_string()], flow).unwrap(),
            ))
            .build()
            .unwrap();
        (assembly, Bindings::new().with("n", 6.0).with("m", 3.0))
    }

    /// The staged probe sweep must be **bitwise** identical to the generic
    /// batch path under the same compiled-plan policy — same stencil,
    /// same probabilities, at every worker count.
    #[test]
    fn staged_probes_match_blocked_path_bitwise() {
        use crate::{EvalOptions, SolverPolicy};
        let (assembly, env) = stageable_assembly();
        let service: ServiceId = "app".into();
        let options = EvalOptions {
            solver: SolverPolicy::Compiled,
            ..EvalOptions::default()
        };
        // Perturbed stencil points, like binding_sensitivities builds.
        let mut flat_owned: Vec<(String, Bindings)> = Vec::new();
        for (name, x0) in env.iter() {
            let h = step(x0);
            for x in [x0 + h, x0 - h, x0] {
                let mut p = env.clone();
                p.insert(name, x);
                flat_owned.push((name.to_string(), p));
            }
        }
        let names: Vec<&str> = flat_owned.iter().map(|(n, _)| n.as_str()).collect();
        let flat: Vec<&Bindings> = flat_owned.iter().map(|(_, p)| p).collect();
        let reference = {
            let eval = Evaluator::with_options(&assembly, options);
            striped_probabilities(&eval, &service, &flat, 1)
        };
        for workers in [1usize, 3] {
            let eval = Evaluator::with_options(&assembly, options);
            let sweep = StagedSweep::compile(&assembly, &service, &env, eval.plan_cache(), options)
                .unwrap()
                .expect("assembly is stageable");
            let staged = staged_probes(&sweep, &eval, &service, &env, &names, &flat, workers);
            assert_eq!(reference.len(), staged.len());
            for (r, s) in reference.iter().zip(&staged) {
                let (r, s) = (r.as_ref().unwrap(), s.as_ref().unwrap());
                assert_eq!(r.value().to_bits(), s.value().to_bits());
            }
        }
        // End to end: the public entry point (which takes the staged path
        // here) agrees with itself across worker counts.
        let reference = {
            let eval = Evaluator::with_options(&assembly, options);
            binding_sensitivities_with_workers(&eval, &service, &env, 1).unwrap()
        };
        for workers in [2usize, 5] {
            let eval = Evaluator::with_options(&assembly, options);
            let got = binding_sensitivities_with_workers(&eval, &service, &env, workers).unwrap();
            assert_eq!(reference.len(), got.len());
            for (r, g) in reference.iter().zip(&got) {
                assert_eq!(r.name, g.name);
                assert_eq!(r.derivative.to_bits(), g.derivative.to_bits());
                assert_eq!(r.elasticity.to_bits(), g.elasticity.to_bits());
            }
        }
    }

    #[test]
    fn sensitivities_sorted_by_elasticity() {
        let params = paper::PaperParams::default();
        let assembly = paper::remote_assembly(&params).unwrap();
        let eval = Evaluator::new(&assembly);
        let env = paper::search_bindings(4.0, 1024.0, 1.0);
        let sens = binding_sensitivities(&eval, &paper::SEARCH.into(), &env).unwrap();
        for w in sens.windows(2) {
            assert!(w[0].elasticity.abs() >= w[1].elasticity.abs());
        }
    }
}
