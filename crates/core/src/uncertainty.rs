//! Epistemic-uncertainty propagation: how confident is the prediction when
//! the *published* failure rates are themselves uncertain?
//!
//! A SOC marketplace fills the analytic interfaces of §2 with numbers the
//! providers measured — estimates with error bars, not ground truth. This
//! module propagates that uncertainty through the assembly:
//!
//! - each uncertain quantity is an improvement [`Lever`] (a service's failure
//!   law or a composite's internal software rates) with a *factor
//!   distribution* describing the multiplicative error of its published
//!   value;
//! - Monte Carlo over the factors yields the distribution of `Pfail`,
//!   summarized by mean and percentiles;
//! - [`interval`] gives guaranteed bounds instead: because `Pfail` is
//!   monotone in every failure mechanism (a property-tested invariant),
//!   evaluating with all factors at their lower/upper ends brackets the
//!   true value — no sampling error.

use std::sync::Arc;
use std::time::Instant;

use archrel_expr::Bindings;
use archrel_model::{Assembly, Probability, ServiceId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::striped;
use crate::eval::FlowBlockAccumulator;
use crate::improvement::{apply_lever, Lever};
use crate::sensitivity::default_workers;
use crate::staged::{StagedSweep, Staging};
use crate::{CoreError, EvalOptions, Evaluator, PlanCache, Result};

/// Distribution of the multiplicative error on a published failure quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactorDistribution {
    /// The published value is exact.
    Point,
    /// Uniform on `[low, high]` (both ≥ 0).
    Uniform {
        /// Smallest factor.
        low: f64,
        /// Largest factor.
        high: f64,
    },
    /// Log-uniform on `[low, high]` — the natural choice for rates known
    /// "within a factor of k": `LogUniform { low: 1.0/k, high: k }`.
    LogUniform {
        /// Smallest factor (must be > 0).
        low: f64,
        /// Largest factor.
        high: f64,
    },
}

impl FactorDistribution {
    fn validate(&self) -> Result<()> {
        let (low, high, positive) = match *self {
            FactorDistribution::Point => return Ok(()),
            FactorDistribution::Uniform { low, high } => (low, high, false),
            FactorDistribution::LogUniform { low, high } => (low, high, true),
        };
        if !low.is_finite()
            || !high.is_finite()
            || low > high
            || low < 0.0
            || (positive && low <= 0.0)
        {
            return Err(CoreError::Model(
                archrel_model::ModelError::InvalidAttribute {
                    name: "factor distribution bounds",
                    value: low,
                },
            ));
        }
        Ok(())
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            FactorDistribution::Point => 1.0,
            FactorDistribution::Uniform { low, high } => low + rng.gen::<f64>() * (high - low),
            FactorDistribution::LogUniform { low, high } => {
                (low.ln() + rng.gen::<f64>() * (high.ln() - low.ln())).exp()
            }
        }
    }

    fn bounds(&self) -> (f64, f64) {
        match *self {
            FactorDistribution::Point => (1.0, 1.0),
            FactorDistribution::Uniform { low, high }
            | FactorDistribution::LogUniform { low, high } => (low, high),
        }
    }
}

/// One uncertain quantity: a lever plus its factor distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainQuantity {
    /// The mechanism whose published value is uncertain.
    pub lever: Lever,
    /// Distribution of the multiplicative error.
    pub distribution: FactorDistribution,
}

impl UncertainQuantity {
    /// Convenience constructor for a simple service's failure law known
    /// within a factor of `k` (log-uniform).
    ///
    /// # Errors
    ///
    /// Returns a validation error for `k < 1` or non-finite `k`.
    pub fn rate_within_factor(service: impl Into<ServiceId>, k: f64) -> Result<Self> {
        if !k.is_finite() || k < 1.0 {
            return Err(CoreError::Model(
                archrel_model::ModelError::InvalidAttribute {
                    name: "uncertainty factor",
                    value: k,
                },
            ));
        }
        Ok(UncertainQuantity {
            lever: Lever::ServiceFailure(service.into()),
            distribution: FactorDistribution::LogUniform {
                low: 1.0 / k,
                high: k,
            },
        })
    }
}

/// Summary of the propagated `Pfail` distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UncertaintySummary {
    /// Number of Monte Carlo samples.
    pub samples: usize,
    /// Sample mean of `Pfail`.
    pub mean: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

fn apply_all(assembly: &Assembly, factors: &[(&Lever, f64)]) -> Result<Assembly> {
    let mut current = assembly.clone();
    for (lever, factor) in factors {
        current = apply_lever(&current, lever, *factor)?;
    }
    Ok(current)
}

/// Monte Carlo propagation: samples factor vectors, evaluates `Pfail` for
/// each, and summarizes the resulting distribution.
///
/// Runs on the batch path: the factor vectors are drawn **sequentially**
/// from the seeded generator — so a fixed seed reproduces the same samples
/// no matter how many threads evaluate them — and the per-sample
/// evaluations are then spread across worker threads. Each sample perturbs
/// the assembly itself, so per-sample results cannot share the value-level
/// solve cache (the cache is keyed by parameters over one fixed assembly,
/// and a perturbed assembly invalidates it wholesale) — but the samples *do*
/// share one compiled-plan cache: the levers scale failure values without
/// changing any flow structure, so wherever the solver policy answers from
/// a compiled plan (`Compiled`, or `Auto` on a sparse-regime acyclic flow)
/// each structure is compiled once and every sample replays the tape.
///
/// # Errors
///
/// - validation errors for malformed distributions or a zero sample count;
/// - evaluation/lever errors from the underlying engine.
pub fn propagate(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
    quantities: &[UncertainQuantity],
    samples: usize,
    seed: u64,
) -> Result<UncertaintySummary> {
    propagate_with_workers(
        assembly,
        service,
        env,
        quantities,
        samples,
        seed,
        default_workers(),
    )
}

/// [`propagate`] with an explicit worker-thread count.
///
/// # Errors
///
/// See [`propagate`].
#[allow(clippy::too_many_arguments)]
pub fn propagate_with_workers(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
    quantities: &[UncertainQuantity],
    samples: usize,
    seed: u64,
    workers: usize,
) -> Result<UncertaintySummary> {
    propagate_with_options(
        assembly,
        service,
        env,
        quantities,
        samples,
        seed,
        workers,
        EvalOptions::default(),
    )
}

/// [`propagate_with_workers`] with explicit [`EvalOptions`] — in particular
/// the [`crate::SolverPolicy`] used for every per-sample solve.
///
/// # Errors
///
/// See [`propagate`].
#[allow(clippy::too_many_arguments)]
pub fn propagate_with_options(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
    quantities: &[UncertainQuantity],
    samples: usize,
    seed: u64,
    workers: usize,
    options: EvalOptions,
) -> Result<UncertaintySummary> {
    propagate_with_plan_cache(
        assembly,
        service,
        env,
        quantities,
        samples,
        seed,
        workers,
        options,
        &Arc::new(PlanCache::new()),
    )
}

/// [`propagate_with_options`] against a caller-supplied [`PlanCache`]: the
/// sweep's compiled plans, blocked-replay tallies, and per-phase
/// nanosecond counters (stage / replay — see [`crate::CacheStats`])
/// accumulate in `plans`, so callers can share compilation work across
/// sweeps and read the phase split afterwards via [`PlanCache::stats`].
///
/// # Errors
///
/// See [`propagate`].
#[allow(clippy::too_many_arguments)]
pub fn propagate_with_plan_cache(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
    quantities: &[UncertainQuantity],
    samples: usize,
    seed: u64,
    workers: usize,
    options: EvalOptions,
    plans: &Arc<PlanCache>,
) -> Result<UncertaintySummary> {
    if samples == 0 {
        return Err(CoreError::Model(
            archrel_model::ModelError::InvalidAttribute {
                name: "samples",
                value: 0.0,
            },
        ));
    }
    for q in quantities {
        q.distribution.validate()?;
    }
    // Draw every factor vector up front, sequentially, from the one seeded
    // generator: reproducibility must not depend on worker scheduling.
    let mut rng = StdRng::seed_from_u64(seed);
    let factor_vectors: Vec<Vec<f64>> = (0..samples)
        .map(|_| {
            quantities
                .iter()
                .map(|q| q.distribution.sample(&mut rng))
                .collect()
        })
        .collect();

    // Try to stage the whole sweep (see `StagedSweep::compile` for which
    // policies and flows stage): samples then generate directly into plan
    // parameter rows — no per-sample assembly rebuild, no `Bindings`, no
    // chain — and only structure-changing samples fall back to a fresh
    // evaluator over the perturbed assembly.
    let staged = match StagedSweep::compile(assembly, service, env, plans, options)? {
        Some(sweep) => {
            let levers = sweep.prepare_levers(assembly, quantities.iter().map(|q| &q.lever))?;
            Some((sweep, levers))
        }
        None => None,
    };
    // Each worker owns one block accumulator for its staged rows, so
    // samples batch into lane-sized tape replays. Block ≡ scalar bitwise on
    // compiled acyclic structures, so the summary stays worker-count
    // independent.
    let results = striped(samples, workers, |stripe| {
        let mut acc = FlowBlockAccumulator::new(Arc::clone(plans));
        let mut success = vec![f64::NAN; stripe.len()];
        let mut values: Vec<Option<Result<f64>>> = Vec::with_capacity(stripe.len());
        values.resize_with(stripe.len(), || None);
        let mut deferred: Vec<usize> = Vec::new();
        let mut scratch = staged.as_ref().map(|(sweep, _)| sweep.new_scratch());
        let mut stage_nanos = 0u64;
        for (pos, &i) in stripe.iter().enumerate() {
            if let (Some((sweep, levers)), Some(scratch)) = (&staged, scratch.as_mut()) {
                let stage_started = Instant::now();
                let staging = sweep.stage_factors(levers, &factor_vectors[i], scratch);
                stage_nanos +=
                    u64::try_from(stage_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                match staging {
                    Ok(Staging::Row) => {
                        match acc.submit_row(sweep.plan(), &scratch.row, pos, &mut success) {
                            Ok(()) => deferred.push(pos),
                            Err(err) => values[pos] = Some(Err(err.into())),
                        }
                        continue;
                    }
                    Ok(Staging::Fallback) => {}
                    Err(err) => {
                        values[pos] = Some(Err(err));
                        continue;
                    }
                }
            }
            values[pos] = Some(
                sample_failure_probability(
                    assembly,
                    service,
                    env,
                    quantities,
                    &factor_vectors[i],
                    options,
                    plans,
                )
                .map(|p| p.value()),
            );
        }
        plans.record_stage_nanos(stage_nanos);
        acc.finish(&mut success);
        for (tag, err) in acc.take_errors() {
            values[tag] = Some(Err(err));
        }
        for pos in deferred {
            if values[pos].is_none() {
                values[pos] = Some(complement_of_success(success[pos]).map(|p| p.value()));
            }
        }
        values
            .into_iter()
            .map(|v| v.expect("every sample resolved"))
            .collect()
    });
    let mut values = results.into_iter().collect::<Result<Vec<f64>>>()?;
    values.sort_by(|a, b| a.partial_cmp(b).expect("probabilities are finite"));
    let pct = |q: f64| -> f64 {
        let idx = ((values.len() as f64 - 1.0) * q).round() as usize;
        values[idx]
    };
    Ok(UncertaintySummary {
        samples,
        mean: values.iter().sum::<f64>() / samples as f64,
        p05: pct(0.05),
        p50: pct(0.50),
        p95: pct(0.95),
    })
}

/// Guaranteed interval: evaluates with every factor at its lower bound and
/// at its upper bound. By monotonicity of `Pfail` in every failure
/// mechanism, the true value (for any factor vector inside the bounds) lies
/// in the returned `[low, high]`.
///
/// # Errors
///
/// Validation and evaluation errors as in [`propagate`].
pub fn interval(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
    quantities: &[UncertainQuantity],
) -> Result<(Probability, Probability)> {
    interval_with_options(assembly, service, env, quantities, EvalOptions::default())
}

/// [`interval`] with explicit [`EvalOptions`] for the two bracketing solves.
///
/// # Errors
///
/// Validation and evaluation errors as in [`propagate`].
pub fn interval_with_options(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
    quantities: &[UncertainQuantity],
    options: EvalOptions,
) -> Result<(Probability, Probability)> {
    for q in quantities {
        q.distribution.validate()?;
    }
    let lows: Vec<f64> = quantities
        .iter()
        .map(|q| q.distribution.bounds().0)
        .collect();
    let highs: Vec<f64> = quantities
        .iter()
        .map(|q| q.distribution.bounds().1)
        .collect();
    // The two bracketing assemblies share every flow structure: one plan
    // cache (and one block accumulator) lets both top-level solves ride a
    // single two-lane tape replay when the sweep stages; otherwise each
    // bracket is one evaluation of its perturbed assembly.
    let plans = Arc::new(PlanCache::new());
    let staged = match StagedSweep::compile(assembly, service, env, &plans, options)? {
        Some(sweep) => {
            let levers = sweep.prepare_levers(assembly, quantities.iter().map(|q| &q.lever))?;
            Some((sweep, levers))
        }
        None => None,
    };
    let mut scratch = staged.as_ref().map(|(sweep, _)| sweep.new_scratch());
    let mut acc = FlowBlockAccumulator::new(Arc::clone(&plans));
    let mut success = [f64::NAN; 2];
    let mut stage_nanos = 0u64;
    let mut bracket = |factors: &[f64], tag: usize| -> Result<Option<Probability>> {
        if let (Some((sweep, levers)), Some(scratch)) = (&staged, scratch.as_mut()) {
            let stage_started = Instant::now();
            let staging = sweep.stage_factors(levers, factors, scratch)?;
            stage_nanos += u64::try_from(stage_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if staging == Staging::Row {
                acc.submit_row(sweep.plan(), &scratch.row, tag, &mut success)?;
                return Ok(None);
            }
        }
        sample_failure_probability(assembly, service, env, quantities, factors, options, &plans)
            .map(Some)
    };
    let low = bracket(&lows, 0)?;
    let high = bracket(&highs, 1)?;
    plans.record_stage_nanos(stage_nanos);
    acc.finish(&mut success);
    if let Some((_, err)) = acc.take_errors().into_iter().next() {
        return Err(err);
    }
    let resolve = |immediate: Option<Probability>, tag: usize| match immediate {
        Some(p) => Ok(p),
        None => complement_of_success(success[tag]),
    };
    Ok((resolve(low, 0)?, resolve(high, 1)?))
}

/// `Pfail` of the assembly with every quantity's lever scaled by its
/// factor: one evaluation of the perturbed assembly over the shared plan
/// cache — the generic path for samples the staged sweep cannot row-stage.
fn sample_failure_probability(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
    quantities: &[UncertainQuantity],
    factors: &[f64],
    options: EvalOptions,
    plans: &Arc<PlanCache>,
) -> Result<Probability> {
    let pairs: Vec<(&Lever, f64)> = quantities
        .iter()
        .zip(factors)
        .map(|(q, &f)| (&q.lever, f))
        .collect();
    let perturbed = apply_all(assembly, &pairs)?;
    Evaluator::with_plan_cache(&perturbed, options, Arc::clone(plans))
        .failure_probability(service, env)
}

/// `Pfail` from a flushed lane's raw success probability.
fn complement_of_success(success: f64) -> Result<Probability> {
    Ok(Probability::new(success)?.complement())
}

#[cfg(test)]
mod tests {
    use super::*;
    use archrel_model::paper;

    fn setup() -> (Assembly, Bindings) {
        let params = paper::PaperParams::default()
            .with_gamma(5e-2)
            .with_phi_sort1(5e-6);
        (
            paper::remote_assembly(&params).unwrap(),
            paper::search_bindings(4.0, 4096.0, 1.0),
        )
    }

    fn quantities() -> Vec<UncertainQuantity> {
        vec![
            UncertainQuantity::rate_within_factor(paper::NET, 3.0).unwrap(),
            UncertainQuantity {
                lever: Lever::InternalFailure(paper::SORT_REMOTE.into()),
                distribution: FactorDistribution::Uniform {
                    low: 0.5,
                    high: 2.0,
                },
            },
        ]
    }

    #[test]
    fn point_distributions_reproduce_baseline() {
        let (assembly, env) = setup();
        let baseline = Evaluator::new(&assembly)
            .failure_probability(&paper::SEARCH.into(), &env)
            .unwrap()
            .value();
        let qs = vec![UncertainQuantity {
            lever: Lever::ServiceFailure(paper::NET.into()),
            distribution: FactorDistribution::Point,
        }];
        let summary = propagate(&assembly, &paper::SEARCH.into(), &env, &qs, 50, 1).unwrap();
        assert!((summary.mean - baseline).abs() < 1e-12);
        assert!((summary.p05 - summary.p95).abs() < 1e-15);
    }

    #[test]
    fn percentiles_are_ordered_and_bracket_the_baseline() {
        let (assembly, env) = setup();
        let baseline = Evaluator::new(&assembly)
            .failure_probability(&paper::SEARCH.into(), &env)
            .unwrap()
            .value();
        let summary = propagate(
            &assembly,
            &paper::SEARCH.into(),
            &env,
            &quantities(),
            400,
            7,
        )
        .unwrap();
        assert!(summary.p05 <= summary.p50 && summary.p50 <= summary.p95);
        assert!(summary.p05 < baseline && baseline < summary.p95);
        assert!(summary.samples == 400);
    }

    #[test]
    fn interval_brackets_every_sample() {
        let (assembly, env) = setup();
        let qs = quantities();
        let (low, high) = interval(&assembly, &paper::SEARCH.into(), &env, &qs).unwrap();
        assert!(low.value() < high.value());
        let summary = propagate(&assembly, &paper::SEARCH.into(), &env, &qs, 200, 3).unwrap();
        assert!(low.value() <= summary.p05 + 1e-15);
        assert!(summary.p95 <= high.value() + 1e-15);
    }

    #[test]
    fn wider_uncertainty_widens_the_interval() {
        let (assembly, env) = setup();
        let narrow = vec![UncertainQuantity::rate_within_factor(paper::NET, 1.5).unwrap()];
        let wide = vec![UncertainQuantity::rate_within_factor(paper::NET, 10.0).unwrap()];
        let (nl, nh) = interval(&assembly, &paper::SEARCH.into(), &env, &narrow).unwrap();
        let (wl, wh) = interval(&assembly, &paper::SEARCH.into(), &env, &wide).unwrap();
        assert!(wl.value() <= nl.value());
        assert!(wh.value() >= nh.value());
        assert!(wh.value() - wl.value() > nh.value() - nl.value());
    }

    #[test]
    fn validation_errors() {
        let (assembly, env) = setup();
        assert!(UncertainQuantity::rate_within_factor("x", 0.5).is_err());
        let bad = vec![UncertainQuantity {
            lever: Lever::ServiceFailure(paper::NET.into()),
            distribution: FactorDistribution::Uniform {
                low: 2.0,
                high: 1.0,
            },
        }];
        assert!(interval(&assembly, &paper::SEARCH.into(), &env, &bad).is_err());
        assert!(propagate(&assembly, &paper::SEARCH.into(), &env, &[], 0, 1).is_err());
        let bad = vec![UncertainQuantity {
            lever: Lever::ServiceFailure(paper::NET.into()),
            distribution: FactorDistribution::LogUniform {
                low: 0.0,
                high: 1.0,
            },
        }];
        assert!(propagate(&assembly, &paper::SEARCH.into(), &env, &bad, 10, 1).is_err());
    }

    #[test]
    fn worker_count_does_not_change_the_summary() {
        let (assembly, env) = setup();
        let reference = propagate_with_workers(
            &assembly,
            &paper::SEARCH.into(),
            &env,
            &quantities(),
            100,
            42,
            1,
        )
        .unwrap();
        for workers in [2, 8] {
            let got = propagate_with_workers(
                &assembly,
                &paper::SEARCH.into(),
                &env,
                &quantities(),
                100,
                42,
                workers,
            )
            .unwrap();
            assert_eq!(reference, got, "{workers} workers");
        }
    }

    #[test]
    fn solver_policy_threads_through_propagation() {
        use crate::SolverPolicy;
        let (assembly, env) = setup();
        let options = |solver| EvalOptions {
            solver,
            ..EvalOptions::default()
        };
        let dense = propagate_with_options(
            &assembly,
            &paper::SEARCH.into(),
            &env,
            &quantities(),
            60,
            11,
            2,
            options(SolverPolicy::Dense),
        )
        .unwrap();
        let sparse = propagate_with_options(
            &assembly,
            &paper::SEARCH.into(),
            &env,
            &quantities(),
            60,
            11,
            2,
            options(SolverPolicy::Sparse),
        )
        .unwrap();
        assert!((dense.mean - sparse.mean).abs() < 1e-10);
        assert!((dense.p95 - sparse.p95).abs() < 1e-10);
        let (dl, dh) = interval_with_options(
            &assembly,
            &paper::SEARCH.into(),
            &env,
            &quantities(),
            options(SolverPolicy::Dense),
        )
        .unwrap();
        let (sl, sh) = interval_with_options(
            &assembly,
            &paper::SEARCH.into(),
            &env,
            &quantities(),
            options(SolverPolicy::Sparse),
        )
        .unwrap();
        assert!((dl.value() - sl.value()).abs() < 1e-10);
        assert!((dh.value() - sh.value()).abs() < 1e-10);
    }

    /// An assembly whose target composite calls only simple services —
    /// the shape the staged sweep compiler accepts.
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
            actual_params: vec![("ops".to_string(), Expr::num(3.0))],
            connector: None,
            internal_failure: InternalFailureModel::None,
        };
        // Acyclic on purpose: the bitwise block ≡ scalar replay contract —
        // which this test leans on for its reference values — covers the
        // straight-line tape, not rank-1 incremental re-solves.
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
                CompositeService::new("app", vec!["n".to_string()], flow).unwrap(),
            ))
            .build()
            .unwrap();
        (assembly, Bindings::new().with("n", 6.0))
    }

    /// Staged factor sweeps must be **bitwise** identical to the generic
    /// per-sample scalar rebuild under the same compiled-plan policy: same
    /// sampled factors, same values, same summary — at every final-block
    /// occupancy of the lane-8 accumulator, and striped across workers.
    #[test]
    fn staged_propagation_matches_generic_scalar_loop_bitwise() {
        use crate::SolverPolicy;
        use archrel_markov::LANE;
        let (assembly, env) = stageable_assembly();
        let qs = vec![
            UncertainQuantity {
                lever: Lever::ServiceFailure("cpu".into()),
                distribution: FactorDistribution::LogUniform {
                    low: 0.5,
                    high: 2.0,
                },
            },
            UncertainQuantity {
                lever: Lever::InternalFailure("app".into()),
                distribution: FactorDistribution::Uniform {
                    low: 0.8,
                    high: 1.2,
                },
            },
        ];
        let options = EvalOptions {
            solver: SolverPolicy::Compiled,
            ..EvalOptions::default()
        };
        let (samples, seed) = (64, 9);
        // Reference: identical factor draws, evaluated one by one on the
        // generic path (rebuild assembly, fresh evaluator, scalar solve).
        let mut rng = StdRng::seed_from_u64(seed);
        let reference: Vec<f64> = (0..samples)
            .map(|_| {
                let factors: Vec<(&Lever, f64)> = qs
                    .iter()
                    .map(|q| (&q.lever, q.distribution.sample(&mut rng)))
                    .collect();
                let perturbed = apply_all(&assembly, &factors).unwrap();
                let plans = Arc::new(PlanCache::new());
                Evaluator::with_plan_cache(&perturbed, options, plans)
                    .failure_probability(&"app".into(), &env)
                    .unwrap()
                    .value()
            })
            .collect();
        // The summary of the first `n` reference samples, bitwise.
        let check = |summary: &UncertaintySummary, n: usize| {
            let mut values = reference[..n].to_vec();
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let pct = |q: f64| values[((values.len() as f64 - 1.0) * q).round() as usize];
            assert_eq!(
                summary.mean.to_bits(),
                (values.iter().sum::<f64>() / n as f64).to_bits(),
                "{n} samples"
            );
            assert_eq!(summary.p05.to_bits(), pct(0.05).to_bits(), "{n} samples");
            assert_eq!(summary.p50.to_bits(), pct(0.50).to_bits(), "{n} samples");
            assert_eq!(summary.p95.to_bits(), pct(0.95).to_bits(), "{n} samples");
        };
        // One worker, every sample count up to two full blocks plus one,
        // so each final-block occupancy 1..=LANE flushes through the
        // accumulator: every sample is a staged row.
        for n in 1..=2 * LANE + 1 {
            let plans = Arc::new(PlanCache::new());
            let summary = propagate_with_plan_cache(
                &assembly,
                &"app".into(),
                &env,
                &qs,
                n,
                seed,
                1,
                options,
                &plans,
            )
            .unwrap();
            check(&summary, n);
            let stats = plans.stats();
            assert_eq!(stats.block_points, n as u64, "{n} samples: {stats:?}");
            assert_eq!(
                stats.block_flushes,
                n.div_ceil(LANE) as u64,
                "{n} samples: {stats:?}"
            );
        }
        // Striped across workers.
        let summary = propagate_with_options(
            &assembly,
            &"app".into(),
            &env,
            &qs,
            samples,
            seed,
            3,
            options,
        )
        .unwrap();
        check(&summary, samples);
        // The interval must agree with the generic bracketing too.
        let (low, high) =
            interval_with_options(&assembly, &"app".into(), &env, &qs, options).unwrap();
        let bracket = |pick: fn(&FactorDistribution) -> f64| -> f64 {
            let factors: Vec<(&Lever, f64)> = qs
                .iter()
                .map(|q| (&q.lever, pick(&q.distribution)))
                .collect();
            let perturbed = apply_all(&assembly, &factors).unwrap();
            Evaluator::with_plan_cache(&perturbed, options, Arc::new(PlanCache::new()))
                .failure_probability(&"app".into(), &env)
                .unwrap()
                .value()
        };
        assert_eq!(low.value().to_bits(), bracket(|d| d.bounds().0).to_bits());
        assert_eq!(high.value().to_bits(), bracket(|d| d.bounds().1).to_bits());
    }

    #[test]
    fn reproducible_for_fixed_seed() {
        let (assembly, env) = setup();
        let a = propagate(
            &assembly,
            &paper::SEARCH.into(),
            &env,
            &quantities(),
            100,
            42,
        )
        .unwrap();
        let b = propagate(
            &assembly,
            &paper::SEARCH.into(),
            &env,
            &quantities(),
            100,
            42,
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
