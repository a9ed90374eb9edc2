//! Reliability-improvement advisor: *where* should the architect spend
//! effort, and *how much* is needed to hit a target?
//!
//! Closes the loop the paper's §1 opens ("to appropriately drive the
//! selection and assembly of services, in order to get some required
//! dependability level"): given a target reliability, the advisor ranks the
//! assembly's **improvement levers** — each a multiplicative scaling of one
//! service's failure mechanism — by how much head-room they offer, and
//! computes the minimal scaling of a chosen lever that meets the target
//! (bisection over the monotone response).

use std::sync::Arc;
use std::time::Instant;

use archrel_expr::Bindings;
use archrel_model::{
    Assembly, AssemblyBuilder, CompositeService, FailureModel, FlowBuilder, InternalFailureModel,
    Probability, Service, ServiceId, SimpleService,
};

use crate::staged::{StagedLevers, StagedSweep, Staging};
use crate::{CoreError, EvalOptions, Evaluator, PlanCache, Result};

/// One improvement lever: scale a service's failure mechanism by `factor`
/// (`0.0` = perfect, `1.0` = unchanged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lever {
    /// Scale the published failure law of a simple service (its `rate`,
    /// constant probability, or per-unit probability).
    ServiceFailure(ServiceId),
    /// Scale the caller-side software failure rates (ϕ of eq. 14 and
    /// constant internal failures) inside a composite service's flow.
    InternalFailure(ServiceId),
}

impl Lever {
    /// The service the lever acts on.
    pub fn service(&self) -> &ServiceId {
        match self {
            Lever::ServiceFailure(s) | Lever::InternalFailure(s) => s,
        }
    }
}

/// Outcome of evaluating one lever at its extreme (`factor = 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct LeverAssessment {
    /// The lever.
    pub lever: Lever,
    /// Assembly failure probability with the lever's mechanism removed
    /// entirely — the *best case* this lever can reach alone.
    pub best_case_failure: Probability,
    /// Baseline minus best case: the probability mass this lever controls.
    pub head_room: f64,
}

/// Applies `factor` to a lever, producing a rebuilt assembly.
///
/// # Errors
///
/// - [`CoreError::Model`] when the lever's service is absent or of the
///   wrong kind, or when `factor` is negative/non-finite.
pub fn apply_lever(assembly: &Assembly, lever: &Lever, factor: f64) -> Result<Assembly> {
    if !factor.is_finite() || factor < 0.0 {
        return Err(CoreError::Model(
            archrel_model::ModelError::InvalidAttribute {
                name: "factor",
                value: factor,
            },
        ));
    }
    let mut builder = AssemblyBuilder::new();
    for service in assembly.services() {
        let rebuilt = match (lever, service) {
            (Lever::ServiceFailure(id), Service::Simple(s)) if s.id() == id => {
                Service::Simple(scale_simple(s, factor))
            }
            (Lever::InternalFailure(id), Service::Composite(c)) if c.id() == id => {
                Service::Composite(scale_internal(c, factor)?)
            }
            _ => service.clone(),
        };
        builder = builder.service(rebuilt);
    }
    // Verify the lever matched something of the right kind.
    match (lever, assembly.service(lever.service())) {
        (_, None) => {
            return Err(CoreError::Model(
                archrel_model::ModelError::UnknownService {
                    id: lever.service().to_string(),
                    referenced_from: "<improvement lever>".to_string(),
                },
            ))
        }
        (Lever::ServiceFailure(_), Some(Service::Composite(_)))
        | (Lever::InternalFailure(_), Some(Service::Simple(_))) => {
            return Err(CoreError::Model(
                archrel_model::ModelError::UnknownService {
                    id: format!("{} (wrong service kind for this lever)", lever.service()),
                    referenced_from: "<improvement lever>".to_string(),
                },
            ))
        }
        _ => {}
    }
    Ok(builder.build()?)
}

/// The `ServiceFailure` lever's arithmetic on one failure law. Shared with
/// the staged-sweep compiler (`crate::staged`) so a staged factor sweep
/// reproduces `apply_lever` bit for bit.
pub(crate) fn scale_failure_model(model: &FailureModel, factor: f64) -> FailureModel {
    match *model {
        FailureModel::ExponentialRate { rate, capacity } => FailureModel::ExponentialRate {
            rate: rate * factor,
            capacity,
        },
        FailureModel::Perfect => FailureModel::Perfect,
        FailureModel::Constant { probability } => FailureModel::Constant {
            probability: (probability * factor).min(1.0),
        },
        FailureModel::PerUnit { probability } => FailureModel::PerUnit {
            probability: (probability * factor).min(1.0),
        },
    }
}

/// The `InternalFailure` lever's arithmetic on one caller-side law
/// (see [`scale_failure_model`] for why it is factored out).
pub(crate) fn scale_internal_model(
    model: &InternalFailureModel,
    factor: f64,
) -> InternalFailureModel {
    match *model {
        InternalFailureModel::None => InternalFailureModel::None,
        InternalFailureModel::Constant { probability } => InternalFailureModel::Constant {
            probability: (probability * factor).min(1.0),
        },
        InternalFailureModel::PerOperation { phi } => InternalFailureModel::PerOperation {
            phi: (phi * factor).min(1.0),
        },
    }
}

fn scale_simple(s: &SimpleService, factor: f64) -> SimpleService {
    SimpleService::new(
        s.id().clone(),
        s.formal_param(),
        scale_failure_model(s.model(), factor),
    )
}

fn scale_internal(c: &CompositeService, factor: f64) -> Result<CompositeService> {
    let mut flow = FlowBuilder::new();
    for state in c.flow().states() {
        let mut scaled = state.clone();
        for call in &mut scaled.calls {
            call.internal_failure = scale_internal_model(&call.internal_failure, factor);
        }
        flow = flow.state(scaled);
    }
    for t in c.flow().transitions() {
        flow = flow.transition(t.from.clone(), t.to.clone(), t.probability.clone());
    }
    Ok(CompositeService::new(
        c.id().clone(),
        c.formal_params().to_vec(),
        flow.build()?,
    )?)
}

/// Enumerates every lever of the assembly: one `ServiceFailure` per
/// non-perfect simple service and one `InternalFailure` per composite with
/// any internal failure model.
pub fn levers(assembly: &Assembly) -> Vec<Lever> {
    let mut out = Vec::new();
    for service in assembly.services() {
        match service {
            Service::Simple(s) => {
                if !matches!(s.model(), FailureModel::Perfect) {
                    out.push(Lever::ServiceFailure(s.id().clone()));
                }
            }
            Service::Composite(c) => {
                let has_internal = c.flow().states().iter().any(|st| {
                    st.calls
                        .iter()
                        .any(|call| call.internal_failure != InternalFailureModel::None)
                });
                if has_internal {
                    out.push(Lever::InternalFailure(c.id().clone()));
                }
            }
        }
    }
    out
}

/// Assesses every lever's head-room and ranks them (largest first): the
/// levers whose complete removal lowers `Pfail(service, env)` the most.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn rank_levers(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
) -> Result<Vec<LeverAssessment>> {
    rank_levers_with_options(assembly, service, env, EvalOptions::default())
}

/// Like [`rank_levers`], under explicit [`EvalOptions`].
///
/// Every per-lever evaluation runs on a *rebuilt* assembly whose flow
/// structures are unchanged (only the failure values scale), so all the
/// fresh evaluators share one compiled-plan cache: under
/// [`crate::SolverPolicy::Compiled`] (or [`crate::SolverPolicy::Auto`] on a
/// sparse-regime acyclic flow) each flow structure is compiled once and
/// every lever assessment replays the tape. The one exception — a lever
/// whose zeroing drops a `Fail` edge entirely — changes the structure
/// fingerprint and naturally compiles its own plan.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn rank_levers_with_options(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
    options: EvalOptions,
) -> Result<Vec<LeverAssessment>> {
    let plans = Arc::new(PlanCache::new());
    // Staged fast path: the baseline and every lever assessment share one
    // compiled sweep; points whose zeroing keeps the flow structure stage
    // straight into a plan row (no rebuild, no `Bindings`), while levers
    // that drop a `Fail` edge fall back to the generic rebuild below.
    let staged = StagedSweep::compile(assembly, service, env, &plans, options)?;
    let mut scratch = staged.as_ref().map(|s| s.new_scratch());
    let mut stage_nanos = 0u64;
    let mut stage_point =
        |sweep: &StagedSweep, prepared: &StagedLevers, factors: &[f64]| -> Result<Option<f64>> {
            let scratch = scratch
                .as_mut()
                .expect("scratch exists alongside the sweep");
            let started = Instant::now();
            let staging = sweep.stage_factors(prepared, factors, scratch);
            stage_nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            match staging? {
                Staging::Row => Ok(Some(sweep.evaluate_row(scratch)?.value())),
                Staging::Fallback => Ok(None),
            }
        };
    let baseline = match &staged {
        Some(sweep) => stage_point(sweep, &StagedLevers::empty(), &[])?,
        None => None,
    };
    let baseline = match baseline {
        Some(p) => p,
        None => Evaluator::with_plan_cache(assembly, options, Arc::clone(&plans))
            .failure_probability(service, env)?
            .value(),
    };
    let mut out = Vec::new();
    for lever in levers(assembly) {
        let staged_best = match &staged {
            Some(sweep) => {
                let prepared = sweep.prepare_levers(assembly, std::iter::once(&lever))?;
                stage_point(sweep, &prepared, &[0.0])?
            }
            None => None,
        };
        let best_case = match staged_best {
            Some(p) => Probability::new(p)?,
            None => {
                let improved = apply_lever(assembly, &lever, 0.0)?;
                Evaluator::with_plan_cache(&improved, options, Arc::clone(&plans))
                    .failure_probability(service, env)?
            }
        };
        out.push(LeverAssessment {
            head_room: (baseline - best_case.value()).max(0.0),
            best_case_failure: best_case,
            lever,
        });
    }
    plans.record_stage_nanos(stage_nanos);
    out.sort_by(|a, b| {
        b.head_room
            .partial_cmp(&a.head_room)
            .expect("head rooms are finite")
    });
    Ok(out)
}

/// Finds (by bisection) the largest factor `f ∈ [0, 1]` such that scaling
/// `lever` by `f` achieves `Pfail(service, env) ≤ target` — i.e. the
/// *least aggressive* improvement that meets the target. Returns `None`
/// when even `f = 0` cannot reach the target (the lever alone is not
/// enough).
///
/// # Errors
///
/// Propagates evaluation and lever errors.
pub fn required_factor(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
    lever: &Lever,
    target: Probability,
) -> Result<Option<f64>> {
    required_factor_with_options(
        assembly,
        service,
        env,
        lever,
        target,
        EvalOptions::default(),
    )
}

/// Like [`required_factor`], under explicit [`EvalOptions`].
///
/// The bisection evaluates ~60 rebuilt assemblies that all share each flow's
/// structure; one plan cache spans the whole search, so compiled-plan
/// policies pay for compilation once and replay the tape per probe.
///
/// # Errors
///
/// Propagates evaluation and lever errors.
pub fn required_factor_with_options(
    assembly: &Assembly,
    service: &ServiceId,
    env: &Bindings,
    lever: &Lever,
    target: Probability,
    options: EvalOptions,
) -> Result<Option<f64>> {
    let plans = Arc::new(PlanCache::new());
    // Staged fast path: the ~60 bisection probes share one compiled sweep
    // and stage straight into plan rows. A probe that changes the flow
    // structure (typically only `factor = 0`) rebuilds generically; both
    // paths are bitwise-identical on compiled structures.
    let staged = match StagedSweep::compile(assembly, service, env, &plans, options)? {
        Some(sweep) => {
            let prepared = sweep.prepare_levers(assembly, std::iter::once(lever))?;
            Some((sweep, prepared))
        }
        None => None,
    };
    let mut scratch = staged.as_ref().map(|(sweep, _)| sweep.new_scratch());
    let mut pfail_at = |factor: f64| -> Result<f64> {
        if let (Some((sweep, prepared)), Some(scratch)) = (&staged, scratch.as_mut()) {
            let started = Instant::now();
            let staging = sweep.stage_factors(prepared, &[factor], scratch);
            plans.record_stage_nanos(
                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            if staging? == Staging::Row {
                return Ok(sweep.evaluate_row(scratch)?.value());
            }
        }
        let improved = apply_lever(assembly, lever, factor)?;
        Ok(
            Evaluator::with_plan_cache(&improved, options, Arc::clone(&plans))
                .failure_probability(service, env)?
                .value(),
        )
    };
    if pfail_at(1.0)? <= target.value() {
        return Ok(Some(1.0)); // already good
    }
    if pfail_at(0.0)? > target.value() {
        return Ok(None); // unreachable with this lever alone
    }
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64); // pfail(lo) <= target < pfail(hi)
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if pfail_at(mid)? <= target.value() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use archrel_model::paper;

    fn setup() -> (Assembly, Bindings) {
        let params = paper::PaperParams::default().with_phi_sort1(5e-6);
        (
            paper::local_assembly(&params).unwrap(),
            paper::search_bindings(4.0, 8192.0, 1.0),
        )
    }

    #[test]
    fn lever_enumeration_covers_the_paper_assembly() {
        let (assembly, _) = setup();
        let ls = levers(&assembly);
        // cpu1 (simple, exponential), sort1 (internal phi), search (internal
        // phi). The loc connectors are perfect and lpc has no internals.
        let names: Vec<String> = ls.iter().map(|l| l.service().to_string()).collect();
        assert!(names.contains(&"cpu1".to_string()));
        assert!(names.contains(&paper::SORT_LOCAL.to_string()));
        assert!(names.contains(&paper::SEARCH.to_string()));
        assert_eq!(ls.len(), 3, "{names:?}");
    }

    #[test]
    fn sort_software_dominates_the_ranking() {
        let (assembly, env) = setup();
        let ranked = rank_levers(&assembly, &paper::SEARCH.into(), &env).unwrap();
        // With ϕ₁ = 5e-6 on list·log(list) operations, sort1's software
        // failure is by far the dominant mechanism.
        assert_eq!(
            ranked[0].lever,
            Lever::InternalFailure(paper::SORT_LOCAL.into())
        );
        assert!(ranked[0].head_room > ranked[1].head_room * 10.0);
        // Ranking is sorted.
        for w in ranked.windows(2) {
            assert!(w[0].head_room >= w[1].head_room);
        }
    }

    #[test]
    fn apply_lever_scales_monotonically() {
        let (assembly, env) = setup();
        let lever = Lever::InternalFailure(paper::SORT_LOCAL.into());
        let mut last = -1.0;
        for factor in [0.0, 0.25, 0.5, 1.0] {
            let improved = apply_lever(&assembly, &lever, factor).unwrap();
            let p = Evaluator::new(&improved)
                .failure_probability(&paper::SEARCH.into(), &env)
                .unwrap()
                .value();
            assert!(p >= last, "factor {factor}: {p} < {last}");
            last = p;
        }
        // factor = 1 reproduces the baseline exactly.
        let baseline = Evaluator::new(&assembly)
            .failure_probability(&paper::SEARCH.into(), &env)
            .unwrap()
            .value();
        assert!((last - baseline).abs() < 1e-15);
    }

    #[test]
    fn required_factor_meets_the_target() {
        let (assembly, env) = setup();
        let baseline = Evaluator::new(&assembly)
            .failure_probability(&paper::SEARCH.into(), &env)
            .unwrap()
            .value();
        let target = Probability::new(baseline / 2.0).unwrap();
        let lever = Lever::InternalFailure(paper::SORT_LOCAL.into());
        let factor = required_factor(&assembly, &paper::SEARCH.into(), &env, &lever, target)
            .unwrap()
            .expect("the dominant lever can reach half the baseline");
        assert!(factor > 0.0 && factor < 1.0);
        // Applying the factor achieves the target (within bisection slack).
        let improved = apply_lever(&assembly, &lever, factor).unwrap();
        let achieved = Evaluator::new(&improved)
            .failure_probability(&paper::SEARCH.into(), &env)
            .unwrap()
            .value();
        assert!(achieved <= target.value() * (1.0 + 1e-9), "{achieved}");
        // The next representable factor above would overshoot: the answer is
        // the least aggressive improvement (largest feasible factor).
        let slack = apply_lever(&assembly, &lever, (factor + 1e-3).min(1.0)).unwrap();
        let overshoot = Evaluator::new(&slack)
            .failure_probability(&paper::SEARCH.into(), &env)
            .unwrap()
            .value();
        assert!(overshoot > target.value());
    }

    #[test]
    fn unreachable_target_returns_none() {
        let (assembly, env) = setup();
        // cpu1's hardware contribution is tiny: zeroing it cannot reach a
        // near-zero target while sort software failures remain.
        let lever = Lever::ServiceFailure("cpu1".into());
        let result = required_factor(
            &assembly,
            &paper::SEARCH.into(),
            &env,
            &lever,
            Probability::new(1e-9).unwrap(),
        )
        .unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn already_met_target_returns_one() {
        let (assembly, env) = setup();
        let lever = Lever::ServiceFailure("cpu1".into());
        let result = required_factor(
            &assembly,
            &paper::SEARCH.into(),
            &env,
            &lever,
            Probability::new(0.999).unwrap(),
        )
        .unwrap();
        assert_eq!(result, Some(1.0));
    }

    /// An acyclic assembly the staged sweep compiler accepts (bitwise
    /// block ≡ scalar holds on the straight-line tape only).
    fn stageable_assembly() -> (Assembly, Bindings) {
        use archrel_expr::Expr;
        use archrel_model::{FlowState, ServiceCall, StateId};
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

    /// Staged lever assessments and bisection probes must be **bitwise**
    /// identical to the generic rebuild-per-point path under the same
    /// compiled-plan policy.
    #[test]
    fn staged_improvement_matches_generic_rebuild_bitwise() {
        use crate::SolverPolicy;
        let (assembly, env) = stageable_assembly();
        let service: ServiceId = "app".into();
        let options = EvalOptions {
            solver: SolverPolicy::Compiled,
            ..EvalOptions::default()
        };
        let ranked = rank_levers_with_options(&assembly, &service, &env, options).unwrap();
        // Generic reference: rebuild per lever, fresh shared-cache
        // evaluators, identical ordering criteria.
        let plans = Arc::new(PlanCache::new());
        let baseline = Evaluator::with_plan_cache(&assembly, options, Arc::clone(&plans))
            .failure_probability(&service, &env)
            .unwrap()
            .value();
        let mut reference: Vec<LeverAssessment> = levers(&assembly)
            .into_iter()
            .map(|lever| {
                let improved = apply_lever(&assembly, &lever, 0.0).unwrap();
                let best_case = Evaluator::with_plan_cache(&improved, options, Arc::clone(&plans))
                    .failure_probability(&service, &env)
                    .unwrap();
                LeverAssessment {
                    head_room: (baseline - best_case.value()).max(0.0),
                    best_case_failure: best_case,
                    lever,
                }
            })
            .collect();
        reference.sort_by(|a, b| b.head_room.partial_cmp(&a.head_room).unwrap());
        assert_eq!(ranked.len(), reference.len());
        for (r, g) in ranked.iter().zip(&reference) {
            assert_eq!(r.lever, g.lever);
            assert_eq!(
                r.best_case_failure.value().to_bits(),
                g.best_case_failure.value().to_bits()
            );
            assert_eq!(r.head_room.to_bits(), g.head_room.to_bits());
        }
        // Bisection: the staged factor search lands on the exact same
        // factor as a generic bisection over rebuilt assemblies.
        let lever = Lever::ServiceFailure("cpu".into());
        let target = Probability::new(baseline * 0.7).unwrap();
        let staged_factor =
            required_factor_with_options(&assembly, &service, &env, &lever, target, options)
                .unwrap()
                .expect("scaling cpu can reach 70% of baseline");
        let generic_pfail = |factor: f64| -> f64 {
            let improved = apply_lever(&assembly, &lever, factor).unwrap();
            let plans = Arc::new(PlanCache::new());
            Evaluator::with_plan_cache(&improved, options, plans)
                .failure_probability(&service, &env)
                .unwrap()
                .value()
        };
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if generic_pfail(mid) <= target.value() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        assert_eq!(staged_factor.to_bits(), lo.to_bits());
    }

    #[test]
    fn lever_errors() {
        let (assembly, _) = setup();
        assert!(apply_lever(&assembly, &Lever::ServiceFailure("ghost".into()), 0.5).is_err());
        assert!(apply_lever(
            &assembly,
            &Lever::ServiceFailure(paper::SEARCH.into()), // composite: wrong kind
            0.5
        )
        .is_err());
        assert!(apply_lever(
            &assembly,
            &Lever::InternalFailure("cpu1".into()), // simple: wrong kind
            0.5
        )
        .is_err());
        assert!(apply_lever(&assembly, &Lever::ServiceFailure("cpu1".into()), -1.0).is_err());
    }
}
