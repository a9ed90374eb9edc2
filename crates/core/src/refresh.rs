//! Streaming fleet refresh: feed usage-profile **delta sets** into the
//! evaluator as dirty-cone updates instead of full re-solves.
//!
//! The streaming pipeline's last stage. Upstream, a
//! `profile::StreamingEstimator` watches call traces and emits the
//! transition rows that moved; each moved edge maps to one usage
//! parameter of one fleet service. [`FleetRefresh`] routes those
//! parameter moves to their owning services and re-evaluates **only the
//! dirty ones**, through the cheapest path that stays bitwise-pinned to a
//! full re-solve:
//!
//! 1. **Staged delta rows.** Services whose evaluation compiles to a
//!    [`StagedSweep`](crate::staged::StagedSweep) keep a staged env
//!    center; a delta re-runs only the union of the moved parameters'
//!    dependency cones (`stage_env_deltas`), patches the plan's parameter
//!    row in place, and replays the back-substitution tape — no
//!    `Bindings` churn, no chain rebuild, no factorization. After each
//!    applied delta the center advances, so the next delta stages
//!    against the just-applied env.
//! 2. **Dirty-cone generic fallback.** Services that decline staging
//!    (aggregates over composites, k-out-of-n replica groups) are
//!    evaluated by one long-lived [`Evaluator`] whose
//!    [`declare_varied`](Evaluator::declare_varied) pinning limits
//!    recomputation to each delta's cone; a staged service also drops to
//!    this path for the rare delta that moves failure structure.
//!
//! Services outside every delta's cone are **never touched** — not
//! restaged, not re-evaluated, not even visited. Both paths produce
//! results bitwise identical to a fresh full evaluation of the same env
//! (the staged path by `staged.rs`'s self-check + cone proofs, the
//! generic path by the program memo's bit-compare guards), which the
//! streaming differential suites (`streaming_refresh.rs` among them)
//! enforce end to end.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use archrel_expr::Bindings;
use archrel_model::{Assembly, Probability, ServiceId};

use crate::eval::{EvalOptions, Evaluator, PlanCache};
use crate::staged::{StagedEnvCenter, StagedScratch, StagedSweep, Staging};
use crate::{CoreError, Result};

/// Counters describing one [`FleetRefresh::apply`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Parameter moves routed to owning services.
    pub deltas_routed: usize,
    /// Services re-evaluated (dirty services).
    pub services_refreshed: usize,
    /// Registered services left completely untouched.
    pub services_untouched: usize,
    /// Dirty services answered by a staged delta row (tape replay only).
    pub staged_rows: usize,
    /// Dirty services whose staged center had to be rebuilt by a full
    /// staging pass (after an earlier structural fallback).
    pub restaged_centers: usize,
    /// Dirty services answered by the generic dirty-cone evaluator.
    pub fallback_solves: usize,
}

impl RefreshStats {
    /// Folds another apply's counters into this one.
    pub fn merge(&mut self, other: &RefreshStats) {
        self.deltas_routed += other.deltas_routed;
        self.services_refreshed += other.services_refreshed;
        self.services_untouched += other.services_untouched;
        self.staged_rows += other.staged_rows;
        self.restaged_centers += other.restaged_centers;
        self.fallback_solves += other.fallback_solves;
    }
}

/// The staged fast path of one registered service. `center` is `None`
/// after a structural fallback (the snapshot no longer matches the
/// applied env) until a full staging pass rebuilds it.
struct StagedState {
    sweep: StagedSweep,
    center: Option<StagedEnvCenter>,
    scratch: StagedScratch,
}

/// One registered fleet service: its current usage env, its varied
/// parameter names, its (optional) staged fast path, and its current
/// failure probability.
struct RefreshService {
    id: ServiceId,
    env: Bindings,
    staged: Option<StagedState>,
    failure: Probability,
}

/// Incremental re-evaluation driver over a fleet of services sharing one
/// assembly: register each service once with its usage env and varied
/// parameters, then [`apply`](FleetRefresh::apply) streaming parameter
/// deltas. See the module docs for the update paths and the bitwise
/// contract.
pub struct FleetRefresh<'a> {
    assembly: &'a Assembly,
    options: EvalOptions,
    plans: Arc<PlanCache>,
    evaluator: Evaluator<'a>,
    services: Vec<RefreshService>,
    index: HashMap<ServiceId, usize>,
    /// Usage parameter → owning service index (unique by construction).
    owner: HashMap<String, usize>,
}

impl<'a> FleetRefresh<'a> {
    /// A refresh driver over `assembly` with a fresh plan cache.
    pub fn new(assembly: &'a Assembly, options: EvalOptions) -> Self {
        FleetRefresh::with_plan_cache(assembly, options, Arc::new(PlanCache::new()))
    }

    /// A refresh driver sharing an existing compiled-plan cache, so fleets
    /// of structurally identical services compile each flow shape once.
    pub fn with_plan_cache(
        assembly: &'a Assembly,
        options: EvalOptions,
        plans: Arc<PlanCache>,
    ) -> Self {
        FleetRefresh {
            assembly,
            options,
            evaluator: Evaluator::with_plan_cache(assembly, options, Arc::clone(&plans)),
            plans,
            services: Vec::new(),
            index: HashMap::new(),
            owner: HashMap::new(),
        }
    }

    /// Registers one fleet service with its initial usage env and the
    /// parameter names streaming deltas may move, computes its initial
    /// failure probability, and compiles its staged fast path when
    /// eligible. Each varied parameter must be owned by exactly one
    /// registered service — that is what lets a flat delta stream route
    /// without per-delta service annotations.
    ///
    /// # Errors
    ///
    /// [`CoreError::FleetDuplicateParam`] when a varied name is already
    /// owned; evaluation errors for the initial env.
    pub fn register(
        &mut self,
        service: ServiceId,
        env: Bindings,
        varied: &[String],
    ) -> Result<Probability> {
        let slot = self.services.len();
        for name in varied {
            if let Some(&o) = self.owner.get(name) {
                return Err(CoreError::FleetDuplicateParam {
                    param: name.clone(),
                    first: self.services[o].id.to_string(),
                    second: service.to_string(),
                });
            }
        }
        self.evaluator.declare_varied(&service, varied);
        let mut staged =
            StagedSweep::compile(self.assembly, &service, &env, &self.plans, self.options)?
                .map(|sweep| {
                    let mut scratch = sweep.new_scratch();
                    let center = sweep.prepare_env_center(&env, &mut scratch)?;
                    Ok::<_, CoreError>(StagedState {
                        sweep,
                        center,
                        scratch,
                    })
                })
                .transpose()?;
        let failure = match staged.as_mut() {
            // prepare_env_center left the staged row in the scratch:
            // replay it rather than paying a generic evaluation.
            Some(state) if state.center.is_some() => {
                state.sweep.evaluate_row(&mut state.scratch)?
            }
            _ => self.evaluator.failure_probability(&service, &env)?,
        };
        for name in varied {
            self.owner.insert(name.clone(), slot);
        }
        self.index.insert(service.clone(), slot);
        self.services.push(RefreshService {
            id: service,
            env,
            staged,
            failure,
        });
        Ok(failure)
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether no service is registered yet.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Number of registered services currently holding a staged fast path.
    pub fn staged_count(&self) -> usize {
        self.services.iter().filter(|s| s.staged.is_some()).count()
    }

    /// The current failure probability of a registered service.
    pub fn failure(&self, service: &ServiceId) -> Option<Probability> {
        self.index.get(service).map(|&i| self.services[i].failure)
    }

    /// The current reliability (failure complement) of a registered
    /// service.
    pub fn reliability(&self, service: &ServiceId) -> Option<Probability> {
        self.failure(service).map(|p| p.complement())
    }

    /// The current usage env of a registered service.
    pub fn env(&self, service: &ServiceId) -> Option<&Bindings> {
        self.index.get(service).map(|&i| &self.services[i].env)
    }

    /// The underlying generic evaluator (fallback path) — exposed for
    /// cache-statistics inspection.
    pub fn evaluator(&self) -> &Evaluator<'a> {
        &self.evaluator
    }

    /// The driver's compiled-plan cache. Reference evaluations that must
    /// match refreshed values **bitwise** evaluate over this cache: a
    /// cyclic plan answers through rank-1/refactor steps anchored at its
    /// compile-time base, so a plan compiled fresh elsewhere can differ in
    /// the last ulp even for identical parameter rows.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// Applies one batch of streaming parameter deltas: routes every
    /// `(parameter, new value)` move to its owning service, re-evaluates
    /// exactly the dirty services (staged delta row where possible, the
    /// dirty-cone generic evaluator otherwise), and leaves every other
    /// service untouched. Results are bitwise identical to a full fresh
    /// evaluation of each service's updated env.
    ///
    /// # Errors
    ///
    /// [`CoreError::FleetUnknownParam`] when a delta names a parameter no
    /// registered service declared (the fleet env is then unchanged);
    /// evaluation errors for a dirty service's updated env (envs updated
    /// so far stay applied, mirroring a partially consumed stream).
    pub fn apply(&mut self, deltas: &[(String, f64)]) -> Result<RefreshStats> {
        let mut stats = RefreshStats::default();
        // Route before mutating anything: one unknown name rejects the
        // whole batch.
        let mut dirty: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (di, (name, _)) in deltas.iter().enumerate() {
            let Some(&slot) = self.owner.get(name) else {
                return Err(CoreError::FleetUnknownParam {
                    param: name.clone(),
                });
            };
            dirty.entry(slot).or_default().push(di);
        }
        stats.deltas_routed = deltas.len();
        stats.services_refreshed = dirty.len();
        stats.services_untouched = self.services.len() - dirty.len();
        for (slot, moves) in dirty {
            let service = &mut self.services[slot];
            let mut names: Vec<String> = Vec::with_capacity(moves.len());
            for &di in &moves {
                let (name, value) = &deltas[di];
                service.env.insert(name.clone(), *value);
                if !names.contains(name) {
                    names.push(name.clone());
                }
            }
            service.failure = match &mut service.staged {
                Some(state) => {
                    let staging = match &state.center {
                        Some(center) => state.sweep.stage_env_deltas(
                            center,
                            &names,
                            &service.env,
                            &mut state.scratch,
                        )?,
                        // A previous delta fell back structurally; rebuild
                        // the center from the current env with one full
                        // staging pass.
                        None => {
                            stats.restaged_centers += 1;
                            state.sweep.stage_env(&service.env, &mut state.scratch)?
                        }
                    };
                    match staging {
                        Staging::Row => {
                            stats.staged_rows += 1;
                            match &mut state.center {
                                Some(center) => state.sweep.advance_center(center, &state.scratch),
                                center @ None => {
                                    *center = Some(state.sweep.snapshot_center(&state.scratch));
                                }
                            }
                            state.sweep.evaluate_row(&mut state.scratch)?
                        }
                        Staging::Fallback => {
                            stats.fallback_solves += 1;
                            state.center = None;
                            self.evaluator
                                .failure_probability(&service.id, &service.env)?
                        }
                    }
                }
                None => {
                    stats.fallback_solves += 1;
                    self.evaluator
                        .failure_probability(&service.id, &service.env)?
                }
            };
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::SolverPolicy;
    use archrel_expr::Expr;
    use archrel_model::{
        AssemblyBuilder, CompositeService, FailureModel, FlowBuilder, FlowState,
        InternalFailureModel, Service, ServiceCall, SimpleService, StateId,
    };

    fn simple(name: &str, rate: f64) -> Service {
        Service::Simple(SimpleService::new(
            name,
            "ops",
            FailureModel::ExponentialRate {
                rate,
                capacity: 1.0,
            },
        ))
    }

    fn call(target: &str, demand: Expr) -> ServiceCall {
        ServiceCall {
            target: target.into(),
            actual_params: vec![("ops".to_string(), demand)],
            connector: None,
            internal_failure: InternalFailureModel::None,
        }
    }

    /// Two structurally identical front-end composites with disjoint
    /// usage params (`f1_loop`, `f2_loop`), plus an aggregate calling one
    /// of them (staging-ineligible: its call targets a composite).
    fn fleet_assembly() -> Assembly {
        let front = |name: &str, p: &str| {
            let flow = FlowBuilder::new()
                .state(FlowState::new("a", vec![call("cpu", Expr::param("n"))]))
                .state(FlowState::new("b", vec![call("disk", Expr::num(2.0))]))
                .transition(StateId::Start, "a", Expr::one())
                .transition("a", "b", Expr::one())
                .transition("b", "a", Expr::param(p))
                .transition("b", StateId::End, Expr::one() - Expr::param(p))
                .build()
                .unwrap();
            Service::Composite(
                CompositeService::new(name, vec!["n".to_string(), p.to_string()], flow).unwrap(),
            )
        };
        let agg_flow = FlowBuilder::new()
            .state(FlowState::new(
                "x",
                vec![ServiceCall {
                    target: "front1".into(),
                    actual_params: vec![
                        ("n".to_string(), Expr::param("agg_n")),
                        ("f1_loop".to_string(), Expr::num(0.1)),
                    ],
                    connector: None,
                    internal_failure: InternalFailureModel::None,
                }],
            ))
            .transition(StateId::Start, "x", Expr::one())
            .transition("x", StateId::End, Expr::one())
            .build()
            .unwrap();
        AssemblyBuilder::new()
            .service(simple("cpu", 0.02))
            .service(simple("disk", 0.01))
            .service(front("front1", "f1_loop"))
            .service(front("front2", "f2_loop"))
            .service(Service::Composite(
                CompositeService::new("agg", vec!["agg_n".to_string()], agg_flow).unwrap(),
            ))
            .build()
            .unwrap()
    }

    fn compiled_options() -> EvalOptions {
        EvalOptions {
            solver: SolverPolicy::Compiled,
            ..EvalOptions::default()
        }
    }

    fn register_fleet(refresh: &mut FleetRefresh<'_>) {
        refresh
            .register(
                "front1".into(),
                Bindings::new().with("n", 5.0).with("f1_loop", 0.1),
                &["f1_loop".to_string()],
            )
            .unwrap();
        refresh
            .register(
                "front2".into(),
                Bindings::new().with("n", 5.0).with("f2_loop", 0.2),
                &["f2_loop".to_string()],
            )
            .unwrap();
        refresh
            .register(
                "agg".into(),
                Bindings::new().with("agg_n", 4.0),
                &["agg_n".to_string()],
            )
            .unwrap();
    }

    /// The bitwise reference: a fresh evaluator sharing the refresh
    /// driver's plan cache (cyclic plans anchor their rank-1/refactor
    /// arithmetic at the cached plan's base, so only a shared cache pins
    /// the last ulp — see [`FleetRefresh::plan_cache`]).
    fn reference(refresh: &FleetRefresh<'_>, service: &str, env: &Bindings) -> Probability {
        Evaluator::with_plan_cache(
            refresh.assembly,
            compiled_options(),
            Arc::clone(refresh.plan_cache()),
        )
        .failure_probability(&service.into(), env)
        .unwrap()
    }

    #[test]
    fn register_matches_fresh_evaluation_bitwise() {
        let assembly = fleet_assembly();
        let mut refresh = FleetRefresh::new(&assembly, compiled_options());
        register_fleet(&mut refresh);
        assert_eq!(refresh.len(), 3);
        // The two front-ends stage; the aggregate declines.
        assert_eq!(refresh.staged_count(), 2);
        for (service, env) in [
            (
                "front1",
                Bindings::new().with("n", 5.0).with("f1_loop", 0.1),
            ),
            (
                "front2",
                Bindings::new().with("n", 5.0).with("f2_loop", 0.2),
            ),
            ("agg", Bindings::new().with("agg_n", 4.0)),
        ] {
            let expected = reference(&refresh, service, &env);
            let got = refresh.failure(&service.into()).unwrap();
            assert_eq!(
                got.value().to_bits(),
                expected.value().to_bits(),
                "{service}: got {} expected {}",
                got.value(),
                expected.value()
            );
            assert_eq!(
                refresh.reliability(&service.into()).unwrap().value(),
                expected.complement().value()
            );
        }
    }

    #[test]
    fn deltas_refresh_only_dirty_services_bitwise() {
        let assembly = fleet_assembly();
        let mut refresh = FleetRefresh::new(&assembly, compiled_options());
        register_fleet(&mut refresh);
        let front2_before = refresh.failure(&"front2".into()).unwrap();
        let stats = refresh
            .apply(&[("f1_loop".to_string(), 0.3), ("agg_n".to_string(), 6.0)])
            .unwrap();
        assert_eq!(stats.deltas_routed, 2);
        assert_eq!(stats.services_refreshed, 2);
        assert_eq!(stats.services_untouched, 1);
        assert_eq!(stats.staged_rows, 1);
        assert_eq!(stats.fallback_solves, 1);
        // Untouched service unchanged bitwise.
        assert_eq!(
            refresh.failure(&"front2".into()).unwrap().value().to_bits(),
            front2_before.value().to_bits()
        );
        // Dirty services match a fresh full evaluation of the updated env.
        let expected = reference(
            &refresh,
            "front1",
            &Bindings::new().with("n", 5.0).with("f1_loop", 0.3),
        );
        assert_eq!(
            refresh.failure(&"front1".into()).unwrap().value().to_bits(),
            expected.value().to_bits()
        );
        let expected = reference(&refresh, "agg", &Bindings::new().with("agg_n", 6.0));
        assert_eq!(
            refresh.failure(&"agg".into()).unwrap().value().to_bits(),
            expected.value().to_bits()
        );
    }

    #[test]
    fn sequential_deltas_stay_pinned_to_reference() {
        let assembly = fleet_assembly();
        let mut refresh = FleetRefresh::new(&assembly, compiled_options());
        register_fleet(&mut refresh);
        let mut env = Bindings::new().with("n", 5.0).with("f1_loop", 0.1);
        for p in [0.15, 0.02, 0.4, 0.4, 0.33] {
            refresh.apply(&[("f1_loop".to_string(), p)]).unwrap();
            env.insert("f1_loop", p);
            let expected = reference(&refresh, "front1", &env);
            assert_eq!(
                refresh.failure(&"front1".into()).unwrap().value().to_bits(),
                expected.value().to_bits()
            );
        }
    }

    #[test]
    fn structural_fallback_recovers_staging() {
        let assembly = fleet_assembly();
        let mut refresh = FleetRefresh::new(&assembly, compiled_options());
        register_fleet(&mut refresh);
        // p = 0 drops the retry edge: structural fallback to the generic
        // evaluator.
        let stats = refresh.apply(&[("f1_loop".to_string(), 0.0)]).unwrap();
        assert_eq!(stats.fallback_solves, 1);
        let expected = reference(
            &refresh,
            "front1",
            &Bindings::new().with("n", 5.0).with("f1_loop", 0.0),
        );
        assert_eq!(
            refresh.failure(&"front1".into()).unwrap().value().to_bits(),
            expected.value().to_bits()
        );
        // Moving back onto stageable ground rebuilds the center and
        // resumes the staged path.
        let stats = refresh.apply(&[("f1_loop".to_string(), 0.25)]).unwrap();
        assert_eq!(stats.restaged_centers, 1);
        assert_eq!(stats.staged_rows, 1);
        let expected = reference(
            &refresh,
            "front1",
            &Bindings::new().with("n", 5.0).with("f1_loop", 0.25),
        );
        assert_eq!(
            refresh.failure(&"front1".into()).unwrap().value().to_bits(),
            expected.value().to_bits()
        );
        // And the staged path keeps working afterwards.
        let stats = refresh.apply(&[("f1_loop".to_string(), 0.3)]).unwrap();
        assert_eq!(stats.staged_rows, 1);
        assert_eq!(stats.restaged_centers, 0);
    }

    #[test]
    fn duplicate_param_registration_rejected() {
        let assembly = fleet_assembly();
        let mut refresh = FleetRefresh::new(&assembly, compiled_options());
        register_fleet(&mut refresh);
        let err = refresh
            .register(
                "front1".into(),
                Bindings::new().with("n", 5.0).with("f2_loop", 0.2),
                &["f2_loop".to_string()],
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::FleetDuplicateParam { .. }));
        assert!(err.to_string().contains("f2_loop"));
    }

    #[test]
    fn unknown_delta_param_rejected_without_mutation() {
        let assembly = fleet_assembly();
        let mut refresh = FleetRefresh::new(&assembly, compiled_options());
        register_fleet(&mut refresh);
        let before = refresh.failure(&"front1".into()).unwrap();
        let err = refresh
            .apply(&[
                ("f1_loop".to_string(), 0.5),
                ("nonexistent".to_string(), 0.1),
            ])
            .unwrap_err();
        assert!(matches!(err, CoreError::FleetUnknownParam { .. }));
        assert!(err.to_string().contains("nonexistent"));
        // The whole batch was rejected before any env moved.
        assert_eq!(
            refresh.env(&"front1".into()).unwrap().get("f1_loop"),
            Some(0.1)
        );
        assert_eq!(
            refresh.failure(&"front1".into()).unwrap().value().to_bits(),
            before.value().to_bits()
        );
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RefreshStats {
            deltas_routed: 2,
            services_refreshed: 1,
            services_untouched: 3,
            staged_rows: 1,
            restaged_centers: 0,
            fallback_solves: 0,
        };
        let b = RefreshStats {
            deltas_routed: 1,
            services_refreshed: 1,
            services_untouched: 3,
            staged_rows: 0,
            restaged_centers: 1,
            fallback_solves: 1,
        };
        a.merge(&b);
        assert_eq!(a.deltas_routed, 3);
        assert_eq!(a.services_refreshed, 2);
        assert_eq!(a.fallback_solves, 1);
    }
}
