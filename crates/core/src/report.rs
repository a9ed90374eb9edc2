//! Human-readable evaluation reports: per-state and per-dependency
//! breakdowns of a service's predicted unreliability.
//!
//! Reports answer the architect's question behind the paper's §1 motivation:
//! *which* part of the assembly dominates the failure probability, and hence
//! where a substitution (a faster CPU, a more reliable link, a better sort
//! implementation) buys the most reliability.

use std::fmt;

use archrel_expr::Bindings;
use archrel_model::{Probability, Service, ServiceId, StateId};

use crate::batch::BatchSummary;
use crate::eval::CacheStats;
use crate::{Evaluator, Result};

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache: {} hits / {} misses ({:.1}% hit rate), {} solves in {:.3} ms",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.solves,
            self.solve_time().as_secs_f64() * 1e3
        )?;
        if self.plan_hits + self.plan_misses > 0 {
            write!(
                f,
                "; plans: {} hits / {} misses, {} tape replays",
                self.plan_hits, self.plan_misses, self.rank1_solves
            )?;
        }
        if self.block_flushes > 0 {
            write!(
                f,
                "; blocks: {} points in {} flushes ({:.1} lanes/flush)",
                self.block_points,
                self.block_flushes,
                self.block_points as f64 / self.block_flushes as f64
            )?;
        }
        if self.stage_nanos + self.replay_nanos > 0 {
            write!(
                f,
                "; phases: stage {:.3} ms / replay {:.3} ms",
                self.stage_nanos as f64 * 1e-6,
                self.replay_nanos as f64 * 1e-6
            )?;
        }
        if self.plan_evictions > 0 {
            write!(f, "; {} plan evictions", self.plan_evictions)?;
        }
        if self.store_hits + self.store_misses + self.store_validate_rejects + self.store_writes > 0
        {
            write!(
                f,
                "; store: {} hits / {} misses / {} rejects, {} writes",
                self.store_hits, self.store_misses, self.store_validate_rejects, self.store_writes
            )?;
        }
        if self.programs_compiled > 0 {
            write!(
                f,
                "; programs: {} compiled, memo {} hits / {} misses / {} pins ({:.1}% memo rate)",
                self.programs_compiled,
                self.memo_hits,
                self.memo_misses,
                self.pin_hits,
                self.memo_hit_rate() * 100.0
            )?;
        }
        if self.fixed_point_sweeps > 0 {
            write!(f, "; fixed point: {} sweeps", self.fixed_point_sweeps)?;
            if self.program_loop_sccs > 0 {
                write!(
                    f,
                    ", {} loop SCCs / {} member updates",
                    self.program_loop_sccs, self.scc_iterations
                )?;
            }
            if self.aitken_accels + self.aitken_fallbacks > 0 {
                write!(
                    f,
                    ", aitken {} accels / {} fallbacks",
                    self.aitken_accels, self.aitken_fallbacks
                )?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for BatchSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch: {} queries on {} workers; {}",
            self.queries, self.workers, self.cache
        )
    }
}

/// Failure contribution of one request within a state.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestLine {
    /// The requested service.
    pub target: ServiceId,
    /// Caller-side internal failure probability of the request.
    pub internal: Probability,
    /// Combined connector + target external failure probability (eq. 13).
    pub external: Probability,
}

/// Failure breakdown of one flow state.
#[derive(Debug, Clone, PartialEq)]
pub struct StateBreakdown {
    /// The flow state.
    pub state: StateId,
    /// `p(i, Fail)` after combining the requests under the state's
    /// completion and dependency models.
    pub failure_probability: Probability,
    /// Per-request detail.
    pub requests: Vec<RequestLine>,
}

/// Resolved failure probability of one direct dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceBreakdown {
    /// The dependency.
    pub service: ServiceId,
    /// Its failure probability under the parameters the target service
    /// actually passes it (averaged view: taken from the first request that
    /// addresses it).
    pub failure_probability: Probability,
}

/// Full evaluation report for one service invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// The evaluated service.
    pub service: ServiceId,
    /// The bindings the report was computed under.
    pub bindings: Bindings,
    /// Overall `Pfail(S, fp)`.
    pub failure_probability: Probability,
    /// Per-state breakdown (empty for simple services).
    pub states: Vec<StateBreakdown>,
}

impl EvaluationReport {
    /// Overall reliability `1 − Pfail`.
    pub fn reliability(&self) -> Probability {
        self.failure_probability.complement()
    }

    /// The state contributing the largest `p(i, Fail)`, if any.
    pub fn dominant_state(&self) -> Option<&StateBreakdown> {
        self.states.iter().max_by(|a, b| {
            a.failure_probability
                .value()
                .partial_cmp(&b.failure_probability.value())
                .expect("probabilities are finite")
        })
    }
}

impl fmt::Display for EvaluationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "service `{}`", self.service)?;
        writeln!(
            f,
            "  Pfail = {:.6e}   reliability = {:.9}",
            self.failure_probability.value(),
            self.reliability().value()
        )?;
        for state in &self.states {
            writeln!(
                f,
                "  state `{}`: p(i, Fail) = {:.6e}",
                state.state,
                state.failure_probability.value()
            )?;
            for r in &state.requests {
                writeln!(
                    f,
                    "    -> {}: internal {:.3e}, external {:.3e}",
                    r.target,
                    r.internal.value(),
                    r.external.value()
                )?;
            }
        }
        Ok(())
    }
}

impl<'a> Evaluator<'a> {
    /// Produces a detailed [`EvaluationReport`] for one invocation.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Evaluator::failure_probability`]. Under
    /// [`CycleMode::FixedPoint`](crate::CycleMode::FixedPoint) recursive
    /// assemblies report the breakdown a final converged sweep sees (cycle
    /// re-entries answered by the converged estimates); in
    /// [`CycleMode::Error`](crate::CycleMode::Error) they stay an error.
    pub fn report(&self, service: &ServiceId, env: &Bindings) -> Result<EvaluationReport> {
        let failure_probability = self.failure_probability(service, env)?;
        let states = match self.assembly().require(service)? {
            Service::Simple(_) => Vec::new(),
            Service::Composite(c) => self
                .resolve_states_fresh(c, env)?
                .into_iter()
                .map(|s| StateBreakdown {
                    state: s.state,
                    failure_probability: s.failure,
                    requests: s
                        .requests
                        .into_iter()
                        .map(|r| RequestLine {
                            target: r.target,
                            internal: r.internal,
                            external: r.external,
                        })
                        .collect(),
                })
                .collect(),
        };
        Ok(EvaluationReport {
            service: service.clone(),
            bindings: env.clone(),
            failure_probability,
            states,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archrel_model::paper;

    #[test]
    fn report_on_paper_example() {
        let params = paper::PaperParams::default();
        let assembly = paper::local_assembly(&params).unwrap();
        let eval = Evaluator::new(&assembly);
        let env = paper::search_bindings(4.0, 4096.0, 1.0);
        let report = eval.report(&paper::SEARCH.into(), &env).unwrap();

        assert_eq!(report.service.as_str(), paper::SEARCH);
        assert_eq!(report.states.len(), 2);
        // The sort leg dominates: it runs list*log(list) operations vs the
        // scan's log(list).
        let dominant = report.dominant_state().unwrap();
        assert_eq!(dominant.state, StateId::named("1"));
        // Report's overall number agrees with the evaluator.
        let direct = eval
            .failure_probability(&paper::SEARCH.into(), &env)
            .unwrap();
        assert_eq!(report.failure_probability, direct);
        assert!((report.reliability().value() + direct.value() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn report_on_simple_service_has_no_states() {
        let params = paper::PaperParams::default();
        let assembly = paper::local_assembly(&params).unwrap();
        let eval = Evaluator::new(&assembly);
        let env = archrel_expr::Bindings::new().with("n", 1e6);
        let report = eval.report(&paper::CPU1.into(), &env).unwrap();
        assert!(report.states.is_empty());
        assert!(report.failure_probability.value() > 0.0);
    }

    #[test]
    fn cache_stats_render_hits_and_solve_time() {
        let params = paper::PaperParams::default();
        let assembly = paper::local_assembly(&params).unwrap();
        let eval = Evaluator::new(&assembly);
        let env = paper::search_bindings(4.0, 1024.0, 1.0);
        eval.failure_probability(&paper::SEARCH.into(), &env)
            .unwrap();
        eval.failure_probability(&paper::SEARCH.into(), &env)
            .unwrap();
        let stats = eval.cache_stats();
        assert!(stats.hits >= 1, "{stats:?}");
        assert!(stats.solves >= 1, "{stats:?}");
        let text = stats.to_string();
        assert!(text.contains("hits"), "{text}");
        assert!(text.contains("solves"), "{text}");
    }

    #[test]
    fn cache_stats_render_plan_counters_after_a_compiled_run() {
        use crate::{EvalOptions, SolverPolicy};
        use archrel_expr::{Bindings, Expr};
        use archrel_model::{
            catalog, AssemblyBuilder, CompositeService, FlowBuilder, FlowState, Service,
            ServiceCall,
        };
        // A sparse-regime acyclic flow: `Auto` answers it from a plan once
        // the structure has been seen twice.
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "work",
                vec![ServiceCall::new("cpu").with_param(catalog::CPU_PARAM, Expr::param("n"))],
            ))
            .transition(StateId::Start, "work", Expr::one());
        let flow = crate::testkit::to_end_via_tail(flow, "work", Expr::one())
            .build()
            .unwrap();
        let long = AssemblyBuilder::new()
            .service(catalog::cpu_resource("cpu", 1e9, 1e-9))
            .service(Service::Composite(
                CompositeService::new("app", vec!["n".into()], flow).unwrap(),
            ))
            .build()
            .unwrap();
        // No artifact store: the plan must be compiled here, not loaded
        // from a store an `ARCHREL_ARTIFACT_DIR` run left behind.
        let eval = Evaluator::with_plan_cache(
            &long,
            EvalOptions {
                solver: SolverPolicy::Auto,
                ..EvalOptions::default()
            },
            std::sync::Arc::new(crate::PlanCache::new().with_artifact_store(None)),
        );
        for n in [1e6, 2e6, 3e6] {
            eval.failure_probability(&"app".into(), &Bindings::new().with("n", n))
                .unwrap();
        }
        let stats = eval.cache_stats();
        assert!(stats.plan_misses >= 1, "{stats:?}");
        assert!(stats.rank1_solves >= 1, "{stats:?}");
        let text = stats.to_string();
        assert!(text.contains("plans:"), "{text}");
        assert!(text.contains("tape replays"), "{text}");
        assert!(!text.contains("full"), "{text}");
        let params = paper::PaperParams::default();
        let assembly = paper::local_assembly(&params).unwrap();
        // A run that never touches the plan machinery keeps the line silent
        // (forced dense so an `ARCHREL_SOLVER` override cannot interfere).
        let plain = Evaluator::with_options(
            &assembly,
            EvalOptions {
                solver: SolverPolicy::Dense,
                ..EvalOptions::default()
            },
        );
        plain
            .failure_probability(
                &paper::SEARCH.into(),
                &paper::search_bindings(4.0, 64.0, 1.0),
            )
            .unwrap();
        let plain_text = plain.cache_stats().to_string();
        assert!(!plain_text.contains("plans:"), "{plain_text}");
    }

    #[test]
    fn report_resolves_cyclic_breakdowns_under_fixed_point_mode() {
        use crate::{CoreError, CycleMode, EvalOptions};
        use archrel_expr::Expr;
        use archrel_model::{
            catalog, AssemblyBuilder, CompositeService, FlowBuilder, FlowState, Service,
            ServiceCall, StateId,
        };
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
                .transition(StateId::Start, "loop", Expr::num(0.4))
                .transition(StateId::Start, "down", Expr::num(0.6))
                .transition(StateId::named("loop"), StateId::End, Expr::one())
                .transition(StateId::named("down"), StateId::End, Expr::one())
                .build()
                .unwrap();
            Service::Composite(CompositeService::new(name, vec![], flow).unwrap())
        };
        let assembly = AssemblyBuilder::new()
            .service(catalog::blackbox_service("leaf", "x", 1e-3))
            .service(member("a", "b"))
            .service(member("b", "a"))
            .build()
            .unwrap();
        // Error mode: still the cycle error.
        let err = Evaluator::new(&assembly)
            .report(&"a".into(), &Bindings::new())
            .unwrap_err();
        assert!(matches!(err, CoreError::RecursiveAssembly { .. }), "{err}");
        // Fixed-point mode: the breakdown resolves against the converged
        // estimates, consistent with the top-level value.
        let eval = Evaluator::with_options(
            &assembly,
            EvalOptions {
                cycle_mode: CycleMode::FixedPoint {
                    max_iterations: 200,
                    tolerance: 1e-12,
                },
                ..EvalOptions::default()
            },
        );
        let report = eval.report(&"a".into(), &Bindings::new()).unwrap();
        assert_eq!(report.states.len(), 2, "{report:?}");
        let total = report.failure_probability.value();
        // The mesh converges to Pfail = 1e-3 on every member; each state's
        // sole request must carry that converged value, not a stale 0.
        for state in &report.states {
            assert!(
                (state.failure_probability.value() - total).abs() < 1e-9,
                "{state:?} vs top {total}"
            );
        }
    }

    #[test]
    fn cache_stats_render_fixed_point_counters_after_a_cyclic_run() {
        use crate::{CycleMode, EvalOptions};
        use archrel_expr::Expr;
        use archrel_model::{
            catalog, AssemblyBuilder, CompositeService, FlowBuilder, FlowState, Service,
            ServiceCall, StateId,
        };
        let flow = FlowBuilder::new()
            .state(FlowState::new("again", vec![ServiceCall::new("svc")]))
            .state(FlowState::new(
                "base",
                vec![ServiceCall::new("leaf").with_param("x", Expr::num(1.0))],
            ))
            .transition(StateId::Start, "again", Expr::num(0.25))
            .transition(StateId::Start, "base", Expr::num(0.75))
            .transition("again", StateId::End, Expr::one())
            .transition("base", StateId::End, Expr::one())
            .build()
            .unwrap();
        let assembly = AssemblyBuilder::new()
            .service(catalog::blackbox_service("leaf", "x", 1e-3))
            .service(Service::Composite(
                CompositeService::new("svc", vec![], flow).unwrap(),
            ))
            .build()
            .unwrap();
        let eval = Evaluator::with_options(
            &assembly,
            EvalOptions {
                cycle_mode: CycleMode::FixedPoint {
                    max_iterations: 100,
                    tolerance: 1e-12,
                },
                ..EvalOptions::default()
            },
        );
        // A batch of two compiles the program before its first point.
        let env = Bindings::new();
        for r in eval.failure_probabilities(&"svc".into(), &[&env, &env]) {
            r.unwrap();
        }
        let stats = eval.cache_stats();
        assert_eq!(stats.programs_compiled, 1, "{stats:?}");
        assert!(stats.fixed_point_sweeps >= 2, "{stats:?}");
        assert!(stats.program_loop_sccs >= 1, "{stats:?}");
        assert!(stats.scc_iterations >= 2, "{stats:?}");
        let text = stats.to_string();
        assert!(text.contains("fixed point:"), "{text}");
        assert!(text.contains("loop SCCs"), "{text}");
        // Acyclic runs keep the segment silent.
        let params = paper::PaperParams::default();
        let acyclic = paper::local_assembly(&params).unwrap();
        let plain = Evaluator::new(&acyclic);
        plain
            .failure_probability(
                &paper::SEARCH.into(),
                &paper::search_bindings(4.0, 64.0, 1.0),
            )
            .unwrap();
        let plain_text = plain.cache_stats().to_string();
        assert!(!plain_text.contains("fixed point:"), "{plain_text}");
    }

    #[test]
    fn batch_summary_renders() {
        use crate::batch::{BatchEvaluator, Query};
        let params = paper::PaperParams::default();
        let assembly = paper::local_assembly(&params).unwrap();
        let batch = BatchEvaluator::new(&assembly).with_workers(2);
        let queries: Vec<Query> = (1..=8)
            .map(|i| {
                Query::new(
                    paper::SEARCH,
                    paper::search_bindings(4.0, 256.0 * i as f64, 1.0),
                )
            })
            .collect();
        let (_, summary) = batch.evaluate_all_summarized(&queries);
        let text = summary.to_string();
        assert!(text.contains("8 queries on 2 workers"), "{text}");
    }

    #[test]
    fn sparse_no_convergence_surfaces_iteration_count_through_report() {
        use crate::{CoreError, EvalOptions, SolverPolicy};
        use archrel_expr::Expr;
        use archrel_model::{
            catalog, AssemblyBuilder, CompositeService, FlowBuilder, FlowState, Service,
            ServiceCall, StateId,
        };
        // A genuinely cyclic flow (a ↔ b retry loop): the sparse solver's
        // acyclic fast path cannot apply, so Gauss–Seidel must iterate —
        // and with a one-sweep budget it must fail with the typed
        // `SolveError::NoConvergence`, iteration count intact, all the way
        // through `Evaluator::report`.
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "a",
                vec![ServiceCall::new("unit").with_param("x", Expr::num(1.0))],
            ))
            .state(FlowState::new(
                "b",
                vec![ServiceCall::new("unit").with_param("x", Expr::num(1.0))],
            ))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", "b", Expr::num(0.9))
            .transition("a", StateId::End, Expr::num(0.1))
            .transition("b", "a", Expr::one())
            .build()
            .unwrap();
        let assembly = AssemblyBuilder::new()
            .service(catalog::blackbox_service("unit", "x", 1e-6))
            .service(Service::Composite(
                CompositeService::new("app", vec![], flow).unwrap(),
            ))
            .build()
            .unwrap();
        let mut options = EvalOptions {
            solver: SolverPolicy::Sparse,
            ..EvalOptions::default()
        };
        options.sparse.max_iterations = 1;
        let err = Evaluator::with_options(&assembly, options)
            .report(&"app".into(), &Bindings::new())
            .unwrap_err();
        match &err {
            CoreError::Markov(archrel_markov::SolveError::NoConvergence {
                iterations,
                residual,
            }) => {
                assert_eq!(*iterations, 1);
                assert!(residual.is_finite() && *residual > 0.0);
            }
            other => panic!("expected NoConvergence, got {other}"),
        }
        assert!(err
            .to_string()
            .contains("did not converge after 1 iterations"));
        // With a sane budget the same cyclic assembly solves fine.
        options.sparse.max_iterations = 10_000;
        let report = Evaluator::with_options(&assembly, options)
            .report(&"app".into(), &Bindings::new())
            .unwrap();
        assert!(report.failure_probability.value() > 0.0);
    }

    #[test]
    fn display_renders_all_states() {
        let params = paper::PaperParams::default();
        let assembly = paper::remote_assembly(&params).unwrap();
        let eval = Evaluator::new(&assembly);
        let report = eval
            .report(
                &paper::SEARCH.into(),
                &paper::search_bindings(4.0, 512.0, 1.0),
            )
            .unwrap();
        let text = report.to_string();
        assert!(text.contains("search"));
        assert!(text.contains("state `1`"));
        assert!(text.contains("state `2`"));
        assert!(text.contains("sort2"));
    }
}
