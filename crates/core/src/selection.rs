//! Reliability-driven service selection.
//!
//! The paper's §1 motivation: "the prediction of such characteristics is
//! important to drive the **selection** of the services to be assembled".
//! This module closes that loop: given an assembly with *slots* — positions
//! for which several candidate services are available (different providers
//! of the same interface) — it enumerates the candidate combinations, builds
//! and validates each concrete assembly, predicts the target service's
//! reliability, and ranks the combinations.

use std::sync::Arc;
use std::time::Instant;

use archrel_expr::Bindings;
use archrel_model::{Assembly, AssemblyBuilder, Probability, Service, ServiceId, SimpleService};

use crate::batch::{parallel_map_indexed, striped};
use crate::eval::FlowBlockAccumulator;
use crate::sensitivity::default_workers;
use crate::staged::{StagedSweep, Staging};
use crate::{CoreError, EvalOptions, Evaluator, PlanCache, Result};

/// One selectable position in the assembly: any of the `candidates` can fill
/// it. Every candidate must offer the same service id and formal parameters
/// (same abstract interface, different provider).
#[derive(Debug, Clone)]
pub struct Slot {
    /// Human-readable slot label, used in results.
    pub label: String,
    /// Candidate services (all sharing one service id).
    pub candidates: Vec<Service>,
}

impl Slot {
    /// Creates a slot.
    pub fn new(label: impl Into<String>, candidates: Vec<Service>) -> Self {
        Slot {
            label: label.into(),
            candidates,
        }
    }
}

/// A service-selection problem.
#[derive(Debug, Clone)]
pub struct SelectionProblem {
    /// Services common to every combination.
    pub fixed: Vec<Service>,
    /// Selectable slots.
    pub slots: Vec<Slot>,
    /// The service whose reliability is optimized.
    pub target: ServiceId,
    /// Formal-parameter bindings of the target invocation.
    pub bindings: Bindings,
    /// Cap on the number of combinations explored (guards against
    /// combinatorial explosion); defaults to 100 000.
    pub max_combinations: u128,
    /// Evaluator options applied to every combination — in particular the
    /// [`crate::SolverPolicy`] used for the absorbing-chain solves.
    pub eval_options: EvalOptions,
}

impl SelectionProblem {
    /// Creates a problem with the default combination cap.
    pub fn new(
        fixed: Vec<Service>,
        slots: Vec<Slot>,
        target: impl Into<ServiceId>,
        bindings: Bindings,
    ) -> Self {
        SelectionProblem {
            fixed,
            slots,
            target: target.into(),
            bindings,
            max_combinations: 100_000,
            eval_options: EvalOptions::default(),
        }
    }

    /// Overrides the evaluator options used for every combination.
    #[must_use]
    pub fn with_eval_options(mut self, options: EvalOptions) -> Self {
        self.eval_options = options;
        self
    }
}

/// One evaluated combination.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Chosen candidate index per slot (parallel to `SelectionProblem::slots`).
    pub choices: Vec<usize>,
    /// Human-readable choice description: `(slot label, candidate index)`.
    pub description: Vec<(String, usize)>,
    /// Predicted failure probability of the target.
    pub failure_probability: Probability,
}

impl SelectionResult {
    /// Predicted reliability.
    pub fn reliability(&self) -> Probability {
        self.failure_probability.complement()
    }
}

/// Enumerates all candidate combinations and returns them ranked by
/// ascending failure probability (best first).
///
/// Combinations whose assembly fails validation (e.g. a candidate whose
/// interface does not match the flow that calls it) are skipped, so the
/// caller can mix partially compatible catalogs.
///
/// Runs on the batch path: the Cartesian product is enumerated up front and
/// the per-combination builds/evaluations are spread across worker threads.
/// Each combination is its **own** assembly, so combinations cannot share
/// the value-level solve cache — but they *do* share one compiled-plan
/// cache: candidates filling the same slot leave the flow structures
/// unchanged, so wherever the solver policy answers from a compiled plan
/// (`Compiled`, or `Auto` on a sparse-regime acyclic flow) each structure
/// is compiled once and every combination replays the tape.
///
/// # Errors
///
/// - [`CoreError::SelectionSpaceTooLarge`] when the Cartesian product
///   exceeds the cap;
/// - evaluation errors for combinations that validate but fail to evaluate.
pub fn select(problem: &SelectionProblem) -> Result<Vec<SelectionResult>> {
    select_with_workers(problem, default_workers())
}

/// [`select`] with an explicit worker-thread count.
///
/// # Errors
///
/// See [`select`].
pub fn select_with_workers(
    problem: &SelectionProblem,
    workers: usize,
) -> Result<Vec<SelectionResult>> {
    let combinations: u128 = problem
        .slots
        .iter()
        .map(|s| s.candidates.len() as u128)
        .product();
    if combinations > problem.max_combinations {
        return Err(CoreError::SelectionSpaceTooLarge {
            combinations,
            cap: problem.max_combinations,
        });
    }
    if problem.slots.iter().any(|s| s.candidates.is_empty()) {
        return Ok(Vec::new());
    }

    // Enumerate the mixed-radix counter up front (the cap above bounds it).
    let mut all_choices: Vec<Vec<usize>> = Vec::with_capacity(combinations as usize);
    let mut choices = vec![0usize; problem.slots.len()];
    'enumerate: loop {
        all_choices.push(choices.clone());
        let mut pos = 0;
        loop {
            if pos == problem.slots.len() {
                break 'enumerate;
            }
            choices[pos] += 1;
            if choices[pos] < problem.slots[pos].candidates.len() {
                break;
            }
            choices[pos] = 0;
            pos += 1;
        }
    }

    let plans = Arc::new(PlanCache::new());
    // Staged fast path: when every slot holds simple-service candidates and
    // the target compiles to a staged sweep, each combination stages its
    // candidates as whole-model overrides on one compiled plan — no
    // per-combination assembly build, no `Bindings`, and lane-blocked tape
    // replay across combinations. Ineligible problems (and combinations
    // whose overrides change the flow structure) run the generic
    // build-and-evaluate path below, unchanged.
    let staged = staged_selection(problem, &plans)?;
    let evaluated = match &staged {
        Some(sel) => staged_results(sel, problem, &all_choices, &plans, workers),
        None => parallel_map_indexed(workers, &all_choices, |_, combination| {
            evaluate_combination(problem, combination, &plans)
        }),
    };
    let mut results = Vec::with_capacity(all_choices.len());
    for r in evaluated {
        if let Some(result) = r? {
            results.push(result);
        }
    }
    // Stable sort: ties keep enumeration order, independent of `workers`.
    results.sort_by(|a, b| {
        a.failure_probability
            .value()
            .partial_cmp(&b.failure_probability.value())
            .expect("probabilities are finite")
    });
    Ok(results)
}

/// Returns the best combination, if any validates.
///
/// # Errors
///
/// See [`select`].
pub fn select_best(problem: &SelectionProblem) -> Result<Option<SelectionResult>> {
    Ok(select(problem)?.into_iter().next())
}

/// A selection problem compiled for staged evaluation: the sweep over the
/// baseline (all-zero) combination, plus each slot's position in the
/// sweep's simple-service table (`None` when the slot's service is not
/// referenced by the target, so swapping it cannot move the prediction).
struct StagedSelection {
    sweep: StagedSweep,
    slot_index: Vec<Option<usize>>,
    /// Per slot, per candidate: whether substituting just that candidate
    /// into the baseline builds a valid assembly. Assembly validation is
    /// slot-local (ids and call targets are fixed by the baseline), so a
    /// combination validates iff all its candidates do — invalid ones are
    /// routed through the generic path, which skips them.
    valid: Vec<Vec<bool>>,
}

/// Compiles the staged form of `problem`, or `None` when it is not
/// eligible: staging needs every candidate to be a simple service sharing
/// its slot's id (a pure model swap), a baseline combination that builds,
/// and a target the sweep compiler accepts.
fn staged_selection(
    problem: &SelectionProblem,
    plans: &Arc<PlanCache>,
) -> Result<Option<StagedSelection>> {
    let mut slot_ids: Vec<&ServiceId> = Vec::with_capacity(problem.slots.len());
    for slot in &problem.slots {
        let mut ids = slot.candidates.iter().map(|c| match c {
            Service::Simple(s) => Some(s.id()),
            Service::Composite(_) => None,
        });
        let Some(Some(first)) = ids.next() else {
            return Ok(None);
        };
        if !ids.all(|id| id == Some(first)) {
            return Ok(None);
        }
        slot_ids.push(first);
    }
    let mut builder = AssemblyBuilder::new().services(problem.fixed.iter().cloned());
    for slot in &problem.slots {
        builder = builder.service(slot.candidates[0].clone());
    }
    let Ok(baseline) = builder.build() else {
        return Ok(None);
    };
    let Some(sweep) = StagedSweep::compile(
        &baseline,
        &problem.target,
        &problem.bindings,
        plans,
        problem.eval_options,
    )?
    else {
        return Ok(None);
    };
    let slot_index = slot_ids.iter().map(|id| sweep.simple_index(id)).collect();
    let valid = problem
        .slots
        .iter()
        .enumerate()
        .map(|(s, slot)| {
            slot.candidates
                .iter()
                .enumerate()
                .map(|(c, candidate)| {
                    if c == 0 {
                        return true; // the baseline built above
                    }
                    let mut builder =
                        AssemblyBuilder::new().services(problem.fixed.iter().cloned());
                    for (s2, slot2) in problem.slots.iter().enumerate() {
                        let pick = if s2 == s {
                            candidate
                        } else {
                            &slot2.candidates[0]
                        };
                        builder = builder.service(pick.clone());
                    }
                    builder.build().is_ok()
                })
                .collect()
        })
        .collect();
    Ok(Some(StagedSelection {
        sweep,
        slot_index,
        valid,
    }))
}

/// Evaluates every combination through the staged sweep, striping across
/// workers; combinations the sweep cannot stage run the generic path.
fn staged_results(
    sel: &StagedSelection,
    problem: &SelectionProblem,
    all_choices: &[Vec<usize>],
    plans: &Arc<PlanCache>,
    workers: usize,
) -> Vec<Result<Option<SelectionResult>>> {
    let result_for = |choices: &[usize], failure_probability: Probability| SelectionResult {
        choices: choices.to_vec(),
        description: problem
            .slots
            .iter()
            .zip(choices)
            .map(|(s, &c)| (s.label.clone(), c))
            .collect(),
        failure_probability,
    };
    striped(all_choices.len(), workers, |stripe| {
        let mut acc = FlowBlockAccumulator::new(Arc::clone(plans));
        let mut success = vec![f64::NAN; stripe.len()];
        let mut results: Vec<Option<Result<Option<SelectionResult>>>> =
            Vec::with_capacity(stripe.len());
        results.resize_with(stripe.len(), || None);
        let mut deferred: Vec<usize> = Vec::new();
        let mut scratch = sel.sweep.new_scratch();
        let mut overrides: Vec<Option<&SimpleService>> = Vec::new();
        let mut stage_nanos = 0u64;
        for (pos, &i) in stripe.iter().enumerate() {
            let choices = &all_choices[i];
            if choices.iter().zip(&sel.valid).any(|(&c, valid)| !valid[c]) {
                results[pos] = Some(evaluate_combination(problem, choices, plans));
                continue;
            }
            overrides.clear();
            overrides.resize(sel.sweep.simple_count(), None);
            for ((slot, &c), idx) in problem.slots.iter().zip(choices).zip(&sel.slot_index) {
                if let (Some(idx), Service::Simple(simple)) = (idx, &slot.candidates[c]) {
                    overrides[*idx] = Some(simple);
                }
            }
            let started = Instant::now();
            let staging = sel.sweep.stage_models(&overrides, &mut scratch);
            stage_nanos += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            match staging {
                Ok(Staging::Row) => {
                    match acc.submit_row(sel.sweep.plan(), &scratch.row, pos, &mut success) {
                        Ok(()) => deferred.push(pos),
                        Err(err) => results[pos] = Some(Err(err.into())),
                    }
                }
                Ok(Staging::Fallback) => {
                    results[pos] = Some(evaluate_combination(problem, choices, plans));
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
                    .map_err(CoreError::from)
                    .map(|p| Some(result_for(&all_choices[stripe[pos]], p.complement()))),
            );
        }
        results
            .into_iter()
            .map(|r| r.expect("every combination resolved"))
            .collect()
    })
}

fn evaluate_combination(
    problem: &SelectionProblem,
    choices: &[usize],
    plans: &Arc<PlanCache>,
) -> Result<Option<SelectionResult>> {
    let mut builder = AssemblyBuilder::new().services(problem.fixed.iter().cloned());
    for (slot, &choice) in problem.slots.iter().zip(choices) {
        builder = builder.service(slot.candidates[choice].clone());
    }
    let assembly: Assembly = match builder.build() {
        Ok(a) => a,
        Err(_) => return Ok(None), // incompatible combination: skip
    };
    let evaluator = Evaluator::with_plan_cache(&assembly, problem.eval_options, Arc::clone(plans));
    let failure_probability = evaluator.failure_probability(&problem.target, &problem.bindings)?;
    Ok(Some(SelectionResult {
        choices: choices.to_vec(),
        description: problem
            .slots
            .iter()
            .zip(choices)
            .map(|(s, &c)| (s.label.clone(), c))
            .collect(),
        failure_probability,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use archrel_expr::Expr;
    use archrel_model::{catalog, CompositeService, FlowBuilder, FlowState, ServiceCall, StateId};

    fn app_calling(target: &str) -> Service {
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "1",
                vec![ServiceCall::new(target).with_param("x", Expr::num(1.0))],
            ))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        Service::Composite(CompositeService::new("app", vec![], flow).unwrap())
    }

    fn provider(pfail: f64) -> Service {
        catalog::blackbox_service("dep", "x", pfail)
    }

    #[test]
    fn picks_the_most_reliable_provider() {
        let problem = SelectionProblem::new(
            vec![app_calling("dep")],
            vec![Slot::new(
                "dep-provider",
                vec![provider(0.10), provider(0.01), provider(0.05)],
            )],
            "app",
            Bindings::new(),
        );
        let results = select(&problem).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].choices, vec![1]);
        assert!((results[0].failure_probability.value() - 0.01).abs() < 1e-12);
        assert!((results[0].reliability().value() - 0.99).abs() < 1e-12);
        // Ranked ascending by failure probability.
        assert!(results[1].failure_probability <= results[2].failure_probability);
        let best = select_best(&problem).unwrap().unwrap();
        assert_eq!(best.choices, vec![1]);
    }

    #[test]
    fn multi_slot_cartesian_product() {
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "1",
                vec![
                    ServiceCall::new("a").with_param("x", Expr::num(1.0)),
                    ServiceCall::new("b").with_param("x", Expr::num(1.0)),
                ],
            ))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let app = Service::Composite(CompositeService::new("app", vec![], flow).unwrap());
        let cand = |name: &str, p: f64| catalog::blackbox_service(name, "x", p);
        let problem = SelectionProblem::new(
            vec![app],
            vec![
                Slot::new("a", vec![cand("a", 0.2), cand("a", 0.1)]),
                Slot::new("b", vec![cand("b", 0.3), cand("b", 0.05)]),
            ],
            "app",
            Bindings::new(),
        );
        let results = select(&problem).unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].choices, vec![1, 1]);
        let expected = 1.0 - 0.9 * 0.95;
        assert!((results[0].failure_probability.value() - expected).abs() < 1e-12);
    }

    #[test]
    fn incompatible_candidates_are_skipped() {
        let wrong_interface = catalog::blackbox_service("dep", "y", 0.001);
        let problem = SelectionProblem::new(
            vec![app_calling("dep")],
            vec![Slot::new("dep", vec![wrong_interface, provider(0.2)])],
            "app",
            Bindings::new(),
        );
        let results = select(&problem).unwrap();
        // The y-parameter candidate fails assembly validation and is skipped.
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].choices, vec![1]);
    }

    #[test]
    fn worker_count_does_not_change_the_ranking() {
        let cand = |name: &str, p: f64| catalog::blackbox_service(name, "x", p);
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "1",
                vec![
                    ServiceCall::new("a").with_param("x", Expr::num(1.0)),
                    ServiceCall::new("b").with_param("x", Expr::num(1.0)),
                ],
            ))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let app = Service::Composite(CompositeService::new("app", vec![], flow).unwrap());
        let problem = SelectionProblem::new(
            vec![app],
            vec![
                Slot::new(
                    "a",
                    (0..5).map(|i| cand("a", 0.01 * (i + 1) as f64)).collect(),
                ),
                Slot::new(
                    "b",
                    (0..4).map(|i| cand("b", 0.02 * (i + 1) as f64)).collect(),
                ),
            ],
            "app",
            Bindings::new(),
        );
        let reference = select_with_workers(&problem, 1).unwrap();
        for workers in [2, 8] {
            let got = select_with_workers(&problem, workers).unwrap();
            assert_eq!(reference.len(), got.len());
            for (r, g) in reference.iter().zip(&got) {
                assert_eq!(r.choices, g.choices, "{workers} workers");
                assert_eq!(
                    r.failure_probability.value().to_bits(),
                    g.failure_probability.value().to_bits()
                );
            }
        }
    }

    #[test]
    fn solver_policy_does_not_change_the_ranking() {
        use crate::SolverPolicy;
        let problem = SelectionProblem::new(
            vec![app_calling("dep")],
            vec![Slot::new(
                "dep-provider",
                vec![provider(0.10), provider(0.01), provider(0.05)],
            )],
            "app",
            Bindings::new(),
        );
        let dense = select(&problem.clone().with_eval_options(EvalOptions {
            solver: SolverPolicy::Dense,
            ..EvalOptions::default()
        }))
        .unwrap();
        let sparse = select(&problem.with_eval_options(EvalOptions {
            solver: SolverPolicy::Sparse,
            ..EvalOptions::default()
        }))
        .unwrap();
        assert_eq!(dense.len(), sparse.len());
        for (d, s) in dense.iter().zip(&sparse) {
            assert_eq!(d.choices, s.choices);
            assert!((d.failure_probability.value() - s.failure_probability.value()).abs() < 1e-10);
        }
    }

    /// Under the compiled-plan policy the staged path takes over; it must
    /// be **bitwise** identical to the generic build-per-combination path
    /// on acyclic flows (block ≡ scalar covers the straight-line tape),
    /// at every worker count.
    #[test]
    fn staged_selection_matches_generic_rebuild_bitwise() {
        use crate::SolverPolicy;
        let cand = |name: &str, p: f64| catalog::blackbox_service(name, "x", p);
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "1",
                vec![
                    ServiceCall::new("a").with_param("x", Expr::num(1.0)),
                    ServiceCall::new("b").with_param("x", Expr::num(2.0)),
                ],
            ))
            .state(FlowState::new(
                "2",
                vec![ServiceCall::new("a").with_param("x", Expr::num(3.0))],
            ))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", "2", Expr::one())
            .transition("2", StateId::End, Expr::one())
            .build()
            .unwrap();
        let app = Service::Composite(CompositeService::new("app", vec![], flow).unwrap());
        let problem = SelectionProblem::new(
            vec![app],
            vec![
                Slot::new(
                    "a",
                    (0..5).map(|i| cand("a", 0.01 * (i + 1) as f64)).collect(),
                ),
                Slot::new(
                    "b",
                    (0..4).map(|i| cand("b", 0.02 * (i + 1) as f64)).collect(),
                ),
            ],
            "app",
            Bindings::new(),
        )
        .with_eval_options(EvalOptions {
            solver: SolverPolicy::Compiled,
            ..EvalOptions::default()
        });
        // Generic reference: the same combinations, rebuilt and evaluated
        // one at a time on the same compiled-plan policy.
        let plans = Arc::new(PlanCache::new());
        let staged = staged_selection(&problem, &plans).unwrap();
        assert!(staged.is_some(), "problem is stageable");
        let mut reference: Vec<SelectionResult> = Vec::new();
        for a in 0..5 {
            for b in 0..4 {
                if let Some(r) = evaluate_combination(&problem, &[a, b], &plans).unwrap() {
                    reference.push(r);
                }
            }
        }
        reference.sort_by(|x, y| {
            x.failure_probability
                .value()
                .partial_cmp(&y.failure_probability.value())
                .unwrap()
        });
        for workers in [1usize, 3] {
            let got = select_with_workers(&problem, workers).unwrap();
            assert_eq!(reference.len(), got.len());
            for (r, g) in reference.iter().zip(&got) {
                assert_eq!(r.choices, g.choices, "{workers} workers");
                assert_eq!(
                    r.failure_probability.value().to_bits(),
                    g.failure_probability.value().to_bits()
                );
            }
        }
        // Incompatible candidates are still skipped on the staged path.
        let mut slots = problem.slots.clone();
        slots[1]
            .candidates
            .push(catalog::blackbox_service("b", "y", 0.001));
        let problem = SelectionProblem { slots, ..problem };
        let results = select(&problem).unwrap();
        assert_eq!(results.len(), 20, "the y-interface candidate is skipped");
    }

    #[test]
    fn space_cap_enforced() {
        let mut problem = SelectionProblem::new(
            vec![app_calling("dep")],
            vec![Slot::new("dep", vec![provider(0.1), provider(0.2)])],
            "app",
            Bindings::new(),
        );
        problem.max_combinations = 1;
        assert!(matches!(
            select(&problem),
            Err(CoreError::SelectionSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn empty_slot_yields_no_results() {
        let problem = SelectionProblem::new(
            vec![app_calling("dep")],
            vec![Slot::new("dep", vec![])],
            "app",
            Bindings::new(),
        );
        assert!(select(&problem).unwrap().is_empty());
    }
}
