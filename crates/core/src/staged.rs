//! Zero-`Bindings` staged sweeps: compile a composite service's point
//! evaluation down to a slot-patching recipe over its solve plan's
//! parameter row.
//!
//! The generic sweep loop pays, per point, for machinery whose *output* is
//! structurally identical across the whole sweep: a rebuilt assembly
//! (uncertainty/improvement factor sampling), a `Bindings` map per call
//! (sensitivity probes), resolved states, a fresh augmented chain, and a
//! parameter-extraction pass over that chain. When the flow structure is
//! fixed — which is exactly when the compiled-plan path applies — all of
//! that reduces to: recompute the handful of per-state failure
//! probabilities that actually moved, patch them into a copy of the
//! baseline parameter row, and hand the row straight to the lane-8 tape
//! replay.
//!
//! [`StagedSweep::compile`] performs that reduction once. It deliberately
//! over-verifies itself: after building the slot map it reconstructs the
//! baseline row from its own recipes and requires a **bitwise** match
//! against [`SolvePlan::parameters_into`] on the real augmented chain —
//! on any mismatch the caller silently falls back to the generic path.
//! Per point, a staged row is only used when the failure structure is
//! provably unchanged (no state failure probability crossed 0 or 1, no
//! merged transition edge appeared or vanished); otherwise the point
//! reports [`Staging::Fallback`] and the caller routes it through the
//! ordinary evaluator. Every number a staged row contains is produced by
//! the same functions the generic path calls ([`FailureModel`] laws,
//! [`state_failure_probability`], the augment-time `p · (1 − pfail)`
//! scaling), in the same order — staged and generic results are therefore
//! bitwise identical, not merely close.

use std::collections::BTreeMap;
use std::sync::Arc;

use archrel_expr::{Bindings, Expr};
use archrel_markov::{structure_fingerprint, PlanScratch, SolvePlan};
use archrel_model::{
    Assembly, CompletionModel, DependencyModel, FailureModel, InternalFailureModel, Probability,
    Service, ServiceCall, ServiceId, SimpleService, StateId,
};

use crate::augment::{augmented_chain, AugmentedState};
use crate::eval::{EvalOptions, PlanCache, PlanEntry};
use crate::failprob::{state_failure_probability, RequestFailure};
use crate::improvement::{scale_failure_model, scale_internal_model, Lever};
use crate::{CoreError, Result};

/// Outcome of staging one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Staging {
    /// The point's parameter row is staged in [`StagedScratch::row`]; the
    /// failure structure is unchanged, so the row may go straight to the
    /// baseline plan's tape replay.
    Row,
    /// The point changes the failure *structure* (a probability crossed
    /// 0/1, an edge appeared or vanished): evaluate it on the generic path.
    Fallback,
}

/// One simple service referenced (as call target or connector) by the
/// staged composite.
#[derive(Debug, Clone)]
struct SimpleEntry {
    id: ServiceId,
    formal: String,
    model: FailureModel,
}

/// One deduplicated connector binding of a call.
#[derive(Debug, Clone, PartialEq)]
struct ConnRecipe {
    /// Index into the simple-service table.
    target: usize,
    actuals: Vec<(String, Expr)>,
    /// Baseline-evaluated actual parameter values (same order).
    actual_values: Vec<f64>,
    /// Index of the actual parameter bound to the connector's formal
    /// (last-wins, mirroring `Bindings::insert`).
    demand_idx: usize,
}

/// One deduplicated service call: its resolved target, retained actual
/// parameter expressions (for env sweeps), and baseline values.
#[derive(Debug, Clone, PartialEq)]
struct CallRecipe {
    target: usize,
    actuals: Vec<(String, Expr)>,
    actual_values: Vec<f64>,
    /// Value of the first actual parameter (the internal-failure demand).
    first_demand: f64,
    /// Index of the actual parameter bound to the target's formal.
    demand_idx: usize,
    internal: InternalFailureModel,
    connector: Option<ConnRecipe>,
}

/// One deduplicated flow state: completion/dependency models plus its call
/// recipes. Sweeps over flows with many *identical* states (the synthetic
/// benchmark chains, tier-replicated architectures) collapse to a handful
/// of recipes.
#[derive(Debug, Clone, PartialEq)]
struct StateRecipe {
    completion: CompletionModel,
    dependency: DependencyModel,
    calls: Vec<usize>,
}

/// One merged flow edge (`from → to` after parallel-edge merging), as the
/// augment step sees it.
#[derive(Debug, Clone)]
struct EdgeRecipe {
    /// Baseline merged probability (before failure scaling).
    base_p: f64,
    /// Indices into the transition table, in flow order (the merge order).
    trans: Vec<usize>,
    /// Failure-scaling state recipe (`None` for `Start`: no failure there).
    state: Option<usize>,
    /// Parameter-row slot, when the baseline chain kept this edge.
    slot: Option<usize>,
}

/// One flow transition retained for env sweeps.
#[derive(Debug, Clone)]
struct TransRecipe {
    from: StateId,
    expr: Expr,
}

/// Row-sum validation unit for env sweeps: one source state's transitions,
/// in the order the augment step checks them.
#[derive(Debug, Clone)]
struct RowCheck {
    from: StateId,
    trans: Vec<usize>,
}

/// Everything that can move when exactly one env binding moves: the
/// dependency cone of one formal parameter through the staged recipes.
/// Index vectors are ascending, so incremental restaging visits entries
/// in the same order full staging does — first-error agreement depends
/// on it.
#[derive(Debug, Clone, Default)]
struct ParamDeps {
    calls: Vec<usize>,
    states: Vec<usize>,
    trans: Vec<usize>,
    rows: Vec<usize>,
    edges: Vec<usize>,
    fail_slots: Vec<(usize, usize)>,
}

/// A staged evaluation of the stencil-center env, snapshotted for
/// single-binding delta staging (see [`StagedSweep::prepare_env_center`]).
///
/// Shareable across worker threads (read-only).
pub(crate) struct StagedEnvCenter {
    reqs: Vec<RequestFailure>,
    fps: Vec<Probability>,
    trans_ps: Vec<f64>,
    edge_ps: Vec<f64>,
    row: Vec<f64>,
    deps: BTreeMap<String, ParamDeps>,
}

/// How one improvement lever acts on a staged sweep
/// (see [`StagedSweep::prepare_levers`]).
#[derive(Debug, Clone, Copy)]
enum LeverEffect {
    /// Scales the failure law of the indexed simple-service table entry.
    Simple(usize),
    /// Scales every call's internal failure law of the staged composite.
    Internal,
    /// Valid lever with no influence on the staged service.
    Inert,
}

/// Per-sweep lever classification, computed once by
/// [`StagedSweep::prepare_levers`].
#[derive(Debug, Clone)]
pub(crate) struct StagedLevers {
    effects: Vec<LeverEffect>,
}

impl StagedLevers {
    /// A lever set with no levers (stages the baseline itself).
    pub(crate) fn empty() -> Self {
        StagedLevers {
            effects: Vec::new(),
        }
    }
}

/// Reusable per-worker buffers for staging points (see [`StagedSweep`]).
pub(crate) struct StagedScratch {
    /// The staged parameter row of the last [`Staging::Row`] point.
    pub(crate) row: Vec<f64>,
    fps: Vec<Probability>,
    reqs: Vec<RequestFailure>,
    state_reqs: Vec<RequestFailure>,
    models: Vec<FailureModel>,
    internal_factors: Vec<f64>,
    values: Vec<f64>,
    cvalues: Vec<f64>,
    trans_ps: Vec<f64>,
    edge_ps: Vec<f64>,
    plan_scratch: PlanScratch,
}

/// A composite service's sweep evaluation, compiled to row staging.
///
/// Shareable across worker threads (`&self` staging into per-worker
/// [`StagedScratch`] buffers).
pub(crate) struct StagedSweep {
    service: ServiceId,
    plan: Arc<SolvePlan>,
    plans: Arc<PlanCache>,
    base_row: Vec<f64>,
    simples: Vec<SimpleEntry>,
    calls: Vec<CallRecipe>,
    states: Vec<StateRecipe>,
    base_fps: Vec<Probability>,
    edges: Vec<EdgeRecipe>,
    /// `(state recipe, row slot)` of every baseline `→ Fail` edge.
    fail_slots: Vec<(usize, usize)>,
    transitions: Vec<TransRecipe>,
    rows: Vec<RowCheck>,
}

impl StagedSweep {
    /// Compiles `service`'s evaluation under `env` into a staged sweep, or
    /// returns `Ok(None)` when staging does not apply: the solver policy
    /// would not answer the flow from a compiled plan (see below), the
    /// service is not a composite whose calls and connectors all resolve
    /// to simple services, the structure did not yield a plan, or the
    /// self-check row failed to reproduce the real extraction bitwise.
    ///
    /// `Compiled` stages every eligible flow. `Auto` stages only flows
    /// whose augmented chain it solves in the sparse regime *and* whose
    /// structure compiles to an acyclic tape: there the tape replays the
    /// sparse back-substitution bit for bit, so staging cannot change an
    /// `Auto` answer. Dense-regime and cyclic flows under `Auto`, and the
    /// explicit `Dense`/`Sparse` policies, stay on the generic path.
    ///
    /// # Errors
    ///
    /// Only errors the generic path would raise identically for every
    /// point of the sweep (unevaluable actual parameters, invalid demands,
    /// malformed transition rows under the baseline `env`).
    pub(crate) fn compile(
        assembly: &Assembly,
        service: &ServiceId,
        env: &Bindings,
        plans: &Arc<PlanCache>,
        options: EvalOptions,
    ) -> Result<Option<StagedSweep>> {
        let Some(Service::Composite(composite)) = assembly.service(service) else {
            return Ok(None);
        };
        // The augmented chain adds at most `Start`, `End` and `Fail` to the
        // flow's states. A policy that would not compile even the largest,
        // edge-free chain of that size (`Auto` on a small flow, `Dense`,
        // `Sparse`) declines before any recipe is built.
        let max_states = composite.flow().states().len() + 3;
        if options.solver.plan_compilation(max_states, 0).is_none() {
            return Ok(None);
        }

        // Intern every call target / connector; any non-simple callee means
        // recursive resolution the recipe form cannot express.
        let mut simples: Vec<SimpleEntry> = Vec::new();
        let mut calls: Vec<CallRecipe> = Vec::new();
        let mut states: Vec<StateRecipe> = Vec::new();
        let mut state_recipe_of: BTreeMap<StateId, usize> = BTreeMap::new();
        for state in composite.flow().states() {
            let mut call_idx = Vec::with_capacity(state.calls.len());
            for call in &state.calls {
                let Some(recipe) = compile_call(assembly, call, env, &mut simples)? else {
                    return Ok(None);
                };
                let idx = match calls.iter().position(|c| *c == recipe) {
                    Some(idx) => idx,
                    None => {
                        calls.push(recipe);
                        calls.len() - 1
                    }
                };
                call_idx.push(idx);
            }
            let recipe = StateRecipe {
                completion: state.completion,
                dependency: state.dependency,
                calls: call_idx,
            };
            let idx = match states.iter().position(|s| *s == recipe) {
                Some(idx) => idx,
                None => {
                    states.push(recipe);
                    states.len() - 1
                }
            };
            state_recipe_of.insert(state.id.clone(), idx);
        }

        // Baseline per-recipe requests and state failure probabilities —
        // the same functions `resolve_states` runs, on the same inputs.
        let mut base_reqs = Vec::with_capacity(calls.len());
        for call in &calls {
            base_reqs.push(base_request(&simples, call)?);
        }
        let mut base_fps = Vec::with_capacity(states.len());
        let mut state_reqs = Vec::new();
        for recipe in &states {
            state_reqs.clear();
            state_reqs.extend(recipe.calls.iter().map(|&c| base_reqs[c]));
            base_fps.push(state_failure_probability(
                recipe.completion,
                recipe.dependency,
                &state_reqs,
            )?);
        }

        // Transition table + merged edges, replicating the augment step's
        // evaluation order, validation, and BTreeMap merge order.
        let mut transitions = Vec::new();
        let mut trans_base = Vec::new();
        for t in composite.flow().transitions() {
            let p = t.probability.eval(env)?;
            if !(0.0..=1.0 + 1e-9).contains(&p) {
                return Err(CoreError::BadTransitions {
                    service: composite.id().to_string(),
                    state: t.from.to_string(),
                    sum: p,
                });
            }
            transitions.push(TransRecipe {
                from: t.from.clone(),
                expr: t.probability.clone(),
            });
            trans_base.push((t.from.clone(), t.to.clone(), p));
        }
        let mut row_map: BTreeMap<StateId, Vec<usize>> = BTreeMap::new();
        for (ti, (from, _, _)) in trans_base.iter().enumerate() {
            row_map.entry(from.clone()).or_default().push(ti);
        }
        let rows: Vec<RowCheck> = row_map
            .into_iter()
            .map(|(from, trans)| RowCheck { from, trans })
            .collect();
        for rc in &rows {
            let sum: f64 = rc.trans.iter().fold(0.0, |s, &ti| s + trans_base[ti].2);
            if (sum - 1.0).abs() > 1e-9 {
                return Err(CoreError::BadTransitions {
                    service: composite.id().to_string(),
                    state: rc.from.to_string(),
                    sum,
                });
            }
        }
        let mut merged: BTreeMap<(StateId, StateId), (f64, Vec<usize>)> = BTreeMap::new();
        for (ti, (from, to, p)) in trans_base.iter().enumerate() {
            let slot = merged.entry((from.clone(), to.clone())).or_default();
            slot.0 += p;
            slot.1.push(ti);
        }
        let mut edges = Vec::with_capacity(merged.len());
        let mut edge_of: BTreeMap<(StateId, StateId), usize> = BTreeMap::new();
        for ((from, to), (base_p, trans)) in merged {
            let state = match &from {
                StateId::Start => None,
                named => match state_recipe_of.get(named) {
                    Some(&idx) => Some(idx),
                    // A source state outside the flow's state list would be
                    // failure-free in augment; the builder rejects such
                    // flows, so just decline to stage.
                    None => return Ok(None),
                },
            };
            edge_of.insert((from, to), edges.len());
            edges.push(EdgeRecipe {
                base_p,
                trans,
                state,
                slot: None,
            });
        }

        // The real baseline chain and its plan. Going through the same
        // augment + cache entry the evaluator uses guarantees the staged
        // fingerprint matches the generic path's.
        let failures: BTreeMap<StateId, Probability> = state_recipe_of
            .iter()
            .map(|(id, &i)| (id.clone(), base_fps[i]))
            .collect();
        let chain = augmented_chain(composite, env, &failures)?;
        let start = AugmentedState::Flow(StateId::Start);
        let end = AugmentedState::Flow(StateId::End);
        // Stage exactly the chains the evaluator itself would answer from a
        // plan: under `Auto` that is an acyclic tape in the sparse regime,
        // which replays the sparse back-substitution bit for bit.
        let Some(acyclic_only) = options
            .solver
            .plan_compilation(chain.len(), chain.edge_count())
        else {
            return Ok(None);
        };
        let fingerprint = structure_fingerprint(&chain, &start, &end);
        let plan = match plans.entry(fingerprint, &chain, &start, &end, acyclic_only) {
            // A shared cache may hold a cyclic plan compiled for another
            // evaluator; `Auto` answers cyclic flows iteratively, not from it.
            Ok(PlanEntry::Plan(plan)) if !acyclic_only || plan.is_acyclic() => plan,
            // Unreachable/cyclic markers and compile errors: the generic
            // path knows how to answer those; staging does not.
            Ok(_) | Err(_) => return Ok(None),
        };

        // Slot map: walk the chain's transient adjacency exactly as
        // `parameters_into` does and attribute each slot to its edge.
        let mut fail_slots = Vec::new();
        let mut slot = 0usize;
        for i in chain.transient_indices() {
            let from = chain.state_at(i);
            let Ok(successors) = chain.successors(from) else {
                return Ok(None);
            };
            for (to, _) in successors {
                match (from, to) {
                    (AugmentedState::Flow(f), AugmentedState::Flow(t)) => {
                        match edge_of.get(&(f.clone(), t.clone())) {
                            Some(&ei) => edges[ei].slot = Some(slot),
                            None => return Ok(None),
                        }
                    }
                    (AugmentedState::Flow(f), AugmentedState::Fail) => {
                        match state_recipe_of.get(f) {
                            Some(&si) => fail_slots.push((si, slot)),
                            None => return Ok(None),
                        }
                    }
                    (AugmentedState::Fail, _) => return Ok(None),
                }
                slot += 1;
            }
        }

        let mut base_row = Vec::new();
        if plan.parameters_into(&chain, &mut base_row).is_err() || base_row.len() != slot {
            return Ok(None);
        }

        let sweep = StagedSweep {
            service: service.clone(),
            plan,
            plans: Arc::clone(plans),
            base_row,
            simples,
            calls,
            states,
            base_fps,
            edges,
            fail_slots,
            transitions,
            rows,
        };

        // Self-check: both staging modes must reproduce the extracted
        // baseline row bit for bit before the sweep is trusted.
        let mut scratch = sweep.new_scratch();
        let baseline_ok = matches!(
            sweep.stage_factors(&StagedLevers::empty(), &[], &mut scratch),
            Ok(Staging::Row)
        ) && scratch.row == sweep.base_row;
        let env_ok = baseline_ok
            && matches!(sweep.stage_env(env, &mut scratch), Ok(Staging::Row))
            && scratch.row == sweep.base_row;
        if !env_ok {
            return Ok(None);
        }
        Ok(Some(sweep))
    }

    /// Fresh staging buffers sized for this sweep (one per worker thread).
    pub(crate) fn new_scratch(&self) -> StagedScratch {
        StagedScratch {
            row: Vec::with_capacity(self.base_row.len()),
            fps: vec![Probability::ZERO; self.states.len()],
            reqs: vec![RequestFailure::new(Probability::ZERO, Probability::ZERO); self.calls.len()],
            state_reqs: Vec::new(),
            models: Vec::with_capacity(self.simples.len()),
            internal_factors: Vec::new(),
            values: Vec::new(),
            cvalues: Vec::new(),
            trans_ps: Vec::with_capacity(self.transitions.len()),
            edge_ps: Vec::with_capacity(self.edges.len()),
            plan_scratch: PlanScratch::new(),
        }
    }

    /// The compiled plan staged rows replay through.
    pub(crate) fn plan(&self) -> &Arc<SolvePlan> {
        &self.plan
    }

    /// Index of a simple service in the staged table, if the sweep
    /// references it at all.
    pub(crate) fn simple_index(&self, id: &ServiceId) -> Option<usize> {
        self.simples.iter().position(|s| s.id == *id)
    }

    /// Number of interned simple services (the length override tables
    /// passed to [`StagedSweep::stage_models`] must have).
    pub(crate) fn simple_count(&self) -> usize {
        self.simples.len()
    }

    /// Classifies improvement levers against this sweep once, so factor
    /// points skip per-point service lookups. Replicates `apply_lever`'s
    /// existence and kind validation (and its exact errors).
    pub(crate) fn prepare_levers<'a>(
        &self,
        assembly: &Assembly,
        levers: impl IntoIterator<Item = &'a Lever>,
    ) -> Result<StagedLevers> {
        let mut effects = Vec::new();
        for lever in levers {
            let effect = match (lever, assembly.service(lever.service())) {
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
                (Lever::ServiceFailure(id), Some(Service::Simple(_))) => self
                    .simple_index(id)
                    .map(LeverEffect::Simple)
                    .unwrap_or(LeverEffect::Inert),
                (Lever::InternalFailure(id), Some(Service::Composite(_))) => {
                    if *id == self.service {
                        LeverEffect::Internal
                    } else {
                        LeverEffect::Inert
                    }
                }
            };
            effects.push(effect);
        }
        Ok(StagedLevers { effects })
    }

    /// Stages one factor-sweep point (`factors[i]` applied to lever `i`, in
    /// lever order — the order `apply_all`/`apply_lever` folds them).
    ///
    /// # Errors
    ///
    /// The same errors the generic rebuild would raise: non-finite or
    /// negative factors, invalid demands under the scaled laws.
    pub(crate) fn stage_factors(
        &self,
        levers: &StagedLevers,
        factors: &[f64],
        scratch: &mut StagedScratch,
    ) -> Result<Staging> {
        debug_assert_eq!(levers.effects.len(), factors.len());
        scratch.models.clear();
        scratch
            .models
            .extend(self.simples.iter().map(|s| s.model.clone()));
        scratch.internal_factors.clear();
        for (effect, &factor) in levers.effects.iter().zip(factors) {
            if !factor.is_finite() || factor < 0.0 {
                return Err(CoreError::Model(
                    archrel_model::ModelError::InvalidAttribute {
                        name: "factor",
                        value: factor,
                    },
                ));
            }
            match *effect {
                LeverEffect::Simple(t) => {
                    scratch.models[t] = scale_failure_model(&scratch.models[t], factor)
                }
                LeverEffect::Internal => scratch.internal_factors.push(factor),
                LeverEffect::Inert => {}
            }
        }
        for i in 0..self.calls.len() {
            let call = &self.calls[i];
            let target_fail = scratch.models[call.target].failure_probability(call.demand())?;
            let connector_fail = match &call.connector {
                None => Probability::ZERO,
                Some(c) => scratch.models[c.target].failure_probability(c.demand())?,
            };
            let internal_model = scratch
                .internal_factors
                .iter()
                .fold(call.internal.clone(), |m, &f| scale_internal_model(&m, f));
            let internal = internal_model.failure_probability(call.first_demand)?;
            scratch.reqs[i] = RequestFailure::new(
                internal,
                RequestFailure::external_of(target_fail, connector_fail),
            );
        }
        self.state_fps(scratch)?;
        if self.structure_moved(scratch) {
            return Ok(Staging::Fallback);
        }
        self.fill_row_fixed_edges(scratch)
    }

    /// Stages one model-override point (the selection driver: slot
    /// candidates swap entire simple services). `overrides[i]`, when set,
    /// replaces simple-table entry `i` — formal parameter and failure law.
    ///
    /// # Errors
    ///
    /// Invalid demands under the overriding laws, as the generic
    /// evaluation of the rebuilt assembly would raise.
    pub(crate) fn stage_models(
        &self,
        overrides: &[Option<&SimpleService>],
        scratch: &mut StagedScratch,
    ) -> Result<Staging> {
        debug_assert_eq!(overrides.len(), self.simples.len());
        for i in 0..self.calls.len() {
            let call = &self.calls[i];
            let target_fail = match self.override_failure(call, overrides[call.target])? {
                Some(p) => p,
                None => return Ok(Staging::Fallback),
            };
            let connector_fail = match &call.connector {
                None => Probability::ZERO,
                Some(c) => match self.conn_override_failure(c, overrides[c.target])? {
                    Some(p) => p,
                    None => return Ok(Staging::Fallback),
                },
            };
            let internal = call.internal.failure_probability(call.first_demand)?;
            scratch.reqs[i] = RequestFailure::new(
                internal,
                RequestFailure::external_of(target_fail, connector_fail),
            );
        }
        self.state_fps(scratch)?;
        if self.structure_moved(scratch) {
            return Ok(Staging::Fallback);
        }
        self.fill_row_fixed_edges(scratch)
    }

    /// Stages one env-sweep point (the sensitivity driver: same assembly,
    /// perturbed formal-parameter bindings). Re-evaluates actual-parameter
    /// and transition expressions; everything structural stays staged.
    ///
    /// # Errors
    ///
    /// Expression evaluation failures, invalid demands, and malformed
    /// transition rows — each exactly as the generic path reports it.
    pub(crate) fn stage_env(&self, env: &Bindings, scratch: &mut StagedScratch) -> Result<Staging> {
        for i in 0..self.calls.len() {
            self.stage_call(i, env, scratch)?;
        }
        self.state_fps(scratch)?;

        // Transition re-evaluation with the augment step's validation
        // (range first, in flow order; then row sums, in state order).
        scratch.trans_ps.clear();
        for t in &self.transitions {
            let p = t.expr.eval(env)?;
            if !(0.0..=1.0 + 1e-9).contains(&p) {
                return Err(CoreError::BadTransitions {
                    service: self.service.to_string(),
                    state: t.from.to_string(),
                    sum: p,
                });
            }
            scratch.trans_ps.push(p);
        }
        for rc in &self.rows {
            let sum: f64 = rc.trans.iter().fold(0.0, |s, &ti| s + scratch.trans_ps[ti]);
            if (sum - 1.0).abs() > 1e-9 {
                return Err(CoreError::BadTransitions {
                    service: self.service.to_string(),
                    state: rc.from.to_string(),
                    sum,
                });
            }
        }
        scratch.edge_ps.clear();
        for e in &self.edges {
            let p: f64 = e.trans.iter().fold(0.0, |s, &ti| s + scratch.trans_ps[ti]);
            scratch.edge_ps.push(p);
        }

        if self.structure_moved(scratch) {
            return Ok(Staging::Fallback);
        }
        scratch.row.clear();
        scratch.row.resize(self.base_row.len(), 0.0);
        for (ei, e) in self.edges.iter().enumerate() {
            let comp = match e.state {
                Some(s) => scratch.fps[s].complement().value(),
                None => 1.0,
            };
            let scaled = scratch.edge_ps[ei] * comp;
            match e.slot {
                Some(k) => {
                    let v = scaled.min(1.0);
                    if v <= 0.0 {
                        // The edge would now be dropped by the chain
                        // builder: different structure.
                        return Ok(Staging::Fallback);
                    }
                    scratch.row[k] = v;
                }
                None => {
                    if scaled > 0.0 {
                        // A baseline-dropped edge came back.
                        return Ok(Staging::Fallback);
                    }
                }
            }
        }
        for &(s, k) in &self.fail_slots {
            scratch.row[k] = scratch.fps[s].value().min(1.0);
        }
        Ok(Staging::Row)
    }

    /// Stages the stencil-center env once and snapshots the result, so
    /// probes that move exactly **one** binding can be staged through
    /// [`StagedSweep::stage_env_delta`] instead of re-evaluating every
    /// expression per probe. Returns `Ok(None)` when the center itself
    /// does not stage a row (callers then keep full per-probe staging).
    ///
    /// # Errors
    ///
    /// The errors [`StagedSweep::stage_env`] raises for the center env.
    pub(crate) fn prepare_env_center(
        &self,
        env: &Bindings,
        scratch: &mut StagedScratch,
    ) -> Result<Option<StagedEnvCenter>> {
        if self.stage_env(env, scratch)? != Staging::Row {
            return Ok(None);
        }
        Ok(Some(self.snapshot_center(scratch)))
    }

    /// Snapshots the staging `scratch` currently holds into a fresh env
    /// center. Call only after a staging that returned [`Staging::Row`]
    /// (callers that already staged — fleet refresh recovering from a
    /// structural fallback — use this to skip
    /// [`StagedSweep::prepare_env_center`]'s redundant restage).
    pub(crate) fn snapshot_center(&self, scratch: &StagedScratch) -> StagedEnvCenter {
        StagedEnvCenter {
            reqs: scratch.reqs.clone(),
            fps: scratch.fps.clone(),
            trans_ps: scratch.trans_ps.clone(),
            edge_ps: scratch.edge_ps.clone(),
            row: scratch.row.clone(),
            deps: self.env_delta_deps(),
        }
    }

    /// Stages one env probe that differs from `center`'s env in exactly
    /// the binding `name` (the finite-difference stencil's contract).
    /// Restores the center snapshot and re-runs only the recipes inside
    /// `name`'s dependency cone — every recomputed entry goes through the
    /// same arithmetic as [`StagedSweep::stage_env`] on the same inputs
    /// and every untouched entry is copied from an identical evaluation,
    /// so the staged row is **bitwise** what full staging would produce.
    /// Errors and fallback decisions also agree: entries outside the cone
    /// were validated at the center with identical values, so the first
    /// failing entry (in staging order) is always inside the cone.
    ///
    /// # Errors
    ///
    /// See [`StagedSweep::stage_env`].
    pub(crate) fn stage_env_delta(
        &self,
        center: &StagedEnvCenter,
        name: &str,
        env: &Bindings,
        scratch: &mut StagedScratch,
    ) -> Result<Staging> {
        scratch.reqs.clear();
        scratch.reqs.extend_from_slice(&center.reqs);
        scratch.fps.clear();
        scratch.fps.extend_from_slice(&center.fps);
        scratch.trans_ps.clear();
        scratch.trans_ps.extend_from_slice(&center.trans_ps);
        scratch.edge_ps.clear();
        scratch.edge_ps.extend_from_slice(&center.edge_ps);
        scratch.row.clear();
        scratch.row.extend_from_slice(&center.row);
        let Some(deps) = center.deps.get(name) else {
            // Nothing reads this binding: the center row is the probe row.
            return Ok(Staging::Row);
        };
        for &i in &deps.calls {
            self.stage_call(i, env, scratch)?;
        }
        for &si in &deps.states {
            self.stage_state_fp(si, scratch)?;
        }
        for &ti in &deps.trans {
            let t = &self.transitions[ti];
            let p = t.expr.eval(env)?;
            if !(0.0..=1.0 + 1e-9).contains(&p) {
                return Err(CoreError::BadTransitions {
                    service: self.service.to_string(),
                    state: t.from.to_string(),
                    sum: p,
                });
            }
            scratch.trans_ps[ti] = p;
        }
        for &ri in &deps.rows {
            let rc = &self.rows[ri];
            let sum: f64 = rc.trans.iter().fold(0.0, |s, &ti| s + scratch.trans_ps[ti]);
            if (sum - 1.0).abs() > 1e-9 {
                return Err(CoreError::BadTransitions {
                    service: self.service.to_string(),
                    state: rc.from.to_string(),
                    sum,
                });
            }
        }
        for &ei in &deps.edges {
            let e = &self.edges[ei];
            scratch.edge_ps[ei] = e.trans.iter().fold(0.0, |s, &ti| s + scratch.trans_ps[ti]);
        }
        for &si in &deps.states {
            let (b, f) = (&self.base_fps[si], &scratch.fps[si]);
            if b.is_zero() != f.is_zero() || b.is_one() != f.is_one() {
                return Ok(Staging::Fallback);
            }
        }
        for &ei in &deps.edges {
            let e = &self.edges[ei];
            let comp = match e.state {
                Some(s) => scratch.fps[s].complement().value(),
                None => 1.0,
            };
            let scaled = scratch.edge_ps[ei] * comp;
            match e.slot {
                Some(k) => {
                    let v = scaled.min(1.0);
                    if v <= 0.0 {
                        return Ok(Staging::Fallback);
                    }
                    scratch.row[k] = v;
                }
                None => {
                    if scaled > 0.0 {
                        return Ok(Staging::Fallback);
                    }
                }
            }
        }
        for &(s, k) in &deps.fail_slots {
            scratch.row[k] = scratch.fps[s].value().min(1.0);
        }
        Ok(Staging::Row)
    }

    /// Stages one env probe that differs from `center`'s env in the
    /// bindings `names` — the multi-binding generalization of
    /// [`StagedSweep::stage_env_delta`] used by streaming fleet refresh,
    /// where one delta set can move several usage parameters of the same
    /// service at once. Restages the **union** of the named parameters'
    /// dependency cones, visiting each recipe class in ascending index
    /// order (the order full staging uses), so rows, errors, and fallback
    /// decisions are bitwise/first-error identical to
    /// [`StagedSweep::stage_env`] on the probe env.
    ///
    /// # Errors
    ///
    /// See [`StagedSweep::stage_env`].
    pub(crate) fn stage_env_deltas(
        &self,
        center: &StagedEnvCenter,
        names: &[String],
        env: &Bindings,
        scratch: &mut StagedScratch,
    ) -> Result<Staging> {
        if let [name] = names {
            return self.stage_env_delta(center, name, env, scratch);
        }
        scratch.reqs.clear();
        scratch.reqs.extend_from_slice(&center.reqs);
        scratch.fps.clear();
        scratch.fps.extend_from_slice(&center.fps);
        scratch.trans_ps.clear();
        scratch.trans_ps.extend_from_slice(&center.trans_ps);
        scratch.edge_ps.clear();
        scratch.edge_ps.extend_from_slice(&center.edge_ps);
        scratch.row.clear();
        scratch.row.extend_from_slice(&center.row);
        use std::collections::BTreeSet;
        let mut calls: BTreeSet<usize> = BTreeSet::new();
        let mut states: BTreeSet<usize> = BTreeSet::new();
        let mut trans: BTreeSet<usize> = BTreeSet::new();
        let mut rows: BTreeSet<usize> = BTreeSet::new();
        let mut edges: BTreeSet<usize> = BTreeSet::new();
        let mut fail_slots: BTreeSet<(usize, usize)> = BTreeSet::new();
        for name in names {
            let Some(deps) = center.deps.get(name) else {
                continue;
            };
            calls.extend(deps.calls.iter().copied());
            states.extend(deps.states.iter().copied());
            trans.extend(deps.trans.iter().copied());
            rows.extend(deps.rows.iter().copied());
            edges.extend(deps.edges.iter().copied());
            fail_slots.extend(deps.fail_slots.iter().copied());
        }
        for &i in &calls {
            self.stage_call(i, env, scratch)?;
        }
        for &si in &states {
            self.stage_state_fp(si, scratch)?;
        }
        for &ti in &trans {
            let t = &self.transitions[ti];
            let p = t.expr.eval(env)?;
            if !(0.0..=1.0 + 1e-9).contains(&p) {
                return Err(CoreError::BadTransitions {
                    service: self.service.to_string(),
                    state: t.from.to_string(),
                    sum: p,
                });
            }
            scratch.trans_ps[ti] = p;
        }
        for &ri in &rows {
            let rc = &self.rows[ri];
            let sum: f64 = rc.trans.iter().fold(0.0, |s, &ti| s + scratch.trans_ps[ti]);
            if (sum - 1.0).abs() > 1e-9 {
                return Err(CoreError::BadTransitions {
                    service: self.service.to_string(),
                    state: rc.from.to_string(),
                    sum,
                });
            }
        }
        for &ei in &edges {
            let e = &self.edges[ei];
            scratch.edge_ps[ei] = e.trans.iter().fold(0.0, |s, &ti| s + scratch.trans_ps[ti]);
        }
        for &si in &states {
            let (b, f) = (&self.base_fps[si], &scratch.fps[si]);
            if b.is_zero() != f.is_zero() || b.is_one() != f.is_one() {
                return Ok(Staging::Fallback);
            }
        }
        for &ei in &edges {
            let e = &self.edges[ei];
            let comp = match e.state {
                Some(s) => scratch.fps[s].complement().value(),
                None => 1.0,
            };
            let scaled = scratch.edge_ps[ei] * comp;
            match e.slot {
                Some(k) => {
                    let v = scaled.min(1.0);
                    if v <= 0.0 {
                        return Ok(Staging::Fallback);
                    }
                    scratch.row[k] = v;
                }
                None => {
                    if scaled > 0.0 {
                        return Ok(Staging::Fallback);
                    }
                }
            }
        }
        for &(s, k) in &fail_slots {
            scratch.row[k] = scratch.fps[s].value().min(1.0);
        }
        Ok(Staging::Row)
    }

    /// Moves `center` to the staging `scratch` currently holds, so the
    /// next delta can be expressed against the just-applied env instead of
    /// the original one. Streaming refresh applies delta sets
    /// sequentially: after each successful [`Staging::Row`], advancing the
    /// center keeps every later delta bitwise equal to full staging by
    /// induction (the snapshot always equals a full staging of the current
    /// env). Call only after a staging that returned [`Staging::Row`].
    pub(crate) fn advance_center(&self, center: &mut StagedEnvCenter, scratch: &StagedScratch) {
        center.reqs.clear();
        center.reqs.extend_from_slice(&scratch.reqs);
        center.fps.clear();
        center.fps.extend_from_slice(&scratch.fps);
        center.trans_ps.clear();
        center.trans_ps.extend_from_slice(&scratch.trans_ps);
        center.edge_ps.clear();
        center.edge_ps.extend_from_slice(&scratch.edge_ps);
        center.row.clear();
        center.row.extend_from_slice(&scratch.row);
    }

    /// Dependency cones of every formal parameter the staged expressions
    /// read: which call, state, transition, row, edge, and fail-slot
    /// recipes must be restaged when that parameter moves.
    fn env_delta_deps(&self) -> BTreeMap<String, ParamDeps> {
        use std::collections::BTreeSet;
        let mut deps: BTreeMap<String, ParamDeps> = BTreeMap::new();
        for (i, call) in self.calls.iter().enumerate() {
            let mut params: BTreeSet<String> = BTreeSet::new();
            for (_, expr) in &call.actuals {
                params.extend(expr.free_params());
            }
            if let Some(conn) = &call.connector {
                for (_, expr) in &conn.actuals {
                    params.extend(expr.free_params());
                }
            }
            for p in params {
                deps.entry(p).or_default().calls.push(i);
            }
        }
        for (ti, t) in self.transitions.iter().enumerate() {
            for p in t.expr.free_params() {
                deps.entry(p).or_default().trans.push(ti);
            }
        }
        for d in deps.values_mut() {
            let calls: BTreeSet<usize> = d.calls.iter().copied().collect();
            let trans: BTreeSet<usize> = d.trans.iter().copied().collect();
            for (si, s) in self.states.iter().enumerate() {
                if s.calls.iter().any(|c| calls.contains(c)) {
                    d.states.push(si);
                }
            }
            let states: BTreeSet<usize> = d.states.iter().copied().collect();
            for (ri, rc) in self.rows.iter().enumerate() {
                if rc.trans.iter().any(|t| trans.contains(t)) {
                    d.rows.push(ri);
                }
            }
            for (ei, e) in self.edges.iter().enumerate() {
                if e.trans.iter().any(|t| trans.contains(t))
                    || e.state.is_some_and(|s| states.contains(&s))
                {
                    d.edges.push(ei);
                }
            }
            for &(s, k) in &self.fail_slots {
                if states.contains(&s) {
                    d.fail_slots.push((s, k));
                }
            }
        }
        deps
    }

    /// Re-resolves one call recipe against `env` into `scratch.reqs[i]` —
    /// the arithmetic both full and delta env staging share.
    fn stage_call(&self, i: usize, env: &Bindings, scratch: &mut StagedScratch) -> Result<()> {
        let call = &self.calls[i];
        scratch.values.clear();
        let mut first_demand = 0.0;
        for (j, (_, expr)) in call.actuals.iter().enumerate() {
            let v = expr.eval(env)?;
            if j == 0 {
                first_demand = v;
            }
            scratch.values.push(v);
        }
        let target_fail = self.simples[call.target]
            .model
            .failure_probability(scratch.values[call.demand_idx])?;
        let connector_fail = match &call.connector {
            None => Probability::ZERO,
            Some(c) => {
                scratch.cvalues.clear();
                for (_, expr) in &c.actuals {
                    scratch.cvalues.push(expr.eval(env)?);
                }
                self.simples[c.target]
                    .model
                    .failure_probability(scratch.cvalues[c.demand_idx])?
            }
        };
        let internal = call.internal.failure_probability(first_demand)?;
        scratch.reqs[i] = RequestFailure::new(
            internal,
            RequestFailure::external_of(target_fail, connector_fail),
        );
        Ok(())
    }

    /// Evaluates the staged row in [`StagedScratch::row`] on the scalar
    /// plan path (for sequential callers such as the improvement
    /// bisection), returning the service **failure** probability —
    /// bitwise what the generic compiled route computes.
    ///
    /// # Errors
    ///
    /// Plan evaluation failures (trapped probability mass).
    pub(crate) fn evaluate_row(&self, scratch: &mut StagedScratch) -> Result<Probability> {
        let (value, kind) = self
            .plan
            .evaluate_scratch(&scratch.row, &mut scratch.plan_scratch)?;
        self.plans.record(kind);
        Ok(Probability::new(value)?.complement())
    }

    fn state_fps(&self, scratch: &mut StagedScratch) -> Result<()> {
        for i in 0..self.states.len() {
            self.stage_state_fp(i, scratch)?;
        }
        Ok(())
    }

    fn stage_state_fp(&self, i: usize, scratch: &mut StagedScratch) -> Result<()> {
        let recipe = &self.states[i];
        scratch.state_reqs.clear();
        scratch
            .state_reqs
            .extend(recipe.calls.iter().map(|&c| scratch.reqs[c]));
        scratch.fps[i] =
            state_failure_probability(recipe.completion, recipe.dependency, &scratch.state_reqs)?;
        Ok(())
    }

    /// Whether any state failure probability crossed 0 or 1 relative to
    /// the baseline — the moves that add/remove chain edges.
    fn structure_moved(&self, scratch: &StagedScratch) -> bool {
        self.base_fps
            .iter()
            .zip(&scratch.fps)
            .any(|(b, f)| b.is_zero() != f.is_zero() || b.is_one() != f.is_one())
    }

    /// Fills the row for modes where transition probabilities are fixed
    /// (factor and model-override sweeps): copy the baseline row and patch
    /// only failure-dependent slots.
    fn fill_row_fixed_edges(&self, scratch: &mut StagedScratch) -> Result<Staging> {
        scratch.row.clear();
        scratch.row.extend_from_slice(&self.base_row);
        for e in &self.edges {
            match (e.slot, e.state) {
                (Some(k), Some(s)) => {
                    let v = (e.base_p * scratch.fps[s].complement().value()).min(1.0);
                    if v <= 0.0 {
                        return Ok(Staging::Fallback);
                    }
                    scratch.row[k] = v;
                }
                // Start rows carry no failure scaling: unchanged.
                (Some(_), None) => {}
                (None, Some(s)) => {
                    // Dropped at baseline; a positive value now would
                    // resurrect the edge.
                    let v = (e.base_p * scratch.fps[s].complement().value()).min(1.0);
                    if v > 0.0 {
                        return Ok(Staging::Fallback);
                    }
                }
                (None, None) => {}
            }
        }
        for &(s, k) in &self.fail_slots {
            scratch.row[k] = scratch.fps[s].value().min(1.0);
        }
        Ok(Staging::Row)
    }

    fn override_failure(
        &self,
        call: &CallRecipe,
        with: Option<&SimpleService>,
    ) -> Result<Option<Probability>> {
        match with {
            None => self.simples[call.target]
                .model
                .failure_probability(call.demand())
                .map(Some)
                .map_err(Into::into),
            Some(s) => {
                let demand = if s.formal_param() == self.simples[call.target].formal {
                    call.demand()
                } else {
                    // Re-bind the demand against the override's formal
                    // (last-wins, like the callee environment).
                    match call
                        .actuals
                        .iter()
                        .rposition(|(name, _)| name == s.formal_param())
                    {
                        Some(j) => call.actual_values[j],
                        // The generic path reports the unbound formal; let
                        // it.
                        None => return Ok(None),
                    }
                };
                s.model()
                    .failure_probability(demand)
                    .map(Some)
                    .map_err(Into::into)
            }
        }
    }

    fn conn_override_failure(
        &self,
        conn: &ConnRecipe,
        with: Option<&SimpleService>,
    ) -> Result<Option<Probability>> {
        match with {
            None => self.simples[conn.target]
                .model
                .failure_probability(conn.demand())
                .map(Some)
                .map_err(Into::into),
            Some(s) => {
                let demand = if s.formal_param() == self.simples[conn.target].formal {
                    conn.demand()
                } else {
                    match conn
                        .actuals
                        .iter()
                        .rposition(|(name, _)| name == s.formal_param())
                    {
                        Some(j) => conn.actual_values[j],
                        None => return Ok(None),
                    }
                };
                s.model()
                    .failure_probability(demand)
                    .map(Some)
                    .map_err(Into::into)
            }
        }
    }
}

impl CallRecipe {
    fn demand(&self) -> f64 {
        self.actual_values[self.demand_idx]
    }
}

impl ConnRecipe {
    fn demand(&self) -> f64 {
        self.actual_values[self.demand_idx]
    }
}

/// Interns a simple service by id, or `None` when the id names anything
/// else (a composite, or nothing — both send the sweep back to the
/// generic path, which knows how to recurse or to report the error).
fn intern_simple(
    assembly: &Assembly,
    id: &ServiceId,
    simples: &mut Vec<SimpleEntry>,
) -> Option<usize> {
    if let Some(idx) = simples.iter().position(|s| s.id == *id) {
        return Some(idx);
    }
    match assembly.service(id) {
        Some(Service::Simple(s)) => {
            simples.push(SimpleEntry {
                id: id.clone(),
                formal: s.formal_param().to_string(),
                model: s.model().clone(),
            });
            Some(simples.len() - 1)
        }
        _ => None,
    }
}

/// Compiles one service call against the baseline `env`, mirroring
/// `resolve_request`'s evaluation order (actuals, target demand binding,
/// connector, internal) so error precedence is preserved.
fn compile_call(
    assembly: &Assembly,
    call: &ServiceCall,
    env: &Bindings,
    simples: &mut Vec<SimpleEntry>,
) -> Result<Option<CallRecipe>> {
    let Some(target) = intern_simple(assembly, &call.target, simples) else {
        return Ok(None);
    };
    let mut actual_values = Vec::with_capacity(call.actual_params.len());
    let mut first_demand = 0.0;
    for (j, (_, expr)) in call.actual_params.iter().enumerate() {
        let v = expr.eval(env)?;
        if j == 0 {
            first_demand = v;
        }
        actual_values.push(v);
    }
    let formal = simples[target].formal.clone();
    let Some(demand_idx) = call
        .actual_params
        .iter()
        .rposition(|(name, _)| *name == formal)
    else {
        return Err(CoreError::Expr(archrel_expr::ExprError::UnboundParameter {
            name: formal,
        }));
    };
    let connector = match &call.connector {
        None => None,
        Some(binding) => {
            let Some(ctarget) = intern_simple(assembly, &binding.connector, simples) else {
                return Ok(None);
            };
            let mut cvalues = Vec::with_capacity(binding.actual_params.len());
            for (_, expr) in &binding.actual_params {
                cvalues.push(expr.eval(env)?);
            }
            let cformal = simples[ctarget].formal.clone();
            let Some(cdemand_idx) = binding
                .actual_params
                .iter()
                .rposition(|(name, _)| *name == cformal)
            else {
                return Err(CoreError::Expr(archrel_expr::ExprError::UnboundParameter {
                    name: cformal,
                }));
            };
            Some(ConnRecipe {
                target: ctarget,
                actuals: binding.actual_params.clone(),
                actual_values: cvalues,
                demand_idx: cdemand_idx,
            })
        }
    };
    Ok(Some(CallRecipe {
        target,
        actuals: call.actual_params.clone(),
        actual_values,
        first_demand,
        demand_idx,
        internal: call.internal_failure.clone(),
        connector,
    }))
}

/// The baseline failure record of one call recipe — `resolve_request`'s
/// arithmetic on interned inputs.
fn base_request(simples: &[SimpleEntry], call: &CallRecipe) -> Result<RequestFailure> {
    let target_fail = simples[call.target]
        .model
        .failure_probability(call.demand())?;
    let connector_fail = match &call.connector {
        None => Probability::ZERO,
        Some(c) => simples[c.target].model.failure_probability(c.demand())?,
    };
    let internal = call.internal.failure_probability(call.first_demand)?;
    Ok(RequestFailure::new(
        internal,
        RequestFailure::external_of(target_fail, connector_fail),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, SolverPolicy};
    use archrel_model::{
        AssemblyBuilder, ConnectorBinding, FlowBuilder, FlowState, InternalFailureModel,
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

    /// `Start → a → b → End` with a retry loop edge `b → a`, calls with a
    /// connector and an internal failure law, and a parametric demand.
    fn assembly() -> Assembly {
        let call_a = ServiceCall {
            target: "cpu".into(),
            actual_params: vec![("ops".to_string(), Expr::param("n"))],
            connector: Some(ConnectorBinding {
                connector: "net".into(),
                actual_params: vec![("bytes".to_string(), Expr::num(64.0))],
            }),
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
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", "b", Expr::one())
            .transition("b", "a", Expr::num(0.1))
            .transition("b", StateId::End, Expr::num(0.9))
            .build()
            .unwrap();
        let net = Service::Simple(SimpleService::new(
            "net",
            "bytes",
            FailureModel::PerUnit { probability: 1e-6 },
        ));
        AssemblyBuilder::new()
            .service(simple("cpu", 0.02))
            .service(simple("disk", 0.01))
            .service(net)
            .service(Service::Composite(
                archrel_model::CompositeService::new("app", vec!["n".to_string()], flow).unwrap(),
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

    fn compile_app(assembly: &Assembly, env: &Bindings) -> (Arc<PlanCache>, Option<StagedSweep>) {
        let plans = Arc::new(PlanCache::new());
        let sweep =
            StagedSweep::compile(assembly, &"app".into(), env, &plans, compiled_options()).unwrap();
        (plans, sweep)
    }

    #[test]
    fn compiles_and_reproduces_baseline_row() {
        let assembly = assembly();
        let env = Bindings::new().with("n", 5.0);
        let (_, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.expect("eligible sweep should stage");
        let mut scratch = sweep.new_scratch();
        assert_eq!(
            sweep
                .stage_factors(&StagedLevers::empty(), &[], &mut scratch)
                .unwrap(),
            Staging::Row
        );
        assert_eq!(scratch.row, sweep.base_row);
    }

    #[test]
    fn declines_dense_regime_and_explicit_direct_policies() {
        // A two-state flow is dense under `Auto`; `Dense`/`Sparse` never
        // stage. None of them may touch the plan cache.
        let assembly = assembly();
        let env = Bindings::new().with("n", 5.0);
        for solver in [
            SolverPolicy::Auto,
            SolverPolicy::Dense,
            SolverPolicy::Sparse,
        ] {
            let plans = Arc::new(PlanCache::new());
            let sweep = StagedSweep::compile(
                &assembly,
                &"app".into(),
                &env,
                &plans,
                EvalOptions {
                    solver,
                    ..EvalOptions::default()
                },
            )
            .unwrap();
            assert!(sweep.is_none(), "{solver:?} staged");
            assert!(plans.is_empty(), "{solver:?} compiled a plan");
        }
    }

    #[test]
    fn declines_simple_targets() {
        let assembly = assembly();
        let env = Bindings::new();
        let plans = Arc::new(PlanCache::new());
        let sweep =
            StagedSweep::compile(&assembly, &"cpu".into(), &env, &plans, compiled_options())
                .unwrap();
        assert!(sweep.is_none());
    }

    #[test]
    fn factor_rows_match_generic_rebuild_bitwise() {
        let assembly = assembly();
        let env = Bindings::new().with("n", 5.0);
        let (plans, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        let levers = vec![
            Lever::ServiceFailure("cpu".into()),
            Lever::InternalFailure("app".into()),
        ];
        let staged_levers = sweep.prepare_levers(&assembly, &levers).unwrap();
        let mut scratch = sweep.new_scratch();
        for factors in [[0.5, 1.3], [1.0, 1.0], [2.0, 0.25], [0.9, 3.0]] {
            assert_eq!(
                sweep
                    .stage_factors(&staged_levers, &factors, &mut scratch)
                    .unwrap(),
                Staging::Row
            );
            let staged = sweep.evaluate_row(&mut scratch).unwrap();
            // Generic route: rebuild the assembly lever by lever and run a
            // fresh evaluator over the shared plan cache.
            let mut perturbed = assembly.clone();
            for (lever, &factor) in levers.iter().zip(&factors) {
                perturbed = crate::improvement::apply_lever(&perturbed, lever, factor).unwrap();
            }
            let evaluator =
                Evaluator::with_plan_cache(&perturbed, compiled_options(), Arc::clone(&plans));
            let generic = evaluator.failure_probability(&"app".into(), &env).unwrap();
            assert_eq!(staged.value().to_bits(), generic.value().to_bits());
        }
    }

    #[test]
    fn env_rows_match_generic_evaluation_bitwise() {
        let assembly = assembly();
        let env = Bindings::new().with("n", 5.0);
        let (plans, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        let mut scratch = sweep.new_scratch();
        for n in [1.0, 4.75, 5.0, 20.0] {
            let point = Bindings::new().with("n", n);
            assert_eq!(sweep.stage_env(&point, &mut scratch).unwrap(), Staging::Row);
            let staged = sweep.evaluate_row(&mut scratch).unwrap();
            let evaluator =
                Evaluator::with_plan_cache(&assembly, compiled_options(), Arc::clone(&plans));
            let generic = evaluator
                .failure_probability(&"app".into(), &point)
                .unwrap();
            assert_eq!(staged.value().to_bits(), generic.value().to_bits());
        }
    }

    #[test]
    fn env_delta_rows_match_full_staging_bitwise() {
        let assembly = assembly();
        // An extra binding nothing reads: its probes must reuse the center
        // row unchanged.
        let env = Bindings::new().with("n", 5.0).with("unused", 2.0);
        let (_, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        let mut center_scratch = sweep.new_scratch();
        let center = sweep
            .prepare_env_center(&env, &mut center_scratch)
            .unwrap()
            .expect("center stages a row");
        let mut full = sweep.new_scratch();
        let mut delta = sweep.new_scratch();
        for (name, x) in [
            ("n", 5.0005),
            ("n", 4.9995),
            ("n", 5.0),
            ("n", 1.0),
            ("n", 20.0),
            ("unused", 2.5),
        ] {
            let mut probe = env.clone();
            probe.insert(name, x);
            assert_eq!(sweep.stage_env(&probe, &mut full).unwrap(), Staging::Row);
            assert_eq!(
                sweep
                    .stage_env_delta(&center, name, &probe, &mut delta)
                    .unwrap(),
                Staging::Row
            );
            assert_eq!(full.row.len(), delta.row.len());
            for (f, d) in full.row.iter().zip(&delta.row) {
                assert_eq!(f.to_bits(), d.to_bits());
            }
        }
    }

    /// Like [`assembly`], but with the retry loop driven by a `loop`
    /// usage parameter — two independent cones (`n` → calls, `loop` →
    /// transitions) for multi-binding delta staging.
    fn parametric_assembly() -> Assembly {
        let call_a = ServiceCall {
            target: "cpu".into(),
            actual_params: vec![("ops".to_string(), Expr::param("n"))],
            connector: None,
            internal_failure: InternalFailureModel::None,
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
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", "b", Expr::one())
            .transition("b", "a", Expr::param("loop"))
            .transition("b", StateId::End, Expr::one() - Expr::param("loop"))
            .build()
            .unwrap();
        AssemblyBuilder::new()
            .service(simple("cpu", 0.02))
            .service(simple("disk", 0.01))
            .service(Service::Composite(
                archrel_model::CompositeService::new(
                    "app",
                    vec!["n".to_string(), "loop".to_string()],
                    flow,
                )
                .unwrap(),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn env_multi_delta_rows_match_full_staging_bitwise() {
        let assembly = parametric_assembly();
        let env = Bindings::new()
            .with("n", 5.0)
            .with("loop", 0.1)
            .with("unused", 2.0);
        let (_, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        let mut center_scratch = sweep.new_scratch();
        let center = sweep
            .prepare_env_center(&env, &mut center_scratch)
            .unwrap()
            .expect("center stages a row");
        let mut full = sweep.new_scratch();
        let mut delta = sweep.new_scratch();
        type DeltaCase<'a> = (&'a [(&'a str, f64)], &'a [&'a str]);
        let cases: [DeltaCase; 4] = [
            (&[("n", 7.0), ("loop", 0.25)], &["n", "loop"]),
            (&[("loop", 0.01)], &["loop", "unused"]),
            (&[("n", 1.5)], &["n"]),
            (&[], &["unused"]),
        ];
        for (moves, names) in cases {
            let mut probe = env.clone();
            for (name, x) in moves {
                probe.insert(*name, *x);
            }
            let names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
            assert_eq!(sweep.stage_env(&probe, &mut full).unwrap(), Staging::Row);
            assert_eq!(
                sweep
                    .stage_env_deltas(&center, &names, &probe, &mut delta)
                    .unwrap(),
                Staging::Row
            );
            assert_eq!(full.row.len(), delta.row.len());
            for (f, d) in full.row.iter().zip(&delta.row) {
                assert_eq!(f.to_bits(), d.to_bits());
            }
        }
    }

    #[test]
    fn advance_center_keeps_sequential_deltas_bitwise() {
        let assembly = parametric_assembly();
        let mut env = Bindings::new().with("n", 5.0).with("loop", 0.1);
        let (_, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        let mut scratch = sweep.new_scratch();
        let mut center = sweep
            .prepare_env_center(&env, &mut scratch)
            .unwrap()
            .expect("center stages a row");
        let mut full = sweep.new_scratch();
        let steps: [&[(&str, f64)]; 4] = [
            &[("loop", 0.2)],
            &[("n", 8.0), ("loop", 0.05)],
            &[("n", 2.0)],
            &[("loop", 0.5)],
        ];
        for moves in steps {
            for (name, x) in moves {
                env.insert(*name, *x);
            }
            let names: Vec<String> = moves.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(
                sweep
                    .stage_env_deltas(&center, &names, &env, &mut scratch)
                    .unwrap(),
                Staging::Row
            );
            sweep.advance_center(&mut center, &scratch);
            // Each advanced center stays bitwise equal to staging the
            // cumulative env from scratch.
            assert_eq!(sweep.stage_env(&env, &mut full).unwrap(), Staging::Row);
            for (f, d) in full.row.iter().zip(&scratch.row) {
                assert_eq!(f.to_bits(), d.to_bits());
            }
        }
    }

    #[test]
    fn env_delta_reports_full_staging_errors() {
        let assembly = assembly();
        let env = Bindings::new().with("n", 5.0);
        let (_, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        let mut scratch = sweep.new_scratch();
        let center = sweep
            .prepare_env_center(&env, &mut scratch)
            .unwrap()
            .expect("center stages a row");
        // A negative demand breaks the exponential law's domain; both
        // staging modes must raise the identical error.
        let mut probe = env.clone();
        probe.insert("n", -3.0);
        let full_err = sweep.stage_env(&probe, &mut scratch).unwrap_err();
        let delta_err = sweep
            .stage_env_delta(&center, "n", &probe, &mut scratch)
            .unwrap_err();
        assert_eq!(full_err.to_string(), delta_err.to_string());
    }

    #[test]
    fn structural_change_falls_back() {
        let assembly = assembly();
        let env = Bindings::new().with("n", 5.0);
        let (_, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        // Zeroing every failure mechanism of state `b` (its only call has
        // no internal/connector failure) drives its state failure to zero:
        // the `b → Fail` edge vanishes from the chain.
        let levers = vec![Lever::ServiceFailure("disk".into())];
        let staged_levers = sweep.prepare_levers(&assembly, &levers).unwrap();
        let mut scratch = sweep.new_scratch();
        assert_eq!(
            sweep
                .stage_factors(&staged_levers, &[0.0], &mut scratch)
                .unwrap(),
            Staging::Fallback
        );
    }

    #[test]
    fn lever_validation_matches_apply_lever() {
        let assembly = assembly();
        let env = Bindings::new().with("n", 5.0);
        let (_, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        let missing = Lever::ServiceFailure("ghost".into());
        let staged_err = sweep
            .prepare_levers(&assembly, [&missing])
            .unwrap_err()
            .to_string();
        let generic_err = crate::improvement::apply_lever(&assembly, &missing, 0.5)
            .unwrap_err()
            .to_string();
        assert_eq!(staged_err, generic_err);
        let wrong_kind = Lever::InternalFailure("cpu".into());
        let staged_err = sweep
            .prepare_levers(&assembly, [&wrong_kind])
            .unwrap_err()
            .to_string();
        let generic_err = crate::improvement::apply_lever(&assembly, &wrong_kind, 0.5)
            .unwrap_err()
            .to_string();
        assert_eq!(staged_err, generic_err);
    }

    #[test]
    fn invalid_factor_matches_apply_lever_error() {
        let assembly = assembly();
        let env = Bindings::new().with("n", 5.0);
        let (_, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        let lever = Lever::ServiceFailure("cpu".into());
        let staged_levers = sweep.prepare_levers(&assembly, [&lever]).unwrap();
        let mut scratch = sweep.new_scratch();
        let staged_err = sweep
            .stage_factors(&staged_levers, &[-1.0], &mut scratch)
            .unwrap_err()
            .to_string();
        let generic_err = crate::improvement::apply_lever(&assembly, &lever, -1.0)
            .unwrap_err()
            .to_string();
        assert_eq!(staged_err, generic_err);
    }

    #[test]
    fn model_override_matches_generic_swap_bitwise() {
        let assembly = assembly();
        let env = Bindings::new().with("n", 5.0);
        let (plans, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        let candidate =
            SimpleService::new("cpu", "ops", FailureModel::Constant { probability: 0.03 });
        let idx = sweep.simple_index(&"cpu".into()).unwrap();
        let mut overrides: Vec<Option<&SimpleService>> = vec![None; 3];
        overrides[idx] = Some(&candidate);
        let mut scratch = sweep.new_scratch();
        assert_eq!(
            sweep.stage_models(&overrides, &mut scratch).unwrap(),
            Staging::Row
        );
        let staged = sweep.evaluate_row(&mut scratch).unwrap();
        // Generic route: rebuild the assembly with the candidate swapped in.
        let mut builder = AssemblyBuilder::new();
        for service in assembly.services() {
            let rebuilt = match service {
                Service::Simple(s) if s.id() == &ServiceId::from("cpu") => {
                    Service::Simple(candidate.clone())
                }
                other => other.clone(),
            };
            builder = builder.service(rebuilt);
        }
        let swapped = builder.build().unwrap();
        let evaluator =
            Evaluator::with_plan_cache(&swapped, compiled_options(), Arc::clone(&plans));
        let generic = evaluator.failure_probability(&"app".into(), &env).unwrap();
        assert_eq!(staged.value().to_bits(), generic.value().to_bits());
    }
}
