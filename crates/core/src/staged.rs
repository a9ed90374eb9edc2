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
//! [`StagedSweep::compile`] performs that reduction once. The flow's
//! structure — row groups, merged edges, `StateId` order — comes from the
//! flow's [`archrel_model::FlowIndex`], built once with the flow, and the
//! slot of every chain edge from the augment step's own chain build;
//! compile interns the call and state recipes and evaluates the baseline
//! but re-derives no structure. It deliberately over-verifies itself:
//! after building the slot map it
//! reconstructs the baseline row from its own recipes and requires a
//! **bitwise** match against [`SolvePlan::parameters_into`] on the real
//! augmented chain — on any mismatch the caller silently falls back to the
//! generic path.
//! Per point, a staged row is only used when the failure structure is
//! provably unchanged (no state failure probability crossed 0 or 1, no
//! merged transition edge appeared or vanished); otherwise the point
//! reports [`Staging::Fallback`] and the caller routes it through the
//! ordinary evaluator. Every number a staged row contains is produced by
//! the same functions the generic path calls ([`FailureModel`] laws,
//! [`state_failure_probability`], the augment-time `p · (1 − pfail)`
//! scaling), in the same order — staged and generic results are therefore
//! bitwise identical, not merely close.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use archrel_expr::{Bindings, Expr};
use archrel_markov::{structure_fingerprint, PlanScratch, SolvePlan};
use archrel_model::{
    Assembly, CompletionModel, DependencyModel, FailureModel, FlowIndex, FlowState,
    InternalFailureModel, Probability, Service, ServiceCall, ServiceId, SimpleService, StateId,
};

use crate::augment::{
    bad_row, bad_transitions, build_chain, checked_transition, edge_sum, transition_values,
    AugmentedState,
};
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
#[derive(Debug, Clone)]
struct StateRecipe {
    completion: CompletionModel,
    dependency: DependencyModel,
    calls: Vec<usize>,
}

/// One merged flow edge (the flow index's edge of the same number), as the
/// augment step sees it.
#[derive(Debug, Clone)]
struct EdgeRecipe {
    /// Baseline merged probability (before failure scaling).
    base_p: f64,
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

/// Everything that can move when exactly one env binding moves: the
/// dependency cone of one formal parameter through the staged recipes.
/// Index vectors are ascending, so incremental restaging visits entries
/// in the same order full staging does — first-error agreement depends
/// on it. `rows` holds positions in the flow index's `StateId` order.
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
    /// The flow's layout: row groups, merged edges and `StateId` order.
    index: Arc<FlowIndex>,
    edges: Vec<EdgeRecipe>,
    /// `(state recipe, row slot)` of every baseline `→ Fail` edge.
    fail_slots: Vec<(usize, usize)>,
    transitions: Vec<TransRecipe>,
}

impl StagedSweep {
    /// Compiles `service`'s evaluation under `env` into a staged sweep, or
    /// returns `Ok(None)` when staging does not apply: the solver policy
    /// would not answer the flow from a compiled plan (see below), the
    /// service is not a composite whose calls and connectors all resolve
    /// to simple services, the structure did not yield a plan, or the
    /// self-check row failed to reproduce the real extraction bitwise.
    ///
    /// `Auto` stages only flows whose augmented chain it solves in the
    /// sparse regime *and* whose structure compiles to a tape (plans are
    /// acyclic): there the tape replays the sparse back-substitution bit
    /// for bit, so staging cannot change an `Auto` answer. Dense-regime and
    /// cyclic flows under `Auto`, and the explicit `Dense`/`Sparse`
    /// policies, stay on the generic path.
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
        let flow = composite.flow();
        let index = flow.index();
        // The augmented chain adds at most `Start`, `End` and `Fail` to the
        // flow's states. A policy that would not compile even the largest,
        // edge-free chain of that size (`Auto` on a small flow, `Dense`,
        // `Sparse`) declines before any recipe is built.
        let max_states = flow.states().len() + 3;
        if !options.solver.plan_compilation(max_states, 0) {
            return Ok(None);
        }

        // Intern every call target / connector; any non-simple callee means
        // recursive resolution the recipe form cannot express. Equal calls
        // (and states) compile to equal recipes, so each distinct one
        // compiles once, in first-appearance order.
        let mut simples: Vec<SimpleEntry> = Vec::new();
        let mut calls: Vec<CallRecipe> = Vec::new();
        let mut states: Vec<StateRecipe> = Vec::new();
        let mut call_ids: HashMap<Same<&ServiceCall>, usize> = HashMap::new();
        let mut state_ids: HashMap<Same<&FlowState>, usize> = HashMap::new();
        // State recipe of each flow state, in declaration order.
        let mut state_recipe = Vec::with_capacity(flow.states().len());
        for state in flow.states() {
            if let Some(&idx) = state_ids.get(&Same(state)) {
                state_recipe.push(idx);
                continue;
            }
            let mut call_idx = Vec::with_capacity(state.calls.len());
            for call in &state.calls {
                let idx = match call_ids.get(&Same(call)) {
                    Some(&idx) => idx,
                    None => {
                        let Some(recipe) = compile_call(assembly, call, env, &mut simples)? else {
                            return Ok(None);
                        };
                        call_ids.insert(Same(call), calls.len());
                        calls.push(recipe);
                        calls.len() - 1
                    }
                };
                call_idx.push(idx);
            }
            state_ids.insert(Same(state), states.len());
            state_recipe.push(states.len());
            states.push(StateRecipe {
                completion: state.completion,
                dependency: state.dependency,
                calls: call_idx,
            });
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

        // Transition values, merged edges and the real baseline chain,
        // through the augment step's own evaluation, validation and
        // builder: the staged fingerprint and rows match the generic path's.
        let trans_base = transition_values(composite, env)?;
        let transitions: Vec<TransRecipe> = flow
            .transitions()
            .iter()
            .map(|t| TransRecipe {
                from: t.from.clone(),
                expr: t.probability.clone(),
            })
            .collect();
        let mut edges: Vec<EdgeRecipe> = (0..index.edge_count())
            .map(|e| EdgeRecipe {
                base_p: edge_sum(index, e, &trans_base),
                state: FlowIndex::named_position(index.edge(e).0).map(|i| state_recipe[i]),
                slot: None,
            })
            .collect();
        let merged: Vec<f64> = edges
            .iter()
            .map(|e| {
                let failure = e.state.map_or(Probability::ZERO, |s| base_fps[s]);
                e.base_p * failure.complement().value()
            })
            .collect();
        let fails: Vec<f64> = state_recipe.iter().map(|&s| base_fps[s].value()).collect();
        let (chain, slots) =
            build_chain(index, flow.states().iter().map(|s| &s.id), &merged, &fails)?;
        let start = AugmentedState::Flow(StateId::Start);
        let end = AugmentedState::Flow(StateId::End);
        // Stage exactly the chains the evaluator itself would answer from a
        // plan: under `Auto` that is an acyclic tape in the sparse regime,
        // which replays the sparse back-substitution bit for bit.
        if !options
            .solver
            .plan_compilation(chain.len(), chain.edge_count())
        {
            return Ok(None);
        }
        let fingerprint = structure_fingerprint(&chain, &start, &end);
        let plan = match plans.entry(fingerprint, &chain, &start, &end) {
            Ok(PlanEntry::Plan(plan)) => plan,
            // Unreachable/cyclic markers and compile errors: the generic
            // path knows how to answer those; staging does not.
            Ok(_) | Err(_) => return Ok(None),
        };

        // Slot map: `parameters_into` concatenates the transient rows in
        // chain order, so an edge's slot is its row's offset plus its
        // place in the row. Edges of absorbing rows get no slot.
        let mut row_offset = vec![None; chain.len()];
        let mut slot = 0usize;
        for i in chain.transient_indices() {
            row_offset[i] = Some(slot);
            slot += slots.row_len[i];
        }
        let slot_of = |at: Option<(usize, usize)>| at.and_then(|(r, k)| Some(row_offset[r]? + k));
        for (edge, &at) in edges.iter_mut().zip(&slots.edges) {
            edge.slot = slot_of(at);
        }
        let fail_slots: Vec<(usize, usize)> = slots
            .fails
            .iter()
            .enumerate()
            .filter_map(|(i, &at)| Some((state_recipe[i], slot_of(at)?)))
            .collect();

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
            index: Arc::clone(index),
            edges,
            fail_slots,
            transitions,
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
        for ti in 0..self.transitions.len() {
            scratch.trans_ps.push(self.eval_transition(ti, env)?);
        }
        for r in 0..self.index.id_count() {
            self.check_row(r, &scratch.trans_ps)?;
        }
        scratch.edge_ps.clear();
        for ei in 0..self.edges.len() {
            scratch
                .edge_ps
                .push(edge_sum(&self.index, ei, &scratch.trans_ps));
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
        // A binding nothing reads has an empty cone: the center row is the
        // probe row.
        let none = ParamDeps::default();
        let deps = center.deps.get(name).unwrap_or(&none);
        self.restage(center, deps, env, scratch)
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
        let mut union = ParamDeps::default();
        for deps in names.iter().filter_map(|name| center.deps.get(name)) {
            union.calls.extend(&deps.calls);
            union.states.extend(&deps.states);
            union.trans.extend(&deps.trans);
            union.rows.extend(&deps.rows);
            union.edges.extend(&deps.edges);
            union.fail_slots.extend(&deps.fail_slots);
        }
        let union = ParamDeps {
            calls: ascending(union.calls),
            states: ascending(union.states),
            trans: ascending(union.trans),
            rows: ascending(union.rows),
            edges: ascending(union.edges),
            fail_slots: ascending(union.fail_slots),
        };
        self.restage(center, &union, env, scratch)
    }

    /// Restores `center` into `scratch` and re-runs the recipes of the cone
    /// `deps` against `env`, each class in ascending order as full staging
    /// visits it (see [`StagedSweep::stage_env_delta`]).
    fn restage(
        &self,
        center: &StagedEnvCenter,
        deps: &ParamDeps,
        env: &Bindings,
        scratch: &mut StagedScratch,
    ) -> Result<Staging> {
        scratch.reqs.clone_from(&center.reqs);
        scratch.fps.clone_from(&center.fps);
        scratch.trans_ps.clone_from(&center.trans_ps);
        scratch.edge_ps.clone_from(&center.edge_ps);
        scratch.row.clone_from(&center.row);
        for &i in &deps.calls {
            self.stage_call(i, env, scratch)?;
        }
        for &si in &deps.states {
            self.stage_state_fp(si, scratch)?;
        }
        for &ti in &deps.trans {
            scratch.trans_ps[ti] = self.eval_transition(ti, env)?;
        }
        for &r in &deps.rows {
            self.check_row(r, &scratch.trans_ps)?;
        }
        for &ei in &deps.edges {
            scratch.edge_ps[ei] = edge_sum(&self.index, ei, &scratch.trans_ps);
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

    /// Moves `center` to the staging `scratch` currently holds, so the
    /// next delta can be expressed against the just-applied env instead of
    /// the original one. Streaming refresh applies delta sets
    /// sequentially: after each successful [`Staging::Row`], advancing the
    /// center keeps every later delta bitwise equal to full staging by
    /// induction (the snapshot always equals a full staging of the current
    /// env). Call only after a staging that returned [`Staging::Row`].
    pub(crate) fn advance_center(&self, center: &mut StagedEnvCenter, scratch: &StagedScratch) {
        center.reqs.clone_from(&scratch.reqs);
        center.fps.clone_from(&scratch.fps);
        center.trans_ps.clone_from(&scratch.trans_ps);
        center.edge_ps.clone_from(&scratch.edge_ps);
        center.row.clone_from(&scratch.row);
    }

    /// Dependency cones of every formal parameter the staged expressions
    /// read: which call, state, transition, row, edge, and fail-slot
    /// recipes must be restaged when that parameter moves. Each cone is
    /// the image of the parameter's calls and transitions under inverse
    /// maps built once, so the whole index costs one pass over the recipes
    /// plus the cones' sizes.
    fn env_delta_deps(&self) -> BTreeMap<String, ParamDeps> {
        let mut deps: BTreeMap<String, ParamDeps> = BTreeMap::new();
        for (i, call) in self.calls.iter().enumerate() {
            let mut params = std::collections::BTreeSet::new();
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

        let index = &self.index;
        let mut states_of_call = vec![Vec::new(); self.calls.len()];
        for (si, s) in self.states.iter().enumerate() {
            for &c in &s.calls {
                states_of_call[c].push(si);
            }
        }
        let mut row_of_trans = vec![0; self.transitions.len()];
        for (r, &id) in index.sorted().iter().enumerate() {
            for &t in index.row(id) {
                row_of_trans[t as usize] = r;
            }
        }
        let mut edge_of_trans = vec![0; self.transitions.len()];
        let mut edges_of_state = vec![Vec::new(); self.states.len()];
        for (ei, e) in self.edges.iter().enumerate() {
            for &t in index.edge_transitions(ei) {
                edge_of_trans[t as usize] = ei;
            }
            if let Some(s) = e.state {
                edges_of_state[s].push(ei);
            }
        }
        let mut fail_slots_of_state = vec![Vec::new(); self.states.len()];
        for &(s, k) in &self.fail_slots {
            fail_slots_of_state[s].push((s, k));
        }

        for d in deps.values_mut() {
            d.states = ascending(
                d.calls
                    .iter()
                    .flat_map(|&c| states_of_call[c].iter().copied())
                    .collect(),
            );
            d.rows = ascending(d.trans.iter().map(|&t| row_of_trans[t]).collect());
            d.edges = ascending(
                d.trans
                    .iter()
                    .map(|&t| edge_of_trans[t])
                    .chain(
                        d.states
                            .iter()
                            .flat_map(|&s| edges_of_state[s].iter().copied()),
                    )
                    .collect(),
            );
            d.fail_slots = ascending(
                d.states
                    .iter()
                    .flat_map(|&s| fail_slots_of_state[s].iter().copied())
                    .collect(),
            );
        }
        deps
    }

    /// Evaluates transition `ti` under `env` with the augment step's range
    /// check.
    fn eval_transition(&self, ti: usize, env: &Bindings) -> Result<f64> {
        let t = &self.transitions[ti];
        checked_transition(&self.service, &t.from, t.expr.eval(env)?)
    }

    /// Checks the outgoing row of the state at position `r` of the flow's
    /// `StateId` order against the evaluated transition probabilities, as
    /// the augment step does.
    fn check_row(&self, r: usize, trans_ps: &[f64]) -> Result<()> {
        match bad_row(&self.index, self.index.sorted()[r], trans_ps) {
            Some((t, sum)) => Err(bad_transitions(
                &self.service,
                &self.transitions[t].from,
                sum,
            )),
            None => Ok(()),
        }
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
        let value = self
            .plan
            .evaluate_scratch(&scratch.row, &mut scratch.plan_scratch)?;
        self.plans.record();
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

/// `v` sorted ascending, without repeats.
fn ascending<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v.dedup();
    v
}

/// A call or flow state keyed by what its recipe is made of: two keys are
/// equal when the calls (or the states' models and calls) are, whatever
/// the states' names, so equal ones share one recipe. Floating-point
/// fields compare with `==`, which model values (finite) keep reflexive.
struct Same<T>(T);

impl PartialEq for Same<&ServiceCall> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Hash for Same<&ServiceCall> {
    /// Hashes every part `==` compares except the internal-failure law.
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.0.target.hash(h);
        self.0.actual_params.hash(h);
        let connector = self.0.connector.as_ref();
        connector.map(|c| (&c.connector, &c.actual_params)).hash(h);
    }
}

impl PartialEq for Same<&FlowState> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.0, other.0);
        a.completion == b.completion && a.dependency == b.dependency && a.calls == b.calls
    }
}

impl Hash for Same<&FlowState> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (self.0.completion, self.0.dependency).hash(h);
        self.0.calls.iter().for_each(|c| Same(c).hash(h));
    }
}

impl<T> Eq for Same<T> where Same<T>: PartialEq {}

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

    /// `Start → a → b`, leaving `b` for `End` directly (0.1) or through
    /// the call-free tail that puts the chain in `Auto`'s sparse regime
    /// (0.9); calls with a connector and an internal failure law, and a
    /// parametric demand.
    fn assembly() -> Assembly {
        with_exit(true)
    }

    /// [`assembly`] without the tail: a two-state flow, dense under `Auto`.
    fn short_assembly() -> Assembly {
        with_exit(false)
    }

    fn with_exit(tail: bool) -> Assembly {
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
            .transition("b", StateId::End, Expr::num(0.1));
        let flow = if tail {
            crate::testkit::to_end_via_tail(flow, "b", Expr::num(0.9))
        } else {
            flow.state(FlowState::new("c", vec![]))
                .transition("b", "c", Expr::num(0.9))
                .transition("c", StateId::End, Expr::one())
        };
        let flow = flow.build().unwrap();
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

    fn auto_options() -> EvalOptions {
        EvalOptions {
            solver: SolverPolicy::Auto,
            ..EvalOptions::default()
        }
    }

    fn compile_app(assembly: &Assembly, env: &Bindings) -> (Arc<PlanCache>, Option<StagedSweep>) {
        let plans = Arc::new(PlanCache::new());
        let sweep =
            StagedSweep::compile(assembly, &"app".into(), env, &plans, auto_options()).unwrap();
        if sweep.is_some() {
            assert_eq!(plans.stats().plan_misses, 1, "staging compiles one plan");
        }
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
        // A three-state flow is dense under `Auto`; `Dense`/`Sparse` never
        // stage, however long the flow. None of them may touch the plan
        // cache.
        let env = Bindings::new().with("n", 5.0);
        for (solver, assembly) in [
            (SolverPolicy::Auto, short_assembly()),
            (SolverPolicy::Dense, assembly()),
            (SolverPolicy::Sparse, assembly()),
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
            StagedSweep::compile(&assembly, &"cpu".into(), &env, &plans, auto_options()).unwrap();
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
                Evaluator::with_plan_cache(&perturbed, auto_options(), Arc::clone(&plans));
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
                Evaluator::with_plan_cache(&assembly, auto_options(), Arc::clone(&plans));
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

    /// Like [`assembly`], but with `b`'s exit row driven by a `skip`
    /// usage parameter — two independent cones (`n` → calls, `skip` →
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
            .transition("b", StateId::End, Expr::param("skip"));
        let flow = crate::testkit::to_end_via_tail(flow, "b", Expr::one() - Expr::param("skip"))
            .build()
            .unwrap();
        AssemblyBuilder::new()
            .service(simple("cpu", 0.02))
            .service(simple("disk", 0.01))
            .service(Service::Composite(
                archrel_model::CompositeService::new(
                    "app",
                    vec!["n".to_string(), "skip".to_string()],
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
            .with("skip", 0.1)
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
            (&[("n", 7.0), ("skip", 0.25)], &["n", "skip"]),
            (&[("skip", 0.01)], &["skip", "unused"]),
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
        let mut env = Bindings::new().with("n", 5.0).with("skip", 0.1);
        let (_, sweep) = compile_app(&assembly, &env);
        let sweep = sweep.unwrap();
        let mut scratch = sweep.new_scratch();
        let mut center = sweep
            .prepare_env_center(&env, &mut scratch)
            .unwrap()
            .expect("center stages a row");
        let mut full = sweep.new_scratch();
        let steps: [&[(&str, f64)]; 4] = [
            &[("skip", 0.2)],
            &[("n", 8.0), ("skip", 0.05)],
            &[("n", 2.0)],
            &[("skip", 0.5)],
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
        let evaluator = Evaluator::with_plan_cache(&swapped, auto_options(), Arc::clone(&plans));
        let generic = evaluator.failure_probability(&"app".into(), &env).unwrap();
        assert_eq!(staged.value().to_bits(), generic.value().to_bits());
    }
}
