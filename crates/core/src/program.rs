//! Compiled assembly programs: the evaluation layer above the solver.
//!
//! PRs 2–4 made the per-chain *solve* nearly free (sparse back-substitution
//! → compiled plans → lane-blocked replay), which leaves the recursive
//! assembly walk itself as the dominant per-point cost of sweeps and
//! stencils: [`crate::Evaluator::failure_probability`] re-walks the service
//! DAG per point, re-evaluates every parametric-dependency expression
//! through string-keyed [`Bindings`] lookups, and rebuilds + re-fingerprints
//! each flow structure before the plan cache can even hit.
//!
//! An [`AssemblyProgram`] compiles all of that once per
//! `(Assembly, target service)`:
//!
//! - the service dependency graph — cyclic or not — is lowered to a node
//!   table, and its call graph is condensed into strongly connected
//!   components (iterative Tarjan). Trivial SCCs stay on the straight-line
//!   path below; every node inside a nontrivial SCC, plus every node whose
//!   calls can reach one (the *loop cone*), is tagged for fixed-point
//!   evaluation;
//! - every formal/actual parameter name is interned into dense register
//!   slots, so per-point evaluation never touches a string or a `HashMap`;
//! - every parametric-dependency expression (actual parameters, connector
//!   parameters, transition probabilities) is lowered to a
//!   [`CompiledExpr`] reading the node's registers through pre-resolved
//!   slot indices ([`CompiledExpr::eval_slots`]);
//! - each composite's failure-augmented flow skeleton (merged edge list,
//!   row-sum groups, `Fail`-edge candidates) is read from the flow's
//!   [`archrel_model::FlowIndex`], so per point only the numeric transition
//!   entries are refreshed in place
//!   ([`archrel_markov::Dtmc::set_edge_probability`]) and the compiled
//!   [`archrel_markov::SolvePlan`] for the structure is pinned per runtime
//!   instead of re-looked-up by fingerprint.
//!
//! On top of the program sit two caches:
//!
//! - a per-service **memo table** keyed by the quantized (bit-exact,
//!   [`f64::to_bits`]) actual-parameter vector, so sub-services shared
//!   across the DAG or across nearby sweep points are evaluated once
//!   ([`crate::CacheStats::memo_hits`] / `memo_misses`);
//! - **dirty-cone pinning** for sweeps that vary a declared parameter
//!   subset ([`crate::Evaluator::declare_varied`]): services outside the
//!   varied parameters' dependency cone skip the hashed memo entirely and
//!   reuse a single pinned result, guarded by a bit-exact comparison of
//!   their input registers ([`crate::CacheStats::pin_hits`]). The guard —
//!   not the declaration — carries soundness: a wrong or stale cone only
//!   costs recomputation, never a wrong value.
//!
//! # Sharing
//!
//! A program owns everything it reads, so it lives in the
//! [`crate::ValueCache`] next to the values it produces: every evaluator
//! attaching one cache (the `archrel serve` daemon's request-scoped
//! evaluators over one catalog entry) shares one program per target, with
//! its memo tables and pooled runtimes. Per-caller state stays on the
//! calling [`Evaluator`]: the memo, pin, SCC and compile counters, the
//! cancellation token (polled at every composite node and every
//! fixed-point sweep), and the declared dirty cone, which is passed into
//! each evaluation.
//!
//! # Cyclic assemblies
//!
//! A cyclic program refuses plain [`AssemblyProgram::evaluate`] (it
//! surfaces the recorded [`CoreError::RecursiveAssembly`] path, matching
//! [`crate::CycleMode::Error`]) and instead evaluates through
//! `evaluate_fixed_point`: global successive-substitution sweeps over the
//! whole node table, exactly mirroring the recursive
//! [`crate::CycleMode::FixedPoint`] evaluator. Each sweep re-enters a
//! loop-cone node through a *sweep-local* memo keyed by
//! `(node, quantized inputs)`, breaks re-entrant calls with the previous
//! sweep's estimate (0 on the first sweep), and records which keys were
//! broken; the shared [`crate::fixedpoint::FixedPointSolver`] then folds
//! the per-key residuals — plain substitution by default, opt-in Aitken Δ²
//! under [`crate::FixedPointMode::Aitken`] — until they drop below the
//! tolerance or the iteration budget dies
//! ([`CoreError::FixedPointDiverged`]).
//!
//! Inside a sweep, loop-cone nodes **never** touch the persistent memo
//! tables or pins: their values depend on the current estimates, so caching
//! them would leak pre-convergence garbage into later sweeps (and into
//! other queries). Nodes *outside* the loop cone are estimate-independent —
//! the cone is downward-closed, so their whole subtree is too — and keep
//! the full memo/pin machinery even mid-sweep.
//!
//! # Bitwise parity
//!
//! Everything the program computes is **bitwise identical** to the
//! recursive path: expression compilation preserves the tree evaluator's
//! operation order, the skeleton refresh replays
//! [`crate::augmented_chain`]'s exact accumulation and validation sequence,
//! solves route through the same plan/direct machinery as
//! [`crate::Evaluator`], and cyclic fixed points replicate the recursive
//! sweeps' break/memo/residual arithmetic key for key. The differential
//! proptests `tests/program_differential.rs` pin this equivalence — acyclic
//! and cyclic — under every [`crate::SolverPolicy`] and at any worker
//! count.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use archrel_expr::{Bindings, CompiledExpr};
use archrel_markov::{PlanScratch, SolvePlan};
use archrel_model::{
    Assembly, CompletionModel, DependencyModel, FlowIndex, InternalFailureModel, Probability,
    Service, ServiceId, SimpleService, StateId,
};
use parking_lot::{Mutex, RwLock};

use crate::augment::{
    bad_transitions, build_chain, checked_transition, edge_sum, first_bad_row, AugmentedState,
};
use crate::eval::{Evaluator, MAX_DEPTH};
use crate::failprob::{state_failure_probability, RequestFailure};
use crate::fixedpoint::FixedPointSolver;
use crate::{CoreError, Result};

/// A compiled expression reading its parameters out of a node's register
/// file through pre-resolved slot indices (no names, no lookups per point).
#[derive(Debug)]
struct SlottedExpr {
    compiled: CompiledExpr,
    /// Register slot of each compiled parameter, in
    /// [`CompiledExpr::params`] order.
    slots: Vec<usize>,
}

impl SlottedExpr {
    fn compile(expr: &archrel_expr::Expr, formals: &[String]) -> Result<SlottedExpr> {
        let compiled = expr.compile();
        let slots = compiled
            .params()
            .iter()
            .map(|name| {
                formals.iter().position(|f| f == name).ok_or_else(|| {
                    CoreError::Expr(archrel_expr::ExprError::UnboundParameter {
                        name: name.clone(),
                    })
                })
            })
            .collect::<Result<Vec<usize>>>()?;
        Ok(SlottedExpr { compiled, slots })
    }

    #[inline]
    fn eval(&self, regs: &[f64], stack: &mut Vec<f64>) -> Result<f64> {
        Ok(self.compiled.eval_slots(&self.slots, regs, stack)?)
    }
}

/// One actual-parameter expression of a service (or connector) call.
#[derive(Debug)]
struct ActualParam {
    expr: SlottedExpr,
    /// Destination slot in the callee's register file. `None` when the
    /// actual names no callee formal (the recursive path evaluates and
    /// discards such bindings, so the expression is still evaluated for
    /// error parity).
    dest: Option<usize>,
}

/// A connector invocation riding on a service call.
#[derive(Debug)]
struct ConnectorCall {
    target: usize,
    target_arity: usize,
    actuals: Vec<ActualParam>,
}

/// One service call of a flow state.
struct CallNode {
    target: usize,
    target_arity: usize,
    actuals: Vec<ActualParam>,
    connector: Option<ConnectorCall>,
    internal: InternalFailureModel,
}

/// One flow state with its compiled calls.
struct StateNode {
    id: StateId,
    completion: CompletionModel,
    dependency: DependencyModel,
    calls: Vec<CallNode>,
}

/// One flow transition's compiled probability expression.
#[derive(Debug)]
struct TransNode {
    from: StateId,
    expr: SlottedExpr,
}

/// Compiled form of one composite service.
struct CompositeNode {
    states: Vec<StateNode>,
    trans: Vec<TransNode>,
    /// The flow's layout: row groups, merged edges and `StateId` order.
    index: Arc<FlowIndex>,
}

enum NodeKind {
    Simple(SimpleService),
    Composite(CompositeNode),
}

/// One service of the dependency DAG.
struct Node {
    id: ServiceId,
    /// Formal parameter names in register-slot order.
    formals: Vec<String>,
    kind: NodeKind,
}

/// A used formal parameter of the target service, in first-use order (the
/// order the recursive evaluator would first read — and so first miss —
/// each name).
#[derive(Debug)]
struct RootInput {
    name: String,
    slot: usize,
}

/// Cached failure-augmented chain skeleton of one composite node, owned by
/// one [`Runtime`].
struct ChainCache {
    chain: archrel_markov::Dtmc<AugmentedState>,
    /// `(row, slot)` address of each merged edge's probability; `None` for
    /// edges the builder dropped (evaluated to exactly zero).
    edge_slots: Vec<Option<(usize, usize)>>,
    /// `(row, slot)` address of each state's `→ Fail` edge, in declaration
    /// order; `None` for failure-free states.
    fail_slots: Vec<Option<(usize, usize)>>,
    /// Whether the solver policy routes this structure through the plan
    /// path (recomputed on rebuild — the positivity pattern can change the
    /// chain's size/density class).
    try_plan: bool,
    /// Plan pinned after the first successful lookup, skipping the
    /// per-point fingerprint + cache probe of the recursive path.
    plan: Option<Arc<SolvePlan>>,
}

/// Per-node mutable evaluation state.
#[derive(Default)]
struct NodeScratch {
    chain: Option<ChainCache>,
    /// Dirty-cone pin: the last `(quantized inputs, result)` of a node
    /// outside the varied-parameter cone. Reused only when the inputs
    /// compare bit-equal, so pinning is unconditionally sound.
    pin: Option<(Box<[u64]>, Probability)>,
    trans_vals: Vec<f64>,
    merged_vals: Vec<f64>,
    state_failures: Vec<Probability>,
    fail_vals: Vec<f64>,
}

/// Per-checkout mutable evaluation state (one per concurrently evaluating
/// thread; pooled and reused across points).
struct Runtime {
    nodes: Vec<NodeScratch>,
    /// Nested register stack: each node in the active recursion owns a
    /// contiguous window of this buffer.
    inputs: Vec<f64>,
    /// Expression evaluation stack.
    stack: Vec<f64>,
    /// Staging buffer for a callee's registers while its actuals evaluate.
    child: Vec<f64>,
    /// Stack-disciplined per-state request failures (windowed by base
    /// offset, like `inputs`).
    failures: Vec<RequestFailure>,
    /// Memo-key staging buffer.
    key: Vec<u64>,
    /// Plan parameter buffer + scratch for pinned-plan evaluation.
    params: Vec<f64>,
    plan_scratch: PlanScratch,
}

impl Runtime {
    fn new(node_count: usize) -> Runtime {
        let mut nodes = Vec::with_capacity(node_count);
        nodes.resize_with(node_count, NodeScratch::default);
        Runtime {
            nodes,
            inputs: Vec::new(),
            stack: Vec::new(),
            child: Vec::new(),
            failures: Vec::new(),
            key: Vec::new(),
            params: Vec::new(),
            plan_scratch: PlanScratch::new(),
        }
    }
}

/// Identity of one loop-cone evaluation inside a fixed-point sweep:
/// `(node, quantized input registers)` — the program-side analogue of the
/// recursive evaluator's `(ServiceId, Bindings::cache_key())` memo key.
type LoopKey = (usize, Box<[u64]>);

/// Per-sweep state of one global fixed-point iteration, mirroring the
/// recursive evaluator's sweep context exactly: a sweep-local memo, a call
/// stack for cycle breaking, and the set of keys answered from estimates.
struct FpSweep<'s> {
    estimates: &'s HashMap<LoopKey, f64>,
    memo: HashMap<LoopKey, Probability>,
    stack: Vec<LoopKey>,
    cycle_keys: HashSet<LoopKey>,
}

/// A compiled evaluation program for one `(assembly, target service)` pair.
///
/// Built by [`AssemblyProgram::compile`] (or automatically by
/// [`Evaluator`] once a target is seen [`crate::AUTO_PROGRAM_MIN_SEEN`]
/// times); evaluated through [`Evaluator::failure_probability`] once
/// installed. See the module
/// documentation for the compilation pipeline and cache semantics.
///
/// The program owns copies of the model values it reads, so one program
/// can serve every evaluator attaching the same [`crate::ValueCache`] (see
/// the module documentation's *Sharing* section).
pub struct AssemblyProgram {
    target: ServiceId,
    nodes: Vec<Node>,
    root: usize,
    root_inputs: Vec<RootInput>,
    /// Whether each node is inside a nontrivial SCC or can reach one
    /// through its calls — the set evaluated under the fixed-point driver.
    loop_cone: Vec<bool>,
    /// Number of nontrivial (cyclic) SCCs in the condensation.
    loop_sccs: usize,
    /// The first dependency cycle found while lowering, in the recursive
    /// evaluator's error shape (path from first occurrence, closed by the
    /// repeated service); `None` for acyclic programs.
    cycle: Option<Vec<String>>,
    /// Per-node memo tables keyed by the quantized input-register vector.
    memo: Vec<RwLock<HashMap<Box<[u64]>, Probability>>>,
    runtimes: Mutex<Vec<Runtime>>,
    /// Whether this program's pinned-plan bundle has been published to the
    /// artifact store (once per program, whichever evaluator gets there).
    /// Relaxed suffices: the flag guards no other data, and its swap is
    /// an atomic read-modify-write, so exactly one caller claims it.
    bundle_published: AtomicBool,
}

impl std::fmt::Debug for AssemblyProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AssemblyProgram")
            .field("target", &self.target)
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

impl AssemblyProgram {
    /// Compiles the dependency graph reachable from `target` — cyclic or
    /// not. Cycles are condensed into SCCs and evaluated through the
    /// fixed-point driver ([`crate::CycleMode::FixedPoint`]); a cyclic
    /// program's recorded cycle path only surfaces as
    /// [`CoreError::RecursiveAssembly`] if it is evaluated under
    /// [`crate::CycleMode::Error`].
    ///
    /// # Errors
    ///
    /// - [`CoreError::Model`] when `target` (or a callee) is not part of
    ///   the assembly;
    /// - [`CoreError::Expr`] when a parametric dependency reads a
    ///   parameter its service never declares.
    pub fn compile(assembly: &Assembly, target: &ServiceId) -> Result<AssemblyProgram> {
        let mut builder = ProgramBuilder {
            assembly,
            index: HashMap::new(),
            nodes: Vec::new(),
            formals: Vec::new(),
            visiting: Vec::new(),
            first_cycle: None,
        };
        let root = builder.build_node(target)?;
        let nodes: Vec<Node> = builder
            .nodes
            .into_iter()
            .map(|n| n.expect("every reachable node is lowered"))
            .collect();
        let cycle = builder.first_cycle;
        let (scc_of, scc_count, in_cycle) = condense(&nodes);
        let mut scc_cyclic = vec![false; scc_count];
        for (v, &cyc) in in_cycle.iter().enumerate() {
            if cyc {
                scc_cyclic[scc_of[v]] = true;
            }
        }
        let loop_sccs = scc_cyclic.iter().filter(|&&b| b).count();
        // Loop cone: nodes whose evaluation can reach a cyclic SCC.
        // Ascending SCC id is callees-first (an SCC's id is lower than
        // every SCC calling into it), so one pass suffices.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by_key(|&v| scc_of[v]);
        let mut loop_cone = vec![false; nodes.len()];
        for &v in &order {
            if in_cycle[v] {
                loop_cone[v] = true;
                continue;
            }
            let mut hit = false;
            call_targets(&nodes[v], |t| hit = hit || loop_cone[t]);
            loop_cone[v] = hit;
        }
        let root_inputs = collect_root_inputs(&nodes[root]);
        let memo = nodes.iter().map(|_| RwLock::new(HashMap::new())).collect();
        Ok(AssemblyProgram {
            target: target.clone(),
            nodes,
            root,
            root_inputs,
            loop_cone,
            loop_sccs,
            cycle,
            memo,
            runtimes: Mutex::new(Vec::new()),
            bundle_published: AtomicBool::new(false),
        })
    }

    /// Whether the program's dependency graph has at least one cycle (i.e.
    /// a nontrivial SCC or a self-loop): such programs evaluate only under
    /// [`crate::CycleMode::FixedPoint`].
    pub fn has_cycles(&self) -> bool {
        self.cycle.is_some()
    }

    /// Number of nontrivial (cyclic) SCCs in the condensation.
    pub(crate) fn loop_scc_count(&self) -> usize {
        self.loop_sccs
    }

    /// The target service this program evaluates.
    pub fn target(&self) -> &ServiceId {
        &self.target
    }

    /// Number of services (DAG nodes) the program covers.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The dirty cone of a sweep varying `names` among the target's formal
    /// parameters: `cone[node]` when the node's inputs can depend on a
    /// varied parameter. Nodes outside it are evaluated once and pinned
    /// (bit-compare guarded) instead of hashed into the memo. An empty
    /// slice pins everything; parameters not naming a formal simply widen
    /// nothing.
    pub(crate) fn dirty_cone(&self, names: &[String]) -> Arc<[bool]> {
        let root_formals = &self.nodes[self.root].formals;
        let mut varied: Vec<Vec<bool>> = self
            .nodes
            .iter()
            .map(|n| vec![false; n.formals.len()])
            .collect();
        for (slot, formal) in root_formals.iter().enumerate() {
            if names.iter().any(|n| n == formal) {
                varied[self.root][slot] = true;
            }
        }
        // Node indices follow the builder's DFS pre-order and call edges
        // may form cycles, so no single pass order covers every edge:
        // propagate to a fixed point instead. Variedness bits only ever
        // turn on, so this terminates in at most `sum(arities)` passes
        // (in practice one or two).
        let mut changed = true;
        while changed {
            changed = false;
            for idx in 0..self.nodes.len() {
                let NodeKind::Composite(comp) = &self.nodes[idx].kind else {
                    continue;
                };
                let mut mark =
                    |varied: &mut [Vec<bool>], target: usize, actuals: &[ActualParam]| {
                        for ap in actuals {
                            let depends = ap.expr.slots.iter().any(|&s| varied[idx][s]);
                            if depends {
                                if let Some(dest) = ap.dest {
                                    if !varied[target][dest] {
                                        varied[target][dest] = true;
                                        changed = true;
                                    }
                                }
                            }
                        }
                    };
                for state in &comp.states {
                    for call in &state.calls {
                        mark(&mut varied, call.target, &call.actuals);
                        if let Some(conn) = &call.connector {
                            mark(&mut varied, conn.target, &conn.actuals);
                        }
                    }
                }
            }
        }
        varied.iter().map(|v| v.iter().any(|&b| b)).collect()
    }

    /// Claims publication of the program's pinned-plan bundle: `true` for
    /// the first caller only, so the bundle is written once per program
    /// however many evaluators share it.
    pub(crate) fn claim_bundle_publication(&self) -> bool {
        !self.bundle_published.swap(true, Ordering::Relaxed)
    }

    /// Whether the program's pinned-plan bundle has been published.
    pub(crate) fn bundle_published(&self) -> bool {
        self.bundle_published.load(Ordering::Relaxed)
    }

    /// Structure fingerprints of every solve plan pinned by this program's
    /// pooled runtimes, sorted and deduplicated — the payload of a
    /// persistent program bundle. Only parked runtimes are visible, so call
    /// between evaluations (checkouts in flight contribute after they are
    /// returned to the pool).
    pub(crate) fn pinned_plan_fingerprints(&self) -> Vec<u64> {
        let runtimes = self.runtimes.lock();
        let mut fingerprints: Vec<u64> = runtimes
            .iter()
            .flat_map(|rt| rt.nodes.iter())
            .filter_map(|node| {
                node.chain
                    .as_ref()
                    .and_then(|c| c.plan.as_ref())
                    .map(|plan| plan.fingerprint())
            })
            .collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        fingerprints
    }

    /// Evaluates `Pfail(target, env)` — bitwise identical to the recursive
    /// evaluator. `cone` is the caller's declared dirty cone
    /// ([`AssemblyProgram::dirty_cone`]), `None` for plain memoization.
    pub(crate) fn evaluate(
        &self,
        evaluator: &Evaluator<'_>,
        env: &Bindings,
        cone: Option<&[bool]>,
    ) -> Result<Probability> {
        if let Some(cycle) = &self.cycle {
            // Plain (non-fixed-point) evaluation of a cyclic program: same
            // error the recursive path raises under `CycleMode::Error`.
            return Err(CoreError::RecursiveAssembly {
                cycle: cycle.clone(),
            });
        }
        self.with_runtime(|rt| {
            self.seed_root_inputs(env, rt)?;
            self.eval_node(evaluator, rt, cone, self.root, 0, None)
        })
    }

    /// Runs `f` on a runtime checked out of the pool (a fresh one when
    /// every pooled runtime is in use), returning it afterwards.
    fn with_runtime<T>(&self, f: impl FnOnce(&mut Runtime) -> T) -> T {
        let mut rt = self
            .runtimes
            .lock()
            .pop()
            .unwrap_or_else(|| Runtime::new(self.nodes.len()));
        let result = f(&mut rt);
        self.runtimes.lock().push(rt);
        result
    }

    /// Resets the runtime's register stack and loads the target's bound
    /// formals, surfacing the first *used* unbound formal exactly like the
    /// recursive path.
    fn seed_root_inputs(&self, env: &Bindings, rt: &mut Runtime) -> Result<()> {
        rt.inputs.clear();
        rt.failures.clear();
        rt.inputs
            .resize(self.nodes[self.root].formals.len(), f64::NAN);
        for ri in &self.root_inputs {
            match env.get(&ri.name) {
                Some(v) => rt.inputs[ri.slot] = v,
                None => {
                    return Err(CoreError::Expr(archrel_expr::ExprError::UnboundParameter {
                        name: ri.name.clone(),
                    }))
                }
            }
        }
        Ok(())
    }

    /// Evaluates `Pfail(target, env)` for a cyclic program by global
    /// fixed-point iteration — bitwise identical to the recursive
    /// [`crate::CycleMode::FixedPoint`] sweeps under either
    /// [`crate::FixedPointMode`].
    pub(crate) fn evaluate_fixed_point(
        &self,
        evaluator: &Evaluator<'_>,
        env: &Bindings,
        cone: Option<&[bool]>,
        max_iterations: usize,
        tolerance: f64,
    ) -> Result<Probability> {
        self.with_runtime(|rt| {
            self.fixed_point_with(evaluator, env, cone, max_iterations, tolerance, rt)
        })
    }

    fn fixed_point_with(
        &self,
        evaluator: &Evaluator<'_>,
        env: &Bindings,
        cone: Option<&[bool]>,
        max_iterations: usize,
        tolerance: f64,
        rt: &mut Runtime,
    ) -> Result<Probability> {
        let mut solver: FixedPointSolver<LoopKey> =
            FixedPointSolver::new(evaluator.options().fixed_point, max_iterations, tolerance);
        for _ in 0..max_iterations {
            evaluator.check_cancel()?;
            self.seed_root_inputs(env, rt)?;
            let (top, cycle_keys, sweep_memo) = {
                let mut sweep = FpSweep {
                    estimates: solver.estimates(),
                    memo: HashMap::new(),
                    stack: Vec::new(),
                    cycle_keys: HashSet::new(),
                };
                let top = self.eval_node(evaluator, rt, cone, self.root, 0, Some(&mut sweep))?;
                (top, sweep.cycle_keys, sweep.memo)
            };
            if cycle_keys.is_empty() {
                // No loop-cone node actually recursed at these parameters:
                // the first sweep is already exact.
                solver.note_exact_sweep();
                evaluator.note_fixed_point(&solver);
                return Ok(top);
            }
            let mut updates = 0;
            let converged = solver.record_sweep(
                top.value(),
                cycle_keys.iter().filter_map(|k| {
                    sweep_memo.get(k).map(|p| {
                        updates += 1;
                        (k.clone(), p.value())
                    })
                }),
            );
            evaluator.note_scc_iterations(updates);
            if converged {
                evaluator.note_fixed_point(&solver);
                return Ok(top);
            }
        }
        evaluator.note_fixed_point(&solver);
        Err(solver.diverged())
    }

    /// Evaluates one node whose registers sit at `inputs[base..]`,
    /// answering from the memo table (in-cone) or the pin (out-of-cone)
    /// when possible. Inside a fixed-point sweep (`fp`), loop-cone nodes
    /// detour through [`AssemblyProgram::eval_loop_node`]; everything
    /// outside the loop cone is estimate-independent and keeps the
    /// persistent caches.
    fn eval_node(
        &self,
        evaluator: &Evaluator<'_>,
        rt: &mut Runtime,
        cone: Option<&[bool]>,
        node: usize,
        base: usize,
        fp: Option<&mut FpSweep<'_>>,
    ) -> Result<Probability> {
        if let Some(sweep) = fp {
            if self.loop_cone[node] {
                return self.eval_loop_node(evaluator, rt, cone, node, base, sweep);
            }
        }
        let arity = self.nodes[node].formals.len();
        if cone.is_some_and(|c| !c[node]) {
            if let Some((key, value)) = &rt.nodes[node].pin {
                let matches = key.len() == arity
                    && key
                        .iter()
                        .zip(&rt.inputs[base..base + arity])
                        .all(|(k, v)| *k == v.to_bits());
                if matches {
                    evaluator.note_pin_hit();
                    return Ok(*value);
                }
            }
            let p = self.compute_node(evaluator, rt, cone, node, base, None)?;
            let key: Box<[u64]> = rt.inputs[base..base + arity]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            rt.nodes[node].pin = Some((key, p));
            return Ok(p);
        }
        rt.key.clear();
        rt.key
            .extend(rt.inputs[base..base + arity].iter().map(|v| v.to_bits()));
        if let Some(p) = self.memo[node].read().get(rt.key.as_slice()) {
            evaluator.note_memo(true);
            return Ok(*p);
        }
        evaluator.note_memo(false);
        let p = self.compute_node(evaluator, rt, cone, node, base, None)?;
        // `rt.key` may have been clobbered by recursion; the node's own
        // registers are still intact (children only grow/shrink `inputs`
        // beyond this window).
        let key: Box<[u64]> = rt.inputs[base..base + arity]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        self.memo[node].write().insert(key, p);
        Ok(p)
    }

    /// Evaluates one loop-cone node inside a fixed-point sweep: sweep-local
    /// memo, estimate-based cycle breaking on a `(node, inputs)` re-entry
    /// or at the recursion depth cap — never the persistent memo or pin,
    /// whose entries would leak pre-convergence estimates across sweeps.
    fn eval_loop_node(
        &self,
        evaluator: &Evaluator<'_>,
        rt: &mut Runtime,
        cone: Option<&[bool]>,
        node: usize,
        base: usize,
        sweep: &mut FpSweep<'_>,
    ) -> Result<Probability> {
        let arity = self.nodes[node].formals.len();
        let key: LoopKey = (
            node,
            rt.inputs[base..base + arity]
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        );
        if let Some(p) = sweep.memo.get(&key) {
            return Ok(*p);
        }
        if sweep.stack.contains(&key) || sweep.stack.len() >= MAX_DEPTH {
            let estimate = sweep.estimates.get(&key).copied().unwrap_or(0.0);
            sweep.cycle_keys.insert(key);
            return Ok(Probability::new(estimate)?);
        }
        sweep.stack.push(key.clone());
        let result = self.compute_node(evaluator, rt, cone, node, base, Some(sweep));
        sweep.stack.pop();
        let p = result?;
        sweep.memo.insert(key, p);
        Ok(p)
    }

    fn compute_node(
        &self,
        evaluator: &Evaluator<'_>,
        rt: &mut Runtime,
        cone: Option<&[bool]>,
        node: usize,
        base: usize,
        fp: Option<&mut FpSweep<'_>>,
    ) -> Result<Probability> {
        match &self.nodes[node].kind {
            NodeKind::Simple(simple) => Ok(simple.failure_probability(rt.inputs[base])?),
            NodeKind::Composite(_) => {
                // Detach the node's scratch so recursion can borrow `rt`
                // freely. A *cyclic* program can re-enter a node that is
                // already detached (with different inputs, below the cycle
                // break); the inner frame then sees a default scratch — a
                // wasted chain rebuild, but sound, and the outer restore
                // wins.
                let mut scratch = std::mem::take(&mut rt.nodes[node]);
                let result =
                    self.compute_composite(evaluator, rt, cone, node, base, &mut scratch, fp);
                rt.nodes[node] = scratch;
                result
            }
        }
    }

    /// The compiled replay of `eval_service` + `augmented_chain` for one
    /// composite node. Every arithmetic accumulation happens in exactly the
    /// order of the recursive path, so results are bitwise identical.
    #[allow(clippy::too_many_arguments)]
    fn compute_composite(
        &self,
        evaluator: &Evaluator<'_>,
        rt: &mut Runtime,
        cone: Option<&[bool]>,
        node: usize,
        base: usize,
        scratch: &mut NodeScratch,
        mut fp: Option<&mut FpSweep<'_>>,
    ) -> Result<Probability> {
        // Poll cancellation where the recursive path does: at every
        // composite evaluation.
        evaluator.check_cancel()?;
        let arity = self.nodes[node].formals.len();
        let NodeKind::Composite(comp) = &self.nodes[node].kind else {
            unreachable!("compute_composite called on a simple node");
        };

        // Phase 1 — resolve states: actuals in declaration order, then the
        // callee, then the connector, then the internal model (the exact
        // order of `resolve_request`).
        scratch.state_failures.clear();
        for state in &comp.states {
            let fbase = rt.failures.len();
            for call in &state.calls {
                let mut first_demand = 0.0;
                rt.child.clear();
                rt.child.resize(call.target_arity, f64::NAN);
                for (i, ap) in call.actuals.iter().enumerate() {
                    let v = ap
                        .expr
                        .eval(&rt.inputs[base..base + arity], &mut rt.stack)?;
                    if i == 0 {
                        first_demand = v;
                    }
                    if let Some(dest) = ap.dest {
                        rt.child[dest] = v;
                    }
                }
                let cbase = rt.inputs.len();
                rt.inputs.extend_from_slice(&rt.child);
                let r = self.eval_node(evaluator, rt, cone, call.target, cbase, fp.as_deref_mut());
                rt.inputs.truncate(cbase);
                let target_fail = r?;

                let connector_fail = match &call.connector {
                    None => Probability::ZERO,
                    Some(conn) => {
                        rt.child.clear();
                        rt.child.resize(conn.target_arity, f64::NAN);
                        for ap in &conn.actuals {
                            let v = ap
                                .expr
                                .eval(&rt.inputs[base..base + arity], &mut rt.stack)?;
                            if let Some(dest) = ap.dest {
                                rt.child[dest] = v;
                            }
                        }
                        let cbase = rt.inputs.len();
                        rt.inputs.extend_from_slice(&rt.child);
                        let r = self.eval_node(
                            evaluator,
                            rt,
                            cone,
                            conn.target,
                            cbase,
                            fp.as_deref_mut(),
                        );
                        rt.inputs.truncate(cbase);
                        r?
                    }
                };

                let internal = call.internal.failure_probability(first_demand)?;
                rt.failures.push(RequestFailure::new(
                    internal,
                    RequestFailure::external_of(target_fail, connector_fail),
                ));
            }
            let failure = state_failure_probability(
                state.completion,
                state.dependency,
                &rt.failures[fbase..],
            );
            rt.failures.truncate(fbase);
            scratch.state_failures.push(failure?);
        }

        // Phase 2 — transition probabilities, validated per edge then per
        // row exactly like `augmented_chain` (same literals, same order).
        let service = &self.nodes[node].id;
        scratch.trans_vals.clear();
        for t in &comp.trans {
            let p = t.expr.eval(&rt.inputs[base..base + arity], &mut rt.stack)?;
            scratch
                .trans_vals
                .push(checked_transition(service, &t.from, p)?);
        }
        let index = &comp.index;
        if let Some((t, sum)) = first_bad_row(index, &scratch.trans_vals) {
            return Err(bad_transitions(service, &comp.trans[t].from, sum));
        }

        // Phase 3 — merge parallel edges and scale by `1 − p(from, Fail)`.
        scratch.merged_vals.clear();
        for e in 0..index.edge_count() {
            let failure = FlowIndex::named_position(index.edge(e).0)
                .map_or(Probability::ZERO, |si| scratch.state_failures[si]);
            let p = edge_sum(index, e, &scratch.trans_vals);
            scratch.merged_vals.push(p * failure.complement().value());
        }
        scratch.fail_vals.clear();
        scratch
            .fail_vals
            .extend(scratch.state_failures.iter().map(|f| f.value()));

        // Phase 4 — refresh the cached chain skeleton in place; fall back
        // to a full rebuild (which reproduces the builder's validation
        // errors verbatim) on any pattern or validation mismatch.
        let refreshed = match &mut scratch.chain {
            Some(cache) => refresh_chain(cache, &scratch.merged_vals, &scratch.fail_vals),
            None => false,
        };
        if !refreshed {
            scratch.chain = Some(self.build_chain_cache(
                evaluator,
                comp,
                &scratch.merged_vals,
                &scratch.fail_vals,
            )?);
        }
        let cache = scratch.chain.as_mut().expect("chain cache just ensured");

        // Phase 5 — solve through the same machinery as the recursive path.
        let start = AugmentedState::Flow(StateId::Start);
        let end = AugmentedState::Flow(StateId::End);
        let solve_started = Instant::now();
        let solved = solve_cached_chain(evaluator, cache, &start, &end, rt);
        let success = match solved {
            Ok(p) => p,
            // Mirrors `eval_service`: a structurally unreachable End is a
            // certain failure, not a solve error.
            Err(archrel_markov::MarkovError::UnreachableTarget { .. }) => 0.0,
            Err(e) => return Err(e.into()),
        };
        evaluator.note_chain_solve(solve_started.elapsed());
        Ok(Probability::new(success)?.complement())
    }

    /// Builds a fresh chain + slot map for the current numeric values
    /// through `augmented_chain`'s own builder sequence.
    fn build_chain_cache(
        &self,
        evaluator: &Evaluator<'_>,
        comp: &CompositeNode,
        merged_vals: &[f64],
        fail_vals: &[f64],
    ) -> Result<ChainCache> {
        let index = &comp.index;
        let (chain, slots) = build_chain(
            index,
            comp.states.iter().map(|s| &s.id),
            merged_vals,
            fail_vals,
        )?;
        let try_plan = evaluator
            .options()
            .solver
            .plan_compilation(chain.len(), chain.edge_count());
        Ok(ChainCache {
            chain,
            edge_slots: slots.edges,
            fail_slots: slots.fails,
            try_plan,
            plan: None,
        })
    }
}

/// Refreshes a cached chain's numeric entries in place. Returns `false`
/// (forcing a rebuild) when the positivity pattern changed, a value is
/// invalid, or a row stopped summing to one — the rebuild then reproduces
/// the exact builder behavior, including its errors.
fn refresh_chain(cache: &mut ChainCache, merged_vals: &[f64], fail_vals: &[f64]) -> bool {
    for (slot, &p) in cache.edge_slots.iter().zip(merged_vals) {
        match *slot {
            Some((row, pos)) => {
                if cache.chain.set_edge_probability(row, pos, p).is_err() {
                    return false;
                }
            }
            // A previously-dropped edge must still be exactly zero; any
            // other value changes structure or must surface the builder's
            // validation error.
            None => {
                if p != 0.0 {
                    return false;
                }
            }
        }
    }
    for (slot, &f) in cache.fail_slots.iter().zip(fail_vals) {
        match *slot {
            Some((row, pos)) => {
                if cache.chain.set_edge_probability(row, pos, f).is_err() {
                    return false;
                }
            }
            None => {
                if f != 0.0 {
                    return false;
                }
            }
        }
    }
    cache.chain.validate_stochastic().is_ok()
}

/// Solves `p*(Start → End)` for a cached chain: pinned plan when present,
/// plan lookup (shared [`crate::PlanCache`] discipline, including `Auto`
/// promotion counting) while the gate is open, direct solver otherwise.
fn solve_cached_chain(
    evaluator: &Evaluator<'_>,
    cache: &mut ChainCache,
    start: &AugmentedState,
    end: &AugmentedState,
    rt: &mut Runtime,
) -> archrel_markov::Result<f64> {
    if cache.plan.is_none() && cache.try_plan {
        cache.plan = evaluator.plan_for_chain(&cache.chain, start, end)?;
    }
    match &cache.plan {
        Some(plan) => {
            plan.parameters_into(&cache.chain, &mut rt.params)?;
            let value = plan.evaluate_scratch(&rt.params, &mut rt.plan_scratch)?;
            evaluator.record_plan_replay();
            Ok(value)
        }
        None => evaluator.direct_solve(&cache.chain, start, end),
    }
}

/// Calls `f` with the node index of every call target of `node` (service
/// calls and connector calls alike), in flow order.
fn call_targets(node: &Node, mut f: impl FnMut(usize)) {
    if let NodeKind::Composite(comp) = &node.kind {
        for state in &comp.states {
            for call in &state.calls {
                f(call.target);
                if let Some(conn) = &call.connector {
                    f(conn.target);
                }
            }
        }
    }
}

/// Iterative Tarjan over the call graph. Returns
/// `(scc_of, scc_count, in_cycle)`: SCC ids ascend callees-first (every
/// SCC's id is lower than the ids of the SCCs calling into it), and
/// `in_cycle[v]` marks members of nontrivial SCCs and self-loops.
fn condense(nodes: &[Node]) -> (Vec<usize>, usize, Vec<bool>) {
    let n = nodes.len();
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|node| {
            let mut targets = Vec::new();
            call_targets(node, |t| targets.push(t));
            targets
        })
        .collect();
    let mut index_of = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut self_loop = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];
    let mut scc_count = 0usize;
    let mut next_index = 0usize;
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index_of[start] != usize::MAX {
            continue;
        }
        index_of[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        frames.push((start, 0));
        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            if let Some(&w) = adj[v].get(*ei) {
                *ei += 1;
                if w == v {
                    self_loop[v] = true;
                }
                if index_of[w] == usize::MAX {
                    index_of[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index_of[w]);
                }
            } else {
                frames.pop();
                if lowlink[v] == index_of[v] {
                    loop {
                        let w = stack.pop().expect("tarjan member stack");
                        on_stack[w] = false;
                        scc_of[w] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
                if let Some(&mut (p, _)) = frames.last_mut() {
                    lowlink[p] = lowlink[p].min(lowlink[v]);
                }
            }
        }
    }
    let mut scc_size = vec![0usize; scc_count];
    for &s in &scc_of {
        scc_size[s] += 1;
    }
    let in_cycle = (0..n)
        .map(|v| scc_size[scc_of[v]] > 1 || self_loop[v])
        .collect();
    (scc_of, scc_count, in_cycle)
}

/// Depth-first program builder. Node slots are allocated in DFS pre-order
/// at first sight (with a `formals` side table filled eagerly so back
/// edges can resolve arity and destinations before the callee's body is
/// lowered); a back edge onto a node still being lowered records the first
/// dependency cycle instead of erroring, so cyclic graphs compile.
struct ProgramBuilder<'a> {
    assembly: &'a Assembly,
    index: HashMap<ServiceId, usize>,
    nodes: Vec<Option<Node>>,
    formals: Vec<Vec<String>>,
    visiting: Vec<ServiceId>,
    first_cycle: Option<Vec<String>>,
}

impl<'a> ProgramBuilder<'a> {
    fn build_node(&mut self, service: &ServiceId) -> Result<usize> {
        if let Some(&i) = self.index.get(service) {
            if self.nodes[i].is_none() && self.first_cycle.is_none() {
                // Back edge onto a node still being lowered: record the
                // cycle in the recursive evaluator's error shape (path from
                // the first occurrence, closed by the repeated service).
                let start = self.visiting.iter().position(|s| s == service).unwrap_or(0);
                let mut cycle: Vec<String> = self.visiting[start..]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                cycle.push(service.to_string());
                self.first_cycle = Some(cycle);
            }
            return Ok(i);
        }
        let idx = self.nodes.len();
        self.nodes.push(None);
        self.formals.push(match self.assembly.require(service)? {
            Service::Simple(simple) => vec![simple.formal_param().to_string()],
            Service::Composite(composite) => composite.formal_params().to_vec(),
        });
        self.index.insert(service.clone(), idx);
        self.visiting.push(service.clone());
        let node = self.lower_service(service, idx);
        self.visiting.pop();
        self.nodes[idx] = Some(node?);
        Ok(idx)
    }

    fn lower_service(&mut self, service: &ServiceId, idx: usize) -> Result<Node> {
        match self.assembly.require(service)? {
            Service::Simple(simple) => Ok(Node {
                id: service.clone(),
                formals: self.formals[idx].clone(),
                kind: NodeKind::Simple(simple.clone()),
            }),
            Service::Composite(composite) => {
                let formals = self.formals[idx].clone();
                let flow = composite.flow();
                let mut states = Vec::with_capacity(flow.states().len());
                for state in flow.states() {
                    let mut calls = Vec::with_capacity(state.calls.len());
                    for call in &state.calls {
                        let target = self.build_node(&call.target)?;
                        let actuals = self.lower_actuals(&call.actual_params, &formals, target)?;
                        let connector = match &call.connector {
                            None => None,
                            Some(binding) => {
                                let conn_target = self.build_node(&binding.connector)?;
                                Some(ConnectorCall {
                                    target: conn_target,
                                    target_arity: self.formals[conn_target].len(),
                                    actuals: self.lower_actuals(
                                        &binding.actual_params,
                                        &formals,
                                        conn_target,
                                    )?,
                                })
                            }
                        };
                        calls.push(CallNode {
                            target,
                            target_arity: self.formals[target].len(),
                            actuals,
                            connector,
                            internal: call.internal_failure.clone(),
                        });
                    }
                    states.push(StateNode {
                        id: state.id.clone(),
                        completion: state.completion,
                        dependency: state.dependency,
                        calls,
                    });
                }

                let trans = flow
                    .transitions()
                    .iter()
                    .map(|t| {
                        Ok(TransNode {
                            from: t.from.clone(),
                            expr: SlottedExpr::compile(&t.probability, &formals)?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;

                Ok(Node {
                    id: service.clone(),
                    formals,
                    kind: NodeKind::Composite(CompositeNode {
                        states,
                        trans,
                        index: Arc::clone(flow.index()),
                    }),
                })
            }
        }
    }

    fn lower_actuals(
        &self,
        actual_params: &[(String, archrel_expr::Expr)],
        formals: &[String],
        target: usize,
    ) -> Result<Vec<ActualParam>> {
        let callee_formals = &self.formals[target];
        actual_params
            .iter()
            .map(|(name, expr)| {
                Ok(ActualParam {
                    expr: SlottedExpr::compile(expr, formals)?,
                    dest: callee_formals.iter().position(|f| f == name),
                })
            })
            .collect()
    }
}

/// Gathers the target's *used* formal parameters in first-use order — the
/// order the recursive evaluator reads (and so would first report missing)
/// each name.
fn collect_root_inputs(root: &Node) -> Vec<RootInput> {
    let mut inputs: Vec<RootInput> = Vec::new();
    let mut push = |slot: usize, name: &str| {
        if !inputs.iter().any(|ri| ri.slot == slot) {
            inputs.push(RootInput {
                name: name.to_string(),
                slot,
            });
        }
    };
    match &root.kind {
        NodeKind::Simple(_) => push(0, &root.formals[0]),
        NodeKind::Composite(comp) => {
            let mut push_expr = |expr: &SlottedExpr| {
                for &slot in &expr.slots {
                    push(slot, &root.formals[slot]);
                }
            };
            for state in &comp.states {
                for call in &state.calls {
                    for ap in &call.actuals {
                        push_expr(&ap.expr);
                    }
                    if let Some(conn) = &call.connector {
                        for ap in &conn.actuals {
                            push_expr(&ap.expr);
                        }
                    }
                }
            }
            for t in &comp.trans {
                push_expr(&t.expr);
            }
        }
    }
    inputs
}
