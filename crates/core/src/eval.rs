//! The recursive evaluation procedure `Pfail_Alg` (paper §3.3).
//!
//! [`Evaluator`] walks the assembly from a target service down to its simple
//! services, computing `Pfail(S, fp)` bottom-up. Results are memoized per
//! `(service, resolved parameters)`. Recursive assemblies — which the paper
//! notes its procedure cannot handle and "should be expressed by a fixed
//! point equation" — are supported through [`CycleMode::FixedPoint`]:
//! damped successive substitution starting from the optimistic estimate 0,
//! which converges monotonically because `Pfail` is monotone in the
//! estimates and bounded by 1.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use archrel_expr::Bindings;
use archrel_markov::{
    structure_fingerprint, BlockSolveKinds, ParamBlock, PlanScratch, PlanSolveKind, SolvePlan, LANE,
};
use archrel_model::{
    Assembly, CompositeService, Probability, Service, ServiceCall, ServiceId, StateId,
};
use archrel_store::ArtifactStore;
use parking_lot::RwLock;

use crate::augment::{augmented_chain, AugmentedState};
use crate::cancel::CancelToken;
use crate::failprob::{state_failure_probability, RequestFailure};
pub use crate::fixedpoint::FixedPointMode;
use crate::fixedpoint::FixedPointSolver;
use crate::program::AssemblyProgram;
use crate::{CoreError, Result};

/// How the evaluator treats recursive assemblies (service-call cycles).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CycleMode {
    /// Return [`CoreError::RecursiveAssembly`] — the paper's behavior.
    #[default]
    Error,
    /// Solve the fixed-point equation by successive substitution (or
    /// Aitken-accelerated substitution, see [`FixedPointMode`]).
    FixedPoint {
        /// Iteration budget.
        max_iterations: usize,
        /// Convergence threshold on the largest estimate change.
        tolerance: f64,
    },
}

/// Default iteration budget the CLI uses when `--fixed-point` enables
/// [`CycleMode::FixedPoint`] without an explicit budget.
pub const DEFAULT_FIXED_POINT_MAX_ITERATIONS: usize = 1000;
/// Default convergence tolerance paired with
/// [`DEFAULT_FIXED_POINT_MAX_ITERATIONS`].
pub const DEFAULT_FIXED_POINT_TOLERANCE: f64 = 1e-12;

/// Which linear-solver backend evaluates each flow's absorbing chain.
///
/// The same policy value is threaded through the batch engine, the
/// sensitivity stencils, uncertainty propagation, and service selection, so
/// a whole analysis runs under one backend discipline. The environment
/// variable `ARCHREL_SOLVER` (values `auto` / `dense` / `sparse` /
/// `compiled`) overrides the default policy of every
/// [`EvalOptions::default`], which is how CI forces the entire test suite
/// through the sparse and compiled paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverPolicy {
    /// Pick per chain from state count and edge density: dense LU below
    /// [`AUTO_DENSE_MAX_STATES`] states (or up to
    /// [`AUTO_DENSE_DENSITY_MAX_STATES`] when density ≥
    /// [`AUTO_DENSE_DENSITY`]), the sparse path otherwise. The thresholds
    /// come from a dense-vs-sparse sweep (crossover near 64 chain states).
    /// In the sparse regime, a flow *structure* solved at least
    /// [`AUTO_PLAN_MIN_SEEN`] times is promoted to a compiled acyclic plan
    /// (a tape replay that is bitwise-identical to the sparse fast path).
    /// The sweep drivers (uncertainty, sensitivity, improvement, selection,
    /// fleet refresh) stage such sparse-regime acyclic flows straight into
    /// that tape from their first point.
    #[default]
    Auto,
    /// Always dense LU — exact, `O(states³)`; the right choice for
    /// paper-sized flows.
    Dense,
    /// Always the sparse path — exact `O(edges)` back-substitution on
    /// acyclic flow graphs, CSR Gauss–Seidel `O(sweeps·edges)` otherwise.
    Sparse,
    /// Compile-once, evaluate-many plans ([`archrel_markov::SolvePlan`]):
    /// every flow structure is compiled on first sight and re-evaluated
    /// from a straight-line tape (acyclic flows) or via Sherman–Morrison
    /// rank-1 incremental re-solves against a compile-time LU factorization
    /// (cyclic flows). The backend of choice for parameter sweeps that
    /// re-solve one structure many times
    /// (11.6x over `Sparse` at 1024 states).
    Compiled,
}

/// Below this state count `Auto` always uses dense LU.
pub const AUTO_DENSE_MAX_STATES: usize = 64;
/// Edge density (`edges / states²`) at or above which `Auto` stays dense up
/// to [`AUTO_DENSE_DENSITY_MAX_STATES`] states.
pub const AUTO_DENSE_DENSITY: f64 = 0.25;
/// State-count ceiling for the density-based dense preference of `Auto`.
pub const AUTO_DENSE_DENSITY_MAX_STATES: usize = 256;
/// Number of times `Auto` must see one flow structure (in its sparse
/// regime) before promoting it to a compiled plan. Compilation costs about
/// one sparse solve, so promoting on the second sight already pays off and
/// a sweep's remaining evaluations all ride the tape.
pub const AUTO_PLAN_MIN_SEEN: u64 = 2;

/// Concrete backend chosen for one chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChosenSolver {
    Dense,
    Sparse,
}

impl SolverPolicy {
    /// Parses `auto` / `dense` / `sparse` / `compiled` (case-insensitive).
    pub fn parse(s: &str) -> Option<SolverPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(SolverPolicy::Auto),
            "dense" => Some(SolverPolicy::Dense),
            "sparse" => Some(SolverPolicy::Sparse),
            "compiled" => Some(SolverPolicy::Compiled),
            _ => None,
        }
    }

    /// Parses a value of the `ARCHREL_SOLVER` environment variable.
    ///
    /// # Panics
    ///
    /// Panics when the value is not a recognized policy spelling. A typo'd
    /// `ARCHREL_SOLVER` used to fall back silently to the default policy,
    /// running an entire analysis (or CI matrix job) under the wrong
    /// backend; an unrecognized value is now a hard error that lists the
    /// accepted values.
    pub fn parse_env_value(raw: &str) -> SolverPolicy {
        SolverPolicy::parse(raw).unwrap_or_else(|| {
            panic!(
                "unrecognized ARCHREL_SOLVER value `{raw}`: \
                 expected one of auto, dense, sparse, compiled"
            )
        })
    }

    /// Policy forced by the `ARCHREL_SOLVER` environment variable, if set.
    /// An empty value counts as unset (CI matrices expand absent entries to
    /// empty strings).
    ///
    /// # Panics
    ///
    /// Panics when the variable is set to an unrecognized value (see
    /// [`SolverPolicy::parse_env_value`]).
    pub fn from_env() -> Option<SolverPolicy> {
        std::env::var("ARCHREL_SOLVER")
            .ok()
            .filter(|v| !v.trim().is_empty())
            .map(|v| SolverPolicy::parse_env_value(&v))
    }

    /// Resolves the direct (non-plan) backend for a chain with `states`
    /// states and `edges` explicit transitions. `Compiled` resolves like
    /// `Auto`: the plan path answers its queries first, so this choice only
    /// matters as a fallback.
    pub(crate) fn choose(self, states: usize, edges: usize) -> ChosenSolver {
        match self {
            SolverPolicy::Dense => ChosenSolver::Dense,
            SolverPolicy::Sparse => ChosenSolver::Sparse,
            SolverPolicy::Auto | SolverPolicy::Compiled => {
                let density = edges as f64 / (states as f64 * states as f64);
                if states <= AUTO_DENSE_MAX_STATES
                    || (states <= AUTO_DENSE_DENSITY_MAX_STATES && density >= AUTO_DENSE_DENSITY)
                {
                    ChosenSolver::Dense
                } else {
                    ChosenSolver::Sparse
                }
            }
        }
    }

    /// Whether a chain with `states` states and `edges` explicit
    /// transitions is answered from a compiled plan: `Some(acyclic_only)`
    /// — `Compiled` compiles every structure, `Auto` only acyclic ones in
    /// its sparse regime — or `None` when the direct solver answers.
    pub(crate) fn plan_compilation(self, states: usize, edges: usize) -> Option<bool> {
        match self {
            SolverPolicy::Compiled => Some(false),
            SolverPolicy::Auto if self.choose(states, edges) == ChosenSolver::Sparse => Some(true),
            _ => None,
        }
    }
}

/// Number of evaluations of one target before the [`Evaluator`] compiles
/// it into an [`crate::AssemblyProgram`] — the register-file evaluation
/// layer that replaces the recursive walk for repeated evaluations of one
/// target, bitwise identical to it. Compilation costs about one recursive
/// evaluation, so compiling on the second sight already pays off, while a
/// target evaluated once (a one-shot CLI call) never pays for it;
/// [`Evaluator::failure_probabilities`] counts each point, so a batch of
/// two or more compiles before its first point. Sightings count per
/// [`ValueCache`], across every evaluator attaching it: the `archrel
/// serve` daemon's request-scoped evaluators over one catalog entry
/// compile at the entry's second request for a target. Cyclic
/// dependency graphs compile like acyclic ones (their loop components run
/// the program's fixed-point driver); a target that cannot compile stays on
/// the recursive path.
pub const AUTO_PROGRAM_MIN_SEEN: u64 = 2;

/// Options controlling an [`Evaluator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOptions {
    /// Cycle handling (defaults to [`CycleMode::Error`]).
    pub cycle_mode: CycleMode,
    /// Solver policy (defaults to [`SolverPolicy::Auto`], unless the
    /// `ARCHREL_SOLVER` environment variable forces a policy).
    pub solver: SolverPolicy,
    /// Tolerance / sweep budget / scheme for the sparse path's iterative
    /// fallback on cyclic chains.
    pub sparse: archrel_markov::SparseSolveOptions,
    /// Fixed-point update scheme for [`CycleMode::FixedPoint`] (defaults to
    /// [`FixedPointMode::Plain`] — the bitwise reference — unless the
    /// `ARCHREL_FIXED_POINT` environment variable forces a mode).
    pub fixed_point: FixedPointMode,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            cycle_mode: CycleMode::default(),
            solver: SolverPolicy::from_env().unwrap_or_default(),
            sparse: archrel_markov::SparseSolveOptions::default(),
            fixed_point: FixedPointMode::from_env().unwrap_or_default(),
        }
    }
}

/// Hard cap on recursion depth, guarding against recursive assemblies whose
/// parameters change on every call (so no `(service, params)` key repeats).
/// Shared with the program fixed-point driver so both engines break runaway
/// recursion at the same depth.
pub(crate) const MAX_DEPTH: usize = 2048;

pub(crate) type CacheKey = (ServiceId, String);

/// Snapshot of an evaluator's solve-cache activity.
///
/// Counters cover the **shared** cross-invocation cache: a *hit* means a
/// `(service, resolved-parameter fingerprint)` lookup was answered without
/// re-solving; a *miss* means the absorbing-chain pipeline ran. `solves` and
/// `solve_time` measure the linear-algebra kernel itself (per composite
/// flow), so `misses ≥ solves` never holds in general — one miss at the top
/// can trigger several solves below it, and per-sweep memo hits avoid
/// re-solves without touching the shared cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Shared-cache lookups answered without evaluation.
    pub hits: u64,
    /// Shared-cache lookups that had to evaluate.
    pub misses: u64,
    /// Absorbing-chain solves performed.
    pub solves: u64,
    /// Total nanoseconds spent inside absorbing-chain solves.
    pub solve_nanos: u64,
    /// Plan-cache lookups answered by an already compiled plan.
    pub plan_hits: u64,
    /// Plan-cache lookups that had to compile (or classify) a structure.
    pub plan_misses: u64,
    /// Plan evaluations answered *without* a refactorization: straight-line
    /// tape replays, back-substitutions against the compile-time baseline
    /// factorization, and Sherman–Morrison rank-1 updates.
    pub rank1_solves: u64,
    /// Plan evaluations that fell back to a full refactorization (more than
    /// one transient row changed, or the rank-1 update was numerically
    /// refused).
    pub full_solves: u64,
    /// Staged parameter rows answered through the lane-blocked replay path
    /// ([`archrel_markov::SolvePlan::evaluate_block`]).
    pub block_points: u64,
    /// Block flushes performed; `block_points / block_flushes` is the mean
    /// lane occupancy of the blocked path.
    pub block_flushes: u64,
    /// Always 0: staged rows, the only feed of the lane-blocked replay, are
    /// built without a chain, so no parameters are extracted. Kept for
    /// existing readers of the field.
    pub extract_nanos: u64,
    /// Nanoseconds the staged sweep drivers spent computing sample
    /// parameters directly into [`ParamBlock`] rows (no intermediate
    /// `Bindings`, no chain rebuild).
    pub stage_nanos: u64,
    /// Nanoseconds spent inside blocked plan replays — the tape replay
    /// itself plus the cyclic lane-by-lane fallback.
    pub replay_nanos: u64,
    /// Compiled plans evicted from the bounded plan cache (LRU on structure
    /// fingerprint).
    pub plan_evictions: u64,
    /// Assembly-program node evaluations answered by a per-service memo
    /// table (bit-exact actual-parameter key).
    pub memo_hits: u64,
    /// Assembly-program node evaluations that had to compute (and then
    /// populated the memo).
    pub memo_misses: u64,
    /// Assembly-program node evaluations answered by a dirty-cone pin: the
    /// node sits outside the declared varied-parameter cone and its inputs
    /// compared bit-equal to the pinned evaluation.
    pub pin_hits: u64,
    /// `(assembly, target)` pairs this evaluator compiled into assembly
    /// programs (a program another evaluator compiled into a shared
    /// [`ValueCache`] counts there).
    pub programs_compiled: u64,
    /// Global fixed-point sweeps performed across all
    /// [`CycleMode::FixedPoint`] evaluations (recursive or program-driven).
    pub fixed_point_sweeps: u64,
    /// Estimate updates replaced by an Aitken Δ² extrapolation
    /// ([`FixedPointMode::Aitken`]).
    pub aitken_accels: u64,
    /// Aitken updates that fell back to plain substitution on a degenerate
    /// denominator.
    pub aitken_fallbacks: u64,
    /// Nontrivial strongly connected components (fixed-point loop
    /// components) across the assembly programs this evaluator compiled.
    pub program_loop_sccs: u64,
    /// Per-SCC member-estimate updates performed by compiled programs'
    /// fixed-point drivers, summed over all loop SCCs.
    pub scc_iterations: u64,
    /// Compiled plans and program bundles loaded (and fully validated)
    /// from the persistent artifact store.
    pub store_hits: u64,
    /// Artifact-store lookups that found no archive on disk.
    pub store_misses: u64,
    /// Artifacts present on disk but rejected by validation — corrupt,
    /// wrong format version, incompatible build, or hostile framing. Each
    /// rejection fell back to fresh compilation.
    pub store_validate_rejects: u64,
    /// Artifacts this process published to the store.
    pub store_writes: u64,
}

impl CacheStats {
    /// Total wall-clock time spent in absorbing-chain solves.
    pub fn solve_time(&self) -> Duration {
        Duration::from_nanos(self.solve_nanos)
    }

    /// Hit fraction of all shared-cache lookups (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Hit fraction of all assembly-program memo lookups, counting pinned
    /// answers as hits (0 when no lookups were made).
    pub fn memo_hit_rate(&self) -> f64 {
        let answered = self.memo_hits + self.pin_hits;
        let total = answered + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            answered as f64 / total as f64
        }
    }

    /// Adds every counter of `other` into `self` (saturating).
    ///
    /// This is the aggregation primitive for callers that sum activity
    /// across many evaluators — the `archrel serve` daemon folding
    /// per-request [`Evaluator::local_stats`] snapshots into one
    /// daemon-wide view. Merge **local** snapshots plus the shared
    /// [`PlanCache::stats`] exactly once; merging full
    /// [`Evaluator::cache_stats`] snapshots would double-count the shared
    /// plan-cache counters, which every evaluator folds in.
    pub fn merge(&mut self, other: &CacheStats) {
        let CacheStats {
            hits,
            misses,
            solves,
            solve_nanos,
            plan_hits,
            plan_misses,
            rank1_solves,
            full_solves,
            block_points,
            block_flushes,
            extract_nanos,
            stage_nanos,
            replay_nanos,
            plan_evictions,
            memo_hits,
            memo_misses,
            pin_hits,
            programs_compiled,
            fixed_point_sweeps,
            aitken_accels,
            aitken_fallbacks,
            program_loop_sccs,
            scc_iterations,
            store_hits,
            store_misses,
            store_validate_rejects,
            store_writes,
        } = *other;
        self.hits = self.hits.saturating_add(hits);
        self.misses = self.misses.saturating_add(misses);
        self.solves = self.solves.saturating_add(solves);
        self.solve_nanos = self.solve_nanos.saturating_add(solve_nanos);
        self.plan_hits = self.plan_hits.saturating_add(plan_hits);
        self.plan_misses = self.plan_misses.saturating_add(plan_misses);
        self.rank1_solves = self.rank1_solves.saturating_add(rank1_solves);
        self.full_solves = self.full_solves.saturating_add(full_solves);
        self.block_points = self.block_points.saturating_add(block_points);
        self.block_flushes = self.block_flushes.saturating_add(block_flushes);
        self.extract_nanos = self.extract_nanos.saturating_add(extract_nanos);
        self.stage_nanos = self.stage_nanos.saturating_add(stage_nanos);
        self.replay_nanos = self.replay_nanos.saturating_add(replay_nanos);
        self.plan_evictions = self.plan_evictions.saturating_add(plan_evictions);
        self.memo_hits = self.memo_hits.saturating_add(memo_hits);
        self.memo_misses = self.memo_misses.saturating_add(memo_misses);
        self.pin_hits = self.pin_hits.saturating_add(pin_hits);
        self.programs_compiled = self.programs_compiled.saturating_add(programs_compiled);
        self.fixed_point_sweeps = self.fixed_point_sweeps.saturating_add(fixed_point_sweeps);
        self.aitken_accels = self.aitken_accels.saturating_add(aitken_accels);
        self.aitken_fallbacks = self.aitken_fallbacks.saturating_add(aitken_fallbacks);
        self.program_loop_sccs = self.program_loop_sccs.saturating_add(program_loop_sccs);
        self.scc_iterations = self.scc_iterations.saturating_add(scc_iterations);
        self.store_hits = self.store_hits.saturating_add(store_hits);
        self.store_misses = self.store_misses.saturating_add(store_misses);
        self.store_validate_rejects = self
            .store_validate_rejects
            .saturating_add(store_validate_rejects);
        self.store_writes = self.store_writes.saturating_add(store_writes);
    }
}

/// Internal atomic counters behind [`CacheStats`]; relaxed ordering is
/// enough because the counters carry no synchronization duty.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    solves: AtomicU64,
    solve_nanos: AtomicU64,
    fixed_point_sweeps: AtomicU64,
    aitken_accels: AtomicU64,
    aitken_fallbacks: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    pin_hits: AtomicU64,
    programs_compiled: AtomicU64,
    program_loop_sccs: AtomicU64,
    scc_iterations: AtomicU64,
}

impl CacheCounters {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            solves: self.solves.load(Ordering::Relaxed),
            solve_nanos: self.solve_nanos.load(Ordering::Relaxed),
            fixed_point_sweeps: self.fixed_point_sweeps.load(Ordering::Relaxed),
            aitken_accels: self.aitken_accels.load(Ordering::Relaxed),
            aitken_fallbacks: self.aitken_fallbacks.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            pin_hits: self.pin_hits.load(Ordering::Relaxed),
            programs_compiled: self.programs_compiled.load(Ordering::Relaxed),
            program_loop_sccs: self.program_loop_sccs.load(Ordering::Relaxed),
            scc_iterations: self.scc_iterations.load(Ordering::Relaxed),
            ..CacheStats::default()
        }
    }
}

/// What the plan cache knows about one flow structure.
#[derive(Debug, Clone)]
pub(crate) enum PlanEntry {
    /// A compiled plan, ready to evaluate.
    Plan(Arc<SolvePlan>),
    /// The structure is cyclic and the caller asked for acyclic-only
    /// compilation (`Auto` promotion): remembered so the sparse fallback is
    /// taken without re-running the classification every solve.
    CyclicUncompiled,
    /// The target is structurally unreachable from the source. The solve
    /// error is remembered verbatim so the plan path reports exactly what
    /// the direct solvers would.
    Unreachable { from: String, target: String },
}

/// Shared, structure-keyed cache of compiled solve plans.
///
/// Keys are [`structure_fingerprint`]s, so the cache is agnostic to which
/// assembly (or perturbed copy of an assembly) produced a chain: parameter
/// sweeps, sensitivity stencils, improvement bisections, and selection
/// enumerations that re-solve one flow structure with different numeric
/// entries all share a single compiled plan. Clone the [`Arc`] holding it
/// into several [`Evaluator::with_plan_cache`] instances to share plans
/// across evaluators (and across threads — all interior state is locked or
/// atomic).
#[derive(Debug)]
pub struct PlanCache {
    plans: RwLock<HashMap<u64, PlanSlot>>,
    /// Per-structure sighting counts driving `Auto` promotion.
    seen: RwLock<HashMap<u64, u64>>,
    /// Maximum number of cached structures before LRU eviction (≥ 1).
    capacity: usize,
    /// Monotone use clock stamping [`PlanSlot::last_used`].
    clock: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    rank1_solves: AtomicU64,
    full_solves: AtomicU64,
    evictions: AtomicU64,
    block_points: AtomicU64,
    block_flushes: AtomicU64,
    /// Per-phase wall-clock attribution of the staged sweep pipeline
    /// (see the matching [`CacheStats`] fields).
    stage_nanos: AtomicU64,
    replay_nanos: AtomicU64,
    /// Group-atomicity gate for multi-counter updates: writers of a counter
    /// *group* (e.g. [`PlanCache::record_block`]'s four related adds) hold a
    /// read guard, while [`PlanCache::stats`] snapshots under the write
    /// guard — so a snapshot never observes a torn group (block flushes
    /// without their points, rank-1 solves without their flush). Individual
    /// counters stay plain relaxed atomics; the gate is only contended for
    /// the duration of a handful of `fetch_add`s.
    stats_gate: RwLock<()>,
    /// Persistent artifact tier: archived plans are loaded instead of
    /// compiled, and fresh compilations are published back.
    store: Option<Arc<ArtifactStore>>,
}

/// One cached structure plus its LRU bookkeeping.
#[derive(Debug)]
struct PlanSlot {
    entry: PlanEntry,
    /// Clock stamp of the last lookup (atomic so the read path can touch it
    /// under the map's read lock).
    last_used: AtomicU64,
}

/// Default [`PlanCache`] capacity: deliberately generous — an assembly has
/// one flow structure per composite service, so thousands of structures only
/// arise in long multi-assembly batch runs, exactly the workloads the bound
/// protects from unbounded growth.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 4096;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// Creates an empty plan cache with the default capacity
    /// ([`DEFAULT_PLAN_CACHE_CAPACITY`]).
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Creates an empty plan cache holding at most `capacity` structures
    /// (clamped to at least 1); beyond that, the least-recently-used
    /// structure is evicted and counted in
    /// [`CacheStats::plan_evictions`].
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            plans: RwLock::new(HashMap::new()),
            seen: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            rank1_solves: AtomicU64::new(0),
            full_solves: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            block_points: AtomicU64::new(0),
            block_flushes: AtomicU64::new(0),
            stage_nanos: AtomicU64::new(0),
            replay_nanos: AtomicU64::new(0),
            stats_gate: RwLock::new(()),
            store: ArtifactStore::from_env(),
        }
    }

    /// Attaches a persistent artifact store (or detaches with `None`),
    /// replacing whatever `ARCHREL_ARTIFACT_DIR` configured. Archived plans
    /// then satisfy cache misses without compiling, and fresh compilations
    /// are published back when the store's mode writes.
    pub fn with_artifact_store(mut self, store: Option<Arc<ArtifactStore>>) -> Self {
        self.store = store;
        self
    }

    /// The persistent artifact store this cache reads through, if any.
    pub fn artifact_store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// Maximum number of structures the cache retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of flow structures currently cached (compiled or classified).
    pub fn len(&self) -> usize {
        self.plans.read().len()
    }

    /// Whether the cache holds no structures yet.
    pub fn is_empty(&self) -> bool {
        self.plans.read().is_empty()
    }

    /// Structures evicted so far under the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Bumps and returns the sighting count of a structure.
    fn note_seen(&self, fingerprint: u64) -> u64 {
        let mut seen = self.seen.write();
        let count = seen.entry(fingerprint).or_insert(0);
        *count += 1;
        *count
    }

    /// Looks up (or compiles) the entry for a structure. With
    /// `acyclic_only`, cyclic structures are classified but not compiled.
    pub(crate) fn entry(
        &self,
        fingerprint: u64,
        chain: &archrel_markov::Dtmc<AugmentedState>,
        from: &AugmentedState,
        target: &AugmentedState,
        acyclic_only: bool,
    ) -> archrel_markov::Result<PlanEntry> {
        if let Some(slot) = self.plans.read().get(&fingerprint) {
            // An acyclic-only caller can use a fully compiled entry, but a
            // `CyclicUncompiled` marker does not satisfy a full-compilation
            // request — fall through and compile in that case.
            if !matches!(
                (acyclic_only, &slot.entry),
                (false, PlanEntry::CyclicUncompiled)
            ) {
                slot.last_used.store(self.tick(), Ordering::Relaxed);
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(slot.entry.clone());
            }
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        // Read-through: an archived artifact for this structure (published
        // by an earlier process sharing the artifact directory) replaces
        // the compile step entirely. An acyclic-only caller ignores an
        // archived *cyclic* plan so the `Auto` classification outcome — and
        // hence every downstream number — matches a store-less run exactly.
        let archived = self.store.as_ref().and_then(|store| {
            store
                .load_plan(fingerprint)
                .filter(|plan| !acyclic_only || plan.is_acyclic())
                .map(Arc::new)
        });
        let fresh = match archived {
            Some(plan) => PlanEntry::Plan(plan),
            None => {
                let compiled = if acyclic_only {
                    SolvePlan::compile_acyclic(chain, from, target).map(|p| p.map(Arc::new))
                } else {
                    SolvePlan::compile(chain, from, target).map(|p| Some(Arc::new(p)))
                };
                match compiled {
                    Ok(Some(plan)) => {
                        // Write-behind: publication failures are non-fatal
                        // (the in-memory plan is used either way) and
                        // surface only through the store's counters.
                        if let Some(store) = &self.store {
                            let _ = store.store_plan(&plan);
                        }
                        PlanEntry::Plan(plan)
                    }
                    Ok(None) => PlanEntry::CyclicUncompiled,
                    Err(archrel_markov::MarkovError::UnreachableTarget { from, target }) => {
                        PlanEntry::Unreachable { from, target }
                    }
                    // Other validation errors (trapped mass, not an
                    // absorbing chain, ...) are not cached: the direct
                    // solvers re-derive them and the caller propagates them
                    // either way.
                    Err(e) => return Err(e),
                }
            }
        };
        let stamp = self.tick();
        let mut plans = self.plans.write();
        let entry = match plans.entry(fingerprint) {
            // First insertion wins, so concurrent compilers of the same
            // structure all converge on one shared plan instance...
            std::collections::hash_map::Entry::Occupied(mut occupied) => {
                let slot = occupied.get_mut();
                // ...except a full compilation upgrades a cyclic marker.
                if matches!(slot.entry, PlanEntry::CyclicUncompiled)
                    && matches!(fresh, PlanEntry::Plan(_))
                {
                    slot.entry = fresh;
                }
                slot.last_used.store(stamp, Ordering::Relaxed);
                slot.entry.clone()
            }
            std::collections::hash_map::Entry::Vacant(vacant) => {
                vacant.insert(PlanSlot {
                    entry: fresh.clone(),
                    last_used: AtomicU64::new(stamp),
                });
                fresh
            }
        };
        self.evict_to_capacity(&mut plans, fingerprint);
        Ok(entry)
    }

    /// LRU bound: drops the stalest structures (never `keep`, the one just
    /// touched) and forgets their sighting counts, so a re-promotion under
    /// `Auto` starts from a cold count again.
    fn evict_to_capacity(&self, plans: &mut HashMap<u64, PlanSlot>, keep: u64) {
        while plans.len() > self.capacity {
            let victim = plans
                .iter()
                .filter(|(&fp, _)| fp != keep)
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(&fp, _)| fp);
            let Some(fp) = victim else { break };
            plans.remove(&fp);
            self.seen.write().remove(&fp);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record(&self, kind: PlanSolveKind) {
        match kind {
            PlanSolveKind::Tape | PlanSolveKind::Rank1 => {
                self.rank1_solves.fetch_add(1, Ordering::Relaxed)
            }
            PlanSolveKind::Full => self.full_solves.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Folds one block flush's per-lane solve kinds into the counters.
    ///
    /// The whole group lands under one `stats_gate` read guard so a
    /// concurrent [`PlanCache::stats`] snapshot sees the flush together
    /// with its points and solve kinds, never a torn mixture.
    fn record_block(&self, kinds: BlockSolveKinds) {
        let _group = self.stats_gate.read();
        self.rank1_solves
            .fetch_add(kinds.tape + kinds.rank1, Ordering::Relaxed);
        self.full_solves.fetch_add(kinds.full, Ordering::Relaxed);
        self.block_points
            .fetch_add(kinds.tape + kinds.rank1 + kinds.full, Ordering::Relaxed);
        self.block_flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one block flush's plan replay nanoseconds into the counters.
    fn record_replay_nanos(&self, replay: u64) {
        if replay > 0 {
            self.replay_nanos.fetch_add(replay, Ordering::Relaxed);
        }
    }

    /// Folds staged-driver sample staging time into the counters.
    pub(crate) fn record_stage_nanos(&self, stage: u64) {
        if stage > 0 {
            self.stage_nanos.fetch_add(stage, Ordering::Relaxed);
        }
    }

    /// A snapshot of this cache's own counters (plan hits/misses, solve
    /// kinds, blocked-replay tallies, and the stage/replay phase
    /// nanoseconds). Callers that share one cache across many short-lived
    /// evaluators — the sweep drivers, the benches — read the sweep-wide
    /// phase split here; [`Evaluator::cache_stats`] folds the same counters
    /// into its per-evaluator view.
    ///
    /// The snapshot is *group-atomic*: multi-counter update groups (one
    /// block flush's points + flush + solve kinds) are excluded for the
    /// duration of the read, so related counters are always mutually
    /// consistent — the invariant the daemon's `stats` op relies on when
    /// aggregating across concurrent requests.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        self.fold_into(&mut stats);
        stats
    }

    fn fold_into(&self, stats: &mut CacheStats) {
        // Write guard: waits out in-flight counter groups and blocks new
        // ones while the snapshot loads, making the group updates atomic
        // with respect to this read (seqlock-style, but blocking).
        let _snapshot = self.stats_gate.write();
        stats.plan_hits = self.plan_hits.load(Ordering::Relaxed);
        stats.plan_misses = self.plan_misses.load(Ordering::Relaxed);
        stats.rank1_solves = self.rank1_solves.load(Ordering::Relaxed);
        stats.full_solves = self.full_solves.load(Ordering::Relaxed);
        stats.block_points = self.block_points.load(Ordering::Relaxed);
        stats.block_flushes = self.block_flushes.load(Ordering::Relaxed);
        stats.stage_nanos = self.stage_nanos.load(Ordering::Relaxed);
        stats.replay_nanos = self.replay_nanos.load(Ordering::Relaxed);
        stats.plan_evictions = self.evictions.load(Ordering::Relaxed);
        if let Some(store) = &self.store {
            let s = store.stats();
            stats.store_hits = s.hits;
            stats.store_misses = s.misses;
            stats.store_validate_rejects = s.validate_rejects;
            stats.store_writes = s.writes;
        }
    }

    /// Installs archived plans for the given structure fingerprints ahead
    /// of demand (a compiled program's bundle warm-start); returns how many
    /// were loaded. Only *acyclic* archives are installed: an `Auto` caller
    /// must reach the same classification outcome as a store-less run (a
    /// pre-installed cyclic plan would silently replace its sparse
    /// fallback), while full-compilation callers still pick archived cyclic
    /// plans up through the read-through path.
    pub fn prefetch_archived(&self, fingerprints: &[u64]) -> usize {
        let Some(store) = &self.store else { return 0 };
        let mut loaded = 0;
        for &fingerprint in fingerprints {
            if self.plans.read().contains_key(&fingerprint) {
                continue;
            }
            let Some(plan) = store.load_plan(fingerprint).filter(|p| p.is_acyclic()) else {
                continue;
            };
            let stamp = self.tick();
            let mut plans = self.plans.write();
            plans.entry(fingerprint).or_insert_with(|| {
                loaded += 1;
                PlanSlot {
                    entry: PlanEntry::Plan(Arc::new(plan)),
                    last_used: AtomicU64::new(stamp),
                }
            });
            self.evict_to_capacity(&mut plans, fingerprint);
        }
        loaded
    }
}

/// Store digest of one `(assembly, target)` program. Hashes the assembly's
/// full debug rendering (deterministic: services live in a `BTreeMap`), so
/// any model change — structure *or* numbers — keys a different bundle.
/// Conservative over-keying only costs a warm-start, never correctness.
fn program_digest(assembly: &Assembly, service: &ServiceId) -> u64 {
    archrel_store::fnv1a64(format!("{assembly:?}|{service:?}").as_bytes())
}

thread_local! {
    /// Per-thread parameter buffer + plan scratch for the scalar compiled
    /// path: after warm-up, a sweep's plan evaluations perform no heap
    /// allocation per point.
    static PLAN_EVAL_TLS: RefCell<(Vec<f64>, PlanScratch)> =
        RefCell::new((Vec::new(), PlanScratch::new()));
}

/// Per-request resolution detail, reused by the report module.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedRequest {
    pub target: ServiceId,
    pub internal: Probability,
    pub external: Probability,
}

/// Per-state resolution detail, reused by the report module.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedState {
    pub state: StateId,
    pub failure: Probability,
    pub requests: Vec<ResolvedRequest>,
}

struct Ctx<'e> {
    stack: Vec<CacheKey>,
    /// Per-sweep memo (always consistent: estimates are fixed for a sweep).
    memo: HashMap<CacheKey, Probability>,
    /// Fixed-point estimates from the previous sweep; `None` in Error mode.
    estimates: Option<&'e HashMap<CacheKey, f64>>,
    /// Keys at which a cycle was broken this sweep.
    cycle_keys: HashSet<CacheKey>,
    /// When set, `estimates` holds *converged* values and answers matching
    /// keys directly (not just at stack re-entries) — the post-convergence
    /// resolve pass of [`Evaluator::resolve_states_fresh`]. Never set
    /// during iteration: sweeps must recompute through the cycle.
    overlay: bool,
}

/// The reliability-prediction engine for one assembly.
///
/// Cheap to construct; holds a [`ValueCache`] — a memo keyed by
/// `(service, resolved parameters)` plus the compiled program of every
/// promoted target — so parameter sweeps that share sub-invocations (e.g.
/// Figure 6's per-γ curves) reuse work. The evaluator is `Sync`: the cache
/// is behind locks, so it can be shared across threads.
///
/// # Examples
///
/// ```
/// use archrel_core::Evaluator;
/// use archrel_model::paper;
///
/// # fn main() -> Result<(), archrel_core::CoreError> {
/// let assembly = paper::remote_assembly(&paper::PaperParams::default()).unwrap();
/// let eval = Evaluator::new(&assembly);
/// let pfail = eval.failure_probability(
///     &paper::SEARCH.into(),
///     &paper::search_bindings(4.0, 512.0, 1.0),
/// )?;
/// assert!(pfail.value() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    assembly: &'a Assembly,
    options: EvalOptions,
    values: Arc<ValueCache>,
    counters: CacheCounters,
    plans: Arc<PlanCache>,
    /// Declared varied-parameter subsets (dirty-cone hints), each with its
    /// cone once computed against the target's program. Scoped to this
    /// evaluator: the program itself may be shared through the value
    /// cache, and a cone stored there would change every later caller.
    varied: RwLock<HashMap<ServiceId, VariedDecl>>,
    /// Cooperative cancellation handle (see [`Evaluator::with_cancellation`]);
    /// `None` means evaluations run to completion.
    cancel: Option<CancelToken>,
}

/// One [`Evaluator::declare_varied`] declaration.
#[derive(Debug)]
struct VariedDecl {
    names: Vec<String>,
    /// The declaration's dirty cone over the target's program, computed at
    /// the first evaluation through it.
    cone: OnceLock<Arc<[bool]>>,
}

/// A shareable `(service, resolved-parameter)` → [`Probability`] memo,
/// together with the compiled [`AssemblyProgram`] of every target promoted
/// through it.
///
/// Unlike the structure-keyed [`PlanCache`], cached *values* — and the
/// programs, which bake every model number into their node tables and memo
/// tables — depend on the assembly's numbers, so a `ValueCache` may only be
/// shared across evaluators of the **same assembly content** under the
/// same [`EvalOptions`], never across numeric variants. Long-lived hosts
/// that build a short-lived [`Evaluator`] per request over one resident
/// model (the `archrel serve` daemon's catalog entries) attach one shared
/// cache per model version via [`Evaluator::with_value_cache`], so a
/// repeated query is a memo hit instead of a fresh solve, and program
/// sightings count across all of those evaluators: the second request for
/// a target compiles its program and every later miss runs it. A hot-swap
/// allocates a fresh cache (no program survives into the next version)
/// while the plan cache stays warm.
#[derive(Debug, Default)]
pub struct ValueCache {
    memo: RwLock<HashMap<CacheKey, Probability>>,
    /// Compiled assembly programs (and their promotion bookkeeping), one
    /// slot per target service.
    programs: RwLock<HashMap<ServiceId, ProgramSlot>>,
}

impl ValueCache {
    /// An empty cache.
    pub fn new() -> Self {
        ValueCache::default()
    }

    /// Number of memoized `(service, parameter-fingerprint)` results.
    pub fn len(&self) -> usize {
        self.memo.read().len()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Program-promotion state of one target service.
#[derive(Debug)]
enum ProgramSlot {
    /// Still on the recursive path; counts evaluations toward
    /// [`AUTO_PROGRAM_MIN_SEEN`].
    Pending { seen: u64 },
    /// Compiled and answering evaluations.
    Ready(Arc<AssemblyProgram>),
    /// Compilation failed (e.g. a malformed expression): remembered so the
    /// recursive path is taken without re-attempting compilation.
    Failed,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with default options (cycles are errors).
    pub fn new(assembly: &'a Assembly) -> Self {
        Evaluator::with_options(assembly, EvalOptions::default())
    }

    /// Creates an evaluator with explicit options.
    pub fn with_options(assembly: &'a Assembly, options: EvalOptions) -> Self {
        Evaluator::with_plan_cache(assembly, options, Arc::new(PlanCache::new()))
    }

    /// Creates an evaluator that shares a compiled-plan cache.
    ///
    /// The value cache (keyed by resolved parameters) stays private to each
    /// evaluator, but plans are keyed purely by flow *structure*, so
    /// workloads that build many short-lived evaluators over structurally
    /// identical assemblies — improvement bisections, selection
    /// enumerations, uncertainty sampling — pass one shared cache and
    /// compile each structure once.
    pub fn with_plan_cache(
        assembly: &'a Assembly,
        options: EvalOptions,
        plans: Arc<PlanCache>,
    ) -> Self {
        Evaluator {
            assembly,
            options,
            values: Arc::new(ValueCache::new()),
            counters: CacheCounters::default(),
            plans,
            varied: RwLock::new(HashMap::new()),
            cancel: None,
        }
    }

    /// Attaches a cooperative cancellation token: evaluations check it at
    /// every composite-service resolution, every fixed-point sweep, and
    /// every staged sweep point, failing fast with the token's typed error
    /// ([`crate::CoreError::Cancelled`] /
    /// [`crate::CoreError::DeadlineExceeded`]) once it trips. The `archrel
    /// serve` daemon uses this to enforce per-request deadlines without
    /// killing worker threads.
    pub fn with_cancellation(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Attaches a shared value cache (see [`ValueCache`] for the sharing
    /// contract: same assembly *content* and options only). Replaces this
    /// evaluator's private memo and program table, so results computed
    /// here — and programs compiled here — are visible to every other
    /// evaluator holding the same handle and vice versa; sightings of a
    /// target count across all of them. Counters, the cancellation token
    /// and [`Evaluator::declare_varied`] declarations stay per evaluator.
    #[must_use]
    pub fn with_value_cache(mut self, values: Arc<ValueCache>) -> Self {
        self.values = values;
        self
    }

    /// The evaluator's value cache (clone the `Arc` to share it with other
    /// evaluators of the same assembly content).
    pub fn value_cache(&self) -> &Arc<ValueCache> {
        &self.values
    }

    /// Fails with the token's typed error if cancellation has tripped
    /// (shared with the program path).
    #[inline]
    pub(crate) fn check_cancel(&self) -> Result<()> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// The evaluator's compiled-plan cache (clone the `Arc` to share it).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// The assembly under evaluation.
    pub fn assembly(&self) -> &'a Assembly {
        self.assembly
    }

    /// The evaluator's options.
    pub fn options(&self) -> EvalOptions {
        self.options
    }

    /// A snapshot of the shared solve cache's hit/miss/solve counters,
    /// including the (possibly shared) plan cache's activity.
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self.local_stats();
        self.plans.fold_into(&mut stats);
        stats
    }

    /// Like [`Evaluator::cache_stats`] but restricted to counters private
    /// to this evaluator — the value-cache hits/misses/solves, the program
    /// memo/pin/SCC counters of its own evaluations and the programs it
    /// compiled — *without* folding in the (possibly shared)
    /// [`PlanCache`]. Every event lands in exactly one evaluator, even on a
    /// program shared through a [`ValueCache`]. Aggregators summing many
    /// evaluators over one shared plan cache (the `archrel serve` daemon's
    /// `stats` op) merge these local snapshots and add
    /// [`PlanCache::stats`] exactly once; summing [`Evaluator::cache_stats`]
    /// instead would count the shared plan-cache activity once per
    /// evaluator.
    pub fn local_stats(&self) -> CacheStats {
        self.counters.snapshot()
    }

    /// Number of `(service, parameter-fingerprint)` results currently held
    /// by the shared cache.
    pub fn cache_len(&self) -> usize {
        self.values.memo.read().len()
    }

    /// Declares that upcoming evaluations of `service` will only vary the
    /// given formal parameters, enabling dirty-cone pinning: services whose
    /// inputs cannot depend on any declared parameter are evaluated once
    /// and answered from a bit-compare-guarded pin thereafter (see
    /// [`CacheStats::pin_hits`]). The guard makes a wrong or stale
    /// declaration cost recomputation, never correctness. Applies to this
    /// evaluator's evaluations through the target's compiled program (now
    /// or once it compiles), never to other evaluators sharing that program
    /// through a [`ValueCache`]; the recursive path ignores the hint.
    pub fn declare_varied(&self, service: &ServiceId, names: &[String]) {
        self.varied.write().insert(
            service.clone(),
            VariedDecl {
                names: names.to_vec(),
                cone: OnceLock::new(),
            },
        );
    }

    /// Withdraws a [`Evaluator::declare_varied`] declaration: every service
    /// of the target's program goes back to the hashed memo.
    pub fn clear_varied(&self, service: &ServiceId) {
        self.varied.write().remove(service);
    }

    /// The dirty cone this evaluator declared for `service`, computed
    /// against its program on first use; `None` without a declaration.
    fn declared_cone(&self, service: &ServiceId, program: &AssemblyProgram) -> Option<Arc<[bool]>> {
        let varied = self.varied.read();
        let decl = varied.get(service)?;
        Some(Arc::clone(
            decl.cone.get_or_init(|| program.dirty_cone(&decl.names)),
        ))
    }

    /// The compiled program currently answering evaluations of `service`,
    /// if one has been promoted into place.
    pub fn program(&self, service: &ServiceId) -> Option<Arc<AssemblyProgram>> {
        match self.values.programs.read().get(service) {
            Some(ProgramSlot::Ready(program)) => Some(Arc::clone(program)),
            _ => None,
        }
    }

    /// Resolves the program slot for a target about to be evaluated
    /// `weight` times: `Some(..)` when a compiled program should answer,
    /// `None` when the recursive path should run. The target compiles once
    /// it has been seen [`AUTO_PROGRAM_MIN_SEEN`] times by the evaluators
    /// sharing this value cache; a compilation error demotes it to the
    /// recursive path permanently.
    fn ensure_program(&self, service: &ServiceId, weight: u64) -> Option<Arc<AssemblyProgram>> {
        {
            let programs = self.values.programs.read();
            match programs.get(service) {
                Some(ProgramSlot::Ready(program)) => return Some(Arc::clone(program)),
                Some(ProgramSlot::Failed) => return None,
                _ => {}
            }
        }
        let mut programs = self.values.programs.write();
        // Re-check: another thread may have resolved the slot between locks.
        let seen = match programs.get(service) {
            Some(ProgramSlot::Ready(program)) => return Some(Arc::clone(program)),
            Some(ProgramSlot::Failed) => return None,
            Some(ProgramSlot::Pending { seen }) => seen + weight,
            None => weight,
        };
        if seen < AUTO_PROGRAM_MIN_SEEN {
            programs.insert(service.clone(), ProgramSlot::Pending { seen });
            return None;
        }
        let Ok(program) = AssemblyProgram::compile(self.assembly, service) else {
            programs.insert(service.clone(), ProgramSlot::Failed);
            return None;
        };
        self.counters
            .programs_compiled
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .program_loop_sccs
            .fetch_add(program.loop_scc_count() as u64, Ordering::Relaxed);
        // Bundle warm-start: an earlier process that ran this same program
        // published the fingerprints of the plans it pinned; installing
        // their archives now lets even the first evaluation skip every
        // per-node compile.
        if let Some(store) = self.plans.artifact_store() {
            if store.mode().reads() {
                if let Some(fps) = store.load_bundle(program_digest(self.assembly, service)) {
                    self.plans.prefetch_archived(&fps);
                }
            }
        }
        let program = Arc::new(program);
        programs.insert(service.clone(), ProgramSlot::Ready(Arc::clone(&program)));
        Some(program)
    }

    /// One evaluation through a compiled program, with the same shared
    /// top-level cache discipline as the recursive path.
    fn failure_probability_via_program(
        &self,
        program: &AssemblyProgram,
        cone: Option<&[bool]>,
        service: &ServiceId,
        env: &Bindings,
    ) -> Result<Probability> {
        self.check_cancel()?;
        let key: CacheKey = (service.clone(), env.cache_key());
        if let Some(p) = self.values.memo.read().get(&key) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(*p);
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let p = program.evaluate(self, env, cone)?;
        self.publish_program_bundle(service, program);
        self.values.memo.write().insert(key, p);
        Ok(p)
    }

    /// Publishes the program's pinned-plan bundle to the artifact store —
    /// once per program, however many evaluators share it, after the first
    /// evaluation that pinned at least one plan (pinning happens during
    /// evaluation, so the set is complete by the time an evaluation
    /// returns). Publication failures are non-fatal.
    fn publish_program_bundle(&self, service: &ServiceId, program: &AssemblyProgram) {
        let Some(store) = self.plans.artifact_store() else {
            return;
        };
        if !store.mode().writes() || program.bundle_published() {
            return;
        }
        let fingerprints = program.pinned_plan_fingerprints();
        if fingerprints.is_empty() || !program.claim_bundle_publication() {
            return;
        }
        let _ = store.store_bundle(program_digest(self.assembly, service), &fingerprints);
    }

    /// Counts one program memo lookup (shared with the program path).
    pub(crate) fn note_memo(&self, hit: bool) {
        let counter = if hit {
            &self.counters.memo_hits
        } else {
            &self.counters.memo_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one dirty-cone pin answer (shared with the program path).
    pub(crate) fn note_pin_hit(&self) {
        self.counters.pin_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one program fixed-point sweep's member-estimate updates.
    pub(crate) fn note_scc_iterations(&self, updates: u64) {
        self.counters
            .scc_iterations
            .fetch_add(updates, Ordering::Relaxed);
    }

    /// Records one plan-path solve kind (shared with the program path).
    pub(crate) fn record_plan_solve(&self, kind: PlanSolveKind) {
        self.plans.record(kind);
    }

    /// Folds one absorbing-chain solve into the solve counters (shared
    /// with the program path).
    pub(crate) fn note_chain_solve(&self, elapsed: Duration) {
        self.counters.solves.fetch_add(1, Ordering::Relaxed);
        self.counters.solve_nanos.fetch_add(
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// Folds one finished fixed-point solve's sweep / acceleration counters
    /// into the cache stats (shared with the program fixed-point driver).
    pub(crate) fn note_fixed_point<K>(&self, solver: &FixedPointSolver<K>) {
        self.counters
            .fixed_point_sweeps
            .fetch_add(solver.sweeps(), Ordering::Relaxed);
        self.counters
            .aitken_accels
            .fetch_add(solver.accels(), Ordering::Relaxed);
        self.counters
            .aitken_fallbacks
            .fetch_add(solver.fallbacks(), Ordering::Relaxed);
    }

    /// Whether the solver policy can ever route a chain of this shape
    /// through the plan path (so the program's cached chains know whether
    /// to keep asking [`Evaluator::plan_for_chain`]).
    pub(crate) fn plan_gate(&self, states: usize, edges: usize) -> bool {
        self.options
            .solver
            .plan_compilation(states, edges)
            .is_some()
    }

    /// `Pfail(S, fp)`: probability that `service` fails to complete its task
    /// when invoked with formal parameters bound by `env`.
    ///
    /// # Errors
    ///
    /// - [`CoreError::RecursiveAssembly`] in [`CycleMode::Error`] when the
    ///   assembly has a call cycle (or recursion exceeds the depth cap);
    /// - [`CoreError::FixedPointDiverged`] when fixed-point iteration does
    ///   not converge;
    /// - expression / model / Markov errors from malformed inputs.
    pub fn failure_probability(&self, service: &ServiceId, env: &Bindings) -> Result<Probability> {
        let program = self.ensure_program(service, 1);
        let cone = program
            .as_ref()
            .and_then(|p| self.declared_cone(service, p));
        self.evaluate(program.as_deref(), cone.as_deref(), service, env)
    }

    /// `Pfail` for many parameter points of **one** service, in input
    /// order.
    ///
    /// Identical, bitwise, to calling [`Evaluator::failure_probability`]
    /// per point, except that the batch counts as one sighting per point:
    /// a batch of two or more points compiles the target's program (see
    /// [`AUTO_PROGRAM_MIN_SEEN`]) before its first point. Errors are
    /// per-point: one malformed point yields an `Err` in its slot without
    /// poisoning the rest.
    pub fn failure_probabilities(
        &self,
        service: &ServiceId,
        envs: &[&Bindings],
    ) -> Vec<Result<Probability>> {
        let program = self.ensure_program(service, envs.len() as u64);
        let cone = program
            .as_ref()
            .and_then(|p| self.declared_cone(service, p));
        envs.iter()
            .map(|env| self.evaluate(program.as_deref(), cone.as_deref(), service, env))
            .collect()
    }

    /// One evaluation on the engine the sighting rule picked: `program`
    /// (under this evaluator's declared dirty `cone`) when it compiled, the
    /// recursive walk otherwise.
    fn evaluate(
        &self,
        program: Option<&AssemblyProgram>,
        cone: Option<&[bool]>,
        service: &ServiceId,
        env: &Bindings,
    ) -> Result<Probability> {
        match self.options.cycle_mode {
            CycleMode::Error => {
                if let Some(program) = program {
                    return self.failure_probability_via_program(program, cone, service, env);
                }
                // As on the program path, a tripped token wins over a value
                // the shared cache could answer.
                self.check_cancel()?;
                let mut ctx = Ctx {
                    stack: Vec::new(),
                    memo: HashMap::new(),
                    estimates: None,
                    cycle_keys: HashSet::new(),
                    overlay: false,
                };
                let p = self.eval_rec(service, env, &mut ctx)?;
                // All values computed without estimates are exact: persist.
                self.values.memo.write().extend(ctx.memo);
                Ok(p)
            }
            CycleMode::FixedPoint {
                max_iterations,
                tolerance,
            } => {
                if let Some(program) = program {
                    if program.has_cycles() {
                        // Cyclic target: the program's global fixed-point
                        // driver. Like the recursive sweeps, it never reads
                        // or writes the shared value cache — estimates are
                        // sweep-local state.
                        let p = program.evaluate_fixed_point(
                            self,
                            env,
                            cone,
                            max_iterations,
                            tolerance,
                        )?;
                        self.publish_program_bundle(service, program);
                        return Ok(p);
                    }
                    // Acyclic target under fixed-point mode: every value is
                    // exact, so the normal program path (with its caches)
                    // answers bitwise-identically.
                    return self.failure_probability_via_program(program, cone, service, env);
                }
                self.eval_fixed_point(service, env, max_iterations, tolerance)
            }
        }
    }

    /// Reliability `1 − Pfail(S, fp)`.
    ///
    /// # Errors
    ///
    /// See [`Evaluator::failure_probability`].
    pub fn reliability(&self, service: &ServiceId, env: &Bindings) -> Result<Probability> {
        Ok(self.failure_probability(service, env)?.complement())
    }

    fn eval_fixed_point(
        &self,
        service: &ServiceId,
        env: &Bindings,
        max_iterations: usize,
        tolerance: f64,
    ) -> Result<Probability> {
        self.fixed_point_converged(service, env, max_iterations, tolerance)
            .map(|(top, _)| top)
    }

    /// Runs the recursive fixed-point sweeps to convergence, returning the
    /// top value together with the solver (whose estimates map holds the
    /// converged cycle-key values — the seed for the post-convergence
    /// resolve pass of [`Evaluator::resolve_states_fresh`]).
    fn fixed_point_converged(
        &self,
        service: &ServiceId,
        env: &Bindings,
        max_iterations: usize,
        tolerance: f64,
    ) -> Result<(Probability, FixedPointSolver<CacheKey>)> {
        let mut solver: FixedPointSolver<CacheKey> =
            FixedPointSolver::new(self.options.fixed_point, max_iterations, tolerance);
        for _ in 0..max_iterations {
            self.check_cancel()?;
            let (top, cycle_keys, sweep_values) = {
                let mut ctx = Ctx {
                    stack: Vec::new(),
                    memo: HashMap::new(),
                    estimates: Some(solver.estimates()),
                    cycle_keys: HashSet::new(),
                    overlay: false,
                };
                let top = self.eval_rec(service, env, &mut ctx)?;
                (top, ctx.cycle_keys, ctx.memo)
            };
            if cycle_keys.is_empty() {
                // No recursion anywhere below: the value is exact.
                solver.note_exact_sweep();
                self.note_fixed_point(&solver);
                self.values.memo.write().extend(sweep_values);
                return Ok((top, solver));
            }
            let converged = solver.record_sweep(
                top.value(),
                cycle_keys
                    .iter()
                    .filter_map(|key| sweep_values.get(key).map(|v| (key.clone(), v.value()))),
            );
            if converged {
                self.note_fixed_point(&solver);
                return Ok((top, solver));
            }
        }
        self.note_fixed_point(&solver);
        Err(solver.diverged())
    }

    fn eval_rec(
        &self,
        service: &ServiceId,
        env: &Bindings,
        ctx: &mut Ctx<'_>,
    ) -> Result<Probability> {
        let key: CacheKey = (service.clone(), env.cache_key());
        if let Some(p) = ctx.memo.get(&key) {
            return Ok(*p);
        }
        if ctx.overlay {
            if let Some(&estimate) = ctx.estimates.and_then(|e| e.get(&key)) {
                return Ok(Probability::new(estimate)?);
            }
        }
        if ctx.estimates.is_none() {
            if let Some(p) = self.values.memo.read().get(&key) {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(*p);
            }
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
        }
        if ctx.stack.contains(&key) || ctx.stack.len() >= MAX_DEPTH {
            return match ctx.estimates {
                None => Err(self.cycle_error(&ctx.stack, &key)),
                Some(estimates) => {
                    let estimate = estimates.get(&key).copied().unwrap_or(0.0);
                    ctx.cycle_keys.insert(key);
                    Ok(Probability::new(estimate)?)
                }
            };
        }

        ctx.stack.push(key.clone());
        let result = self.eval_service(service, env, ctx);
        ctx.stack.pop();

        let p = result?;
        ctx.memo.insert(key, p);
        Ok(p)
    }

    fn cycle_error(&self, stack: &[CacheKey], repeated: &CacheKey) -> CoreError {
        let start = stack
            .iter()
            .position(|k| k == repeated)
            .unwrap_or_else(|| stack.len().saturating_sub(8));
        let mut cycle: Vec<String> = stack[start..]
            .iter()
            .map(|(id, _)| id.to_string())
            .collect();
        cycle.push(repeated.0.to_string());
        CoreError::RecursiveAssembly { cycle }
    }

    fn eval_service(
        &self,
        service: &ServiceId,
        env: &Bindings,
        ctx: &mut Ctx<'_>,
    ) -> Result<Probability> {
        self.check_cancel()?;
        match self.assembly.require(service)? {
            Service::Simple(simple) => {
                let demand = env.get(simple.formal_param()).ok_or_else(|| {
                    CoreError::Expr(archrel_expr::ExprError::UnboundParameter {
                        name: simple.formal_param().to_string(),
                    })
                })?;
                Ok(simple.failure_probability(demand)?)
            }
            Service::Composite(composite) => {
                let states = self.resolve_states(composite, env, ctx)?;
                let failures: BTreeMap<StateId, Probability> = states
                    .iter()
                    .map(|s| (s.state.clone(), s.failure))
                    .collect();
                let chain = augmented_chain(composite, env, &failures)?;
                let start = AugmentedState::Flow(StateId::Start);
                let end = AugmentedState::Flow(StateId::End);
                let solve_started = Instant::now();
                let solved = self.solve_flow_chain(&chain, &start, &end);
                let success = match solved {
                    Ok(p) => p,
                    // Every path drains into Fail: End being structurally
                    // unreachable means the service fails with certainty,
                    // which is a legitimate prediction, not a solve failure.
                    Err(archrel_markov::MarkovError::UnreachableTarget { .. }) => 0.0,
                    Err(e) => return Err(e.into()),
                };
                self.counters.solves.fetch_add(1, Ordering::Relaxed);
                self.counters.solve_nanos.fetch_add(
                    u64::try_from(solve_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    Ordering::Relaxed,
                );
                Ok(Probability::new(success)?.complement())
            }
        }
    }

    /// Solves one flow chain's `p*(Start → End)`, routing through the
    /// compiled-plan path when the policy allows it.
    ///
    /// Single-column solve throughout: only `p*(· → End)` is needed, so
    /// every backend skips the full fundamental-matrix inversion. Under
    /// [`SolverPolicy::Compiled`] a plan always answers. Under
    /// [`SolverPolicy::Auto`] in the sparse regime, a structure seen at
    /// least [`AUTO_PLAN_MIN_SEEN`] times is promoted to a compiled acyclic
    /// tape — which replays the sparse back-substitution bit-for-bit, so
    /// promotion never changes a result; cyclic structures stay on the
    /// sparse iterative path.
    fn solve_flow_chain(
        &self,
        chain: &archrel_markov::Dtmc<AugmentedState>,
        start: &AugmentedState,
        end: &AugmentedState,
    ) -> archrel_markov::Result<f64> {
        match self.plan_for_chain(chain, start, end)? {
            Some(plan) => PLAN_EVAL_TLS.with(|tls| {
                let (params, scratch) = &mut *tls.borrow_mut();
                plan.parameters_into(chain, params)?;
                let (value, kind) = plan.evaluate_scratch(params, scratch)?;
                self.plans.record(kind);
                Ok(value)
            }),
            None => self.direct_solve(chain, start, end),
        }
    }

    /// Resolves the plan-path gating for one chain: `Ok(Some(plan))` when a
    /// compiled plan should answer, `Ok(None)` when the direct solver should
    /// run (policy excludes plans, structure still cold under `Auto`, or
    /// cyclic under acyclic-only promotion).
    ///
    /// Shared by the recursive [`Evaluator::solve_flow_chain`] and the
    /// compiled programs' cached flow chains, so sighting counts and cache
    /// entries are maintained identically whichever engine evaluates a
    /// point.
    pub(crate) fn plan_for_chain(
        &self,
        chain: &archrel_markov::Dtmc<AugmentedState>,
        start: &AugmentedState,
        end: &AugmentedState,
    ) -> archrel_markov::Result<Option<Arc<SolvePlan>>> {
        let acyclic_only = self
            .options
            .solver
            .plan_compilation(chain.len(), chain.edge_count());
        if let Some(acyclic_only) = acyclic_only {
            let fingerprint = structure_fingerprint(chain, start, end);
            let warm = !acyclic_only || self.plans.note_seen(fingerprint) >= AUTO_PLAN_MIN_SEEN;
            if warm {
                match self
                    .plans
                    .entry(fingerprint, chain, start, end, acyclic_only)?
                {
                    PlanEntry::Plan(plan) => return Ok(Some(plan)),
                    PlanEntry::CyclicUncompiled => {}
                    PlanEntry::Unreachable { from, target } => {
                        return Err(archrel_markov::MarkovError::UnreachableTarget {
                            from: from.clone(),
                            target: target.clone(),
                        });
                    }
                }
            }
        }
        Ok(None)
    }

    pub(crate) fn direct_solve(
        &self,
        chain: &archrel_markov::Dtmc<AugmentedState>,
        start: &AugmentedState,
        end: &AugmentedState,
    ) -> archrel_markov::Result<f64> {
        match self.options.solver.choose(chain.len(), chain.edge_count()) {
            ChosenSolver::Dense => archrel_markov::absorption_probability_to(chain, start, end),
            ChosenSolver::Sparse => archrel_markov::absorption_probability_sparse(
                chain,
                start,
                end,
                self.options.sparse,
            ),
        }
    }

    /// Resolves every state of a composite service's flow: evaluates actual
    /// parameters, recursively obtains callee/connector failure
    /// probabilities, and combines them per the state's completion and
    /// dependency models.
    fn resolve_states(
        &self,
        composite: &CompositeService,
        env: &Bindings,
        ctx: &mut Ctx<'_>,
    ) -> Result<Vec<ResolvedState>> {
        let mut out = Vec::with_capacity(composite.flow().states().len());
        for state in composite.flow().states() {
            let mut requests = Vec::with_capacity(state.calls.len());
            for call in &state.calls {
                requests.push(self.resolve_request(call, env, ctx)?);
            }
            let failures: Vec<RequestFailure> = requests
                .iter()
                .map(|r| RequestFailure::new(r.internal, r.external))
                .collect();
            let failure = state_failure_probability(state.completion, state.dependency, &failures)?;
            out.push(ResolvedState {
                state: state.id.clone(),
                failure,
                requests,
            });
        }
        Ok(out)
    }

    fn resolve_request(
        &self,
        call: &ServiceCall,
        env: &Bindings,
        ctx: &mut Ctx<'_>,
    ) -> Result<ResolvedRequest> {
        // Resolve the callee's environment: ap_j(fp) evaluated under fp.
        let mut callee_env = Bindings::new();
        let mut first_demand = 0.0;
        for (i, (name, expr)) in call.actual_params.iter().enumerate() {
            let v = expr.eval(env)?;
            if i == 0 {
                first_demand = v;
            }
            callee_env.insert(name.clone(), v);
        }
        let target_fail = self.eval_rec(&call.target, &callee_env, ctx)?;

        let connector_fail = match &call.connector {
            None => Probability::ZERO,
            Some(binding) => {
                let mut conn_env = Bindings::new();
                for (name, expr) in &binding.actual_params {
                    conn_env.insert(name.clone(), expr.eval(env)?);
                }
                self.eval_rec(&binding.connector, &conn_env, ctx)?
            }
        };

        // Internal failure: for the per-operation law (eq. 14) the demand is
        // the evaluated value of the request's first actual parameter — for
        // a `call(cpu, N)` that is exactly N.
        let internal = call.internal_failure.failure_probability(first_demand)?;

        Ok(ResolvedRequest {
            target: call.target.clone(),
            internal,
            external: RequestFailure::external_of(target_fail, connector_fail),
        })
    }

    /// Entry point used by the report module: resolve the target service's
    /// states with a fresh context (Error cycle mode semantics).
    pub(crate) fn resolve_states_fresh(
        &self,
        composite: &CompositeService,
        env: &Bindings,
    ) -> Result<Vec<ResolvedState>> {
        let mut ctx = Ctx {
            stack: Vec::new(),
            memo: HashMap::new(),
            estimates: None,
            cycle_keys: HashSet::new(),
            overlay: false,
        };
        match self.resolve_states(composite, env, &mut ctx) {
            Err(err @ CoreError::RecursiveAssembly { .. }) => {
                let CycleMode::FixedPoint {
                    max_iterations,
                    tolerance,
                } = self.options.cycle_mode
                else {
                    return Err(err);
                };
                // Converge the fixed point first, then resolve the
                // breakdown once more with the converged cycle-key values
                // answering re-entries — the breakdown a final exact sweep
                // would see.
                let (_, solver) =
                    self.fixed_point_converged(composite.id(), env, max_iterations, tolerance)?;
                let mut ctx = Ctx {
                    stack: Vec::new(),
                    memo: HashMap::new(),
                    estimates: Some(solver.estimates()),
                    cycle_keys: HashSet::new(),
                    overlay: true,
                };
                self.resolve_states(composite, env, &mut ctx)
            }
            other => other,
        }
    }
}

/// Accumulates staged parameter rows into lane-sized [`ParamBlock`]s — one
/// per structure fingerprint — and flushes each through a single
/// [`SolvePlan::evaluate_block`] tape replay.
///
/// Owns parameter copies and shared-plan [`Arc`]s rather than evaluator
/// borrows, so the staged sweep drivers can feed it from any worker.
/// Per-lane evaluation errors are collected per tag (a bad point must not
/// poison its block-mates).
pub(crate) struct FlowBlockAccumulator {
    plans: Arc<PlanCache>,
    pending: Vec<PendingBlock>,
    scratch: PlanScratch,
    params_buf: Vec<f64>,
    errors: Vec<(usize, crate::CoreError)>,
}

struct PendingBlock {
    plan: Arc<SolvePlan>,
    block: ParamBlock,
    tags: Vec<usize>,
}

impl FlowBlockAccumulator {
    pub(crate) fn new(plans: Arc<PlanCache>) -> Self {
        FlowBlockAccumulator {
            plans,
            pending: Vec::new(),
            scratch: PlanScratch::new(),
            params_buf: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Queues one point whose parameter row the caller staged (the
    /// zero-`Bindings` driver path; the caller accounts its staging time
    /// through [`PlanCache::record_stage_nanos`]) under tag `tag`, flushing
    /// the structure's block into `out` when it fills.
    pub(crate) fn submit_row(
        &mut self,
        plan: &Arc<SolvePlan>,
        params: &[f64],
        tag: usize,
        out: &mut [f64],
    ) -> archrel_markov::Result<()> {
        let idx = self.pending_for(plan);
        let pending = &mut self.pending[idx];
        pending.block.push(params)?;
        pending.tags.push(tag);
        self.flush_full(out);
        Ok(())
    }

    /// Index of the pending block matching `plan`'s structure, creating one
    /// on first sight.
    fn pending_for(&mut self, plan: &Arc<SolvePlan>) -> usize {
        match self
            .pending
            .iter()
            .position(|p| p.plan.fingerprint() == plan.fingerprint())
        {
            Some(idx) => idx,
            None => {
                self.pending.push(PendingBlock {
                    plan: Arc::clone(plan),
                    block: ParamBlock::for_plan(plan),
                    tags: Vec::with_capacity(LANE),
                });
                self.pending.len() - 1
            }
        }
    }

    /// Flushes the (single) block that just filled.
    fn flush_full(&mut self, out: &mut [f64]) {
        if let Some(idx) = self.pending.iter().position(|p| p.block.is_full()) {
            self.flush_at(idx, out);
        }
    }

    /// Flushes every non-empty pending block into `out`.
    pub(crate) fn finish(&mut self, out: &mut [f64]) {
        for idx in 0..self.pending.len() {
            self.flush_at(idx, out);
        }
    }

    fn flush_at(&mut self, idx: usize, out: &mut [f64]) {
        let started = Instant::now();
        let pending = &mut self.pending[idx];
        let occupied = pending.block.len();
        if occupied == 0 {
            return;
        }
        match pending
            .plan
            .evaluate_block_with_kinds(&pending.block, &mut self.scratch)
        {
            Ok((values, kinds)) => {
                for (lane, &value) in values.iter().enumerate() {
                    out[pending.tags[lane]] = value;
                }
                self.plans.record_block(kinds);
            }
            Err(_) => {
                // Replay each lane on the scalar path so the error lands on
                // exactly the point that caused it; healthy lanes still
                // produce their (bitwise-identical) values.
                for lane in 0..occupied {
                    pending.block.lane_params_into(lane, &mut self.params_buf);
                    match pending.plan.evaluate_with_kind(&self.params_buf) {
                        Ok((value, kind)) => {
                            out[pending.tags[lane]] = value;
                            self.plans.record(kind);
                        }
                        Err(e) => self.errors.push((pending.tags[lane], e.into())),
                    }
                }
            }
        }
        pending.block.clear();
        pending.tags.clear();
        self.plans
            .record_replay_nanos(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    /// Per-tag errors raised by flushed lanes (drained).
    pub(crate) fn take_errors(&mut self) -> Vec<(usize, crate::CoreError)> {
        std::mem::take(&mut self.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archrel_expr::Expr;
    use archrel_model::{
        catalog, AssemblyBuilder, CompletionModel, DependencyModel, FailureModel, FlowBuilder,
        FlowState, InternalFailureModel, SimpleService,
    };

    fn constant_service(name: &str, pfail: f64) -> Service {
        Service::Simple(SimpleService::new(
            name,
            "x",
            FailureModel::Constant { probability: pfail },
        ))
    }

    fn call(target: &str) -> ServiceCall {
        ServiceCall::new(target).with_param("x", Expr::zero())
    }

    fn single_state_assembly(
        pfails: &[f64],
        completion: CompletionModel,
        dependency: DependencyModel,
    ) -> Assembly {
        let mut builder = AssemblyBuilder::new();
        let mut calls = Vec::new();
        // In the Shared case all calls must target the same service.
        if dependency == DependencyModel::Shared {
            builder = builder.service(constant_service("s0", pfails[0]));
            for _ in pfails {
                calls.push(call("s0"));
            }
        } else {
            for (i, p) in pfails.iter().enumerate() {
                let name = format!("s{i}");
                builder = builder.service(constant_service(&name, *p));
                calls.push(call(&name));
            }
        }
        let flow = FlowBuilder::new()
            .state(
                FlowState::new("1", calls)
                    .with_completion(completion)
                    .with_dependency(dependency),
            )
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let top = Service::Composite(CompositeService::new("top", vec![], flow).unwrap());
        builder.service(top).build().unwrap()
    }

    #[test]
    fn and_of_independent_constants() {
        let a = single_state_assembly(
            &[0.1, 0.2],
            CompletionModel::And,
            DependencyModel::Independent,
        );
        let p = Evaluator::new(&a)
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
        assert!((p.value() - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn or_of_independent_constants() {
        let a = single_state_assembly(
            &[0.1, 0.2],
            CompletionModel::Or,
            DependencyModel::Independent,
        );
        let p = Evaluator::new(&a)
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
        assert!((p.value() - 0.1 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn or_of_shared_replicas_collapses() {
        // Two OR replicas of the same service: sharing destroys redundancy.
        let a = single_state_assembly(&[0.25, 0.25], CompletionModel::Or, DependencyModel::Shared);
        let p = Evaluator::new(&a)
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
        // eq. 12 with Pint = 0: 1 - (1-0.25)^2 * 1 = 0.4375.
        assert!((p.value() - (1.0 - 0.75 * 0.75)).abs() < 1e-12);
    }

    #[test]
    fn reliability_is_complement() {
        let a = single_state_assembly(&[0.1], CompletionModel::And, DependencyModel::Independent);
        let eval = Evaluator::new(&a);
        let f = eval
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
        let r = eval.reliability(&"top".into(), &Bindings::new()).unwrap();
        assert!((f.value() + r.value() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn unknown_service_is_reported() {
        let a = AssemblyBuilder::new()
            .service(constant_service("s", 0.1))
            .build()
            .unwrap();
        let err = Evaluator::new(&a)
            .failure_probability(&"ghost".into(), &Bindings::new())
            .unwrap_err();
        assert!(matches!(err, CoreError::Model(_)));
    }

    #[test]
    fn simple_service_demands_its_parameter() {
        let a = AssemblyBuilder::new()
            .service(catalog::cpu_resource("cpu", 1e9, 1e-9))
            .build()
            .unwrap();
        let eval = Evaluator::new(&a);
        // Correct parameter name:
        let p = eval
            .failure_probability(
                &"cpu".into(),
                &Bindings::new().with(catalog::CPU_PARAM, 1e6),
            )
            .unwrap();
        assert!(p.value() > 0.0);
        // Missing parameter:
        let err = eval
            .failure_probability(&"cpu".into(), &Bindings::new())
            .unwrap_err();
        assert!(matches!(err, CoreError::Expr(_)));
    }

    fn recursive_assembly(p_base: f64, p_recurse: f64) -> Assembly {
        // svc: with prob p_recurse call itself again, else do a base call.
        let flow = FlowBuilder::new()
            .state(FlowState::new("again", vec![ServiceCall::new("svc")]))
            .state(FlowState::new("base", vec![call("leaf")]))
            .transition(StateId::Start, "again", Expr::num(p_recurse))
            .transition(StateId::Start, "base", Expr::num(1.0 - p_recurse))
            .transition("again", StateId::End, Expr::one())
            .transition("base", StateId::End, Expr::one())
            .build()
            .unwrap();
        AssemblyBuilder::new()
            .service(constant_service("leaf", p_base))
            .service(Service::Composite(
                CompositeService::new("svc", vec![], flow).unwrap(),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn recursion_is_an_error_by_default() {
        let a = recursive_assembly(0.1, 0.5);
        let err = Evaluator::new(&a)
            .failure_probability(&"svc".into(), &Bindings::new())
            .unwrap_err();
        match err {
            CoreError::RecursiveAssembly { cycle } => {
                assert!(cycle.iter().filter(|s| s.as_str() == "svc").count() >= 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn fixed_point_solves_recursion() {
        // Pfail satisfies f = r*f + (1-r)*p  =>  f = (1-r)p / (1-r) = p.
        let (p_base, r) = (0.2, 0.5);
        let a = recursive_assembly(p_base, r);
        let eval = Evaluator::with_options(
            &a,
            EvalOptions {
                cycle_mode: CycleMode::FixedPoint {
                    max_iterations: 200,
                    tolerance: 1e-12,
                },
                ..EvalOptions::default()
            },
        );
        let f = eval
            .failure_probability(&"svc".into(), &Bindings::new())
            .unwrap();
        // Closed form: f = r f + (1-r) p_base  =>  f = p_base.
        assert!((f.value() - p_base).abs() < 1e-9, "got {}", f.value());
    }

    #[test]
    fn fixed_point_mode_matches_error_mode_on_acyclic_assemblies() {
        let a = single_state_assembly(
            &[0.1, 0.3],
            CompletionModel::And,
            DependencyModel::Independent,
        );
        let exact = Evaluator::new(&a)
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
        let fp = Evaluator::with_options(
            &a,
            EvalOptions {
                cycle_mode: CycleMode::FixedPoint {
                    max_iterations: 50,
                    tolerance: 1e-12,
                },
                ..EvalOptions::default()
            },
        )
        .failure_probability(&"top".into(), &Bindings::new())
        .unwrap();
        assert!((exact.value() - fp.value()).abs() < 1e-15);
    }

    #[test]
    fn cache_is_consistent_across_calls() {
        let a = single_state_assembly(
            &[0.1, 0.2],
            CompletionModel::And,
            DependencyModel::Independent,
        );
        let eval = Evaluator::new(&a);
        let p1 = eval
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
        let p2 = eval
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn internal_failure_uses_first_actual_param() {
        // A composite calling cpu(1000) with phi so that
        // Pint = 1 - (1-phi)^1000.
        let phi = 1e-3;
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "1",
                vec![ServiceCall::new("cpu")
                    .with_param(catalog::CPU_PARAM, Expr::num(1000.0))
                    .with_internal(InternalFailureModel::PerOperation { phi })],
            ))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let a = AssemblyBuilder::new()
            // Perfect CPU isolates the internal term.
            .service(Service::Simple(SimpleService::new(
                "cpu",
                catalog::CPU_PARAM,
                FailureModel::Perfect,
            )))
            .service(Service::Composite(
                CompositeService::new("top", vec![], flow).unwrap(),
            ))
            .build()
            .unwrap();
        let p = Evaluator::new(&a)
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
        let expected = 1.0 - (1.0 - phi).powf(1000.0);
        assert!((p.value() - expected).abs() < 1e-12);
    }

    #[test]
    fn sparse_policy_matches_dense() {
        use archrel_model::paper;
        let params = paper::PaperParams::default().with_gamma(2.5e-2);
        let assembly = paper::remote_assembly(&params).unwrap();
        let env = paper::search_bindings(4.0, 4096.0, 1.0);
        let solve = |policy| {
            Evaluator::with_options(
                &assembly,
                EvalOptions {
                    solver: policy,
                    ..EvalOptions::default()
                },
            )
            .failure_probability(&paper::SEARCH.into(), &env)
            .unwrap()
            .value()
        };
        let dense = solve(SolverPolicy::Dense);
        let sparse = solve(SolverPolicy::Sparse);
        let auto = solve(SolverPolicy::Auto);
        assert!(
            (dense - sparse).abs() < 1e-10,
            "dense {dense} vs sparse {sparse}"
        );
        // Paper-sized chains: Auto resolves to dense and agrees bitwise.
        assert_eq!(auto.to_bits(), dense.to_bits());
    }

    #[test]
    fn auto_dispatch_keys_on_state_count_and_density() {
        // Tiny chains: always dense.
        assert_eq!(SolverPolicy::Auto.choose(6, 10), ChosenSolver::Dense);
        assert_eq!(SolverPolicy::Auto.choose(64, 64 * 64), ChosenSolver::Dense);
        // Mid-size and dense: still dense.
        assert_eq!(
            SolverPolicy::Auto.choose(200, 200 * 200 / 2),
            ChosenSolver::Dense
        );
        // Mid-size but sparse: sparse.
        assert_eq!(SolverPolicy::Auto.choose(200, 600), ChosenSolver::Sparse);
        // Large: sparse regardless of density.
        assert_eq!(
            SolverPolicy::Auto.choose(5000, 5000 * 4999),
            ChosenSolver::Sparse
        );
        // Forced policies ignore the heuristic.
        assert_eq!(SolverPolicy::Dense.choose(100_000, 1), ChosenSolver::Dense);
        assert_eq!(SolverPolicy::Sparse.choose(2, 1), ChosenSolver::Sparse);
    }

    #[test]
    fn solver_policy_parses_cli_and_env_spellings() {
        assert_eq!(SolverPolicy::parse("auto"), Some(SolverPolicy::Auto));
        assert_eq!(SolverPolicy::parse("Dense"), Some(SolverPolicy::Dense));
        assert_eq!(SolverPolicy::parse(" SPARSE "), Some(SolverPolicy::Sparse));
        assert_eq!(
            SolverPolicy::parse("Compiled"),
            Some(SolverPolicy::Compiled)
        );
        assert_eq!(SolverPolicy::parse("lu"), None);
    }

    #[test]
    fn unrecognized_env_solver_value_is_a_hard_error() {
        // Recognized spellings parse through the env entry point...
        assert_eq!(
            SolverPolicy::parse_env_value("compiled"),
            SolverPolicy::Compiled
        );
        // ...but a typo must panic with the accepted values listed, not
        // silently fall back to the default policy. `parse_env_value` is
        // probed directly (instead of setting the process-global variable)
        // so parallel tests reading `ARCHREL_SOLVER` are not perturbed.
        let err = std::panic::catch_unwind(|| SolverPolicy::parse_env_value("sprase"))
            .expect_err("typo must not parse");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("sprase"), "{message}");
        assert!(
            message.contains("auto, dense, sparse, compiled"),
            "{message}"
        );
    }

    #[test]
    fn certain_failure_flow_predicts_one_under_every_policy() {
        // Both flow states fail with certainty, so every path drains into
        // Fail and End is unreachable: the prediction is Pfail = 1, not an
        // UnreachableTarget error.
        let a = single_state_assembly(&[1.0], CompletionModel::And, DependencyModel::Independent);
        for policy in [
            SolverPolicy::Auto,
            SolverPolicy::Dense,
            SolverPolicy::Sparse,
            SolverPolicy::Compiled,
        ] {
            let p = Evaluator::with_options(
                &a,
                EvalOptions {
                    solver: policy,
                    ..EvalOptions::default()
                },
            )
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
            assert_eq!(p.value(), 1.0, "{policy:?}");
        }
    }

    #[test]
    fn direct_start_to_end_flow_predicts_zero_under_every_policy() {
        // Degenerate flow: Start transitions straight to End (no work, no
        // failure opportunity) — the Start == End boundary case of the
        // augmented chain.
        let flow = FlowBuilder::new()
            .state(FlowState::new("noop", vec![]))
            .transition(StateId::Start, StateId::End, Expr::one())
            .transition("noop", StateId::End, Expr::one())
            .build()
            .unwrap();
        let a = AssemblyBuilder::new()
            .service(Service::Composite(
                CompositeService::new("top", vec![], flow).unwrap(),
            ))
            .build()
            .unwrap();
        for policy in [
            SolverPolicy::Auto,
            SolverPolicy::Dense,
            SolverPolicy::Sparse,
            SolverPolicy::Compiled,
        ] {
            let p = Evaluator::with_options(
                &a,
                EvalOptions {
                    solver: policy,
                    ..EvalOptions::default()
                },
            )
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
            assert_eq!(p.value(), 0.0, "{policy:?}");
        }
    }

    #[test]
    fn no_convergence_surfaces_iteration_count() {
        use archrel_model::paper;
        let assembly = paper::local_assembly(&paper::PaperParams::default()).unwrap();
        let eval = Evaluator::with_options(
            &assembly,
            EvalOptions {
                solver: SolverPolicy::Sparse,
                sparse: archrel_markov::SparseSolveOptions {
                    max_iterations: 0,
                    tolerance: 0.0,
                    ..archrel_markov::SparseSolveOptions::default()
                },
                ..EvalOptions::default()
            },
        );
        let result = eval.failure_probability(
            &paper::SEARCH.into(),
            &paper::search_bindings(4.0, 512.0, 1.0),
        );
        // The paper's flows are acyclic, so the exact path never iterates
        // and a zero budget still succeeds.
        assert!(result.is_ok());
    }

    #[test]
    fn evaluator_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Evaluator<'static>>();
    }

    fn forced(policy: SolverPolicy) -> EvalOptions {
        EvalOptions {
            solver: policy,
            ..EvalOptions::default()
        }
    }

    #[test]
    fn compiled_policy_is_bitwise_identical_to_sparse_on_acyclic_flows() {
        use archrel_model::paper;
        // The acyclic plan tape replays exactly the arithmetic of the sparse
        // solver's exact elimination, so the two policies must agree to the
        // last bit on the paper's (acyclic) flows.
        let assembly = paper::local_assembly(&paper::PaperParams::default()).unwrap();
        // One plan cache shared by fresh evaluators, as the daemon shares
        // it: every point is its evaluator's first sighting, so the
        // recursive walk re-looks each plan up in the cache (an assembly
        // program would pin the plan instead).
        let plans = Arc::new(PlanCache::new());
        for n in [256.0, 1024.0, 4096.0] {
            let env = paper::search_bindings(4.0, n, 1.0);
            let want = Evaluator::with_options(&assembly, forced(SolverPolicy::Sparse))
                .failure_probability(&paper::SEARCH.into(), &env)
                .unwrap();
            let compiled = Evaluator::with_plan_cache(
                &assembly,
                forced(SolverPolicy::Compiled),
                Arc::clone(&plans),
            );
            let got = compiled
                .failure_probability(&paper::SEARCH.into(), &env)
                .unwrap();
            assert_eq!(want.value().to_bits(), got.value().to_bits(), "n = {n}");
            assert_eq!(compiled.cache_stats().programs_compiled, 0);
        }
        // The plan was compiled once and replayed for the later sweeps.
        let stats = plans.stats();
        assert!(stats.plan_misses >= 1, "{stats:?}");
        assert!(stats.plan_hits >= 1, "{stats:?}");
        assert!(stats.rank1_solves >= 3, "{stats:?}");
        assert_eq!(stats.full_solves, 0, "{stats:?}");
    }

    #[test]
    fn auto_policy_promotes_hot_structures_to_compiled_plans() {
        // 68 chained states give a 71-state augmented chain at ~3% density,
        // so Auto routes to the sparse solver. Re-solving the same structure
        // with fresh parameter values must promote it to a compiled plan
        // after `AUTO_PLAN_MIN_SEEN` sightings — bitwise invisibly.
        let mut flow = FlowBuilder::new();
        for i in 1..=68 {
            flow = flow.state(FlowState::new(
                format!("s{i}"),
                vec![ServiceCall::new("cpu").with_param(catalog::CPU_PARAM, Expr::param("n"))],
            ));
        }
        flow = flow.transition(StateId::Start, "s1", Expr::one());
        for i in 1..68 {
            flow = flow.transition(
                format!("s{i}").as_str(),
                format!("s{}", i + 1).as_str(),
                Expr::one(),
            );
        }
        let flow = flow
            .transition("s68", StateId::End, Expr::one())
            .build()
            .unwrap();
        let assembly = AssemblyBuilder::new()
            .service(catalog::cpu_resource("cpu", 1e9, 1e-9))
            .service(Service::Composite(
                CompositeService::new("app", vec!["n".into()], flow).unwrap(),
            ))
            .build()
            .unwrap();

        // This test pins the *plan cache's* promotion discipline, which an
        // assembly program would subsume (it pins the plan per runtime
        // instead of re-looking it up): fresh evaluators over one shared
        // plan cache keep every point on the recursive walk.
        let plans = Arc::new(PlanCache::new());
        let sweeps = [1e6, 2e6, 3e6];
        let got: Vec<f64> = sweeps
            .iter()
            .map(|&n| {
                let auto = Evaluator::with_plan_cache(
                    &assembly,
                    forced(SolverPolicy::Auto),
                    Arc::clone(&plans),
                );
                let p = auto
                    .failure_probability(&"app".into(), &Bindings::new().with("n", n))
                    .unwrap()
                    .value();
                assert_eq!(auto.cache_stats().programs_compiled, 0);
                p
            })
            .collect();

        // Sweep 1 runs the plain sparse solver (structure only seen once);
        // sweep 2 compiles the plan (miss) and replays it; sweep 3 hits it.
        let stats = plans.stats();
        assert_eq!(stats.plan_misses, 1, "{stats:?}");
        assert_eq!(stats.plan_hits, 1, "{stats:?}");
        assert_eq!(stats.rank1_solves, 2, "{stats:?}");
        assert_eq!(stats.full_solves, 0, "{stats:?}");

        // Promotion is invisible: a pure sparse evaluator agrees exactly.
        let sparse = Evaluator::with_options(&assembly, forced(SolverPolicy::Sparse));
        for (&n, &g) in sweeps.iter().zip(&got) {
            assert!(g > 0.0);
            let want = sparse
                .failure_probability(&"app".into(), &Bindings::new().with("n", n))
                .unwrap()
                .value();
            assert_eq!(want.to_bits(), g.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn compiled_policy_handles_cyclic_flows_with_rank1_and_full_fallback() {
        // Cyclic retry flow: a → b → a with an escape to End. Compiled plans
        // keep the compile-time LU factorization; re-evaluating with the
        // baseline parameters is a back-substitution, while a sweep that
        // moves both transient rows forces a full refactorization. Both must
        // match the dense solver.
        let flow = FlowBuilder::new()
            .state(FlowState::new(
                "a",
                vec![ServiceCall::new("cpu").with_param(catalog::CPU_PARAM, Expr::param("n"))],
            ))
            .state(FlowState::new(
                "b",
                vec![ServiceCall::new("cpu").with_param(catalog::CPU_PARAM, Expr::param("n"))],
            ))
            .transition(StateId::Start, "a", Expr::one())
            .transition("a", "b", Expr::num(0.9))
            .transition("a", StateId::End, Expr::num(0.1))
            .transition("b", "a", Expr::one())
            .build()
            .unwrap();
        let assembly = AssemblyBuilder::new()
            .service(catalog::cpu_resource("cpu", 1e9, 1e-7))
            .service(Service::Composite(
                CompositeService::new("app", vec!["n".into()], flow).unwrap(),
            ))
            .build()
            .unwrap();
        // The rank-1/full-solve counters below belong to the plan cache,
        // which an assembly program bypasses via its pinned per-runtime
        // plans: fresh evaluators over one shared cache stay recursive.
        let plans = Arc::new(PlanCache::new());
        for n in [1e6, 5e6] {
            let env = Bindings::new().with("n", n);
            let want = Evaluator::with_options(&assembly, forced(SolverPolicy::Dense))
                .failure_probability(&"app".into(), &env)
                .unwrap();
            let got = Evaluator::with_plan_cache(
                &assembly,
                forced(SolverPolicy::Compiled),
                Arc::clone(&plans),
            )
            .failure_probability(&"app".into(), &env)
            .unwrap();
            assert!(
                (want.value() - got.value()).abs() < 1e-10,
                "n = {n}: dense {} vs compiled {}",
                want.value(),
                got.value()
            );
            assert!(got.value() > 0.0);
        }
        let stats = plans.stats();
        assert_eq!(stats.plan_misses, 1, "{stats:?}");
        assert_eq!(stats.plan_hits, 1, "{stats:?}");
        // First sweep replays the baseline factorization; the second moves
        // both transient rows and must fall back to a full refactorization.
        assert_eq!(stats.rank1_solves, 1, "{stats:?}");
        assert_eq!(stats.full_solves, 1, "{stats:?}");
    }

    #[test]
    fn plan_cache_capacity_evicts_least_recently_used_structures() {
        // Two structurally different composites over a capacity-1 cache:
        // each compile evicts the other, and the counter records it.
        let flow_a = FlowBuilder::new()
            .state(FlowState::new("1", vec![call("leaf")]))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", StateId::End, Expr::one())
            .build()
            .unwrap();
        let flow_b = FlowBuilder::new()
            .state(FlowState::new("1", vec![call("leaf")]))
            .state(FlowState::new("2", vec![call("leaf")]))
            .transition(StateId::Start, "1", Expr::one())
            .transition("1", "2", Expr::one())
            .transition("2", StateId::End, Expr::one())
            .build()
            .unwrap();
        let assembly = AssemblyBuilder::new()
            .service(constant_service("leaf", 0.05))
            .service(Service::Composite(
                CompositeService::new("a", vec![], flow_a).unwrap(),
            ))
            .service(Service::Composite(
                CompositeService::new("b", vec![], flow_b).unwrap(),
            ))
            .build()
            .unwrap();
        let plans = Arc::new(PlanCache::with_capacity(1));
        assert_eq!(plans.capacity(), 1);
        // Eviction pressure only materializes when every visit re-looks
        // the plan up in the shared cache; a program would pin both plans
        // and never touch it again. A fresh evaluator per visit keeps every
        // visit a first sighting, on the recursive walk, and its value
        // cache cold.
        for _ in 0..3 {
            for svc in ["a", "b"] {
                let eval = Evaluator::with_plan_cache(
                    &assembly,
                    forced(SolverPolicy::Compiled),
                    Arc::clone(&plans),
                );
                eval.failure_probability(&svc.into(), &Bindings::new())
                    .unwrap();
                assert_eq!(eval.cache_stats().programs_compiled, 0);
            }
        }
        let stats = plans.stats();
        assert!(stats.plan_evictions >= 3, "{stats:?}");
        assert!(stats.plan_misses >= 4, "{stats:?}");
        assert_eq!(plans.evictions(), stats.plan_evictions);
    }

    #[test]
    fn blocked_evaluation_isolates_per_point_errors_and_reuses_duplicates() {
        use archrel_model::paper;
        let assembly = paper::remote_assembly(&paper::PaperParams::default()).unwrap();
        let service: ServiceId = paper::SEARCH.into();
        let good = paper::search_bindings(4.0, 1024.0, 1.0);
        // An unbound environment fails during resolution, not during the
        // flush; it must not poison its block-mates.
        let bad = Bindings::new();
        let envs: Vec<&Bindings> = vec![&good, &bad, &good, &good];
        let eval = Evaluator::with_options(&assembly, forced(SolverPolicy::Compiled));
        let got = eval.failure_probabilities(&service, &envs);
        assert_eq!(eval.cache_stats().programs_compiled, 1);
        assert!(got[0].is_ok());
        assert!(got[1].is_err());
        for r in [&got[2], &got[3]] {
            let r = r.as_ref().unwrap();
            assert_eq!(
                got[0].as_ref().unwrap().value().to_bits(),
                r.value().to_bits()
            );
        }
    }

    #[test]
    fn empty_cache_stats_rates_are_zero_not_nan() {
        // Zero-total divisions must not leak NaN into reports.
        let stats = CacheStats::default();
        assert_eq!(stats.hits + stats.misses, 0);
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.memo_hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
        assert!(stats.memo_hit_rate().is_finite());
    }

    #[test]
    fn memo_hit_rate_counts_pins_as_hits() {
        let stats = CacheStats {
            memo_hits: 2,
            memo_misses: 2,
            pin_hits: 4,
            ..CacheStats::default()
        };
        assert_eq!(stats.memo_hit_rate(), 0.75);
    }

    #[test]
    fn fixed_point_mode_parses_cli_and_env_spellings() {
        assert_eq!(FixedPointMode::parse("plain"), Some(FixedPointMode::Plain));
        assert_eq!(
            FixedPointMode::parse(" Aitken "),
            Some(FixedPointMode::Aitken)
        );
        assert_eq!(FixedPointMode::parse("PLAIN"), Some(FixedPointMode::Plain));
        assert_eq!(FixedPointMode::parse("steffensen"), None);
    }

    #[test]
    fn unrecognized_env_fixed_point_value_is_a_hard_error() {
        assert_eq!(
            FixedPointMode::parse_env_value("aitken"),
            FixedPointMode::Aitken
        );
        // Probed directly (not via the process-global variable) so parallel
        // tests reading `ARCHREL_FIXED_POINT` are not perturbed.
        let err = std::panic::catch_unwind(|| FixedPointMode::parse_env_value("atiken"))
            .expect_err("typo must not parse");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("atiken"), "{message}");
        assert!(message.contains("plain, aitken"), "{message}");
    }

    #[test]
    fn auto_mode_promotes_targets_after_min_seen_scalar_evaluations() {
        use archrel_model::paper;
        let assembly = paper::remote_assembly(&paper::PaperParams::default()).unwrap();
        let service: ServiceId = paper::SEARCH.into();
        let eval = Evaluator::new(&assembly);
        let p1 = eval
            .failure_probability(&service, &paper::search_bindings(4.0, 64.0, 1.0))
            .unwrap();
        assert!(
            eval.program(&service).is_none(),
            "first sight stays recursive"
        );
        let p2 = eval
            .failure_probability(&service, &paper::search_bindings(4.0, 128.0, 1.0))
            .unwrap();
        assert!(eval.program(&service).is_some(), "second sight compiles");
        assert_eq!(eval.cache_stats().programs_compiled, 1);
        // The program answers with bitwise-identical values: a fresh
        // evaluator's first point walks the recursive path.
        for (env, want) in [
            (paper::search_bindings(4.0, 64.0, 1.0), p1),
            (paper::search_bindings(4.0, 128.0, 1.0), p2),
        ] {
            let fresh = Evaluator::new(&assembly);
            let r = fresh.failure_probability(&service, &env).unwrap();
            assert_eq!(fresh.cache_stats().programs_compiled, 0);
            assert_eq!(want.value().to_bits(), r.value().to_bits());
        }
        // A batch counts one sighting per point: one point stays recursive,
        // two compile before the first.
        let env = paper::search_bindings(4.0, 64.0, 1.0);
        let single = Evaluator::new(&assembly);
        single.failure_probabilities(&service, &[&env]);
        assert_eq!(single.cache_stats().programs_compiled, 0);
        let pair = Evaluator::new(&assembly);
        let got = pair.failure_probabilities(&service, &[&env, &env]);
        assert_eq!(pair.cache_stats().programs_compiled, 1);
        assert_eq!(
            got[0].as_ref().unwrap().value().to_bits(),
            p1.value().to_bits()
        );
    }

    #[test]
    fn compiled_program_counts_shared_subservice_memo_hits() {
        use archrel_model::paper;
        let assembly = paper::remote_assembly(&paper::PaperParams::default()).unwrap();
        let service: ServiceId = paper::SEARCH.into();
        let eval = Evaluator::new(&assembly);
        // A batch of the same point twice compiles the program first: the
        // second point is a shared-cache hit; within the first, repeated
        // sub-invocations hit the memo.
        let env = paper::search_bindings(4.0, 512.0, 1.0);
        for r in eval.failure_probabilities(&service, &[&env, &env]) {
            r.unwrap();
        }
        let stats = eval.cache_stats();
        assert_eq!(stats.programs_compiled, 1, "{stats:?}");
        assert!(stats.memo_misses >= 1, "{stats:?}");
        assert!(stats.memo_hit_rate() >= 0.0);
        assert_eq!(stats.hits, 1, "{stats:?}");
    }

    #[test]
    fn declared_varied_parameters_pin_out_of_cone_services() {
        use archrel_model::paper;
        let assembly = paper::remote_assembly(&paper::PaperParams::default()).unwrap();
        let service: ServiceId = paper::SEARCH.into();
        let eval = Evaluator::new(&assembly);
        eval.declare_varied(&service, &["n".to_string()]);
        let envs: Vec<Bindings> = (1..=8)
            .map(|i| paper::search_bindings(4.0, 64.0 * f64::from(i), 1.0))
            .collect();
        let refs: Vec<&Bindings> = envs.iter().collect();
        let baseline: Vec<u64> = eval
            .failure_probabilities(&service, &refs)
            .into_iter()
            .map(|r| r.unwrap().value().to_bits())
            .collect();
        let stats = eval.cache_stats();
        assert_eq!(stats.programs_compiled, 1, "{stats:?}");
        assert!(
            stats.pin_hits >= 1,
            "out-of-cone services must pin: {stats:?}"
        );
        // Pinning is invisible: the recursive path (a fresh evaluator's
        // first point) agrees bit for bit.
        for (i, (env, want)) in envs.iter().zip(baseline).enumerate() {
            let fresh = Evaluator::new(&assembly);
            let r = fresh.failure_probability(&service, env).unwrap();
            assert_eq!(fresh.cache_stats().programs_compiled, 0);
            assert_eq!(want, r.value().to_bits(), "point {i}");
        }
        // Clearing the declaration reverts to the hashed memo.
        eval.clear_varied(&service);
        eval.failure_probability(&service, &paper::search_bindings(4.0, 4096.0, 1.0))
            .unwrap();
    }

    #[test]
    fn cyclic_programs_compile_but_error_mode_still_reports_the_path() {
        // a → b → a: compilation succeeds (the cycle becomes a fixed-point
        // loop), but evaluating under `CycleMode::Error` surfaces the same
        // offending path as the recursive evaluator.
        let flow_calling = |callee: &str| {
            FlowBuilder::new()
                .state(FlowState::new("s", vec![ServiceCall::new(callee)]))
                .transition(StateId::Start, "s", Expr::one())
                .transition("s", StateId::End, Expr::one())
                .build()
                .unwrap()
        };
        let assembly = AssemblyBuilder::new()
            .service(Service::Composite(
                CompositeService::new("a", vec![], flow_calling("b")).unwrap(),
            ))
            .service(Service::Composite(
                CompositeService::new("b", vec![], flow_calling("a")).unwrap(),
            ))
            .build()
            .unwrap();
        let program = crate::AssemblyProgram::compile(&assembly, &"a".into()).unwrap();
        assert!(program.has_cycles());
        // A batch of two compiles the program before its first point.
        let eval = Evaluator::new(&assembly);
        let env = Bindings::new();
        let err = eval
            .failure_probabilities(&"a".into(), &[&env, &env])
            .remove(0)
            .unwrap_err();
        assert_eq!(eval.cache_stats().programs_compiled, 1);
        match err {
            CoreError::RecursiveAssembly { cycle } => {
                assert_eq!(
                    cycle,
                    vec!["a".to_string(), "b".to_string(), "a".to_string()]
                );
            }
            other => panic!("expected RecursiveAssembly, got {other:?}"),
        }
        // One point at a time, the cyclic target promotes like any other;
        // under `CycleMode::Error` the compiled program reports the same
        // cycle.
        let auto = Evaluator::new(&assembly);
        for _ in 0..3 {
            let err = auto
                .failure_probability(&"a".into(), &Bindings::new())
                .unwrap_err();
            assert!(matches!(err, CoreError::RecursiveAssembly { .. }));
        }
        assert_eq!(auto.cache_stats().programs_compiled, 1);
    }

    #[test]
    fn auto_mode_promotes_cyclic_targets_after_min_seen_sightings() {
        let assembly = recursive_assembly(0.01, 0.3);
        let service: ServiceId = "svc".into();
        let env = Bindings::new();
        let options = EvalOptions {
            cycle_mode: CycleMode::FixedPoint {
                max_iterations: 200,
                tolerance: 1e-12,
            },
            ..EvalOptions::default()
        };
        let auto = Evaluator::with_options(&assembly, options);
        // A fresh evaluator's first point walks the recursive path.
        let reference = Evaluator::with_options(&assembly, options);
        let want = reference.failure_probability(&service, &env).unwrap();
        assert_eq!(reference.cache_stats().programs_compiled, 0);
        let mut values = Vec::new();
        for _ in 0..AUTO_PROGRAM_MIN_SEEN + 1 {
            values.push(auto.failure_probability(&service, &env).unwrap());
        }
        // The cycle check no longer short-circuits sightings: the target
        // compiles once the weighted count reaches the threshold, …
        let stats = auto.cache_stats();
        assert_eq!(stats.programs_compiled, 1, "cyclic target must promote");
        assert!(stats.fixed_point_sweeps > 0, "stats: {stats:?}");
        assert!(stats.program_loop_sccs >= 1, "stats: {stats:?}");
        assert!(stats.scc_iterations > 0, "stats: {stats:?}");
        // … and promotion is invisible in the values.
        for v in values {
            assert_eq!(want.value().to_bits(), v.value().to_bits());
        }
    }

    #[test]
    fn cancelled_evaluator_fails_with_typed_error() {
        let a = single_state_assembly(&[0.1], CompletionModel::And, DependencyModel::Independent);
        let token = crate::CancelToken::new();
        let eval = Evaluator::new(&a).with_cancellation(token.clone());
        // Live token: evaluation proceeds normally.
        assert!(eval
            .failure_probability(&"top".into(), &Bindings::new())
            .is_ok());
        token.cancel();
        // The value cache would answer the repeated query, but the program
        // entry checks the token first: tripped wins.
        let err = eval
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "got {err:?}");
    }

    #[test]
    fn expired_deadline_fails_evaluation_with_typed_error() {
        let a = single_state_assembly(&[0.1], CompletionModel::And, DependencyModel::Independent);
        let token = crate::CancelToken::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let eval = Evaluator::new(&a).with_cancellation(token);
        let err = eval
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap_err();
        assert!(
            matches!(err, CoreError::DeadlineExceeded { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn cache_stats_merge_sums_every_counter() {
        let mut a = CacheStats {
            hits: 1,
            block_points: 8,
            block_flushes: 1,
            store_writes: 2,
            ..CacheStats::default()
        };
        let b = CacheStats {
            hits: 2,
            misses: 3,
            block_points: 16,
            block_flushes: 2,
            memo_hits: 5,
            store_writes: u64::MAX, // merge saturates, never wraps
            ..CacheStats::default()
        };
        a.merge(&b);
        assert_eq!(a.hits, 3);
        assert_eq!(a.misses, 3);
        assert_eq!(a.block_points, 24);
        assert_eq!(a.block_flushes, 3);
        assert_eq!(a.memo_hits, 5);
        assert_eq!(a.store_writes, u64::MAX);
    }

    /// `local_stats` + one shared-cache fold must equal what a single
    /// evaluator's `cache_stats` reports — the daemon's no-double-count
    /// aggregation contract.
    #[test]
    fn local_stats_plus_shared_fold_matches_cache_stats() {
        let a = single_state_assembly(&[0.1], CompletionModel::And, DependencyModel::Independent);
        let plans = Arc::new(PlanCache::new());
        let eval = Evaluator::with_plan_cache(&a, EvalOptions::default(), Arc::clone(&plans));
        for _ in 0..3 {
            eval.failure_probability(&"top".into(), &Bindings::new())
                .unwrap();
        }
        let mut aggregated = eval.local_stats();
        aggregated.merge(&plans.stats());
        let direct = eval.cache_stats();
        assert_eq!(aggregated, direct);
    }

    /// Regression (serve daemon stats op): `PlanCache::stats()` must never
    /// observe a *torn* multi-counter group. Each `record_block` call adds
    /// `LANES` points as tape solves plus one flush in four separate atomic
    /// adds; without the stats gate a concurrent snapshot could see the
    /// flush without its points (or vice versa). Hammer the group from
    /// several threads while snapshotting and assert the group invariants
    /// hold in every snapshot.
    #[test]
    fn plan_cache_stats_snapshot_is_group_atomic() {
        const LANES: u64 = 8;
        const WRITERS: usize = 4;
        const FLUSHES_PER_WRITER: u64 = 2000;
        let cache = PlanCache::new();
        let live_writers = AtomicU64::new(WRITERS as u64);
        std::thread::scope(|scope| {
            for _ in 0..WRITERS {
                scope.spawn(|| {
                    for _ in 0..FLUSHES_PER_WRITER {
                        cache.record_block(BlockSolveKinds {
                            tape: LANES,
                            rank1: 0,
                            full: 0,
                        });
                    }
                    live_writers.fetch_sub(1, Ordering::Relaxed);
                });
            }
            scope.spawn(|| {
                let mut snapshots = 0u64;
                // Keep snapshotting while writers run, plus one final pass.
                loop {
                    let done = live_writers.load(Ordering::Relaxed) == 0;
                    let stats = cache.stats();
                    assert_eq!(
                        stats.block_points,
                        stats.block_flushes * LANES,
                        "torn snapshot: {stats:?}"
                    );
                    assert_eq!(
                        stats.rank1_solves, stats.block_points,
                        "torn snapshot: {stats:?}"
                    );
                    snapshots += 1;
                    if done {
                        break;
                    }
                }
                assert!(snapshots > 0);
            });
        });
        let total = WRITERS as u64 * FLUSHES_PER_WRITER;
        let stats = cache.stats();
        assert_eq!(stats.block_flushes, total);
        assert_eq!(stats.block_points, total * LANES);
        assert_eq!(stats.rank1_solves, total * LANES);
    }

    /// The warm-host pattern behind `archrel serve`: short-lived evaluators
    /// over one resident model share a [`ValueCache`], so the second
    /// evaluator's identical query is a memo hit (no fresh solve) with a
    /// bitwise-identical answer.
    #[test]
    fn shared_value_cache_answers_across_evaluators() {
        let a = single_state_assembly(&[0.1], CompletionModel::And, DependencyModel::Independent);
        let plans = Arc::new(PlanCache::new());
        let values = Arc::new(ValueCache::new());

        let first = Evaluator::with_plan_cache(&a, EvalOptions::default(), Arc::clone(&plans))
            .with_value_cache(Arc::clone(&values));
        let want = first
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
        assert!(!values.is_empty(), "the solve must land in the shared memo");

        let second = Evaluator::with_plan_cache(&a, EvalOptions::default(), Arc::clone(&plans))
            .with_value_cache(Arc::clone(&values));
        let got = second
            .failure_probability(&"top".into(), &Bindings::new())
            .unwrap();
        assert_eq!(want.value().to_bits(), got.value().to_bits());
        let stats = second.local_stats();
        assert_eq!(stats.hits, 1, "fresh evaluator must hit the shared memo");
        assert_eq!(stats.misses, 0, "stats: {stats:?}");
    }

    /// A factory of evaluators sharing one plan cache and one value cache,
    /// like the daemon's request-scoped evaluators over a catalog entry.
    fn sharing_evaluators<'a>(
        assembly: &'a Assembly,
        plans: &Arc<PlanCache>,
        values: &Arc<ValueCache>,
        options: EvalOptions,
    ) -> impl Fn() -> Evaluator<'a> {
        let (plans, values) = (Arc::clone(plans), Arc::clone(values));
        move || {
            Evaluator::with_plan_cache(assembly, options, Arc::clone(&plans))
                .with_value_cache(Arc::clone(&values))
        }
    }

    /// Evaluators attaching one value cache share one program per target:
    /// the second sighting across them compiles it, and each memo, pin
    /// and compile event lands in exactly one evaluator's counters — the
    /// sums equal what one evaluator reports for the same points.
    #[test]
    fn shared_value_cache_shares_programs_and_counts_each_event_once() {
        use archrel_model::paper;
        let assembly = paper::remote_assembly(&paper::PaperParams::default()).unwrap();
        let service: ServiceId = paper::SEARCH.into();
        let envs: Vec<Bindings> = (1..=5)
            .map(|i| paper::search_bindings(4.0, 64.0 * f64::from(i), 1.0))
            .collect();
        let single = Evaluator::new(&assembly);
        let values = Arc::new(ValueCache::new());
        let fresh = sharing_evaluators(
            &assembly,
            &Arc::new(PlanCache::new()),
            &values,
            EvalOptions::default(),
        );
        let mut summed = CacheStats::default();
        for env in &envs {
            let want = single.failure_probability(&service, env).unwrap();
            let eval = fresh();
            let got = eval.failure_probability(&service, env).unwrap();
            assert_eq!(want.value().to_bits(), got.value().to_bits());
            summed.merge(&eval.local_stats());
        }
        let want = single.local_stats();
        assert_eq!(summed.programs_compiled, 1, "{summed:?}");
        assert!(want.memo_misses > 0, "{want:?}");
        assert_eq!(
            (summed.memo_hits, summed.memo_misses, summed.pin_hits),
            (want.memo_hits, want.memo_misses, want.pin_hits)
        );
        assert_eq!((summed.hits, summed.misses), (want.hits, want.misses));
        assert!(fresh().program(&service).is_some());
    }

    /// A dirty cone declared on one evaluator never reaches another
    /// evaluator sharing the program: only the declaring one pins.
    #[test]
    fn declared_cone_stays_with_its_evaluator() {
        use archrel_model::paper;
        let assembly = paper::remote_assembly(&paper::PaperParams::default()).unwrap();
        let service: ServiceId = paper::SEARCH.into();
        let fresh = sharing_evaluators(
            &assembly,
            &Arc::new(PlanCache::new()),
            &Arc::new(ValueCache::new()),
            EvalOptions::default(),
        );
        let points = |eval: &Evaluator<'_>, from: u32| {
            let envs: Vec<Bindings> = (from..from + 4)
                .map(|i| paper::search_bindings(4.0, 64.0 * f64::from(i), 1.0))
                .collect();
            let refs: Vec<&Bindings> = envs.iter().collect();
            for r in eval.failure_probabilities(&service, &refs) {
                r.unwrap();
            }
            eval.local_stats()
        };
        let sweep = fresh();
        sweep.declare_varied(&service, &["n".to_string()]);
        let swept = points(&sweep, 1);
        assert_eq!(swept.programs_compiled, 1, "{swept:?}");
        assert!(swept.pin_hits > 0, "{swept:?}");
        let plain = points(&fresh(), 10);
        assert_eq!(plain.programs_compiled, 0, "{plain:?}");
        assert_eq!(plain.pin_hits, 0, "{plain:?}");
        assert!(plain.memo_misses > 0, "{plain:?}");
    }

    /// The pinned-plan bundle belongs to the program, so evaluators
    /// sharing it through one value cache publish it once.
    #[test]
    fn shared_program_publishes_its_bundle_once() {
        use archrel_model::paper;
        use archrel_store::{ArtifactMode, ArtifactStore};
        let dir = std::env::temp_dir().join(format!(
            "archrel-bundle-once-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir, ArtifactMode::ReadWrite).unwrap());
        let plans = Arc::new(PlanCache::new().with_artifact_store(Some(Arc::clone(&store))));
        let assembly = paper::remote_assembly(&paper::PaperParams::default()).unwrap();
        let service: ServiceId = paper::SEARCH.into();
        let fresh = sharing_evaluators(
            &assembly,
            &plans,
            &Arc::new(ValueCache::new()),
            forced(SolverPolicy::Compiled),
        );
        let mut compiled = 0;
        for i in 1..=6 {
            let eval = fresh();
            eval.failure_probability(
                &service,
                &paper::search_bindings(4.0, 64.0 * f64::from(i), 1.0),
            )
            .unwrap();
            compiled += eval.local_stats().programs_compiled;
        }
        assert_eq!(compiled, 1);
        let count = |prefix: &str| {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .starts_with(prefix)
                })
                .count() as u64
        };
        let bundles = count("bundle-");
        assert_eq!(bundles, 1, "one program, one bundle");
        assert_eq!(store.stats().writes, count("plan-") + bundles);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
