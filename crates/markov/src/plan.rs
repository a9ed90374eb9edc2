//! Compiled evaluation plans: compile-once, evaluate-many absorbing solves.
//!
//! Parameter sweeps, sensitivity stencils, and uncertainty propagation
//! re-solve the *same* absorbing-chain structure thousands of times with
//! only the numeric transition probabilities changing (the paper's
//! parametric dependency: `ap_j = ap_j(fp)`). A [`SolvePlan`] factors that
//! workload into two phases:
//!
//! 1. **Compile** ([`SolvePlan::compile`]): validate the chain like the
//!    dense/sparse solvers do (absorbing/transient classification,
//!    reachability, target reachability), lay out one *parameter slot* per
//!    transition of a transient row, and symbolically eliminate the system
//!    `(I − Q) x = r`:
//!    - acyclic transient subgraphs (up to self-loops) compile to a
//!      straight-line back-substitution *tape* whose arithmetic is
//!      bit-for-bit identical to the sparse path's
//!      [`crate::absorption_probability_sparse`] fast path;
//!    - cyclic subgraphs compile to a dense LU factorization of `I − Q₀` at
//!      the compile-time baseline parameters.
//! 2. **Evaluate** ([`SolvePlan::evaluate`]): map a numeric parameter vector
//!    straight to the absorption probability with no refactorization — an
//!    `O(nnz)` tape replay for acyclic plans; for cyclic plans a
//!    back-substitution against the baseline factorization when the
//!    parameters match the baseline `Q`, a Sherman–Morrison rank-1
//!    incremental solve (`O(n²)`) when exactly one transient row changed,
//!    and a full refactorization only for multi-row changes or when the
//!    rank-1 update is numerically refused.
//!
//! Plans are keyed by [`structure_fingerprint`]: a hash of the chain's
//! sparsity pattern, state classification, and query endpoints — everything
//! the plan depends on *except* the numeric probabilities. Two chains with
//! equal fingerprints can share one plan; a chain whose structure changes
//! (e.g. a perturbation drives a transition to exactly 0, which the builder
//! drops) gets a different fingerprint and therefore a fresh plan.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use archrel_linalg::{
    lu_solve_view, sherman_morrison_solve_view, LinalgError, Lu, Matrix, Vector, RANK1_REFUSAL_EPS,
    SINGULARITY_EPS,
};

use crate::absorbing::{check_reachability, check_target_reachable};
use crate::section::Section;
use crate::{Dtmc, MarkovError, Result, StateLabel};

/// Hash of everything a [`SolvePlan`] depends on except the numeric
/// transition probabilities: state count, query endpoints, the transient /
/// absorbing classification, and the adjacency (sparsity) pattern.
///
/// Chains with equal fingerprints are structurally interchangeable for
/// plan evaluation: a plan compiled from one can evaluate the parameters
/// extracted from the other. The hash is stable within a process, which is
/// all an in-memory plan cache needs.
pub fn structure_fingerprint<S: StateLabel>(chain: &Dtmc<S>, from: &S, target: &S) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    chain.len().hash(&mut h);
    chain.index_of(from).unwrap_or(usize::MAX).hash(&mut h);
    chain.index_of(target).unwrap_or(usize::MAX).hash(&mut h);
    // Classification matters (it decides which rows become Q rows), and the
    // per-row target lists pin the sparsity pattern and slot layout.
    for t in chain.transient_indices() {
        t.hash(&mut h);
    }
    for row in chain.adjacency() {
        row.len().hash(&mut h);
        for &(j, _) in row {
            j.hash(&mut h);
        }
    }
    h.finish()
}

/// Lane width of a [`ParamBlock`]: the number of parameter points a block
/// replay advances per tape step.
///
/// Eight `f64` lanes are one 64-byte cache line, so every slot read in the
/// blocked replay loads exactly one line, and the fixed-trip-count inner
/// loops (`for l in 0..LANE`) autovectorize on stable Rust against the
/// x86-64 SSE2 baseline without `unsafe` or intrinsics.
pub const LANE: usize = 8;

/// Batch of up to [`LANE`] parameter points for one plan structure.
///
/// Points are staged contiguously (lane `l` owns `data[l·slots ..
/// (l+1)·slots]`), so a [`ParamBlock::push`] is one `memcpy`; the blocked
/// replay in [`SolvePlan::evaluate_block`] gathers each slot's
/// `[f64; LANE]` lane group straight from those rows at flush time. An
/// eagerly interleaved lane-major layout (`data[slot][lane]`) would make
/// every push scatter one value per cache line across the whole block —
/// at a thousand slots that costs more than the replay itself — while the
/// gather reads each row as a forward-moving stream exactly once.
/// Unoccupied lanes keep whatever a previous use wrote — the replay never
/// reads them back out, so no per-push zero fill is needed.
#[derive(Debug, Clone)]
pub struct ParamBlock {
    slots: usize,
    len: usize,
    data: Vec<f64>,
}

impl ParamBlock {
    /// Creates an empty block for parameter vectors of `slots` entries.
    pub fn new(slots: usize) -> ParamBlock {
        ParamBlock {
            slots,
            len: 0,
            data: vec![0.0; slots * LANE],
        }
    }

    /// Creates an empty block sized for `plan`'s parameter vectors.
    pub fn for_plan(plan: &SolvePlan) -> ParamBlock {
        ParamBlock::new(plan.slot_count())
    }

    /// Parameter-vector width this block accepts.
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// Number of occupied lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lane is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether all [`LANE`] lanes are occupied.
    pub fn is_full(&self) -> bool {
        self.len == LANE
    }

    /// Appends one parameter point, returning the lane it occupies.
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error when `params.len()` does not
    /// match the block's slot count.
    ///
    /// # Panics
    ///
    /// Panics when the block is already full — flush with
    /// [`SolvePlan::evaluate_block`] and [`ParamBlock::clear`] first.
    pub fn push(&mut self, params: &[f64]) -> Result<usize> {
        if params.len() != self.slots {
            return Err(plan_shape_mismatch(self.slots, params.len()));
        }
        assert!(self.len < LANE, "ParamBlock is full (LANE = {LANE})");
        let lane = self.len;
        self.data[lane * self.slots..(lane + 1) * self.slots].copy_from_slice(params);
        self.len += 1;
        Ok(lane)
    }

    /// Empties the block (capacity and slot width are kept).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Extracts lane `lane`'s parameter vector into `out` (cleared first).
    ///
    /// # Panics
    ///
    /// Panics when `lane` is not an occupied lane.
    pub fn lane_params_into(&self, lane: usize, out: &mut Vec<f64>) {
        assert!(
            lane < self.len,
            "lane {lane} not occupied (len {})",
            self.len
        );
        out.clear();
        out.extend_from_slice(&self.data[lane * self.slots..(lane + 1) * self.slots]);
    }

    /// Lane `lane`'s staged parameter row (occupied or stale).
    fn lane_row(&self, lane: usize) -> &[f64] {
        &self.data[lane * self.slots..(lane + 1) * self.slots]
    }
}

/// One lane-major group of the blocked solution tile: the value of a single
/// transient state across all [`LANE`] lanes, aligned so each group is
/// exactly one 64-byte cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct Lane8([f64; LANE]);

/// Reusable work arena for [`SolvePlan::evaluate_scratch`] and
/// [`SolvePlan::evaluate_block`]: after warm-up, repeated evaluations of
/// same-sized plans perform no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    /// Scalar back-substitution vector.
    x: Vec<f64>,
    /// Blocked back-substitution tile, one cache-line-aligned lane group
    /// per transient.
    x_block: Vec<Lane8>,
    /// De-interleaved single-lane parameters (cyclic block fallback).
    lane_params: Vec<f64>,
    /// Per-lane results handed back from a block evaluation.
    out: Vec<f64>,
}

impl PlanScratch {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> PlanScratch {
        PlanScratch::default()
    }
}

/// Per-lane solve-kind tally of one [`SolvePlan::evaluate_block_with_kinds`]
/// call (mirrors [`PlanSolveKind`] across the block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockSolveKinds {
    /// Lanes answered by tape replay.
    pub tape: u64,
    /// Lanes answered from the baseline factorization (back-substitution
    /// or Sherman–Morrison rank-1).
    pub rank1: u64,
    /// Lanes that required a full refactorization.
    pub full: u64,
}

/// How one plan evaluation was answered (for the engine's solve counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSolveKind {
    /// Straight-line tape replay (acyclic plan) — no linear solve at all.
    Tape,
    /// The compile-time factorization was reused: either a plain
    /// back-substitution (only the right-hand side changed) or a
    /// Sherman–Morrison rank-1 update (exactly one transient row changed).
    Rank1,
    /// A full refactorization was required: more than one row changed, or
    /// the rank-1 update was numerically refused.
    Full,
}

/// Sentinel for "no slot" / "no index" in a plan's flat `u32` payload
/// arrays: the archive format has no `Option`, so absence is in-band.
pub const PLAN_SLOT_NONE: u32 = u32::MAX;

/// Slot-role tags of a cyclic plan's flat role encoding: entry `Q[row][col]`
/// of the transient-to-transient block, a contribution to `r[row]`
/// (transition to the query target), or a transition to a non-target
/// absorbing state (extracted for layout stability but unused by the solve).
const ROLE_Q: u32 = 0;
const ROLE_R: u32 = 1;
const ROLE_IGNORED: u32 = 2;

/// Flat back-substitution tape: one entry per transient position in solve
/// order, successor terms packed CSR-style. Each entry replicates the
/// sparse path's back-substitution arithmetic exactly; the flat `u32`
/// encoding (instead of per-step structs) is what lets the artifact store
/// archive and map a tape without pointer fixups.
#[derive(Debug, Clone)]
struct Tape {
    /// Transient position solved by step `k`.
    pos: Section<u32>,
    /// Slot of the direct transition to the target, or [`PLAN_SLOT_NONE`].
    r_slot: Section<u32>,
    /// Slot of the self-loop probability, or [`PLAN_SLOT_NONE`].
    self_slot: Section<u32>,
    /// CSR offsets into `term_slot`/`term_pos`: step `k` owns span
    /// `term_off[k]..term_off[k+1]`.
    term_off: Section<u32>,
    /// Successor-term parameter slots, in adjacency order.
    term_slot: Section<u32>,
    /// Successor-term transient positions, in adjacency order.
    term_pos: Section<u32>,
}

/// Compile-time state for a cyclic transient subgraph: the slot roles and
/// the baseline LU factorization of `I − Q₀`, flat-encoded as parallel
/// arrays so the whole plan is archivable.
#[derive(Debug, Clone)]
struct CyclicPlan {
    nt: usize,
    /// Per-slot role tag (`ROLE_Q` / `ROLE_R` / `ROLE_IGNORED`).
    role_tag: Section<u32>,
    /// Transient row of Q/R slots; [`PLAN_SLOT_NONE`] for ignored slots.
    role_row: Section<u32>,
    /// Transient column of Q slots; [`PLAN_SLOT_NONE`] otherwise.
    role_col: Section<u32>,
    /// Parameter vector the plan was compiled against (defines `Q₀`).
    baseline: Section<f64>,
    /// Combined row-major L/U factors of `I − Q₀` (see
    /// [`archrel_linalg::Lu`]).
    factors: Section<f64>,
    /// LU row permutation.
    perm: Section<u32>,
}

#[derive(Debug, Clone)]
enum PlanKind {
    Acyclic(Tape),
    Cyclic(Box<CyclicPlan>),
}

/// A [`SolvePlan`] decomposed into its flat payload arrays — the unit of
/// exchange with the on-disk artifact store (`archrel-store`).
///
/// Obtained from [`SolvePlan::to_parts`] for archival; reassembled (with
/// full structural validation) by [`SolvePlan::from_parts`]. Each payload
/// array is a [`Section`], so a store can hand back zero-copy views into a
/// mapped archive instead of owned vectors.
#[derive(Debug, Clone)]
pub struct PlanParts {
    /// Structure fingerprint the plan was compiled for.
    pub fingerprint: u64,
    /// Total state count of structurally matching chains.
    pub n_states: usize,
    /// Transient position of the query source.
    pub from_pos: usize,
    /// Parameter-vector width.
    pub slot_count: usize,
    /// The kind-specific payload arrays.
    pub body: PlanBody,
}

/// Kind-specific payload arrays of a [`PlanParts`].
#[derive(Debug, Clone)]
pub enum PlanBody {
    /// Back-substitution tape of an acyclic plan (see the private `Tape`
    /// layout: positions, slot references, CSR successor terms).
    Acyclic {
        /// Chain indices of the transient states, ascending.
        t_idx: Section<u32>,
        /// Transient position solved by each tape step.
        pos: Section<u32>,
        /// Target-transition slot per step, or [`PLAN_SLOT_NONE`].
        r_slot: Section<u32>,
        /// Self-loop slot per step, or [`PLAN_SLOT_NONE`].
        self_slot: Section<u32>,
        /// CSR offsets into `term_slot`/`term_pos` (`len == steps + 1`).
        term_off: Section<u32>,
        /// Successor-term parameter slots.
        term_slot: Section<u32>,
        /// Successor-term transient positions.
        term_pos: Section<u32>,
    },
    /// Slot roles and baseline factorization of a cyclic plan.
    Cyclic {
        /// Chain indices of the transient states, ascending.
        t_idx: Section<u32>,
        /// Per-slot role tag (0 = Q entry, 1 = target transition,
        /// 2 = ignored).
        role_tag: Section<u32>,
        /// Transient row per Q/R slot, [`PLAN_SLOT_NONE`] when ignored.
        role_row: Section<u32>,
        /// Transient column per Q slot, [`PLAN_SLOT_NONE`] otherwise.
        role_col: Section<u32>,
        /// Compile-time baseline parameters.
        baseline: Section<f64>,
        /// Row-major combined L/U factors of `I − Q₀`.
        factors: Section<f64>,
        /// LU row permutation.
        perm: Section<u32>,
    },
}

/// A compiled, reusable solve for one absorbing-chain structure.
///
/// Compiling validates and symbolically eliminates the chain once;
/// evaluating maps a parameter vector to the absorption probability with
/// no refactorization (see the crate documentation).
///
/// # Examples
///
/// ```
/// use archrel_markov::{DtmcBuilder, SolvePlan};
///
/// # fn main() -> Result<(), archrel_markov::MarkovError> {
/// let chain = DtmcBuilder::new()
///     .transition("s", "end", 0.9)
///     .transition("s", "fail", 0.1)
///     .build()?;
/// let plan = SolvePlan::compile(&chain, &"s", &"end")?;
/// let params = plan.parameters(&chain)?;
/// assert!((plan.evaluate(&params)? - 0.9).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SolvePlan {
    fingerprint: u64,
    n_states: usize,
    /// Chain indices of the transient states, in classification order.
    t_idx: Section<u32>,
    from_pos: usize,
    slot_count: usize,
    kind: PlanKind,
}

impl SolvePlan {
    /// Compiles a plan for the absorption probability `from → target`.
    ///
    /// Performs exactly the validation of the direct solvers, in the same
    /// order, so a structure that the sparse path rejects is rejected here
    /// with the same typed error.
    ///
    /// # Errors
    ///
    /// - [`MarkovError::NoAbsorbingStates`] / [`MarkovError::NoTransientStates`]
    ///   when the chain is not a proper absorbing chain;
    /// - [`MarkovError::UnknownState`] when `target` is not absorbing or
    ///   `from` is not transient (including the degenerate `from == target`);
    /// - [`MarkovError::TrappedMass`] when some transient state cannot reach
    ///   any absorbing state;
    /// - [`MarkovError::UnreachableTarget`] when `target` cannot be reached
    ///   from `from` at all.
    pub fn compile<S: StateLabel>(chain: &Dtmc<S>, from: &S, target: &S) -> Result<SolvePlan> {
        Ok(Self::compile_inner(chain, from, target, false)?
            .expect("full compilation always produces a plan"))
    }

    /// Like [`SolvePlan::compile`], but returns `Ok(None)` instead of
    /// building a plan when the transient subgraph is cyclic.
    ///
    /// Cyclic plans carry a dense LU factorization whose `O(n³)` compile
    /// cost is only worth paying when the caller explicitly opted into the
    /// compiled backend; adaptive callers use this entry point to promote
    /// acyclic structures only, at no more cost than one sparse solve.
    ///
    /// # Errors
    ///
    /// Same validation errors as [`SolvePlan::compile`].
    pub fn compile_acyclic<S: StateLabel>(
        chain: &Dtmc<S>,
        from: &S,
        target: &S,
    ) -> Result<Option<SolvePlan>> {
        Self::compile_inner(chain, from, target, true)
    }

    fn compile_inner<S: StateLabel>(
        chain: &Dtmc<S>,
        from: &S,
        target: &S,
        acyclic_only: bool,
    ) -> Result<Option<SolvePlan>> {
        let t_idx = chain.transient_indices();
        let a_idx = chain.absorbing_indices();
        if a_idx.is_empty() {
            return Err(MarkovError::NoAbsorbingStates);
        }
        if t_idx.is_empty() {
            return Err(MarkovError::NoTransientStates);
        }

        let pos_of_state: HashMap<usize, usize> =
            t_idx.iter().enumerate().map(|(k, &i)| (i, k)).collect();
        let from_idx = chain
            .index_of(from)
            .filter(|i| pos_of_state.contains_key(i))
            .ok_or_else(|| MarkovError::UnknownState {
                state: format!("{from:?} (not a transient state)"),
            })?;
        let from_pos = pos_of_state[&from_idx];
        let target_idx = chain
            .index_of(target)
            .filter(|i| a_idx.contains(i))
            .ok_or_else(|| MarkovError::UnknownState {
                state: format!("{target:?} (not an absorbing state)"),
            })?;

        check_reachability(chain, &t_idx, &a_idx)?;
        check_target_reachable(chain, from_idx, target_idx)?;

        // Slot layout: one slot per adjacency entry of each transient row,
        // in classification/adjacency order — the same order
        // `SolvePlan::parameters` extracts.
        let nt = t_idx.len();
        let mut role_tag: Vec<u32> = Vec::new();
        let mut role_row: Vec<u32> = Vec::new();
        let mut role_col: Vec<u32> = Vec::new();
        let mut baseline: Vec<f64> = Vec::new();
        // Per transient row: `(col position, slot)` of the Q entries, in
        // adjacency order (mirrors the sparse path's `q_rows`).
        let mut q_rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nt];
        let mut r_slots: Vec<Option<usize>> = vec![None; nt];
        for (k, &i) in t_idx.iter().enumerate() {
            for &(j, p) in &chain.adjacency()[i] {
                let slot = baseline.len();
                baseline.push(p);
                if let Some(&kj) = pos_of_state.get(&j) {
                    role_tag.push(ROLE_Q);
                    role_row.push(k as u32);
                    role_col.push(kj as u32);
                    q_rows[k].push((kj, slot));
                } else if j == target_idx {
                    role_tag.push(ROLE_R);
                    role_row.push(k as u32);
                    role_col.push(PLAN_SLOT_NONE);
                    r_slots[k] = Some(slot);
                } else {
                    role_tag.push(ROLE_IGNORED);
                    role_row.push(PLAN_SLOT_NONE);
                    role_col.push(PLAN_SLOT_NONE);
                }
            }
        }
        let slot_count = baseline.len();

        let kind = match topological_order(&q_rows) {
            Some(order) => {
                // Bake the back-substitution into a flat tape, one entry per
                // transient position in reverse topological order, successor
                // terms packed CSR-style in adjacency order.
                let mut pos = Vec::with_capacity(nt);
                let mut r_slot = Vec::with_capacity(nt);
                let mut self_slot = Vec::with_capacity(nt);
                let mut term_off = Vec::with_capacity(nt + 1);
                let mut term_slot = Vec::new();
                let mut term_pos = Vec::new();
                term_off.push(0u32);
                for &k in order.iter().rev() {
                    pos.push(k as u32);
                    r_slot.push(r_slots[k].map_or(PLAN_SLOT_NONE, |s| s as u32));
                    self_slot.push(
                        q_rows[k]
                            .iter()
                            .find(|&&(j, _)| j == k)
                            .map_or(PLAN_SLOT_NONE, |&(_, slot)| slot as u32),
                    );
                    for &(j, slot) in q_rows[k].iter().filter(|&&(j, _)| j != k) {
                        term_slot.push(slot as u32);
                        term_pos.push(j as u32);
                    }
                    term_off.push(term_slot.len() as u32);
                }
                PlanKind::Acyclic(Tape {
                    pos: pos.into(),
                    r_slot: r_slot.into(),
                    self_slot: self_slot.into(),
                    term_off: term_off.into(),
                    term_slot: term_slot.into(),
                    term_pos: term_pos.into(),
                })
            }
            None if acyclic_only => return Ok(None),
            None => {
                let mut a = Matrix::identity(nt);
                for (slot, &tag) in role_tag.iter().enumerate() {
                    if tag == ROLE_Q {
                        let (row, col) = (role_row[slot] as usize, role_col[slot] as usize);
                        a.set(row, col, a.get(row, col) - baseline[slot]);
                    }
                }
                let lu = Lu::decompose(&a).map_err(|e| match e {
                    LinalgError::Singular { pivot } => MarkovError::TrappedMass {
                        state: format!("{:?}", chain.state_at(t_idx[pivot.min(nt - 1)])),
                    },
                    other => MarkovError::Linalg(other),
                })?;
                PlanKind::Cyclic(Box::new(CyclicPlan {
                    nt,
                    role_tag: role_tag.into(),
                    role_row: role_row.into(),
                    role_col: role_col.into(),
                    baseline: baseline.into(),
                    factors: lu.factors_data().to_vec().into(),
                    perm: lu.perm().to_vec().into(),
                }))
            }
        };

        Ok(Some(SolvePlan {
            fingerprint: structure_fingerprint(chain, from, target),
            n_states: chain.len(),
            t_idx: t_idx.iter().map(|&i| i as u32).collect::<Vec<u32>>().into(),
            from_pos,
            slot_count,
            kind,
        }))
    }

    /// The plan's structure fingerprint (see [`structure_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of parameter slots an evaluation vector must fill.
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Number of states of the chains this plan applies to.
    pub fn states(&self) -> usize {
        self.n_states
    }

    /// Whether the plan compiled to a straight-line tape (acyclic transient
    /// subgraph, up to self-loops).
    pub fn is_acyclic(&self) -> bool {
        matches!(self.kind, PlanKind::Acyclic { .. })
    }

    /// Extracts this plan's parameter vector from a structurally matching
    /// chain: the transition probabilities of every transient row, in
    /// adjacency order.
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error when the chain's shape does not
    /// match the plan (callers should compare [`structure_fingerprint`]s —
    /// this check is a cheap backstop, not a full structural comparison).
    pub fn parameters<S: StateLabel>(&self, chain: &Dtmc<S>) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(self.slot_count);
        self.parameters_into(chain, &mut out)?;
        Ok(out)
    }

    /// Like [`SolvePlan::parameters`], but writes into a caller-owned buffer
    /// (cleared first) so hot sweep loops extract parameters with no
    /// per-point heap allocation.
    ///
    /// # Errors
    ///
    /// Same shape backstop as [`SolvePlan::parameters`].
    pub fn parameters_into<S: StateLabel>(
        &self,
        chain: &Dtmc<S>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        out.clear();
        if chain.len() != self.n_states {
            return Err(plan_shape_mismatch(self.slot_count, chain.len()));
        }
        out.reserve(self.slot_count);
        let adj = chain.adjacency();
        for &i in self.t_idx.as_slice() {
            for &(_, p) in &adj[i as usize] {
                out.push(p);
            }
        }
        if out.len() != self.slot_count {
            let got = out.len();
            out.clear();
            return Err(plan_shape_mismatch(self.slot_count, got));
        }
        Ok(())
    }

    /// Evaluates the plan on a parameter vector, returning the absorption
    /// probability `from → target`.
    ///
    /// # Errors
    ///
    /// See [`SolvePlan::evaluate_with_kind`].
    pub fn evaluate(&self, params: &[f64]) -> Result<f64> {
        self.evaluate_with_kind(params).map(|(p, _)| p)
    }

    /// Like [`SolvePlan::evaluate`], also reporting how the evaluation was
    /// answered (tape replay, rank-1 incremental, or full refactorization).
    ///
    /// # Errors
    ///
    /// - a dimension mismatch when `params.len() != self.slot_count()`;
    /// - [`MarkovError::TrappedMass`] when the parameters make the system
    ///   singular (probability mass can no longer escape some state);
    /// - [`MarkovError::Linalg`] on other numerical failures.
    pub fn evaluate_with_kind(&self, params: &[f64]) -> Result<(f64, PlanSolveKind)> {
        let mut x = Vec::new();
        self.evaluate_into(params, &mut x)
    }

    /// Like [`SolvePlan::evaluate_with_kind`], but borrows its work buffers
    /// from a reusable [`PlanScratch`] so repeated evaluations allocate
    /// nothing after warm-up.
    ///
    /// # Errors
    ///
    /// Same as [`SolvePlan::evaluate_with_kind`].
    pub fn evaluate_scratch(
        &self,
        params: &[f64],
        scratch: &mut PlanScratch,
    ) -> Result<(f64, PlanSolveKind)> {
        self.evaluate_into(params, &mut scratch.x)
    }

    fn evaluate_into(&self, params: &[f64], x: &mut Vec<f64>) -> Result<(f64, PlanSolveKind)> {
        if params.len() != self.slot_count {
            return Err(plan_shape_mismatch(self.slot_count, params.len()));
        }
        match &self.kind {
            PlanKind::Acyclic(tape) => {
                x.clear();
                x.resize(self.t_idx.len(), 0.0);
                let pos = tape.pos.as_slice();
                let r_slot = tape.r_slot.as_slice();
                let self_slot = tape.self_slot.as_slice();
                let term_off = tape.term_off.as_slice();
                let term_slot = tape.term_slot.as_slice();
                let term_pos = tape.term_pos.as_slice();
                for k in 0..pos.len() {
                    let mut s = match r_slot[k] {
                        PLAN_SLOT_NONE => 0.0,
                        slot => params[slot as usize],
                    };
                    for t in term_off[k] as usize..term_off[k + 1] as usize {
                        s += params[term_slot[t] as usize] * x[term_pos[t] as usize];
                    }
                    let self_loop = match self_slot[k] {
                        PLAN_SLOT_NONE => 0.0,
                        slot => params[slot as usize],
                    };
                    let den = 1.0 - self_loop;
                    if den <= 0.0 {
                        return Err(MarkovError::TrappedMass {
                            state: format!("transient position {} (self-loop ≥ 1)", pos[k]),
                        });
                    }
                    x[pos[k] as usize] = s / den;
                }
                Ok((x[self.from_pos], PlanSolveKind::Tape))
            }
            PlanKind::Cyclic(c) => self.evaluate_cyclic(c, params),
        }
    }

    /// Evaluates every occupied lane of `block` in one pass, returning the
    /// per-lane absorption probabilities in lane order (a slice into
    /// `scratch`, valid until its next use).
    ///
    /// On acyclic plans the back-substitution tape is replayed *once*, each
    /// step advancing all [`LANE`] lanes through fixed-width loops that
    /// autovectorize on stable Rust; per lane the arithmetic (order of
    /// additions, one multiply per term, one divide per self-loop) is
    /// exactly the scalar [`SolvePlan::evaluate`] sequence, so block results
    /// are bitwise-identical to scalar results regardless of block
    /// composition or occupancy. Cyclic plans fall back to the per-point
    /// rank-1 replay lane by lane inside the same API.
    ///
    /// # Errors
    ///
    /// - a dimension mismatch when the block's slot count does not match;
    /// - the per-lane errors of [`SolvePlan::evaluate_with_kind`]
    ///   (only *occupied* lanes are checked — garbage in unused lanes never
    ///   surfaces as an error or a result).
    pub fn evaluate_block<'s>(
        &self,
        block: &ParamBlock,
        scratch: &'s mut PlanScratch,
    ) -> Result<&'s [f64]> {
        self.evaluate_block_with_kinds(block, scratch)
            .map(|(v, _)| v)
    }

    /// Like [`SolvePlan::evaluate_block`], also tallying how each lane was
    /// answered.
    ///
    /// # Errors
    ///
    /// See [`SolvePlan::evaluate_block`].
    pub fn evaluate_block_with_kinds<'s>(
        &self,
        block: &ParamBlock,
        scratch: &'s mut PlanScratch,
    ) -> Result<(&'s [f64], BlockSolveKinds)> {
        if block.slot_count() != self.slot_count {
            return Err(plan_shape_mismatch(self.slot_count, block.slot_count()));
        }
        let occupied = block.len();
        let mut kinds = BlockSolveKinds::default();
        match &self.kind {
            PlanKind::Acyclic(tape) => {
                scratch.x_block.clear();
                scratch.x_block.resize(self.t_idx.len(), Lane8::default());
                // Gather each slot's lane group straight from the staged
                // rows: every tape slot is read exactly once, and slot
                // indices grow in tape order, so the LANE reads per slot
                // advance as forward-moving streams — materializing a
                // lane-major tile first would only add a full extra pass of
                // write+read traffic over the same data. Stale rows of a
                // partially filled block gather harmlessly — unoccupied lane
                // values are never read back out below.
                let rows: [&[f64]; LANE] = std::array::from_fn(|l| block.lane_row(l));
                Self::replay_tape(tape, &rows, occupied, &mut scratch.x_block)?;
                kinds.tape = occupied as u64;
                scratch.out.clear();
                scratch
                    .out
                    .extend_from_slice(&scratch.x_block[self.from_pos].0[..occupied]);
            }
            PlanKind::Cyclic(c) => {
                scratch.out.clear();
                for lane in 0..occupied {
                    block.lane_params_into(lane, &mut scratch.lane_params);
                    let (value, kind) = self.evaluate_cyclic(c, &scratch.lane_params)?;
                    match kind {
                        PlanSolveKind::Tape => kinds.tape += 1,
                        PlanSolveKind::Rank1 => kinds.rank1 += 1,
                        PlanSolveKind::Full => kinds.full += 1,
                    }
                    scratch.out.push(value);
                }
            }
        }
        Ok((scratch.out.as_slice(), kinds))
    }

    /// Portable lane-8 tape replay. The fixed-trip-count inner loops
    /// autovectorize on stable Rust against the x86-64 SSE2 baseline; per
    /// lane the arithmetic is exactly the scalar [`SolvePlan::evaluate`]
    /// sequence.
    fn replay_tape(
        tape: &Tape,
        rows: &[&[f64]; LANE],
        occupied: usize,
        x_block: &mut [Lane8],
    ) -> Result<()> {
        let pos = tape.pos.as_slice();
        let r_slot = tape.r_slot.as_slice();
        let self_slot = tape.self_slot.as_slice();
        let term_off = tape.term_off.as_slice();
        let term_slot = tape.term_slot.as_slice();
        let term_pos = tape.term_pos.as_slice();
        for k in 0..pos.len() {
            let mut s = match r_slot[k] {
                PLAN_SLOT_NONE => [0.0; LANE],
                slot => std::array::from_fn(|l| rows[l][slot as usize]),
            };
            for t in term_off[k] as usize..term_off[k + 1] as usize {
                let slot = term_slot[t] as usize;
                let xj = &x_block[term_pos[t] as usize].0;
                for l in 0..LANE {
                    s[l] += rows[l][slot] * xj[l];
                }
            }
            if self_slot[k] != PLAN_SLOT_NONE {
                let slot = self_slot[k] as usize;
                for (l, sl) in s.iter_mut().enumerate() {
                    let den = 1.0 - rows[l][slot];
                    // Only occupied lanes can fail: unused lanes may
                    // hold stale garbage but are never read out.
                    if l < occupied && den <= 0.0 {
                        return Err(MarkovError::TrappedMass {
                            state: format!("transient position {} (self-loop ≥ 1)", pos[k]),
                        });
                    }
                    *sl /= den;
                }
            }
            // When there is no self-loop the scalar path divides by
            // `1.0 - 0.0`; `s / 1.0` is exact in IEEE 754, so
            // skipping the division preserves bitwise identity.
            x_block[pos[k] as usize] = Lane8(s);
        }
        Ok(())
    }

    fn evaluate_cyclic(&self, c: &CyclicPlan, params: &[f64]) -> Result<(f64, PlanSolveKind)> {
        // Right-hand side and the set of transient rows whose Q entries
        // moved away from the compile-time baseline.
        let role_tag = c.role_tag.as_slice();
        let role_row = c.role_row.as_slice();
        let role_col = c.role_col.as_slice();
        let baseline = c.baseline.as_slice();
        let mut r = vec![0.0_f64; c.nt];
        let mut changed: Vec<usize> = Vec::new();
        for (slot, &tag) in role_tag.iter().enumerate() {
            match tag {
                ROLE_R => r[role_row[slot] as usize] += params[slot],
                ROLE_Q => {
                    let row = role_row[slot] as usize;
                    if params[slot] != baseline[slot] && changed.last() != Some(&row) {
                        changed.push(row);
                    }
                }
                _ => {}
            }
        }
        match changed[..] {
            [] => {
                // Same Q as the baseline: one back-substitution.
                let x = lu_solve_view(c.nt, c.factors.as_slice(), c.perm.as_slice(), &r)?;
                Ok((x[self.from_pos], PlanSolveKind::Rank1))
            }
            [row] => {
                // Exactly one row moved: Sherman–Morrison against the
                // baseline factorization, with a numerical refusal fallback.
                let mut v = vec![0.0_f64; c.nt];
                for (slot, &tag) in role_tag.iter().enumerate() {
                    if tag == ROLE_Q && role_row[slot] as usize == row {
                        // A = I − Q, so a Q delta enters A negated.
                        v[role_col[slot] as usize] -= params[slot] - baseline[slot];
                    }
                }
                match sherman_morrison_solve_view(
                    c.nt,
                    c.factors.as_slice(),
                    c.perm.as_slice(),
                    &r,
                    row,
                    &v,
                    RANK1_REFUSAL_EPS,
                )? {
                    Some(x) => Ok((x[self.from_pos], PlanSolveKind::Rank1)),
                    None => self.full_cyclic_solve(c, params, &r),
                }
            }
            _ => self.full_cyclic_solve(c, params, &r),
        }
    }

    fn full_cyclic_solve(
        &self,
        c: &CyclicPlan,
        params: &[f64],
        b: &[f64],
    ) -> Result<(f64, PlanSolveKind)> {
        let mut a = Matrix::identity(c.nt);
        for (slot, &tag) in c.role_tag.as_slice().iter().enumerate() {
            if tag == ROLE_Q {
                let (row, col) = (
                    c.role_row.as_slice()[slot] as usize,
                    c.role_col.as_slice()[slot] as usize,
                );
                a.set(row, col, a.get(row, col) - params[slot]);
            }
        }
        let lu = Lu::decompose(&a).map_err(|e| match e {
            LinalgError::Singular { pivot } => MarkovError::TrappedMass {
                state: format!("transient position {}", pivot.min(c.nt - 1)),
            },
            other => MarkovError::Linalg(other),
        })?;
        let x = lu.solve(&Vector::from_slice(b))?;
        Ok((x[self.from_pos], PlanSolveKind::Full))
    }

    /// Decomposes the plan into its flat payload arrays for archival.
    ///
    /// Mapped sections are cheaply cloned (an `Arc` bump); a freshly
    /// compiled plan's owned arrays are copied — archival is a cold path.
    pub fn to_parts(&self) -> PlanParts {
        let body = match &self.kind {
            PlanKind::Acyclic(tape) => PlanBody::Acyclic {
                t_idx: self.t_idx.clone(),
                pos: tape.pos.clone(),
                r_slot: tape.r_slot.clone(),
                self_slot: tape.self_slot.clone(),
                term_off: tape.term_off.clone(),
                term_slot: tape.term_slot.clone(),
                term_pos: tape.term_pos.clone(),
            },
            PlanKind::Cyclic(c) => PlanBody::Cyclic {
                t_idx: self.t_idx.clone(),
                role_tag: c.role_tag.clone(),
                role_row: c.role_row.clone(),
                role_col: c.role_col.clone(),
                baseline: c.baseline.clone(),
                factors: c.factors.clone(),
                perm: c.perm.clone(),
            },
        };
        PlanParts {
            fingerprint: self.fingerprint,
            n_states: self.n_states,
            from_pos: self.from_pos,
            slot_count: self.slot_count,
            body,
        }
    }

    /// Reassembles a plan from archived parts, fully validating structure:
    /// every index is bounds-checked, tape positions and the LU permutation
    /// must be permutations, offsets must be monotone, baselines must be
    /// finite probabilities, and factors must be finite with non-singular
    /// pivots — so a plan built from a corrupt or hostile archive can never
    /// index out of bounds or divide by an invalid pivot. (A well-formed but
    /// *wrong* tape still yields wrong numbers; the store's checksum and
    /// fingerprint keying are what tie an archive to its structure.)
    ///
    /// # Errors
    ///
    /// [`MarkovError::InvalidPlanArchive`] naming the first failed check.
    pub fn from_parts(parts: PlanParts) -> Result<SolvePlan> {
        fn invalid(reason: impl Into<String>) -> MarkovError {
            MarkovError::InvalidPlanArchive {
                reason: reason.into(),
            }
        }
        fn check_t_idx(t_idx: &Section<u32>, n_states: usize) -> Result<usize> {
            let t = t_idx.as_slice();
            if t.is_empty() {
                return Err(invalid("no transient states"));
            }
            // Branchless flag reduction (vectorizes — this runs on every
            // archive load): strictly ascending means the maximum is the
            // last element, so the range check collapses to one compare.
            let mut ascending = true;
            for w in t.windows(2) {
                ascending &= w[0] < w[1];
            }
            if !ascending {
                return Err(invalid("transient indices not strictly ascending"));
            }
            if t[t.len() - 1] as usize >= n_states {
                return Err(invalid("transient index out of range"));
            }
            Ok(t.len())
        }
        fn check_permutation(values: &[u32], n: usize, what: &str) -> Result<()> {
            // `n` distinct in-range values over `n` slots is a permutation
            // (pigeonhole), so marking seen slots and counting them replaces
            // per-element duplicate detection. The range test folds into a
            // flag, the index clamps, and the marks are plain byte stores
            // (no load-modify-store), so the marking loop carries no
            // data-dependent branch — this runs on every archive load.
            if values.len() != n {
                return Err(invalid(format!("{what} is not a permutation")));
            }
            let mut seen = vec![0u8; n];
            let mut in_range = true;
            let cap = n.saturating_sub(1);
            for &p in values {
                let p = p as usize;
                in_range &= p < n;
                seen[p.min(cap)] = 1;
            }
            if !in_range || seen.iter().map(|&b| b as usize).sum::<usize>() != n {
                return Err(invalid(format!("{what} is not a permutation")));
            }
            Ok(())
        }

        let PlanParts {
            fingerprint,
            n_states,
            from_pos,
            slot_count,
            body,
        } = parts;
        if slot_count >= PLAN_SLOT_NONE as usize {
            return Err(invalid("slot count overflows the u32 tape encoding"));
        }
        match body {
            PlanBody::Acyclic {
                t_idx,
                pos,
                r_slot,
                self_slot,
                term_off,
                term_slot,
                term_pos,
            } => {
                let nt = check_t_idx(&t_idx, n_states)?;
                if from_pos >= nt {
                    return Err(invalid("source position out of range"));
                }
                if pos.len() != nt || r_slot.len() != nt || self_slot.len() != nt {
                    return Err(invalid("tape arrays do not match the transient count"));
                }
                if term_off.len() != nt + 1 {
                    return Err(invalid("term offsets do not match the transient count"));
                }
                let off = term_off.as_slice();
                let mut monotone = off[0] == 0;
                for w in off.windows(2) {
                    monotone &= w[0] <= w[1];
                }
                if !monotone {
                    return Err(invalid("term offsets not monotone from zero"));
                }
                if off[nt] as usize != term_slot.len() || term_slot.len() != term_pos.len() {
                    return Err(invalid("term arrays do not match the term offsets"));
                }
                check_permutation(pos.as_slice(), nt, "tape position array")?;
                // Range checks as branchless max-reductions (the compiler
                // vectorizes these): one compare per array instead of one
                // per element — these passes run on every archive load.
                // `PLAN_SLOT_NONE` is `u32::MAX`, so `wrapping_add(1)` maps
                // it to 0 and every real slot to `slot + 1`, all in u32.
                let max_slot_plus1 =
                    |xs: &[u32]| xs.iter().map(|&s| s.wrapping_add(1)).max().unwrap_or(0);
                if max_slot_plus1(r_slot.as_slice()) as usize > slot_count
                    || max_slot_plus1(self_slot.as_slice()) as usize > slot_count
                {
                    return Err(invalid("tape slot out of range"));
                }
                if term_slot
                    .as_slice()
                    .iter()
                    .max()
                    .is_some_and(|&s| s as usize >= slot_count)
                {
                    return Err(invalid("term slot out of range"));
                }
                if term_pos
                    .as_slice()
                    .iter()
                    .max()
                    .is_some_and(|&p| p as usize >= nt)
                {
                    return Err(invalid("term position out of range"));
                }
                Ok(SolvePlan {
                    fingerprint,
                    n_states,
                    t_idx,
                    from_pos,
                    slot_count,
                    kind: PlanKind::Acyclic(Tape {
                        pos,
                        r_slot,
                        self_slot,
                        term_off,
                        term_slot,
                        term_pos,
                    }),
                })
            }
            PlanBody::Cyclic {
                t_idx,
                role_tag,
                role_row,
                role_col,
                baseline,
                factors,
                perm,
            } => {
                let nt = check_t_idx(&t_idx, n_states)?;
                if from_pos >= nt {
                    return Err(invalid("source position out of range"));
                }
                if role_tag.len() != slot_count
                    || role_row.len() != slot_count
                    || role_col.len() != slot_count
                    || baseline.len() != slot_count
                {
                    return Err(invalid("role arrays do not match the slot count"));
                }
                if factors.len() != nt * nt || perm.len() != nt {
                    return Err(invalid("factorization does not match the transient count"));
                }
                for (slot, &tag) in role_tag.as_slice().iter().enumerate() {
                    let (row, col) = (role_row.as_slice()[slot], role_col.as_slice()[slot]);
                    match tag {
                        ROLE_Q if (row as usize) < nt && (col as usize) < nt => {}
                        ROLE_R if (row as usize) < nt => {}
                        ROLE_IGNORED => {}
                        ROLE_Q | ROLE_R => {
                            return Err(invalid("role row/column out of range"));
                        }
                        _ => return Err(invalid("unknown slot role tag")),
                    }
                }
                if baseline
                    .as_slice()
                    .iter()
                    .any(|&p| !p.is_finite() || !(0.0..=1.0).contains(&p))
                {
                    return Err(invalid("baseline entry is not a probability"));
                }
                let f = factors.as_slice();
                if f.iter().any(|&v| !v.is_finite()) {
                    return Err(invalid("non-finite factorization entry"));
                }
                if (0..nt).any(|i| f[i * nt + i].abs() < SINGULARITY_EPS) {
                    return Err(invalid("singular factorization pivot"));
                }
                check_permutation(perm.as_slice(), nt, "LU permutation")?;
                Ok(SolvePlan {
                    fingerprint,
                    n_states,
                    t_idx,
                    from_pos,
                    slot_count,
                    kind: PlanKind::Cyclic(Box::new(CyclicPlan {
                        nt,
                        role_tag,
                        role_row,
                        role_col,
                        baseline,
                        factors,
                        perm,
                    })),
                })
            }
        }
    }

    /// Whether every payload array of this plan is a zero-copy view into a
    /// mapped archive (true only for plans reassembled by the artifact
    /// store from a mapped file).
    pub fn is_zero_copy(&self) -> bool {
        if !self.t_idx.is_mapped() {
            return false;
        }
        match &self.kind {
            PlanKind::Acyclic(t) => {
                t.pos.is_mapped()
                    && t.r_slot.is_mapped()
                    && t.self_slot.is_mapped()
                    && t.term_off.is_mapped()
                    && t.term_slot.is_mapped()
                    && t.term_pos.is_mapped()
            }
            PlanKind::Cyclic(c) => {
                c.role_tag.is_mapped()
                    && c.role_row.is_mapped()
                    && c.role_col.is_mapped()
                    && c.baseline.is_mapped()
                    && c.factors.is_mapped()
                    && c.perm.is_mapped()
            }
        }
    }
}

fn plan_shape_mismatch(expected: usize, got: usize) -> MarkovError {
    MarkovError::Linalg(LinalgError::DimensionMismatch {
        op: "compiled plan evaluation",
        left: (expected, 1),
        right: (got, 1),
    })
}

/// Kahn's algorithm over the transient subgraph's `(col, slot)` rows,
/// ignoring self-loops — the same test the sparse path applies.
fn topological_order(q_rows: &[Vec<(usize, usize)>]) -> Option<Vec<usize>> {
    let nt = q_rows.len();
    let mut indegree = vec![0usize; nt];
    for (k, row) in q_rows.iter().enumerate() {
        for &(j, _) in row {
            if j != k {
                indegree[j] += 1;
            }
        }
    }
    let mut queue: std::collections::VecDeque<usize> =
        (0..nt).filter(|&k| indegree[k] == 0).collect();
    let mut order = Vec::with_capacity(nt);
    while let Some(k) = queue.pop_front() {
        order.push(k);
        for &(j, _) in &q_rows[k] {
            if j != k {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push_back(j);
                }
            }
        }
    }
    (order.len() == nt).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        absorption_probability_sparse, absorption_probability_to, DtmcBuilder, SparseSolveOptions,
    };

    fn branchy_chain(p_loop: f64) -> Dtmc<&'static str> {
        DtmcBuilder::new()
            .transition("s", "a", 0.6)
            .transition("s", "b", 0.4)
            .transition("a", "a", p_loop)
            .transition("a", "end", 0.8 - p_loop)
            .transition("a", "fail", 0.2)
            .transition("b", "end", 0.9)
            .transition("b", "fail", 0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn acyclic_tape_is_bitwise_identical_to_the_sparse_path() {
        for p_loop in [0.0, 0.1, 0.5, 0.79] {
            let chain = branchy_chain(p_loop);
            let sparse =
                absorption_probability_sparse(&chain, &"s", &"end", SparseSolveOptions::default())
                    .unwrap();
            let plan = SolvePlan::compile(&chain, &"s", &"end").unwrap();
            assert!(plan.is_acyclic());
            let params = plan.parameters(&chain).unwrap();
            let (value, kind) = plan.evaluate_with_kind(&params).unwrap();
            assert_eq!(kind, PlanSolveKind::Tape);
            assert_eq!(value.to_bits(), sparse.to_bits(), "p_loop {p_loop}");
        }
    }

    #[test]
    fn one_plan_evaluates_every_same_structure_chain() {
        let plan = SolvePlan::compile(&branchy_chain(0.1), &"s", &"end").unwrap();
        for p_loop in [0.0_f64, 0.25, 0.6] {
            let chain = branchy_chain(p_loop);
            if p_loop > 0.0 {
                assert_eq!(
                    plan.fingerprint(),
                    structure_fingerprint(&chain, &"s", &"end")
                );
            } else {
                // Zero-probability edges are dropped by the builder, so the
                // self-loop-free variant is a *different* structure.
                assert_ne!(
                    plan.fingerprint(),
                    structure_fingerprint(&chain, &"s", &"end")
                );
                continue;
            }
            let dense = absorption_probability_to(&chain, &"s", &"end").unwrap();
            let value = plan.evaluate(&plan.parameters(&chain).unwrap()).unwrap();
            assert!((value - dense).abs() < 1e-12, "p_loop {p_loop}");
        }
    }

    fn gamblers_ruin(p_up: f64, n: u32) -> Dtmc<u32> {
        let mut b = DtmcBuilder::new();
        for i in 1..n {
            b = b
                .transition(i, i - 1, 1.0 - p_up)
                .transition(i, i + 1, p_up);
        }
        b.state(0).state(n).build().unwrap()
    }

    #[test]
    fn cyclic_plan_baseline_matches_dense() {
        let chain = gamblers_ruin(0.5, 8);
        let plan = SolvePlan::compile(&chain, &3, &8).unwrap();
        assert!(!plan.is_acyclic());
        let (value, kind) = plan
            .evaluate_with_kind(&plan.parameters(&chain).unwrap())
            .unwrap();
        assert_eq!(kind, PlanSolveKind::Rank1);
        let dense = absorption_probability_to(&chain, &3, &8).unwrap();
        assert!((value - dense).abs() < 1e-12, "{value} vs {dense}");
    }

    #[test]
    fn single_row_perturbation_uses_sherman_morrison_and_matches_dense() {
        let baseline = gamblers_ruin(0.5, 8);
        let plan = SolvePlan::compile(&baseline, &3, &8).unwrap();
        for p_up in [0.3, 0.45, 0.62] {
            // Perturb only state 4's row, keeping every other row at 0.5.
            let mut b = DtmcBuilder::new();
            for i in 1..8u32 {
                let up = if i == 4 { p_up } else { 0.5 };
                b = b.transition(i, i - 1, 1.0 - up).transition(i, i + 1, up);
            }
            let perturbed = b.state(0).state(8).build().unwrap();
            assert_eq!(
                plan.fingerprint(),
                structure_fingerprint(&perturbed, &3, &8)
            );
            let (value, kind) = plan
                .evaluate_with_kind(&plan.parameters(&perturbed).unwrap())
                .unwrap();
            assert_eq!(kind, PlanSolveKind::Rank1, "p_up {p_up}");
            let dense = absorption_probability_to(&perturbed, &3, &8).unwrap();
            assert!(
                (value - dense).abs() < 1e-11,
                "p_up {p_up}: {value} vs {dense}"
            );
        }
    }

    #[test]
    fn multi_row_perturbation_falls_back_to_a_full_solve() {
        let baseline = gamblers_ruin(0.5, 8);
        let plan = SolvePlan::compile(&baseline, &3, &8).unwrap();
        let perturbed = gamblers_ruin(0.55, 8);
        let (value, kind) = plan
            .evaluate_with_kind(&plan.parameters(&perturbed).unwrap())
            .unwrap();
        assert_eq!(kind, PlanSolveKind::Full);
        let dense = absorption_probability_to(&perturbed, &3, &8).unwrap();
        assert!((value - dense).abs() < 1e-12);
    }

    #[test]
    fn near_singular_rank1_update_is_refused_and_still_exact() {
        // a ⇄ b with escape a → end (1 − p): det(I − Q) = 1 − p, so pushing
        // p toward 1 drives the Sherman–Morrison denominator to ~0 and the
        // evaluation must fall back to a full (re)factorization.
        let build = |p: f64| {
            DtmcBuilder::new()
                .transition("a", "b", p)
                .transition("a", "end", 1.0 - p)
                .transition("b", "a", 1.0)
                .build()
                .unwrap()
        };
        let plan = SolvePlan::compile(&build(0.5), &"a", &"end").unwrap();
        let extreme = build(1.0 - 1e-12);
        let (value, kind) = plan
            .evaluate_with_kind(&plan.parameters(&extreme).unwrap())
            .unwrap();
        assert_eq!(kind, PlanSolveKind::Full);
        // Absorption is still certain (the escape leak is tiny but the
        // chain always eventually takes it).
        assert!((value - 1.0).abs() < 1e-3, "{value}");
        let dense = absorption_probability_to(&extreme, &"a", &"end").unwrap();
        assert!((value - dense).abs() < 1e-10, "{value} vs {dense}");
    }

    #[test]
    fn compile_validates_like_the_direct_solvers() {
        // Unreachable target.
        let drained = DtmcBuilder::new()
            .transition("s", "fail", 1.0)
            .state("end")
            .build()
            .unwrap();
        assert!(matches!(
            SolvePlan::compile(&drained, &"s", &"end"),
            Err(MarkovError::UnreachableTarget { .. })
        ));
        // Trapped mass.
        let trapped = DtmcBuilder::new()
            .transition("s", "end", 0.5)
            .transition("s", "a", 0.5)
            .transition("a", "b", 1.0)
            .transition("b", "a", 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            SolvePlan::compile(&trapped, &"s", &"end"),
            Err(MarkovError::TrappedMass { .. })
        ));
        // from == target (absorbing) is not a transient state.
        let simple = DtmcBuilder::new()
            .transition("s", "end", 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            SolvePlan::compile(&simple, &"end", &"end"),
            Err(MarkovError::UnknownState { .. })
        ));
        // No transient states at all.
        let absorbing_only = DtmcBuilder::new().state("a").state("b").build().unwrap();
        assert!(matches!(
            SolvePlan::compile(&absorbing_only, &"a", &"a"),
            Err(MarkovError::NoTransientStates)
        ));
    }

    #[test]
    fn wrong_parameter_shape_is_rejected() {
        let chain = branchy_chain(0.1);
        let plan = SolvePlan::compile(&chain, &"s", &"end").unwrap();
        assert!(plan.evaluate(&[0.5; 3]).is_err());
        let other = DtmcBuilder::new()
            .transition("x", "y", 1.0)
            .build()
            .unwrap();
        assert!(plan.parameters(&other).is_err());
    }

    #[test]
    fn block_replay_is_bitwise_identical_to_scalar_on_acyclic_plans() {
        let plan = SolvePlan::compile(&branchy_chain(0.1), &"s", &"end").unwrap();
        let points: Vec<Vec<f64>> = [0.01, 0.1, 0.33, 0.5, 0.6, 0.7, 0.75, 0.79, 0.05, 0.44]
            .iter()
            .map(|&p| plan.parameters(&branchy_chain(p)).unwrap())
            .collect();
        let mut scratch = PlanScratch::new();
        // Every occupancy 1..=LANE, including a partially-filled final block.
        for occupancy in 1..=LANE {
            let mut block = ParamBlock::for_plan(&plan);
            for params in points.iter().take(occupancy) {
                block.push(params).unwrap();
            }
            assert_eq!(block.len(), occupancy);
            let (values, kinds) = plan
                .evaluate_block_with_kinds(&block, &mut scratch)
                .unwrap();
            assert_eq!(values.len(), occupancy);
            assert_eq!(kinds.tape, occupancy as u64);
            for (lane, params) in points.iter().take(occupancy).enumerate() {
                let scalar = plan.evaluate(params).unwrap();
                assert_eq!(
                    values[lane].to_bits(),
                    scalar.to_bits(),
                    "occupancy {occupancy}, lane {lane}"
                );
            }
        }
    }

    #[test]
    fn stale_lanes_from_a_previous_block_never_leak() {
        let plan = SolvePlan::compile(&branchy_chain(0.5), &"s", &"end").unwrap();
        let mut block = ParamBlock::for_plan(&plan);
        let mut scratch = PlanScratch::new();
        // Fill all lanes with a self-loop probability near 1 so stale lanes
        // would produce huge values (and den ≤ 0 if perturbed) if read.
        for _ in 0..LANE {
            block
                .push(&plan.parameters(&branchy_chain(0.79)).unwrap())
                .unwrap();
        }
        plan.evaluate_block(&block, &mut scratch).unwrap();
        block.clear();
        let params = plan.parameters(&branchy_chain(0.2)).unwrap();
        block.push(&params).unwrap();
        let values = plan.evaluate_block(&block, &mut scratch).unwrap();
        assert_eq!(values.len(), 1);
        assert_eq!(
            values[0].to_bits(),
            plan.evaluate(&params).unwrap().to_bits()
        );
    }

    #[test]
    fn lane8_is_sixtyfour_byte_aligned() {
        assert_eq!(std::mem::align_of::<Lane8>(), 64);
        assert_eq!(std::mem::size_of::<Lane8>(), 64);
        let tile = vec![Lane8::default(); 3];
        for group in &tile {
            assert_eq!(group.0.as_ptr() as usize % 64, 0);
        }
    }

    #[test]
    fn cyclic_block_fallback_matches_scalar_per_lane() {
        let baseline = gamblers_ruin(0.5, 8);
        let plan = SolvePlan::compile(&baseline, &3, &8).unwrap();
        let mut block = ParamBlock::for_plan(&plan);
        let mut expected = Vec::new();
        for p_up in [0.5, 0.45, 0.62] {
            let chain = gamblers_ruin(p_up, 8);
            let params = plan.parameters(&chain).unwrap();
            expected.push(plan.evaluate(&params).unwrap());
            block.push(&params).unwrap();
        }
        let mut scratch = PlanScratch::new();
        let (values, kinds) = plan
            .evaluate_block_with_kinds(&block, &mut scratch)
            .unwrap();
        assert_eq!(values.len(), 3);
        assert_eq!(kinds.tape, 0);
        assert_eq!(kinds.rank1 + kinds.full, 3);
        for (lane, (&got, &want)) in values.iter().zip(&expected).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "lane {lane}");
        }
    }

    #[test]
    fn block_trapped_mass_only_fires_for_occupied_lanes() {
        let plan = SolvePlan::compile(&branchy_chain(0.5), &"s", &"end").unwrap();
        let mut block = ParamBlock::for_plan(&plan);
        let mut scratch = PlanScratch::new();
        // Occupy lane 1 with a degenerate self-loop = 1.0 point...
        let mut bad = plan.parameters(&branchy_chain(0.5)).unwrap();
        for (i, p) in bad.iter_mut().enumerate() {
            // Slot layout for branchy_chain: s→a, s→b, a→a, a→end, a→fail, ...
            if i == 2 {
                *p = 1.0;
            }
        }
        let good = plan.parameters(&branchy_chain(0.3)).unwrap();
        block.push(&good).unwrap();
        block.push(&bad).unwrap();
        assert!(matches!(
            plan.evaluate_block(&block, &mut scratch),
            Err(MarkovError::TrappedMass { .. })
        ));
        // ...then leave the bad point only in a *stale* lane: no error.
        block.clear();
        block.push(&good).unwrap();
        let values = plan.evaluate_block(&block, &mut scratch).unwrap();
        assert_eq!(values.len(), 1);
        assert_eq!(values[0].to_bits(), plan.evaluate(&good).unwrap().to_bits());
    }

    #[test]
    fn param_block_shape_and_capacity_are_enforced() {
        let plan = SolvePlan::compile(&branchy_chain(0.1), &"s", &"end").unwrap();
        let mut block = ParamBlock::for_plan(&plan);
        assert!(block.is_empty());
        assert!(block.push(&[0.5; 3]).is_err());
        let params = plan.parameters(&branchy_chain(0.1)).unwrap();
        for _ in 0..LANE {
            block.push(&params).unwrap();
        }
        assert!(block.is_full());
        // A block compiled for a different slot width is rejected.
        let other = ParamBlock::new(plan.slot_count() + 1);
        let mut scratch = PlanScratch::new();
        assert!(plan.evaluate_block(&other, &mut scratch).is_err());
    }

    #[test]
    fn parameters_into_reuses_the_buffer_and_matches_parameters() {
        let plan = SolvePlan::compile(&branchy_chain(0.1), &"s", &"end").unwrap();
        let mut buf = Vec::new();
        for p_loop in [0.1, 0.4, 0.7] {
            let chain = branchy_chain(p_loop);
            plan.parameters_into(&chain, &mut buf).unwrap();
            assert_eq!(buf, plan.parameters(&chain).unwrap(), "p_loop {p_loop}");
        }
        let capacity = buf.capacity();
        plan.parameters_into(&branchy_chain(0.2), &mut buf).unwrap();
        assert_eq!(buf.capacity(), capacity);
        // Shape mismatch clears the buffer instead of leaving partial data.
        let other = DtmcBuilder::new()
            .transition("x", "y", 1.0)
            .build()
            .unwrap();
        assert!(plan.parameters_into(&other, &mut buf).is_err());
        assert!(buf.is_empty());
    }

    #[test]
    fn evaluate_scratch_matches_evaluate() {
        let plan = SolvePlan::compile(&branchy_chain(0.3), &"s", &"end").unwrap();
        let mut scratch = PlanScratch::new();
        for p_loop in [0.05, 0.3, 0.7] {
            let params = plan.parameters(&branchy_chain(p_loop)).unwrap();
            let (value, kind) = plan.evaluate_scratch(&params, &mut scratch).unwrap();
            assert_eq!(kind, PlanSolveKind::Tape);
            assert_eq!(value.to_bits(), plan.evaluate(&params).unwrap().to_bits());
        }
    }

    #[test]
    fn parts_round_trip_is_bitwise_identical_for_both_kinds() {
        // Acyclic plan.
        let chain = branchy_chain(0.3);
        let plan = SolvePlan::compile(&chain, &"s", &"end").unwrap();
        let back = SolvePlan::from_parts(plan.to_parts()).unwrap();
        assert_eq!(back.fingerprint(), plan.fingerprint());
        assert_eq!(back.slot_count(), plan.slot_count());
        assert!(!back.is_zero_copy());
        let params = plan.parameters(&chain).unwrap();
        assert_eq!(
            back.evaluate(&params).unwrap().to_bits(),
            plan.evaluate(&params).unwrap().to_bits()
        );
        // Cyclic plan: the round trip must preserve the baseline LU bits so
        // the rank-1 dispatch is unchanged.
        let cyc = gamblers_ruin(0.5, 8);
        let plan = SolvePlan::compile(&cyc, &3, &8).unwrap();
        let back = SolvePlan::from_parts(plan.to_parts()).unwrap();
        for p_up in [0.5, 0.45, 0.62] {
            let params = plan.parameters(&gamblers_ruin(p_up, 8)).unwrap();
            let (want, want_kind) = plan.evaluate_with_kind(&params).unwrap();
            let (got, got_kind) = back.evaluate_with_kind(&params).unwrap();
            assert_eq!(got_kind, want_kind, "p_up {p_up}");
            assert_eq!(got.to_bits(), want.to_bits(), "p_up {p_up}");
        }
    }

    #[test]
    fn from_parts_rejects_malformed_archives() {
        let plan = SolvePlan::compile(&branchy_chain(0.3), &"s", &"end").unwrap();
        let reject = |mutate: &dyn Fn(&mut PlanParts)| {
            let mut parts = plan.to_parts();
            mutate(&mut parts);
            assert!(matches!(
                SolvePlan::from_parts(parts),
                Err(MarkovError::InvalidPlanArchive { .. })
            ));
        };
        reject(&|p| p.from_pos = usize::MAX);
        reject(&|p| p.slot_count = PLAN_SLOT_NONE as usize);
        reject(&|p| {
            if let PlanBody::Acyclic { pos, .. } = &mut p.body {
                *pos = vec![0, 0, 0].into(); // not a permutation
            }
        });
        reject(&|p| {
            if let PlanBody::Acyclic { term_slot, .. } = &mut p.body {
                *term_slot = vec![u32::MAX - 1; term_slot.len()].into();
            }
        });
        reject(&|p| {
            if let PlanBody::Acyclic { term_off, .. } = &mut p.body {
                let mut off = term_off.as_slice().to_vec();
                off[0] = 7;
                *term_off = off.into();
            }
        });
        reject(&|p| {
            if let PlanBody::Acyclic { t_idx, .. } = &mut p.body {
                *t_idx = vec![2, 1, 0].into(); // not ascending
            }
        });

        let cyclic = SolvePlan::compile(&gamblers_ruin(0.5, 8), &3, &8).unwrap();
        let reject_cyc = |mutate: &dyn Fn(&mut PlanParts)| {
            let mut parts = cyclic.to_parts();
            mutate(&mut parts);
            assert!(matches!(
                SolvePlan::from_parts(parts),
                Err(MarkovError::InvalidPlanArchive { .. })
            ));
        };
        reject_cyc(&|p| {
            if let PlanBody::Cyclic { baseline, .. } = &mut p.body {
                let mut b = baseline.as_slice().to_vec();
                b[0] = f64::NAN;
                *baseline = b.into();
            }
        });
        reject_cyc(&|p| {
            if let PlanBody::Cyclic { baseline, .. } = &mut p.body {
                let mut b = baseline.as_slice().to_vec();
                b[0] = 1.5;
                *baseline = b.into();
            }
        });
        reject_cyc(&|p| {
            if let PlanBody::Cyclic { factors, .. } = &mut p.body {
                let mut f = factors.as_slice().to_vec();
                f[0] = f64::INFINITY;
                *factors = f.into();
            }
        });
        reject_cyc(&|p| {
            if let PlanBody::Cyclic { factors, .. } = &mut p.body {
                let mut f = factors.as_slice().to_vec();
                f[0] = 0.0; // singular pivot
                *factors = f.into();
            }
        });
        reject_cyc(&|p| {
            if let PlanBody::Cyclic { perm, .. } = &mut p.body {
                *perm = vec![0; perm.len()].into();
            }
        });
        reject_cyc(&|p| {
            if let PlanBody::Cyclic { role_tag, .. } = &mut p.body {
                let mut t = role_tag.as_slice().to_vec();
                t[0] = 99;
                *role_tag = t.into();
            }
        });
    }

    #[test]
    fn fingerprint_ignores_values_but_not_structure() {
        let a = branchy_chain(0.1);
        let b = branchy_chain(0.7);
        assert_eq!(
            structure_fingerprint(&a, &"s", &"end"),
            structure_fingerprint(&b, &"s", &"end")
        );
        // Different query endpoints change the fingerprint.
        assert_ne!(
            structure_fingerprint(&a, &"s", &"end"),
            structure_fingerprint(&a, &"s", &"fail")
        );
        // An extra edge changes the fingerprint.
        let extra = DtmcBuilder::new()
            .transition("s", "a", 0.5)
            .transition("s", "b", 0.4)
            .transition("s", "end", 0.1)
            .transition("a", "a", 0.1)
            .transition("a", "end", 0.7)
            .transition("a", "fail", 0.2)
            .transition("b", "end", 0.9)
            .transition("b", "fail", 0.1)
            .build()
            .unwrap();
        assert_ne!(
            structure_fingerprint(&a, &"s", &"end"),
            structure_fingerprint(&extra, &"s", &"end")
        );
    }
}
