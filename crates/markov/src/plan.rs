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
//!    transition of a transient row, and bake the back-substitution of
//!    `(I − Q) x = r` into a straight-line *tape*. Only acyclic transient
//!    subgraphs (up to self-loops) have one; a cyclic chain compiles to no
//!    plan, and its callers solve it directly.
//! 2. **Evaluate** ([`SolvePlan::evaluate`]): map a numeric parameter vector
//!    straight to the absorption probability by an `O(nnz)` tape replay
//!    whose arithmetic is bit-for-bit that of the sparse path's
//!    [`crate::absorption_probability_sparse`] fast path. The answer
//!    depends only on the parameters, never on which chain compiled the
//!    plan.
//!
//! Plans are keyed by [`structure_fingerprint`]: a hash of the chain's
//! sparsity pattern, state classification, and query endpoints — everything
//! the plan depends on *except* the numeric probabilities. Two chains with
//! equal fingerprints can share one plan; a chain whose structure changes
//! (e.g. a perturbation drives a transition to exactly 0, which the builder
//! drops) gets a different fingerprint and therefore a fresh plan.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use archrel_linalg::LinalgError;

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

    /// Lane `lane`'s parameter vector.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is not an occupied lane.
    pub fn lane(&self, lane: usize) -> &[f64] {
        assert!(
            lane < self.len,
            "lane {lane} not occupied (len {})",
            self.len
        );
        self.lane_row(lane)
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
    /// Per-lane results handed back from a block evaluation.
    out: Vec<f64>,
}

impl PlanScratch {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> PlanScratch {
        PlanScratch::default()
    }
}

/// Sentinel for "no slot" / "no index" in a plan's flat `u32` payload
/// arrays: the archive format has no `Option`, so absence is in-band.
pub const PLAN_SLOT_NONE: u32 = u32::MAX;

/// A [`SolvePlan`]'s flat payload arrays — the unit of exchange with the
/// on-disk artifact store (`archrel-store`).
///
/// The back-substitution tape has one step per transient position in solve
/// order, successor terms packed CSR-style; each step replicates the sparse
/// path's back-substitution arithmetic exactly. The flat `u32` encoding
/// (instead of per-step structs) is what lets the store archive and map a
/// tape without pointer fixups.
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
    /// Chain indices of the transient states, ascending.
    pub t_idx: Section<u32>,
    /// Transient position solved by each tape step.
    pub pos: Section<u32>,
    /// Target-transition slot per step, or [`PLAN_SLOT_NONE`].
    pub r_slot: Section<u32>,
    /// Self-loop slot per step, or [`PLAN_SLOT_NONE`].
    pub self_slot: Section<u32>,
    /// CSR offsets into `term_slot`/`term_pos` (`len == steps + 1`): step
    /// `k` owns span `term_off[k]..term_off[k+1]`.
    pub term_off: Section<u32>,
    /// Successor-term parameter slots, in adjacency order.
    pub term_slot: Section<u32>,
    /// Successor-term transient positions, in adjacency order.
    pub term_pos: Section<u32>,
}

/// A compiled, reusable solve for one absorbing-chain structure.
///
/// Compiling validates the chain and bakes its back-substitution into a
/// tape once; evaluating replays the tape on a parameter vector (see the
/// module documentation).
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
/// let plan = SolvePlan::compile(&chain, &"s", &"end")?.expect("acyclic chain");
/// let params = plan.parameters(&chain)?;
/// assert!((plan.evaluate(&params)? - 0.9).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SolvePlan {
    /// The validated payload: built by [`SolvePlan::compile`] or checked
    /// by [`SolvePlan::from_parts`].
    parts: PlanParts,
}

impl SolvePlan {
    /// Compiles a plan for the absorption probability `from → target`,
    /// or returns `Ok(None)` when the transient subgraph is cyclic (up to
    /// self-loops): a cyclic chain has no back-substitution tape, and its
    /// callers solve it directly.
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
    pub fn compile<S: StateLabel>(
        chain: &Dtmc<S>,
        from: &S,
        target: &S,
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
        let mut slot_count = 0usize;
        // Per transient row: `(col position, slot)` of the Q entries, in
        // adjacency order (mirrors the sparse path's `q_rows`).
        let mut q_rows: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nt];
        let mut r_slots: Vec<Option<usize>> = vec![None; nt];
        for (k, &i) in t_idx.iter().enumerate() {
            for &(j, _) in &chain.adjacency()[i] {
                let slot = slot_count;
                slot_count += 1;
                if let Some(&kj) = pos_of_state.get(&j) {
                    q_rows[k].push((kj, slot));
                } else if j == target_idx {
                    r_slots[k] = Some(slot);
                }
            }
        }

        let Some(order) = topological_order(&q_rows) else {
            return Ok(None);
        };
        // Bake the back-substitution into a flat tape, one entry per
        // transient position in reverse topological order, successor terms
        // packed CSR-style in adjacency order.
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

        Ok(Some(SolvePlan {
            parts: PlanParts {
                fingerprint: structure_fingerprint(chain, from, target),
                n_states: chain.len(),
                from_pos,
                slot_count,
                t_idx: t_idx.iter().map(|&i| i as u32).collect::<Vec<u32>>().into(),
                pos: pos.into(),
                r_slot: r_slot.into(),
                self_slot: self_slot.into(),
                term_off: term_off.into(),
                term_slot: term_slot.into(),
                term_pos: term_pos.into(),
            },
        }))
    }

    /// The plan's structure fingerprint (see [`structure_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.parts.fingerprint
    }

    /// Number of parameter slots an evaluation vector must fill.
    pub fn slot_count(&self) -> usize {
        self.parts.slot_count
    }

    /// Number of states of the chains this plan applies to.
    pub fn states(&self) -> usize {
        self.parts.n_states
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
        let mut out = Vec::with_capacity(self.slot_count());
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
        let slot_count = self.slot_count();
        out.clear();
        if chain.len() != self.states() {
            return Err(plan_shape_mismatch(slot_count, chain.len()));
        }
        out.reserve(slot_count);
        let adj = chain.adjacency();
        for &i in self.parts.t_idx.as_slice() {
            for &(_, p) in &adj[i as usize] {
                out.push(p);
            }
        }
        if out.len() != slot_count {
            let got = out.len();
            out.clear();
            return Err(plan_shape_mismatch(slot_count, got));
        }
        Ok(())
    }

    /// Evaluates the plan on a parameter vector, returning the absorption
    /// probability `from → target`.
    ///
    /// # Errors
    ///
    /// - a dimension mismatch when `params.len() != self.slot_count()`;
    /// - [`MarkovError::TrappedMass`] when a self-loop probability reaches 1
    ///   (probability mass can no longer escape that state).
    pub fn evaluate(&self, params: &[f64]) -> Result<f64> {
        let mut x = Vec::new();
        self.evaluate_into(params, &mut x)
    }

    /// Like [`SolvePlan::evaluate`], but borrows its work buffer from a
    /// reusable [`PlanScratch`] so repeated evaluations allocate nothing
    /// after warm-up.
    ///
    /// # Errors
    ///
    /// Same as [`SolvePlan::evaluate`].
    pub fn evaluate_scratch(&self, params: &[f64], scratch: &mut PlanScratch) -> Result<f64> {
        self.evaluate_into(params, &mut scratch.x)
    }

    fn evaluate_into(&self, params: &[f64], x: &mut Vec<f64>) -> Result<f64> {
        let tape = &self.parts;
        if params.len() != tape.slot_count {
            return Err(plan_shape_mismatch(tape.slot_count, params.len()));
        }
        x.clear();
        x.resize(tape.t_idx.len(), 0.0);
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
        Ok(x[tape.from_pos])
    }

    /// Evaluates every occupied lane of `block` in one pass, returning the
    /// per-lane absorption probabilities in lane order (a slice into
    /// `scratch`, valid until its next use).
    ///
    /// The back-substitution tape is replayed *once*, each step advancing
    /// all [`LANE`] lanes through fixed-width loops that autovectorize on
    /// stable Rust; per lane the arithmetic (order of additions, one
    /// multiply per term, one divide per self-loop) is exactly the scalar
    /// [`SolvePlan::evaluate`] sequence, so block results are
    /// bitwise-identical to scalar results regardless of block composition
    /// or occupancy.
    ///
    /// # Errors
    ///
    /// - a dimension mismatch when the block's slot count does not match;
    /// - the per-lane errors of [`SolvePlan::evaluate`] (only *occupied*
    ///   lanes are checked — garbage in unused lanes never surfaces as an
    ///   error or a result).
    pub fn evaluate_block<'s>(
        &self,
        block: &ParamBlock,
        scratch: &'s mut PlanScratch,
    ) -> Result<&'s [f64]> {
        let tape = &self.parts;
        if block.slot_count() != tape.slot_count {
            return Err(plan_shape_mismatch(tape.slot_count, block.slot_count()));
        }
        let occupied = block.len();
        scratch.x_block.clear();
        scratch.x_block.resize(tape.t_idx.len(), Lane8::default());
        // Gather each slot's lane group straight from the staged rows: every
        // tape slot is read exactly once, and slot indices grow in tape
        // order, so the LANE reads per slot advance as forward-moving
        // streams — materializing a lane-major tile first would only add a
        // full extra pass of write+read traffic over the same data. Stale
        // rows of a partially filled block gather harmlessly — unoccupied
        // lane values are never read back out below.
        let rows: [&[f64]; LANE] = std::array::from_fn(|l| block.lane_row(l));
        Self::replay_tape(tape, &rows, occupied, &mut scratch.x_block)?;
        scratch.out.clear();
        scratch
            .out
            .extend_from_slice(&scratch.x_block[tape.from_pos].0[..occupied]);
        Ok(scratch.out.as_slice())
    }

    /// Portable lane-8 tape replay. The fixed-trip-count inner loops
    /// autovectorize on stable Rust against the x86-64 SSE2 baseline; per
    /// lane the arithmetic is exactly the scalar [`SolvePlan::evaluate`]
    /// sequence.
    fn replay_tape(
        tape: &PlanParts,
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

    /// Decomposes the plan into its flat payload arrays for archival.
    ///
    /// Mapped sections are cheaply cloned (an `Arc` bump); a freshly
    /// compiled plan's owned arrays are copied — archival is a cold path.
    pub fn to_parts(&self) -> PlanParts {
        self.parts.clone()
    }

    /// Reassembles a plan from archived parts, fully validating structure:
    /// every index is bounds-checked, tape positions must be a permutation
    /// and offsets must be monotone — so a plan built from a corrupt or
    /// hostile archive can never index out of bounds. (A well-formed but
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

        let PlanParts {
            n_states,
            from_pos,
            slot_count,
            ref t_idx,
            ref pos,
            ref r_slot,
            ref self_slot,
            ref term_off,
            ref term_slot,
            ref term_pos,
            ..
        } = parts;
        if slot_count >= PLAN_SLOT_NONE as usize {
            return Err(invalid("slot count overflows the u32 tape encoding"));
        }
        let t = t_idx.as_slice();
        if t.is_empty() {
            return Err(invalid("no transient states"));
        }
        // Branchless flag reduction (vectorizes — this runs on every archive
        // load): strictly ascending means the maximum is the last element,
        // so the range check collapses to one compare.
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
        let nt = t.len();
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
        // `nt` distinct in-range positions over `nt` slots is a permutation
        // (pigeonhole), so marking seen slots and counting them replaces
        // per-element duplicate detection. The range test folds into a
        // flag, the index clamps, and the marks are plain byte stores (no
        // load-modify-store), so the marking loop carries no data-dependent
        // branch — this runs on every archive load.
        let mut seen = vec![0u8; nt];
        let mut in_range = true;
        for &p in pos.as_slice() {
            let p = p as usize;
            in_range &= p < nt;
            seen[p.min(nt - 1)] = 1;
        }
        if !in_range || seen.iter().map(|&b| b as usize).sum::<usize>() != nt {
            return Err(invalid("tape position array is not a permutation"));
        }
        // Range checks as branchless max-reductions (the compiler vectorizes
        // these): one compare per array instead of one per element — these
        // passes run on every archive load. `PLAN_SLOT_NONE` is `u32::MAX`,
        // so `wrapping_add(1)` maps it to 0 and every real slot to
        // `slot + 1`, all in u32.
        let max_slot_plus1 = |xs: &[u32]| xs.iter().map(|&s| s.wrapping_add(1)).max().unwrap_or(0);
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
        Ok(SolvePlan { parts })
    }

    /// Whether every payload array of this plan is a zero-copy view into a
    /// mapped archive (true only for plans reassembled by the artifact
    /// store from a mapped file).
    pub fn is_zero_copy(&self) -> bool {
        let t = &self.parts;
        t.t_idx.is_mapped()
            && t.pos.is_mapped()
            && t.r_slot.is_mapped()
            && t.self_slot.is_mapped()
            && t.term_off.is_mapped()
            && t.term_slot.is_mapped()
            && t.term_pos.is_mapped()
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

    fn compile(chain: &Dtmc<&'static str>) -> SolvePlan {
        SolvePlan::compile(chain, &"s", &"end")
            .unwrap()
            .expect("acyclic chain")
    }

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
            let plan = compile(&chain);
            let params = plan.parameters(&chain).unwrap();
            let value = plan.evaluate(&params).unwrap();
            assert_eq!(value.to_bits(), sparse.to_bits(), "p_loop {p_loop}");
        }
    }

    #[test]
    fn one_plan_evaluates_every_same_structure_chain() {
        let plan = compile(&branchy_chain(0.1));
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
    fn cyclic_chains_compile_to_no_plan() {
        // A cyclic transient subgraph has no back-substitution tape: no plan,
        // no error, and the caller solves the chain directly.
        for p_up in [0.3, 0.5] {
            let chain = gamblers_ruin(p_up, 8);
            assert!(SolvePlan::compile(&chain, &3, &8).unwrap().is_none());
        }
        // Self-loops alone do not make a chain cyclic.
        assert!(SolvePlan::compile(&branchy_chain(0.5), &"s", &"end")
            .unwrap()
            .is_some());
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
        let plan = compile(&chain);
        assert!(plan.evaluate(&[0.5; 3]).is_err());
        let other = DtmcBuilder::new()
            .transition("x", "y", 1.0)
            .build()
            .unwrap();
        assert!(plan.parameters(&other).is_err());
    }

    #[test]
    fn block_replay_is_bitwise_identical_to_scalar_on_acyclic_plans() {
        let plan = compile(&branchy_chain(0.1));
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
            let values = plan.evaluate_block(&block, &mut scratch).unwrap();
            assert_eq!(values.len(), occupancy);
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
        let plan = compile(&branchy_chain(0.5));
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
    fn block_trapped_mass_only_fires_for_occupied_lanes() {
        let plan = compile(&branchy_chain(0.5));
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
        let plan = compile(&branchy_chain(0.1));
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
        let plan = compile(&branchy_chain(0.1));
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
        let plan = compile(&branchy_chain(0.3));
        let mut scratch = PlanScratch::new();
        for p_loop in [0.05, 0.3, 0.7] {
            let params = plan.parameters(&branchy_chain(p_loop)).unwrap();
            let value = plan.evaluate_scratch(&params, &mut scratch).unwrap();
            assert_eq!(value.to_bits(), plan.evaluate(&params).unwrap().to_bits());
        }
    }

    #[test]
    fn parts_round_trip_is_bitwise_identical() {
        let chain = branchy_chain(0.3);
        let plan = compile(&chain);
        let back = SolvePlan::from_parts(plan.to_parts()).unwrap();
        assert_eq!(back.fingerprint(), plan.fingerprint());
        assert_eq!(back.slot_count(), plan.slot_count());
        assert!(!back.is_zero_copy());
        for p_loop in [0.05, 0.3, 0.7] {
            let params = plan.parameters(&branchy_chain(p_loop)).unwrap();
            assert_eq!(
                back.evaluate(&params).unwrap().to_bits(),
                plan.evaluate(&params).unwrap().to_bits(),
                "p_loop {p_loop}"
            );
        }
    }

    #[test]
    fn from_parts_rejects_malformed_archives() {
        let plan = compile(&branchy_chain(0.3));
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
        reject(&|p| p.pos = vec![0, 0, 0].into()); // not a permutation
        reject(&|p| p.term_slot = vec![u32::MAX - 1; p.term_slot.len()].into());
        reject(&|p| {
            let mut off = p.term_off.as_slice().to_vec();
            off[0] = 7;
            p.term_off = off.into();
        });
        reject(&|p| p.t_idx = vec![2, 1, 0].into()); // not ascending
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
