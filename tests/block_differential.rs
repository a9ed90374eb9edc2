//! Blocked replay ↔ scalar replay differential suite.
//!
//! A lane-blocked flush (`markov::SolvePlan::evaluate_block`) must be
//! indistinguishable from replaying the same points one at a time — not
//! just numerically close, but **bitwise identical** on acyclic tapes, so
//! batch results cannot depend on how points happened to group into
//! blocks (worker count, arrival order, lane width). The properties pin
//! that down:
//!
//! 1. on randomly generated acyclic absorbing DTMCs (plans exist only for
//!    those), every lane of a blocked flush is bit-for-bit the scalar
//!    `evaluate` result of the same point, at every occupancy `1..=LANE` —
//!    including blocks reused after `clear()`, whose stale lanes must
//!    never leak;
//! 2. degenerate perturbations driving a transition to 0 or 1 change the
//!    structure, so the stale plan refuses the new shape at `push` time
//!    (via `parameters`) and a recompiled plan's blocked answer is exact.

use archrel::markov::{
    absorption_probability_to, structure_fingerprint, Dtmc, DtmcBuilder, ParamBlock, PlanScratch,
    SolvePlan, LANE,
};
use proptest::prelude::*;

const END: u32 = 1000;
const FAIL: u32 = 1001;

/// Specification of one random transient state's outgoing row (same shape
/// as `plan_differential.rs`, which this suite extends to blocks).
#[derive(Debug, Clone)]
struct RowSpec {
    /// Fraction of the row leaking straight to absorbing states.
    leak: f64,
    /// Share of the leak going to `end` (kept ≥ 0.01 of the row, so `end`
    /// stays reachable from every transient state).
    end_share: f64,
    /// Weight of the self-loop.
    self_weight: f64,
    /// Weights of transitions to later transient states (target picked by
    /// index modulo the later state count).
    targets: Vec<(usize, f64)>,
    /// Whether this state also feeds a dangling (implicitly absorbing)
    /// state.
    dangling: bool,
}

fn row_spec() -> impl Strategy<Value = RowSpec> {
    (
        0.05..0.9f64,
        0.2..1.0f64,
        0.0..1.0f64,
        proptest::collection::vec((0usize..32, 0.01..1.0f64), 1..4),
        proptest::bool::ANY,
    )
        .prop_map(
            |(leak, end_share, self_weight, targets, dangling)| RowSpec {
                leak,
                end_share,
                self_weight,
                targets,
                dangling,
            },
        )
}

/// Expands specs into explicit merged rows over transient states `0..n`
/// plus absorbing `END`, `FAIL`, and per-state dangling sinks (2000 + i).
///
/// Every transient target other than the self-loop is remapped strictly
/// forward (state `i` only reaches `i+1..n`), so the chain is acyclic up
/// to self-loops and compiles to a plan. The last state keeps only its
/// self-loop and absorbing leak.
fn rows_from_specs(specs: &[RowSpec]) -> Vec<Vec<(u32, f64)>> {
    let n = specs.len();
    let mut rows = Vec::with_capacity(n);
    for (i, spec) in specs.iter().enumerate() {
        let mut row: Vec<(u32, f64)> = Vec::new();
        let end_p = spec.leak * spec.end_share.max(0.01 / spec.leak);
        let fail_p = spec.leak - end_p;
        row.push((END, end_p));
        if fail_p > 0.0 {
            row.push((FAIL, fail_p));
        }
        let mut weights: Vec<(u32, f64)> = vec![(i as u32, spec.self_weight)];
        let later = n - i - 1;
        for &(raw, w) in &spec.targets {
            if later > 0 {
                weights.push(((i + 1 + raw % later) as u32, w));
            }
        }
        if spec.dangling || weights.iter().all(|&(_, w)| w <= 0.0) {
            weights.push((2000 + i as u32, 0.05));
        }
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let body = 1.0 - spec.leak;
        for (t, w) in weights {
            if w > 0.0 {
                row.push((t, body * w / total));
            }
        }
        // Merge duplicate targets (two spec targets may collide after the
        // modulo remap).
        row.sort_by_key(|&(t, _)| t);
        let mut merged: Vec<(u32, f64)> = Vec::new();
        for (t, p) in row {
            match merged.last_mut() {
                Some((lt, lp)) if *lt == t => *lp += p,
                _ => merged.push((t, p)),
            }
        }
        rows.push(merged);
    }
    rows
}

fn chain_from_rows(rows: &[Vec<(u32, f64)>]) -> Dtmc<u32> {
    let mut b = DtmcBuilder::new();
    for (i, row) in rows.iter().enumerate() {
        for &(t, p) in row {
            b = b.transition(i as u32, t, p);
        }
    }
    b.state(END).state(FAIL).build().expect("rows sum to one")
}

/// Moves a `t` fraction of row `row`'s END probability onto its first
/// non-END entry — a structure-preserving perturbation giving each lane a
/// distinct parameter point over the same fingerprint.
fn perturb_row(rows: &mut [Vec<(u32, f64)>], row: usize, t: f64) {
    let end_p = rows[row]
        .iter()
        .find(|&&(tgt, _)| tgt == END)
        .map(|&(_, p)| p)
        .expect("every row leaks to END");
    let delta = end_p * t;
    let target = rows[row]
        .iter()
        .find(|&&(tgt, _)| tgt != END)
        .map(|&(tgt, _)| tgt)
        .expect("every row has a non-END entry");
    for entry in rows[row].iter_mut() {
        if entry.0 == END {
            entry.1 -= delta;
        } else if entry.0 == target {
            entry.1 += delta;
        }
    }
}

/// The per-lane chains for one block: the baseline plus `count - 1`
/// single-row perturbations at distinct strengths (same fingerprint).
fn lane_chains(baseline_rows: &[Vec<(u32, f64)>], count: usize) -> Vec<Dtmc<u32>> {
    (0..count)
        .map(|lane| {
            let mut rows = baseline_rows.to_vec();
            if lane > 0 {
                let t = 0.1 + 0.8 * lane as f64 / LANE as f64;
                let row = lane % rows.len();
                perturb_row(&mut rows, row, t);
            }
            chain_from_rows(&rows)
        })
        .collect()
}

proptest! {
    /// Acyclic chains: every lane of a blocked flush is bitwise-identical
    /// to the scalar replay of the same point, at every occupancy
    /// `1..=LANE`, with the block reused (cleared, not reallocated) across
    /// occupancies so stale lanes from fuller flushes are present.
    #[test]
    fn block_replay_is_bitwise_identical_to_scalar_on_acyclic_chains(
        specs in proptest::collection::vec(row_spec(), 2..10),
    ) {
        let baseline_rows = rows_from_specs(&specs);
        let baseline = chain_from_rows(&baseline_rows);
        let plan = SolvePlan::compile(&baseline, &0u32, &END)
            .unwrap()
            .expect("acyclic chain");
        let mut block = ParamBlock::for_plan(&plan);
        let mut scratch = PlanScratch::new();
        // Descending occupancy: the LANE-wide flush runs first, so later
        // partial flushes see its leftovers in the unoccupied lanes.
        for occupancy in (1..=LANE).rev() {
            let chains = lane_chains(&baseline_rows, occupancy);
            block.clear();
            let mut scalar = Vec::with_capacity(occupancy);
            for chain in &chains {
                prop_assert_eq!(
                    structure_fingerprint(chain, &0u32, &END),
                    structure_fingerprint(&baseline, &0u32, &END)
                );
                let params = plan.parameters(chain).unwrap();
                block.push(&params).unwrap();
                scalar.push(plan.evaluate(&params).unwrap());
            }
            let blocked = plan.evaluate_block(&block, &mut scratch).unwrap();
            prop_assert_eq!(blocked.len(), occupancy);
            for (lane, (&b, &s)) in blocked.iter().zip(&scalar).enumerate() {
                prop_assert_eq!(
                    b.to_bits(), s.to_bits(),
                    "occupancy {}, lane {}: block {} vs scalar {}",
                    occupancy, lane, b, s
                );
            }
        }
    }
}

/// Degenerate perturbations at 0/1 change the structure: the stale plan's
/// `parameters` refuses the new shape (so nothing mis-shaped can ever be
/// pushed into a block), and a recompiled plan's blocked answer is exactly
/// the certain-success probability, bit-for-bit the scalar result.
#[test]
fn degenerate_transitions_recompile_and_block_exactly() {
    let chain = |p_fail: f64| {
        let mut b = DtmcBuilder::new()
            .transition(0u32, 1u32, 0.6)
            .transition(0u32, END, 0.4)
            .transition(1u32, END, 1.0 - p_fail);
        if p_fail > 0.0 {
            b = b.transition(1u32, FAIL, p_fail);
        }
        b.state(FAIL).build().unwrap()
    };
    let baseline = chain(0.25);
    for degenerate in [chain(0.0), chain(1.0)] {
        assert_ne!(
            structure_fingerprint(&baseline, &0u32, &END),
            structure_fingerprint(&degenerate, &0u32, &END)
        );
        let stale = SolvePlan::compile(&baseline, &0u32, &END).unwrap().unwrap();
        // The stale plan refuses the degenerate chain's shape, so a block
        // for the stale structure can never receive its parameters.
        assert!(stale.parameters(&degenerate).is_err());
        let fresh = SolvePlan::compile(&degenerate, &0u32, &END)
            .unwrap()
            .unwrap();
        let params = fresh.parameters(&degenerate).unwrap();
        let scalar = fresh.evaluate(&params).unwrap();
        let mut block = ParamBlock::for_plan(&fresh);
        block.push(&params).unwrap();
        let mut scratch = PlanScratch::new();
        let blocked = fresh.evaluate_block(&block, &mut scratch).unwrap();
        assert_eq!(blocked.len(), 1);
        assert_eq!(blocked[0].to_bits(), scalar.to_bits());
        let dense = absorption_probability_to(&degenerate, &0u32, &END).unwrap();
        assert!((blocked[0] - dense).abs() < 1e-12);
    }
}

/// A block whose slot width does not match the plan is refused at flush
/// time, mirroring the scalar dimension check — and pushing a mis-sized
/// parameter vector is refused at `push` time.
#[test]
fn shape_mismatches_are_refused_at_push_and_flush() {
    let small = DtmcBuilder::new()
        .transition(0u32, END, 0.9)
        .transition(0u32, FAIL, 0.1)
        .state(FAIL)
        .build()
        .unwrap();
    let big = DtmcBuilder::new()
        .transition(0u32, 1u32, 0.5)
        .transition(0u32, END, 0.5)
        .transition(1u32, END, 0.8)
        .transition(1u32, FAIL, 0.2)
        .state(FAIL)
        .build()
        .unwrap();
    let small_plan = SolvePlan::compile(&small, &0u32, &END).unwrap().unwrap();
    let big_plan = SolvePlan::compile(&big, &0u32, &END).unwrap().unwrap();
    let mut block = ParamBlock::for_plan(&small_plan);
    assert!(block.push(&big_plan.parameters(&big).unwrap()).is_err());
    block.push(&small_plan.parameters(&small).unwrap()).unwrap();
    let mut scratch = PlanScratch::new();
    assert!(big_plan.evaluate_block(&block, &mut scratch).is_err());
}
