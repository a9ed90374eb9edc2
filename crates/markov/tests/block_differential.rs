//! Differential suite pinning the lane-8 block replay bitwise to the
//! per-point tape.
//!
//! The lane-8 block replay ([`SolvePlan::evaluate_block_with_kinds`])
//! promises results bitwise-identical to the per-point reference
//! ([`SolvePlan::evaluate`]) at every occupancy, for any parameter values
//! the per-point path accepts — including exact 0/1 transitions and
//! subnormals. These tests enforce that promise, sharing one
//! `ParamBlock`/`PlanScratch` across flushes so stale lane contents from
//! earlier, fuller flushes can never leak into later results.

use std::collections::BTreeMap;

use archrel_markov::{Dtmc, DtmcBuilder, ParamBlock, PlanScratch, SolvePlan, LANE};
use proptest::prelude::*;

/// Deterministic forward ("flow-shaped") absorbing chain over transient
/// states `0..n` plus `End = n` and `Fail = n + 1`. State `i` spreads its
/// mass over `{i + 1, .., n - 1, End, Fail}` (cycled), so the transient
/// subgraph is acyclic and the plan always compiles to a tape. Targets are
/// accumulated in a `BTreeMap` so the adjacency (and hence slot) order is
/// reproducible.
fn forward_chain(weights: &[Vec<f64>]) -> Dtmc<u32> {
    let n = weights.len();
    let end = n as u32;
    let fail = n as u32 + 1;
    let mut b = DtmcBuilder::new().state(end).state(fail);
    for (i, w) in weights.iter().enumerate() {
        let total: f64 = w.iter().sum();
        let mut targets: Vec<u32> = ((i as u32 + 1)..n as u32).collect();
        targets.push(end);
        targets.push(fail);
        let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
        for (k, wk) in w.iter().enumerate() {
            *acc.entry(targets[k % targets.len()]).or_insert(0.0) += wk / total;
        }
        for (t, p) in acc {
            b = b.transition(i as u32, t, p);
        }
    }
    b.build().expect("forward chain is a valid absorbing chain")
}

/// Strategy: row weights for [`forward_chain`] plus a pool of per-lane,
/// per-slot scale factors used to derive [`LANE`] distinct parameter points
/// from the compiled plan's base parameter vector. Scaling keeps every slot
/// in `(0, 1)` — the tape does not require stochastic rows, and unnormalized
/// points exercise the same arithmetic.
fn chain_and_scales() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (2usize..8).prop_flat_map(|n| {
        (
            proptest::collection::vec(proptest::collection::vec(0.01..1.0f64, 2..=n + 1), n),
            // Upper bound on slots: n rows x (n + 1) adjacency entries.
            proptest::collection::vec(0.001..1.0f64, LANE * 8 * 9),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Core differential property: on random acyclic structures and random
    /// parameter points, the block replay reproduces the scalar bits at
    /// every occupancy `1..=LANE`, with every lane answered by the tape.
    #[test]
    fn every_path_matches_scalar_bitwise_at_every_occupancy(
        (weights, scales) in chain_and_scales()
    ) {
        let chain = forward_chain(&weights);
        let end = weights.len() as u32;
        let plan = SolvePlan::compile(&chain, &0u32, &end).unwrap();
        prop_assert!(plan.is_acyclic());
        let base = plan.parameters(&chain).unwrap();
        let points: Vec<Vec<f64>> = (0..LANE)
            .map(|lane| {
                base.iter()
                    .enumerate()
                    .map(|(s, &p)| p * scales[lane * base.len() + s])
                    .collect()
            })
            .collect();
        let reference: Vec<f64> = points
            .iter()
            .map(|p| plan.evaluate(p).unwrap())
            .collect();
        // One block and one scratch for the whole test: later, smaller
        // flushes replay over lanes still holding earlier points, so any
        // stale-lane leak shows up as a bitwise mismatch.
        let mut block = ParamBlock::for_plan(&plan);
        let mut scratch = PlanScratch::new();
        for occupancy in 1..=LANE {
            block.clear();
            for p in points.iter().take(occupancy) {
                block.push(p).unwrap();
            }
            let (values, kinds) = plan
                .evaluate_block_with_kinds(&block, &mut scratch)
                .unwrap();
            prop_assert_eq!(kinds.tape, occupancy as u64);
            prop_assert_eq!(values.len(), occupancy);
            for (lane, &got) in values.iter().enumerate() {
                prop_assert_eq!(
                    got.to_bits(),
                    reference[lane].to_bits(),
                    "occupancy {}, lane {}",
                    occupancy,
                    lane
                );
            }
        }
    }
}

/// Fixed three-row forward chain used by the deterministic tests.
fn fixed_chain() -> Dtmc<u32> {
    forward_chain(&[
        vec![0.3, 0.4, 0.2, 0.1],
        vec![0.5, 0.25, 0.25],
        vec![0.6, 0.4],
    ])
}

/// A varying-occupancy flush schedule over one shared block/scratch pair:
/// a full flush seeds all eight lanes, then smaller flushes with fresh
/// points must not read the leftovers.
#[test]
fn stale_lanes_from_previous_flushes_never_leak() {
    let chain = fixed_chain();
    let plan = SolvePlan::compile(&chain, &0u32, &3u32).unwrap();
    let base = plan.parameters(&chain).unwrap();
    let point = |k: usize| -> Vec<f64> {
        base.iter()
            .enumerate()
            .map(|(s, &p)| p * ((k * 31 + s * 7) % 17 + 1) as f64 / 18.0)
            .collect()
    };
    let schedule = [LANE, 3, 1, 5, 2, LANE, 4];
    let mut block = ParamBlock::for_plan(&plan);
    let mut scratch = PlanScratch::new();
    let mut next = 0usize;
    for (flush, &occupancy) in schedule.iter().enumerate() {
        let points: Vec<Vec<f64>> = (0..occupancy)
            .map(|_| {
                next += 1;
                point(next)
            })
            .collect();
        block.clear();
        for p in &points {
            block.push(p).unwrap();
        }
        let (values, kinds) = plan
            .evaluate_block_with_kinds(&block, &mut scratch)
            .unwrap();
        assert_eq!(kinds.tape, occupancy as u64);
        for (lane, p) in points.iter().enumerate() {
            let scalar = plan.evaluate(p).unwrap();
            assert_eq!(
                values[lane].to_bits(),
                scalar.to_bits(),
                "flush {flush}, occupancy {occupancy}, lane {lane}"
            );
        }
    }
}

/// Degenerate exactly-0 and exactly-1 transition probabilities: the tape
/// multiplies and adds them verbatim (no epsilon clamping), so the block
/// replay must agree with scalar down to the bits — including lanes whose answer
/// collapses to exactly 0.0 or 1.0.
#[test]
fn degenerate_zero_one_transitions_match_scalar_bitwise() {
    let chain = fixed_chain();
    let plan = SolvePlan::compile(&chain, &0u32, &3u32).unwrap();
    let slots = plan.slot_count();
    let values = [0.0, 1.0, 0.0, 0.5, 1.0];
    let points: Vec<Vec<f64>> = (0..LANE)
        .map(|lane| {
            (0..slots)
                .map(|s| values[(lane + s) % values.len()])
                .collect()
        })
        .collect();
    let reference: Vec<f64> = points.iter().map(|p| plan.evaluate(p).unwrap()).collect();
    let mut block = ParamBlock::for_plan(&plan);
    let mut scratch = PlanScratch::new();
    for p in &points {
        block.push(p).unwrap();
    }
    let (got, kinds) = plan
        .evaluate_block_with_kinds(&block, &mut scratch)
        .unwrap();
    assert_eq!(kinds.tape, LANE as u64);
    for (lane, (&g, &want)) in got.iter().zip(&reference).enumerate() {
        assert_eq!(g.to_bits(), want.to_bits(), "lane {lane}");
    }
}

/// Subnormal parameters: products and sums of subnormals must round
/// identically in the block replay (IEEE multiply/add/divide, no FMA
/// contraction, no flush-to-zero), so even answers that underflow agree
/// bitwise.
#[test]
fn subnormal_parameters_match_scalar_bitwise() {
    // Includes a self-loop row so the division path sees subnormal inputs
    // too: den = 1.0 - subnormal rounds to exactly 1.0 but still goes
    // through the divide.
    let chain = DtmcBuilder::new()
        .transition(0u32, 1u32, 0.6)
        .transition(0u32, 2u32, 0.3)
        .transition(0u32, 3u32, 0.1)
        .transition(1u32, 1u32, 0.3)
        .transition(1u32, 2u32, 0.6)
        .transition(1u32, 3u32, 0.1)
        .build()
        .unwrap();
    let plan = SolvePlan::compile(&chain, &0u32, &2u32).unwrap();
    assert!(plan.is_acyclic(), "self-loops stay on the tape");
    let slots = plan.slot_count();
    let values = [5e-324, 1e-310, 4.9e-324, 1e-308, 2.5e-320];
    let points: Vec<Vec<f64>> = (0..LANE)
        .map(|lane| {
            (0..slots)
                .map(|s| values[(lane * 3 + s) % values.len()])
                .collect()
        })
        .collect();
    let reference: Vec<f64> = points.iter().map(|p| plan.evaluate(p).unwrap()).collect();
    let mut block = ParamBlock::for_plan(&plan);
    let mut scratch = PlanScratch::new();
    for p in &points {
        block.push(p).unwrap();
    }
    let (got, kinds) = plan
        .evaluate_block_with_kinds(&block, &mut scratch)
        .unwrap();
    assert_eq!(kinds.tape, LANE as u64);
    for (lane, (&g, &want)) in got.iter().zip(&reference).enumerate() {
        assert_eq!(g.to_bits(), want.to_bits(), "lane {lane}");
    }
}

/// A self-loop probability of exactly 1.0 makes the tape's denominator
/// `1 - self` collapse to zero: the scalar path reports trapped mass, and
/// the block replay must report the same error for a block containing such
/// a lane instead of dividing by zero into an Inf/NaN answer.
#[test]
fn trapped_self_loop_errors_agree_across_paths() {
    let chain = DtmcBuilder::new()
        .transition(0u32, 1u32, 0.6)
        .transition(0u32, 2u32, 0.3)
        .transition(0u32, 3u32, 0.1)
        .transition(1u32, 1u32, 0.3)
        .transition(1u32, 2u32, 0.6)
        .transition(1u32, 3u32, 0.1)
        .build()
        .unwrap();
    let plan = SolvePlan::compile(&chain, &0u32, &2u32).unwrap();
    let base = plan.parameters(&chain).unwrap();
    // Locate the self-loop slot by probing: saturating it to 1.0 is the
    // only single-slot change that turns the scalar evaluation into an
    // error (other slots only shift the answer).
    let self_slots: Vec<usize> = (0..base.len())
        .filter(|&s| {
            let mut p = base.clone();
            p[s] = 1.0;
            plan.evaluate(&p).is_err()
        })
        .collect();
    assert_eq!(self_slots.len(), 1, "exactly one self-loop slot");
    let mut bad = base.clone();
    bad[self_slots[0]] = 1.0;
    let mut block = ParamBlock::for_plan(&plan);
    let mut scratch = PlanScratch::new();
    block.push(&base).unwrap();
    block.push(&bad).unwrap();
    block.push(&base).unwrap();
    assert!(
        plan.evaluate_block_with_kinds(&block, &mut scratch)
            .is_err(),
        "the block replay must refuse the trapped lane like scalar does"
    );
}
