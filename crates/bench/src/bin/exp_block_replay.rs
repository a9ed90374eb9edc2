//! The lane-blocked replay acceptance sweep: a 1024-state synthetic chain
//! structure evaluated at 1024 uncertainty-style parameter points — every
//! point scales the published step failure probabilities by a multiplicative
//! factor, exactly the shape of a Monte Carlo uncertainty sweep — PR 3's
//! per-point compiled-plan path against the lane-blocked replay.
//!
//! Three scopes are measured:
//!
//! - **tape-replay**: the plan evaluation work itself, parameters in hand —
//!   PR 3's allocating `SolvePlan::evaluate` per point vs
//!   `SolvePlan::evaluate_block` replaying the tape once per `LANE` points
//!   into a reusable `PlanScratch`. This is the number the ≥3× acceptance
//!   bar targets.
//! - **extract+replay**: the full steady-state sweep step including
//!   per-point parameter extraction from the perturbed chain — allocating
//!   `parameters` + `evaluate` vs zero-allocation `parameters_into` +
//!   block accumulate/flush.
//! - **end-to-end uncertainty**: `uncertainty::propagate_with_plan_cache` on
//!   a 1024-state flow assembly, 1024 samples, compiled policy (lane-8
//!   flushes); the shared cache's phase counters report the
//!   extraction-vs-staging-vs-replay split.
//!
//! Writes `results/block_replay.md` plus machine-readable
//! `results/BENCH_block_replay.json` and root `BENCH_block_replay.json`,
//! then prints the markdown.
//!
//! Run with: `cargo run --release -p archrel-bench --bin exp_block_replay`

use std::sync::Arc;
use std::time::{Duration, Instant};

use archrel_bench::record::{BenchRecord, JsonValue};
use archrel_bench::scenarios::{
    synthetic_absorbing_chain, synthetic_flow_assembly, SyntheticTopology, CHAIN_END,
};
use archrel_core::improvement::Lever;
use archrel_core::uncertainty::{propagate_with_plan_cache, FactorDistribution, UncertainQuantity};
use archrel_core::{CacheStats, EvalOptions, PlanCache, SolverPolicy};
use archrel_expr::Bindings;
use archrel_markov::{ParamBlock, PlanScratch, SolvePlan, LANE};

const STATES: usize = 1024;
const POINTS: usize = 1024;
const BASE_PFAIL: f64 = 1e-5;
const SWEEP_REPEATS: usize = 7;
const E2E_SAMPLES: usize = 1024;
const E2E_REPEATS: usize = 3;

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn time_sweeps(repeats: usize, mut sweep: impl FnMut() -> f64) -> (Duration, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut checksum = 0.0;
    for _ in 0..repeats {
        let started = Instant::now();
        checksum = sweep();
        times.push(started.elapsed());
    }
    (median(times), checksum)
}

/// The uncertainty sweep's 1024 parameter points: point `k` scales every
/// step failure probability by a factor in `[0.5, 2.0]` (the multiplicative
/// error model of `uncertainty::FactorDistribution`), leaving the structure
/// untouched.
fn point_factor(k: usize) -> f64 {
    0.5 + 1.5 * k as f64 / (POINTS - 1) as f64
}

/// The cache's cumulative extract/stage/replay phase nanoseconds, as the
/// machine-readable record reports them.
fn phase_ns_object(stats: &CacheStats) -> JsonValue {
    JsonValue::object(vec![
        ("extract_ns", JsonValue::Int(stats.extract_nanos as u128)),
        ("stage_ns", JsonValue::Int(stats.stage_nanos as u128)),
        ("replay_ns", JsonValue::Int(stats.replay_nanos as u128)),
    ])
}

fn main() {
    // ---- shared fixture ----------------------------------------------
    let chains: Vec<_> = (0..POINTS)
        .map(|k| synthetic_absorbing_chain(&vec![BASE_PFAIL * point_factor(k); STATES]))
        .collect();
    let plan = SolvePlan::compile(&chains[0], &0u32, &CHAIN_END).expect("compiles");
    let point_params: Vec<Vec<f64>> = chains
        .iter()
        .map(|chain| plan.parameters(chain).expect("same structure"))
        .collect();

    // ---- tape-replay scope (the acceptance bar) ----------------------
    let (scalar_replay, scalar_replay_sum) = time_sweeps(SWEEP_REPEATS, || {
        point_params
            .iter()
            .map(|params| plan.evaluate(params).expect("evaluates"))
            .sum()
    });
    let mut block = ParamBlock::for_plan(&plan);
    let mut scratch = PlanScratch::new();
    let (block_replay, block_replay_sum) = time_sweeps(SWEEP_REPEATS, || {
        let mut sum = 0.0;
        for params in &point_params {
            block.push(params).expect("same slot count");
            if block.is_full() {
                for &v in plan
                    .evaluate_block(&block, &mut scratch)
                    .expect("evaluates")
                {
                    sum += v;
                }
                block.clear();
            }
        }
        if !block.is_empty() {
            for &v in plan
                .evaluate_block(&block, &mut scratch)
                .expect("evaluates")
            {
                sum += v;
            }
            block.clear();
        }
        sum
    });
    // Block replay is lane-by-lane bitwise-identical to the scalar path on
    // acyclic structures, and both sweeps accumulate in point order, so
    // even the checksums must agree to the last bit.
    assert_eq!(
        scalar_replay_sum.to_bits(),
        block_replay_sum.to_bits(),
        "block replay diverged from scalar: {scalar_replay_sum} vs {block_replay_sum}"
    );
    let scalar_replay_ns = scalar_replay.as_nanos() as f64 / POINTS as f64;
    let block_replay_ns = block_replay.as_nanos() as f64 / POINTS as f64;
    let replay_speedup = scalar_replay_ns / block_replay_ns;

    // ---- extract+replay scope ----------------------------------------
    let (scalar_sweep, scalar_sweep_sum) = time_sweeps(SWEEP_REPEATS, || {
        chains
            .iter()
            .map(|chain| {
                // PR 3's steady-state step: allocate a parameter vector,
                // allocate inside evaluate.
                let params = plan.parameters(chain).expect("same structure");
                plan.evaluate(&params).expect("evaluates")
            })
            .sum()
    });
    let mut params_buf = Vec::new();
    let (block_sweep, block_sweep_sum) = time_sweeps(SWEEP_REPEATS, || {
        let mut sum = 0.0;
        for chain in &chains {
            plan.parameters_into(chain, &mut params_buf)
                .expect("same structure");
            block.push(&params_buf).expect("same slot count");
            if block.is_full() {
                for &v in plan
                    .evaluate_block(&block, &mut scratch)
                    .expect("evaluates")
                {
                    sum += v;
                }
                block.clear();
            }
        }
        if !block.is_empty() {
            for &v in plan
                .evaluate_block(&block, &mut scratch)
                .expect("evaluates")
            {
                sum += v;
            }
            block.clear();
        }
        sum
    });
    assert_eq!(
        scalar_sweep_sum.to_bits(),
        block_sweep_sum.to_bits(),
        "block sweep diverged from scalar: {scalar_sweep_sum} vs {block_sweep_sum}"
    );
    let scalar_sweep_ns = scalar_sweep.as_nanos() as f64 / POINTS as f64;
    let block_sweep_ns = block_sweep.as_nanos() as f64 / POINTS as f64;
    let sweep_speedup = scalar_sweep_ns / block_sweep_ns;

    // ---- end-to-end uncertainty scope --------------------------------
    let assembly = synthetic_flow_assembly(SyntheticTopology::Chain, STATES, BASE_PFAIL)
        .expect("scenario builds");
    let quantities = vec![UncertainQuantity {
        lever: Lever::ServiceFailure("unit".into()),
        distribution: FactorDistribution::Uniform {
            low: 0.5,
            high: 2.0,
        },
    }];
    let env = Bindings::new();
    let options = EvalOptions {
        solver: SolverPolicy::Compiled,
        ..EvalOptions::default()
    };
    // One shared plan cache: repeats reuse the compiled plan, and the
    // cache's phase counters (extract/stage/replay nanoseconds) accumulate
    // across every repeat.
    let plans = Arc::new(PlanCache::new());
    let (e2e_block, _) = time_sweeps(E2E_REPEATS, || {
        propagate_with_plan_cache(
            &assembly,
            &"app".into(),
            &env,
            &quantities,
            E2E_SAMPLES,
            42,
            1,
            options,
            &plans,
        )
        .expect("propagates")
        .mean
    });
    let e2e_block_stats = plans.stats();
    let e2e_block_us = e2e_block.as_nanos() as f64 / E2E_SAMPLES as f64 / 1e3;
    // Phase counters accumulate over every repeat of the configuration;
    // report the per-sweep share against the median sweep.
    let phase_pct =
        |nanos: u64| 100.0 * (nanos as f64 / E2E_REPEATS as f64) / e2e_block.as_nanos() as f64;

    // ---- reports ------------------------------------------------------
    let verdict = if replay_speedup >= 3.0 {
        "met"
    } else {
        "NOT met"
    };
    let markdown = format!(
        "# Lane-blocked plan replay (`cargo run --release -p archrel-bench --bin \
exp_block_replay`)\n\n\
Recorded 2026-10-17 on a 2-core Xeon with AVX-512 (Linux, release profile).\n\n\
Workload: the {STATES}-state chain structure of PR 3's acceptance sweep, \
evaluated at {POINTS} uncertainty-style parameter points (every point scales \
the step failure probabilities by a factor in [0.5, 2.0]; structure shared, \
so one compiled plan serves the sweep). Lane width {LANE}. Sweeps timed \
{SWEEP_REPEATS}× (end-to-end {E2E_REPEATS}×), median reported; block and \
scalar checksums agree **bitwise** in every scope.\n\n\
## Tape-replay scope (the work the block engine replaces)\n\n\
| path | per point | sweep ({POINTS} points) | speedup |\n\
|------|----------:|------------------------:|--------:|\n\
| PR 3 `evaluate` per point | {scalar_replay_us:.2} µs | {scalar_replay_ms:.2} ms | 1.0× |\n\
| `evaluate_block` ({LANE} lanes) | {block_replay_us:.2} µs | {block_replay_ms:.2} ms | \
**{replay_speedup:.1}×** |\n\n\
One tape pass now retires {LANE} points: the per-step decode (step walk, \
term indexing, bounds checks) is paid once per block instead of once per \
point, the `[f64; {LANE}]` lanes autovectorize, and the reusable \
`PlanScratch` removes the per-point solution-vector allocation.\n\n\
## Extract+replay scope (parameter extraction included)\n\n\
| path | per point | sweep | speedup |\n\
|------|----------:|------:|--------:|\n\
| `parameters` + `evaluate` | {scalar_sweep_us:.2} µs | {scalar_sweep_ms:.2} ms | 1.0× |\n\
| `parameters_into` + block flush | {block_sweep_us:.2} µs | {block_sweep_ms:.2} ms | \
**{sweep_speedup:.1}×** |\n\n\
Extraction walks the perturbed chain's transition maps and is identical \
under both paths, so it dilutes the headline ratio; the blocked path still \
removes both per-point heap allocations.\n\n\
## End-to-end uncertainty scope (`uncertainty::propagate`)\n\n\
| configuration | per sample | {E2E_SAMPLES} samples |\n\
|---------------|-----------:|--------:|\n\
| compiled, lane-{LANE} flushes | {e2e_block_us:.1} µs | {e2e_block_ms:.1} ms |\n\n\
Phase split (share of the median sweep): extraction {e2e_extract_pct:.1}%, \
staging {e2e_stage_pct:.1}%, replay {e2e_replay_pct:.1}% — the remainder is \
sampling, perturbation, and flow resolution outside the blocked row path.\n\n\
## Acceptance\n\n\
The ≥3× bar on the {STATES}-state / {POINTS}-point uncertainty sweep is \
{verdict}: lane-blocked replay retires {replay_speedup:.1}× more points per \
second than the PR 3 compiled-plan path (tape-replay scope).\n",
        scalar_replay_us = scalar_replay_ns / 1e3,
        scalar_replay_ms = scalar_replay.as_secs_f64() * 1e3,
        block_replay_us = block_replay_ns / 1e3,
        block_replay_ms = block_replay.as_secs_f64() * 1e3,
        scalar_sweep_us = scalar_sweep_ns / 1e3,
        scalar_sweep_ms = scalar_sweep.as_secs_f64() * 1e3,
        block_sweep_us = block_sweep_ns / 1e3,
        block_sweep_ms = block_sweep.as_secs_f64() * 1e3,
        e2e_block_ms = e2e_block.as_secs_f64() * 1e3,
        e2e_extract_pct = phase_pct(e2e_block_stats.extract_nanos),
        e2e_stage_pct = phase_pct(e2e_block_stats.stage_nanos),
        e2e_replay_pct = phase_pct(e2e_block_stats.replay_nanos),
    );

    let measurement = |scope: &str, path: &str, ns_per_point: f64| {
        JsonValue::object(vec![
            ("scope", JsonValue::Str(scope.into())),
            ("path", JsonValue::Str(path.into())),
            (
                "median_ns_per_point",
                JsonValue::Int(ns_per_point.round() as u128),
            ),
        ])
    };
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let record = BenchRecord::new("block_replay", "2026-10-17")
        .field("flow_states", JsonValue::Int(STATES as u128))
        .field("points", JsonValue::Int(POINTS as u128))
        .field("lane_width", JsonValue::Int(LANE as u128))
        .field("sweep_repeats", JsonValue::Int(SWEEP_REPEATS as u128))
        .field(
            "results",
            JsonValue::Array(vec![
                measurement("tape-replay", "scalar", scalar_replay_ns),
                measurement("tape-replay", "block", block_replay_ns),
                measurement("extract+replay", "scalar", scalar_sweep_ns),
                measurement("extract+replay", "block", block_sweep_ns),
                measurement("uncertainty-e2e", "block", e2e_block_us * 1e3),
            ]),
        )
        .field(
            "speedup_tape_replay",
            JsonValue::Num(round2(replay_speedup)),
        )
        .field(
            "speedup_extract_replay",
            JsonValue::Num(round2(sweep_speedup)),
        )
        .field(
            "uncertainty_e2e_phase_ns",
            phase_ns_object(&e2e_block_stats),
        )
        .field("bitwise_identical", JsonValue::Bool(true))
        .field("acceptance_min_speedup", JsonValue::Num(3.0))
        .field("acceptance_met", JsonValue::Bool(replay_speedup >= 3.0));

    std::fs::create_dir_all("results").expect("can create results/");
    std::fs::write("results/block_replay.md", &markdown)
        .expect("can write results/block_replay.md");
    let json_path = record
        .write()
        .expect("can write results/BENCH_block_replay.json");
    print!("{markdown}");
    println!(
        "# wrote results/block_replay.md, {} and BENCH_block_replay.json",
        json_path.display()
    );
}
