//! The end-to-end acceptance sweep for the staged (zero-`Bindings`) sweep
//! drivers: a 1024-state flow evaluated at 1024 points through the two
//! driver entry points the staging work targets —
//! `uncertainty::propagate` (1024 Monte Carlo samples) and
//! `sensitivity::binding_sensitivities` (a 341-parameter stencil, 1023
//! probes) — each under the sparse per-point baseline and under the
//! compiled + staged path (`SolverPolicy::Compiled`, lane-8 blocked
//! replay).
//!
//! The staged path answers every structure-preserving point by writing its
//! parameter row straight into a `ParamBlock` (no per-point assembly
//! rebuild, no `Bindings`, no chain, no extraction) and replaying the
//! compiled tape across eight lanes at once; the per-phase nanosecond
//! counters (`CacheStats::{extract_nanos, stage_nanos, replay_nanos}`)
//! recorded by the drivers are reported so the residual end-to-end gap is
//! attributable.
//!
//! Writes `results/uncertainty_e2e.md` plus machine-readable
//! `results/BENCH_uncertainty_e2e.json` and root
//! `BENCH_uncertainty_e2e.json`, then prints the markdown.
//!
//! Run with: `cargo run --release -p archrel-bench --bin exp_uncertainty_e2e`

use std::sync::Arc;
use std::time::{Duration, Instant};

use archrel_bench::record::{BenchRecord, JsonValue};
use archrel_bench::scenarios::{
    parameterized_flow_assembly, synthetic_flow_assembly, SyntheticTopology,
};
use archrel_core::improvement::Lever;
use archrel_core::sensitivity::{binding_sensitivities_with_workers, Sensitivity};
use archrel_core::uncertainty::{propagate_with_plan_cache, FactorDistribution, UncertainQuantity};
use archrel_core::{CacheStats, EvalOptions, Evaluator, PlanCache, SolverPolicy};
use archrel_expr::Bindings;
use archrel_markov::LANE;

const STATES: usize = 1024;
const SAMPLES: usize = 1024;
const SENS_PARAMS: usize = 341; // 3 stencil points per parameter -> 1023 probes
const BASE_PFAIL: f64 = 1e-5;
const REPEATS: usize = 3;
const ACCEPTANCE_MIN_SPEEDUP: f64 = 5.0;

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn time_sweeps<T>(repeats: usize, mut sweep: impl FnMut() -> T) -> (Duration, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut result = None;
    for _ in 0..repeats {
        let started = Instant::now();
        result = Some(sweep());
        times.push(started.elapsed());
    }
    (median(times), result.expect("at least one repeat"))
}

fn options_for(solver: SolverPolicy) -> EvalOptions {
    EvalOptions {
        solver,
        ..EvalOptions::default()
    }
}

fn main() {
    // ---- uncertainty scope -------------------------------------------
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
    let propagate_at = |solver: SolverPolicy| -> (Duration, f64, CacheStats) {
        let plans = Arc::new(PlanCache::new());
        let (time, mean) = time_sweeps(REPEATS, || {
            propagate_with_plan_cache(
                &assembly,
                &"app".into(),
                &env,
                &quantities,
                SAMPLES,
                42,
                1,
                options_for(solver),
                &plans,
            )
            .expect("propagates")
            .mean
        });
        (time, mean, plans.stats())
    };
    let (unc_sparse, unc_sparse_mean, _) = propagate_at(SolverPolicy::Sparse);
    let (unc_staged, unc_staged_mean, unc_stats) = propagate_at(SolverPolicy::Compiled);
    // The staged rows reproduce the generic parameter extraction bitwise
    // (the sweep self-checks at compile time) and the acyclic tape replays
    // the sparse elimination's arithmetic exactly, so even the Monte Carlo
    // mean must agree to the last bit.
    assert_eq!(
        unc_sparse_mean.to_bits(),
        unc_staged_mean.to_bits(),
        "staged uncertainty diverged: {unc_sparse_mean} vs {unc_staged_mean}"
    );
    let unc_speedup = unc_sparse.as_secs_f64() / unc_staged.as_secs_f64();

    // ---- sensitivity scope -------------------------------------------
    let (sens_assembly, sens_env) =
        parameterized_flow_assembly(STATES, SENS_PARAMS, BASE_PFAIL).expect("scenario builds");
    let sens_points = 3 * SENS_PARAMS;
    let sensitivities_at = |solver: SolverPolicy| -> (Duration, Vec<Sensitivity>, CacheStats) {
        // A fresh evaluator per repeat — the shared result cache would
        // otherwise answer repeat 2+ without doing any work — over one
        // shared plan cache, whose phase counters accumulate across all
        // repeats (mirroring the uncertainty scope).
        let plans = Arc::new(PlanCache::new());
        let (time, out) = time_sweeps(REPEATS, || {
            let evaluator =
                Evaluator::with_plan_cache(&sens_assembly, options_for(solver), Arc::clone(&plans));
            binding_sensitivities_with_workers(&evaluator, &"app".into(), &sens_env, 1)
                .expect("sensitivities")
        });
        (time, out, plans.stats())
    };
    let (sens_sparse, sens_sparse_out, _) = sensitivities_at(SolverPolicy::Sparse);
    let (sens_staged, sens_staged_out, sens_stats) = sensitivities_at(SolverPolicy::Compiled);
    assert_eq!(sens_sparse_out.len(), SENS_PARAMS);
    assert_eq!(sens_staged_out.len(), SENS_PARAMS);
    for (a, b) in sens_sparse_out.iter().zip(&sens_staged_out) {
        assert_eq!(a.name, b.name, "sensitivity order diverged");
        assert_eq!(
            a.derivative.to_bits(),
            b.derivative.to_bits(),
            "staged sensitivity diverged on {}: {} vs {}",
            a.name,
            a.derivative,
            b.derivative
        );
    }
    let sens_speedup = sens_sparse.as_secs_f64() / sens_staged.as_secs_f64();

    // ---- reports ------------------------------------------------------
    let accepted = unc_speedup >= ACCEPTANCE_MIN_SPEEDUP && sens_speedup >= ACCEPTANCE_MIN_SPEEDUP;
    let verdict = if accepted { "met" } else { "NOT met" };
    let phase_pct = |nanos: u64, total: Duration| {
        if total.is_zero() {
            0.0
        } else {
            100.0 * nanos as f64 / total.as_nanos() as f64 / REPEATS as f64
        }
    };
    let markdown = format!(
        "# Staged sweep drivers, end to end (`cargo run --release -p archrel-bench --bin \
exp_uncertainty_e2e`)\n\n\
Recorded 2026-08-08 on the CI container (Linux, 1 CPU core, release profile).\n\n\
Workload: a {STATES}-state sequential flow; the uncertainty scope propagates \
{SAMPLES} Monte Carlo samples of a service-failure factor through \
`uncertainty::propagate`, the sensitivity scope runs the \
{SENS_PARAMS}-parameter finite-difference stencil ({sens_points} probes) \
through `sensitivity::binding_sensitivities`. Each configuration timed \
{REPEATS}x, median reported, one worker. The sparse baseline rebuilds the \
perturbed assembly and re-eliminates the chain per point; the staged path \
(`--solver compiled`) generates each point's parameter row directly into \
lane-8 blocks and replays the compiled tape.\n\n\
## Uncertainty ({SAMPLES} samples)\n\n\
| path | sweep | per sample | speedup |\n\
|------|------:|-----------:|--------:|\n\
| sparse per-point | {unc_sparse_ms:.1} ms | {unc_sparse_us:.1} µs | 1.0× |\n\
| compiled + staged | {unc_staged_ms:.1} ms | {unc_staged_us:.1} µs | \
**{unc_speedup:.1}×** |\n\n\
Propagated means agree **bitwise**. Staged-path phase split (share of the \
median sweep): staging {unc_stage_pct:.1}%, replay {unc_replay_pct:.1}%, \
extraction {unc_extract_pct:.1}% (structure-preserving samples never touch \
a chain, so extraction only appears when a sample falls back).\n\n\
## Sensitivity ({SENS_PARAMS} parameters, {sens_points} probes)\n\n\
| path | sweep | per probe | speedup |\n\
|------|------:|----------:|--------:|\n\
| sparse per-probe | {sens_sparse_ms:.1} ms | {sens_sparse_us:.1} µs | 1.0× |\n\
| compiled + staged | {sens_staged_ms:.1} ms | {sens_staged_us:.1} µs | \
**{sens_speedup:.1}×** |\n\n\
Derivatives agree **bitwise** in stencil order. Staged-path phase split: \
staging {sens_stage_pct:.1}%, replay {sens_replay_pct:.1}%, extraction \
{sens_extract_pct:.1}%.\n\n\
## Acceptance\n\n\
The ≥{ACCEPTANCE_MIN_SPEEDUP:.0}× end-to-end bar on the {STATES}-state / \
1024-point sweeps is {verdict}: uncertainty {unc_speedup:.1}×, sensitivity \
{sens_speedup:.1}× over the sparse baseline.\n",
        unc_sparse_ms = unc_sparse.as_secs_f64() * 1e3,
        unc_sparse_us = unc_sparse.as_nanos() as f64 / SAMPLES as f64 / 1e3,
        unc_staged_ms = unc_staged.as_secs_f64() * 1e3,
        unc_staged_us = unc_staged.as_nanos() as f64 / SAMPLES as f64 / 1e3,
        unc_stage_pct = phase_pct(unc_stats.stage_nanos, unc_staged),
        unc_replay_pct = phase_pct(unc_stats.replay_nanos, unc_staged),
        unc_extract_pct = phase_pct(unc_stats.extract_nanos, unc_staged),
        sens_sparse_ms = sens_sparse.as_secs_f64() * 1e3,
        sens_sparse_us = sens_sparse.as_nanos() as f64 / sens_points as f64 / 1e3,
        sens_staged_ms = sens_staged.as_secs_f64() * 1e3,
        sens_staged_us = sens_staged.as_nanos() as f64 / sens_points as f64 / 1e3,
        sens_stage_pct = phase_pct(sens_stats.stage_nanos, sens_staged),
        sens_replay_pct = phase_pct(sens_stats.replay_nanos, sens_staged),
        sens_extract_pct = phase_pct(sens_stats.extract_nanos, sens_staged),
    );

    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let phase_ns = |stats: &CacheStats| {
        JsonValue::object(vec![
            ("extract_ns", JsonValue::Int(stats.extract_nanos as u128)),
            ("stage_ns", JsonValue::Int(stats.stage_nanos as u128)),
            ("replay_ns", JsonValue::Int(stats.replay_nanos as u128)),
        ])
    };
    let measurement = |scope: &str, path: &str, sweep: Duration, points: usize| {
        JsonValue::object(vec![
            ("scope", JsonValue::Str(scope.into())),
            ("path", JsonValue::Str(path.into())),
            (
                "median_ns_per_point",
                JsonValue::Int((sweep.as_nanos() as f64 / points as f64).round() as u128),
            ),
        ])
    };
    let record = BenchRecord::new("uncertainty_e2e", "2026-08-08")
        .field("flow_states", JsonValue::Int(STATES as u128))
        .field("uncertainty_samples", JsonValue::Int(SAMPLES as u128))
        .field("sensitivity_params", JsonValue::Int(SENS_PARAMS as u128))
        .field("sensitivity_probes", JsonValue::Int(sens_points as u128))
        .field("lane_width", JsonValue::Int(LANE as u128))
        .field("repeats", JsonValue::Int(REPEATS as u128))
        .field(
            "results",
            JsonValue::Array(vec![
                measurement("uncertainty", "sparse", unc_sparse, SAMPLES),
                measurement("uncertainty", "staged", unc_staged, SAMPLES),
                measurement("sensitivity", "sparse", sens_sparse, sens_points),
                measurement("sensitivity", "staged", sens_staged, sens_points),
            ]),
        )
        .field("speedup_uncertainty", JsonValue::Num(round2(unc_speedup)))
        .field("speedup_sensitivity", JsonValue::Num(round2(sens_speedup)))
        .field("uncertainty_e2e_phase_ns", phase_ns(&unc_stats))
        .field("sensitivity_phase_ns", phase_ns(&sens_stats))
        .field("bitwise_identical", JsonValue::Bool(true))
        .field(
            "acceptance_min_speedup",
            JsonValue::Num(ACCEPTANCE_MIN_SPEEDUP),
        )
        .field("acceptance_met", JsonValue::Bool(accepted));

    std::fs::create_dir_all("results").expect("can create results/");
    std::fs::write("results/uncertainty_e2e.md", &markdown)
        .expect("can write results/uncertainty_e2e.md");
    let json_path = record
        .write()
        .expect("can write results/BENCH_uncertainty_e2e.json");
    println!("{markdown}");
    println!("wrote {}", json_path.display());
}
