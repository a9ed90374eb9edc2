//! The cyclic fixed-point acceptance sweep: a recursive-mesh assembly
//! (`scenarios::recursive_mesh_assembly`) evaluated at 1024 parameter
//! points varying the demand parameter `work` — the recursive fixed-point
//! evaluator against the SCC-aware compiled [`AssemblyProgram`] driver.
//!
//! The mesh's four mutually recursive services form one nontrivial SCC
//! reached through a fan-out tier, so *every* composite sits inside the
//! fixed-point loop cone: the scenario isolates what the compiled program
//! buys inside converging sweeps (compiled expression slabs, flat register
//! files, cached flow skeletons refreshed in place, pinned solve plans)
//! against the recursive walk's per-visit `Bindings` maps, string cache
//! keys, and augmented-chain rebuilds. Three scopes are measured, each
//! engine reached by the evaluator's sighting rule:
//!
//! - **recursive**: plain successive substitution with every point a
//!   fresh evaluator's first sighting (the evaluators share one plan cache
//!   and one value cache) — the reference trajectory.
//! - **program (plain)**: all points in one
//!   `Evaluator::failure_probabilities` batch, which compiles the program
//!   before its first point; same plain substitution. This is the number
//!   the ≥3× acceptance bar targets, and its point-order checksum must
//!   agree **bitwise** with the recursive scope: both drivers feed
//!   identical sweeps through one shared `FixedPointSolver`.
//! - **program (aitken)**: the same batch with Aitken Δ² acceleration
//!   (`--fixed-point aitken`) — reported for the sweep-count reduction; it
//!   follows a different (accelerated) trajectory, so its checksum is
//!   compared to the plain one at the 1e-10 agreement bar instead.
//!
//! Writes `results/recursive_mesh.md` plus machine-readable
//! `results/BENCH_recursive_mesh.json` and root `BENCH_recursive_mesh.json`,
//! then prints the markdown.
//!
//! Run with: `cargo run --release -p archrel-bench --bin exp_recursive_mesh`

use std::sync::Arc;
use std::time::{Duration, Instant};

use archrel_bench::record::{BenchRecord, JsonValue};
use archrel_bench::scenarios::recursive_mesh_assembly;
use archrel_core::{CycleMode, EvalOptions, Evaluator, FixedPointMode, PlanCache};
use archrel_expr::Bindings;
use archrel_model::Assembly;

const MESH: usize = 4;
const FANOUT: usize = 3;
const LEAVES: usize = 2;
const RECURSE_PROB: f64 = 0.7;
const POINTS: usize = 1024;
const SWEEP_REPEATS: usize = 5;
const FP_BUDGET: usize = 200;
const FP_TOLERANCE: f64 = 1e-10;

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// The swept demand values: 1024 points across three decades of `work`.
fn point_work(k: usize) -> f64 {
    1e3 + (1e6 - 1e3) * k as f64 / (POINTS - 1) as f64
}

fn options(fixed_point: FixedPointMode) -> EvalOptions {
    EvalOptions {
        fixed_point,
        cycle_mode: CycleMode::FixedPoint {
            max_iterations: FP_BUDGET,
            tolerance: FP_TOLERANCE,
        },
        ..EvalOptions::default()
    }
}

/// Which engine a sweep reaches.
#[derive(Clone, Copy)]
enum Engine {
    Recursive,
    Program,
}

/// One sweep over `envs`, returning the point-order checksum: through
/// fresh evaluators (shared plan cache, private value caches, since a
/// shared one would also share the program a second sighting compiles)
/// whose first sighting walks the recursive path, or through one batch
/// that compiles the program first.
fn sweep(
    assembly: &Assembly,
    engine: Engine,
    fixed_point: FixedPointMode,
    envs: &[Bindings],
) -> f64 {
    let app = "app".into();
    let mut sum = 0.0;
    match engine {
        Engine::Recursive => {
            let plans = Arc::new(PlanCache::new());
            let mut compiled = 0;
            for env in envs {
                let evaluator =
                    Evaluator::with_plan_cache(assembly, options(fixed_point), Arc::clone(&plans));
                sum += evaluator
                    .failure_probability(&app, env)
                    .expect("fixed point converges")
                    .value();
                compiled += evaluator.local_stats().programs_compiled;
            }
            assert_eq!(compiled, 0, "the recursive row must not compile a program");
        }
        Engine::Program => {
            let evaluator = Evaluator::with_options(assembly, options(fixed_point));
            evaluator.declare_varied(&app, &["work".to_string()]);
            let refs: Vec<&Bindings> = envs.iter().collect();
            for p in evaluator.failure_probabilities(&app, &refs) {
                sum += p.expect("fixed point converges").value();
            }
        }
    }
    sum
}

/// Times `repeats` full sweeps of the 1024-point evaluation, each with
/// fresh evaluators (so no cross-sweep caching flatters any path),
/// returning the median duration and the last sweep's checksum.
fn time_sweeps(
    assembly: &Assembly,
    engine: Engine,
    fixed_point: FixedPointMode,
    envs: &[Bindings],
) -> (Duration, f64) {
    let mut times = Vec::with_capacity(SWEEP_REPEATS);
    let mut checksum = 0.0;
    for _ in 0..SWEEP_REPEATS {
        let started = Instant::now();
        checksum = sweep(assembly, engine, fixed_point, envs);
        times.push(started.elapsed());
    }
    (median(times), checksum)
}

fn main() {
    let assembly =
        recursive_mesh_assembly(MESH, FANOUT, LEAVES, RECURSE_PROB).expect("scenario builds");
    let services = 1 + FANOUT + MESH + LEAVES;

    let envs: Vec<Bindings> = (0..POINTS)
        .map(|k| Bindings::new().with("work", point_work(k)))
        .collect();
    let (recursive, recursive_sum) =
        time_sweeps(&assembly, Engine::Recursive, FixedPointMode::Plain, &envs);
    let (program, program_sum) =
        time_sweeps(&assembly, Engine::Program, FixedPointMode::Plain, &envs);
    let (aitken, aitken_sum) =
        time_sweeps(&assembly, Engine::Program, FixedPointMode::Aitken, &envs);

    // Plain substitution is the bitwise reference: both engines drive the
    // same global sweeps through one shared solver, so even the point-order
    // checksums agree to the last bit.
    assert_eq!(
        recursive_sum.to_bits(),
        program_sum.to_bits(),
        "program fixed point diverged from recursive: {recursive_sum} vs {program_sum}"
    );
    // Aitken walks an accelerated trajectory toward the same fixed point.
    assert!(
        (recursive_sum - aitken_sum).abs() < 1e-10 * POINTS as f64,
        "aitken drifted past the agreement bar: {recursive_sum} vs {aitken_sum}"
    );

    // One instrumented program batch per mode for the solver counters.
    let refs: Vec<&Bindings> = envs.iter().collect();
    let count_sweeps = |fixed_point| {
        let evaluator = Evaluator::with_options(&assembly, options(fixed_point));
        for p in evaluator.failure_probabilities(&"app".into(), &refs) {
            p.expect("fixed point converges");
        }
        evaluator.cache_stats()
    };
    let plain_stats = count_sweeps(FixedPointMode::Plain);
    let aitken_stats = count_sweeps(FixedPointMode::Aitken);

    let recursive_us = recursive.as_nanos() as f64 / POINTS as f64 / 1e3;
    let program_us = program.as_nanos() as f64 / POINTS as f64 / 1e3;
    let aitken_us = aitken.as_nanos() as f64 / POINTS as f64 / 1e3;
    let speedup = recursive_us / program_us;
    let aitken_speedup = recursive_us / aitken_us;
    let verdict = if speedup >= 3.0 { "met" } else { "NOT met" };

    let markdown = format!(
        "# Cyclic fixed point, compiled (`cargo run --release -p archrel-bench --bin \
exp_recursive_mesh`)\n\n\
Recorded 2026-10-17 on a 2-core Xeon with AVX-512 (Linux, release profile).\n\n\
Workload: the recursive-mesh scenario (`scenarios::recursive_mesh_assembly`, \
{services} services: {MESH} mutually recursive 64-state members re-entering \
the mesh with probability {RECURSE_PROB}, under a {FANOUT}-wide fan-out tier), \
swept over {POINTS} values of the demand parameter `work` at a \
{FP_TOLERANCE:e} fixed-point tolerance. Sweeps timed {SWEEP_REPEATS}× with \
fresh evaluators each, median reported; the plain-substitution checksums agree \
**bitwise** across engines.\n\n\
| path | per point | sweep ({POINTS} points) | speedup |\n\
|------|----------:|------------------------:|--------:|\n\
| recursive (each point a fresh evaluator's first sighting) | \
{recursive_us:.1} µs | {recursive_ms:.1} ms | 1.0× |\n\
| program, plain (one batch of all points) | {program_us:.1} µs | \
{program_ms:.1} ms | **{speedup:.1}×** |\n\
| program, aitken (`--fixed-point aitken`) | {aitken_us:.1} µs | \
{aitken_ms:.1} ms | {aitken_speedup:.1}× |\n\n\
Every composite in this assembly can reach the mesh, so the whole tree sits \
inside the fixed-point loop cone and is re-evaluated on every global sweep \
with only sweep-local memoization — the compiled driver wins by making each \
sweep cheap (compiled expression slabs into flat register files, cached flow \
skeletons refreshed in place, pinned solve plans replayed), not by skipping \
sweeps. Plain substitution took {plain_sweeps} global sweeps across the \
{POINTS}-point run ({plain_per_point:.1}/point over {loop_sccs} loop SCC(s), \
{member_updates} member updates); Aitken Δ² needed only {aitken_sweeps} \
sweeps ({aitken_per_point:.1}/point) after {accels} accelerated steps and \
{fallbacks} degenerate-denominator fallbacks — acceleration rides on top of \
the compiled driver, so its speedup is reported alongside, while the \
acceptance bar is judged on the trajectory-preserving plain mode.\n\n\
## Acceptance\n\n\
The ≥3× bar on the recursive-mesh {POINTS}-point sweep is {verdict}: the \
SCC-aware compiled program retires {speedup:.1}× more points per second than \
the recursive fixed-point evaluator, bitwise-identically under plain \
substitution.\n",
        recursive_ms = recursive.as_secs_f64() * 1e3,
        program_ms = program.as_secs_f64() * 1e3,
        aitken_ms = aitken.as_secs_f64() * 1e3,
        plain_sweeps = plain_stats.fixed_point_sweeps,
        plain_per_point = plain_stats.fixed_point_sweeps as f64 / POINTS as f64,
        loop_sccs = plain_stats.program_loop_sccs,
        member_updates = plain_stats.scc_iterations,
        aitken_sweeps = aitken_stats.fixed_point_sweeps,
        aitken_per_point = aitken_stats.fixed_point_sweeps as f64 / POINTS as f64,
        accels = aitken_stats.aitken_accels,
        fallbacks = aitken_stats.aitken_fallbacks,
    );

    let measurement = |path: &str, us_per_point: f64| {
        JsonValue::object(vec![
            ("path", JsonValue::Str(path.into())),
            (
                "median_ns_per_point",
                JsonValue::Int((us_per_point * 1e3).round() as u128),
            ),
        ])
    };
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let record = BenchRecord::new("recursive_mesh", "2026-10-17")
        .field("mesh_members", JsonValue::Int(MESH as u128))
        .field("fanout", JsonValue::Int(FANOUT as u128))
        .field("services", JsonValue::Int(services as u128))
        .field("recurse_prob", JsonValue::Num(RECURSE_PROB))
        .field("points", JsonValue::Int(POINTS as u128))
        .field("sweep_repeats", JsonValue::Int(SWEEP_REPEATS as u128))
        .field("fp_budget", JsonValue::Int(FP_BUDGET as u128))
        .field("fp_tolerance", JsonValue::Num(FP_TOLERANCE))
        .field(
            "results",
            JsonValue::Array(vec![
                measurement("recursive", recursive_us),
                measurement("program-plain", program_us),
                measurement("program-aitken", aitken_us),
            ]),
        )
        .field("speedup_program_plain", JsonValue::Num(round2(speedup)))
        .field(
            "speedup_program_aitken",
            JsonValue::Num(round2(aitken_speedup)),
        )
        .field(
            "plain_sweeps",
            JsonValue::Int(plain_stats.fixed_point_sweeps as u128),
        )
        .field(
            "aitken_sweeps",
            JsonValue::Int(aitken_stats.fixed_point_sweeps as u128),
        )
        .field(
            "aitken_accels",
            JsonValue::Int(aitken_stats.aitken_accels as u128),
        )
        .field(
            "aitken_fallbacks",
            JsonValue::Int(aitken_stats.aitken_fallbacks as u128),
        )
        .field("bitwise_identical", JsonValue::Bool(true))
        .field("acceptance_min_speedup", JsonValue::Num(3.0))
        .field("acceptance_met", JsonValue::Bool(speedup >= 3.0));

    std::fs::create_dir_all("results").expect("can create results/");
    std::fs::write("results/recursive_mesh.md", &markdown)
        .expect("can write results/recursive_mesh.md");
    let json_path = record
        .write()
        .expect("can write results/BENCH_recursive_mesh.json");
    print!("{markdown}");
    println!(
        "# wrote results/recursive_mesh.md, {} and BENCH_recursive_mesh.json",
        json_path.display()
    );
}
