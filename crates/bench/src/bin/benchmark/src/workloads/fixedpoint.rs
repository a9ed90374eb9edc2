//! `program_fixedpoint`: in-process batches of seeded `work` values through
//! a fresh one-worker `BatchEvaluator` per batch, alternating a recursive
//! mesh (fixed-point evaluation, as `--fixed-point` enables it) and a
//! shared DAG (default options).
//!
//! This exercises the generic compiled program — memo tables, dirty-cone
//! pins and SCC fixed-point sweeps — with no staging and no daemon.

use std::time::Instant;

use archrel_bench::scenarios::{recursive_mesh_assembly, shared_dag_assembly};
use archrel_core::{
    BatchEvaluator, CacheStats, CycleMode, EvalOptions, Evaluator, Query,
    DEFAULT_FIXED_POINT_MAX_ITERATIONS, DEFAULT_FIXED_POINT_TOLERANCE,
};
use archrel_dsl::print_assembly;
use archrel_expr::Bindings;
use archrel_model::{Assembly, Probability};

use super::{ms, ratio, secs, Ctx, Outcome};
use crate::inputs::{fingerprint, Rng};
use crate::trace::Tracer;

/// What `--fixed-point` selects: fixed-point cycles at the exported
/// default budget and tolerance, everything else at its default.
fn fixed_point() -> EvalOptions {
    EvalOptions {
        cycle_mode: CycleMode::FixedPoint {
            max_iterations: DEFAULT_FIXED_POINT_MAX_ITERATIONS,
            tolerance: DEFAULT_FIXED_POINT_TOLERANCE,
        },
        ..EvalOptions::default()
    }
}

fn work(value: f64) -> Bindings {
    Bindings::new().with("work", value)
}

/// One batch through a fresh evaluator: results, counters, and the
/// instants around construction and evaluation.
struct Batch {
    results: Vec<archrel_core::Result<Probability>>,
    stats: CacheStats,
    built: Instant,
    done: Instant,
}

fn batch(assembly: &Assembly, options: EvalOptions, values: &[f64]) -> Batch {
    let queries: Vec<Query> = values.iter().map(|&v| Query::new("app", work(v))).collect();
    let evaluator = BatchEvaluator::with_options(assembly, options).with_workers(1);
    let built = Instant::now();
    let results = evaluator.evaluate_all(&queries);
    let done = Instant::now();
    Batch {
        results,
        stats: evaluator.cache_stats(),
        built,
        done,
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let (members, fanout, leaves, q) = ctx.scale.mesh;
    let (depth, width, dag_leaves) = ctx.scale.dag;
    let n = ctx.scale.batch;
    let mut rng = Rng::new(ctx.seed, 4);

    // Set-up: the models, and the first point of each on a fresh evaluator.
    let started = Instant::now();
    let mesh = recursive_mesh_assembly(members, fanout, leaves, q).map_err(|e| e.to_string())?;
    let dag = shared_dag_assembly(depth, width, dag_leaves).map_err(|e| e.to_string())?;
    let first = Instant::now();
    for (assembly, options) in [(&mesh, fixed_point()), (&dag, EvalOptions::default())] {
        Evaluator::with_options(assembly, options)
            .failure_probability(&"app".into(), &work(1e3))
            .map_err(|e| e.to_string())?;
    }
    let first_point_ms = ms(first.elapsed());
    out.setup_s = secs(started);
    let mesh_text = print_assembly(&mesh).map_err(|e| e.to_string())?;
    let dag_text = print_assembly(&dag).map_err(|e| e.to_string())?;
    out.fingerprints
        .push(("mesh_model", fingerprint(mesh_text.as_bytes())));
    out.fingerprints
        .push(("dag_model", fingerprint(dag_text.as_bytes())));

    let mut mesh_stats = CacheStats::default();
    let mut dag_stats = CacheStats::default();
    let mut rounds = 0usize;
    let (mut busy_s, mut mesh_s) = (0.0, 0.0);
    let measured = Instant::now();
    while ctx.more(measured, rounds) {
        let mesh_values: Vec<f64> = (0..n).map(|_| rng.value(1e3, 1e6, 0)).collect();
        let dag_values: Vec<f64> = (0..n).map(|_| rng.value(1e3, 1e6, 0)).collect();
        if rounds == 0 {
            let bytes: Vec<u8> = mesh_values
                .iter()
                .chain(&dag_values)
                .flat_map(|v| v.to_le_bytes())
                .collect();
            out.fingerprints
                .push(("first_batches", fingerprint(&bytes)));
        }
        let t0 = Instant::now();
        let m = batch(&mesh, fixed_point(), &mesh_values);
        let d = batch(&dag, EvalOptions::default(), &dag_values);
        out.latency_ms.push(ms(d.done - t0));
        busy_s += (d.done - t0).as_secs_f64();
        mesh_s += (m.done - t0).as_secs_f64();
        rounds += 1;
        if tracer.enabled() {
            let root = tracer.span("round", None, t0, d.done);
            for b in [&m, &d] {
                let call = tracer.span("core.batch.evaluate_all", Some(root), b.built, b.done);
                tracer.child("core.eval.solve", call, b.stats.solve_nanos);
                tracer.child("markov.plan.replay", call, b.stats.replay_nanos);
                tracer.child("core.eval.extract", call, b.stats.extract_nanos);
            }
        }
        mesh_stats.merge(&m.stats);
        dag_stats.merge(&d.stats);

        // Every point must evaluate; one seeded point per batch must match
        // a fresh evaluation bitwise.
        for (label, assembly, options, values, results) in [
            ("mesh", &mesh, fixed_point(), &mesh_values, &m.results),
            ("dag", &dag, EvalOptions::default(), &dag_values, &d.results),
        ] {
            out.attempted += results.len() as u64;
            for (v, r) in values.iter().zip(results) {
                if let Err(e) = r {
                    out.fail(format!("{label} work={v}: {e}"));
                }
            }
            let i = rng.index(values.len());
            if let Ok(got) = &results[i] {
                match Evaluator::with_options(assembly, options)
                    .failure_probability(&"app".into(), &work(values[i]))
                {
                    Ok(want) => {
                        out.check_bits(
                            &format!("{label} work={}", values[i]),
                            got.value(),
                            want.value(),
                        );
                    }
                    Err(e) => out.fail(format!("fresh {label} evaluation: {e}")),
                }
            }
        }
    }
    out.throughput_per_s = rounds as f64 / busy_s;
    out.peak_rss_mb = crate::host::proc_status_mb("self", "VmHWM").unwrap_or(0.0);
    let points = (n * rounds) as f64;
    out.notes.push(format!(
        "per round: {n} mesh points, then {n} dag points; mesh {:.1} points/s, dag {:.1} points/s",
        points / mesh_s,
        points / (busy_s - mesh_s)
    ));
    if tracer.enabled() {
        let m = &mesh_stats;
        let d = &dag_stats;
        out.layer(
            "core.fixedpoint.sweeps_per_point",
            m.fixed_point_sweeps as f64 / points,
        );
        out.layer(
            "core.program.scc_iterations_per_point",
            m.scc_iterations as f64 / points,
        );
        out.layer(
            "markov.plan.rank1_ratio",
            ratio(
                m.rank1_solves as f64,
                (m.rank1_solves + m.full_solves) as f64,
            ),
        );
        out.layer(
            "core.program.memo_hit_ratio",
            ratio(d.memo_hits as f64, (d.memo_hits + d.memo_misses) as f64),
        );
        out.layer(
            "core.program.pin_hits_per_point",
            d.pin_hits as f64 / points,
        );
        out.layer("core.eval.first_point_ms", first_point_ms);
        out.table = Some(tracer.table("unattributed"));
    }
    Ok(())
}
