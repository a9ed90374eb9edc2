//! Compiled assembly programs vs the recursive evaluator across DAG depth
//! and sharing width.
//!
//! Two groups over [`shared_dag_assembly`] (every interior node shared by
//! two parents, one leaf demand parameter `work`):
//!
//! - `depth`: width fixed at 2, depth 2 → 6 — the recursive walk visits
//!   sub-services once per path (exponential in depth), the program once
//!   per node;
//! - `width`: depth fixed at 4, width 1 → 4 — wider layers add nodes but
//!   also more sharing for the per-service memo to exploit.
//!
//! Each measurement evaluates one parameter point over pre-warmed caches,
//! each engine reached by the evaluator's sighting rule: `recursive`
//! evaluates every point on a fresh evaluator (its first sighting) over a
//! shared, warmed plan cache and a private value cache (a shared one would
//! also share the program a second sighting compiles); `program` compiles
//! the program with a warm-up batch of two points before timing starts.
//! The numbers isolate steady-state per-point cost, not compilation.
//!
//! The acceptance sweep with markdown + JSON records lives in
//! `src/bin/exp_assembly_program.rs`.

use std::sync::Arc;

use archrel_bench::scenarios::shared_dag_assembly;
use archrel_core::{EvalOptions, Evaluator, PlanCache};
use archrel_expr::Bindings;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const LEAVES: usize = 2;

fn bench_axis(
    c: &mut Criterion,
    group_name: &str,
    cases: impl Iterator<Item = (usize, usize)>,
    parameter: fn(usize, usize) -> usize,
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for (depth, width) in cases {
        let assembly = shared_dag_assembly(depth, width, LEAVES).expect("scenario builds");
        let app = "app".into();
        let warm = Bindings::new().with("work", 1e5);
        let plans = Arc::new(PlanCache::new());
        let fresh =
            || Evaluator::with_plan_cache(&assembly, EvalOptions::default(), Arc::clone(&plans));
        // Warm both engines once: fills the plan cache, and the batch of
        // two compiles the program.
        fresh()
            .failure_probability(&app, &warm)
            .expect("evaluation succeeds");
        let program = Evaluator::new(&assembly);
        for p in program.failure_probabilities(&app, &[&warm, &warm]) {
            p.expect("evaluation succeeds");
        }
        // A fresh `work` per iteration defeats the top-level (service, env)
        // cache; the sub-service memo still works within the point. The
        // counter lives outside the timed closure, which the harness calls
        // once per warm-up step, so warm-up points are fresh too and the
        // batch size is calibrated on uncached evaluations.
        let id = parameter(depth, width);
        let mut point = 0u64;
        let mut next_env = || {
            point += 1;
            Bindings::new().with("work", 1e5 + point as f64)
        };
        group.bench_function(BenchmarkId::new("recursive", id), |b| {
            b.iter(|| {
                let evaluator = fresh();
                let p = evaluator
                    .failure_probability(&app, &next_env())
                    .expect("evaluation succeeds")
                    .value();
                assert_eq!(evaluator.local_stats().programs_compiled, 0);
                p
            })
        });
        group.bench_function(BenchmarkId::new("program", id), |b| {
            b.iter(|| {
                program
                    .failure_probability(&app, &next_env())
                    .expect("evaluation succeeds")
                    .value()
            })
        });
    }
    group.finish();
}

fn bench_depth(c: &mut Criterion) {
    bench_axis(
        c,
        "assembly_program/depth",
        [2usize, 4, 6].into_iter().map(|d| (d, 2)),
        |depth, _| depth,
    );
}

fn bench_width(c: &mut Criterion) {
    bench_axis(
        c,
        "assembly_program/width",
        [1usize, 2, 4].into_iter().map(|w| (4, w)),
        |_, width| width,
    );
}

criterion_group!(benches, bench_depth, bench_width);
criterion_main!(benches);
