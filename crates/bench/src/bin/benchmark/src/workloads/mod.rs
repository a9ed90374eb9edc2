//! The five workloads. Each sets up once, measures for the requested
//! seconds, checks every answer it received, and reports end-to-end
//! numbers plus, when traced, per-layer numbers and a self-time table.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::inputs::Scale;
use crate::trace::{LayerTable, Tracer};

mod cli;
mod fixedpoint;
mod fleet;
mod serve;
mod sweeps;

/// Operations every closed-loop workload completes even past its time box.
pub const MIN_OPS: usize = 3;

/// What a workload run needs from its caller.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement time box.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
    /// Repository root.
    pub root: PathBuf,
    /// Scratch directory for model files and sockets, relative to the
    /// current directory so socket paths stay short.
    pub run_dir: PathBuf,
    /// The `archrel` binary (daemon and CLI workloads).
    pub archrel: Option<PathBuf>,
    /// Corrupt the checker's first expected answer (self-test only).
    pub inject_wrong_answer: bool,
}

impl Ctx {
    /// The `archrel` binary, or an error for workloads that need it.
    pub fn archrel(&self) -> Result<&PathBuf, String> {
        self.archrel
            .as_ref()
            .ok_or_else(|| "this workload needs the archrel binary".to_string())
    }

    /// Whether the closed-loop time box has room for another operation.
    pub fn more(&self, started: Instant, done: usize) -> bool {
        done < MIN_OPS || started.elapsed() < Duration::from_secs_f64(self.seconds)
    }
}

/// Everything a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, invocations, calls, points, rounds).
    pub attempted: u64,
    /// Operations that errored, timed out, were refused or answered wrongly.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// `(input, fingerprint)` of the generated inputs.
    pub fingerprints: Vec<(&'static str, u64)>,
    /// Seconds the set-up took.
    pub setup_s: f64,
    /// Milliseconds per end-to-end operation.
    pub latency_ms: Vec<f64>,
    /// End-to-end operations per second.
    pub throughput_per_s: f64,
    /// Peak resident set of the process doing the work, MiB.
    pub peak_rss_mb: f64,
    /// Per-layer metric values (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Workload-specific report lines.
    pub notes: Vec<String>,
    /// Self-time table (traced runs).
    pub table: Option<LayerTable>,
    injected: bool,
}

impl Outcome {
    fn new(ctx: &Ctx) -> Self {
        Outcome {
            injected: !ctx.inject_wrong_answer,
            ..Outcome::default()
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Checks an answer bitwise against the expected one; a mismatch fails
    /// the operation. With `inject_wrong_answer`, the first expected value
    /// is perturbed here, in the checker, to prove a wrong answer is caught.
    pub fn check_bits(&mut self, what: &str, got: f64, mut want: f64) -> bool {
        if !self.injected {
            self.injected = true;
            want = f64::from_bits(want.to_bits() ^ 1);
        }
        let ok = got.to_bits() == want.to_bits();
        if !ok {
            self.fail(format!("{what}: got {got:e}, expected {want:e}"));
        }
        ok
    }

    /// Checks an answer against a closed form within `tol`.
    pub fn check_close(&mut self, what: &str, got: f64, want: f64, tol: f64) -> bool {
        let ok = (got - want).abs() <= tol;
        if !ok {
            self.fail(format!("{what}: got {got:e}, closed form {want:e}"));
        }
        ok
    }

    /// Adds one per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// A message when the workload cannot be set up (as opposed to an
/// operation failing, which is counted in the outcome).
pub fn run(name: &str, ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::new(ctx);
    match name {
        "serve_mixed" => serve::run(ctx, tracer, &mut out)?,
        "cli_cold" => cli::run(ctx, tracer, &mut out)?,
        "analysis_sweeps" => sweeps::run(ctx, tracer, &mut out)?,
        "program_fixedpoint" => fixedpoint::run(ctx, tracer, &mut out)?,
        "fleet_stream" => fleet::run(ctx, tracer, &mut out)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(out)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;

    fn tiny_ctx(name: &str, inject: bool) -> Ctx {
        let root = crate::host::repo_root();
        let run_dir = PathBuf::from(".bench_run")
            .join(format!("selftest-{name}-{}-{inject}", std::process::id()));
        std::fs::create_dir_all(&run_dir).expect("run dir");
        let archrel = matches!(name, "serve_mixed" | "cli_cold")
            .then(|| crate::host::build_archrel(&root).expect("archrel builds"));
        Ctx {
            seed: 7,
            seconds: 0.3,
            scale: Scale::TINY,
            root,
            run_dir,
            archrel,
            inject_wrong_answer: inject,
        }
    }

    fn run_tiny(name: &str, inject: bool) -> Outcome {
        let ctx = tiny_ctx(name, inject);
        let mut tracer = Tracer::new(true);
        let out = run(name, &ctx, &mut tracer).expect("workload runs");
        let _ = std::fs::remove_dir_all(&ctx.run_dir);
        // Succeeds only once the last concurrent test has cleaned up.
        let _ = std::fs::remove_dir(".bench_run");
        out
    }

    #[test]
    fn every_workload_passes_its_checks_at_tiny_scale() {
        for name in crate::WORKLOADS {
            let out = run_tiny(name, false);
            assert!(out.attempted > 0, "{name}: nothing attempted");
            assert_eq!(out.failed, 0, "{name}: {:?}", out.problems);
            assert!(out.setup_s > 0.0 && !out.latency_ms.is_empty(), "{name}");
            assert!(
                out.throughput_per_s > 0.0 && out.peak_rss_mb > 0.0,
                "{name}"
            );
            let table = out.table.as_ref().expect("traced runs build a table");
            let sum: i128 = table.rows.iter().map(|r| r.1).sum();
            assert_eq!(sum, table.end_to_end_ns, "{name}");
            for (metric, _) in crate::PER_LAYER {
                let owned = crate::layer_owner(metric) == name;
                assert_eq!(
                    out.layers.iter().any(|(m, _)| *m == metric),
                    owned,
                    "{name} / {metric}"
                );
            }
        }
    }

    #[test]
    fn a_wrong_answer_in_the_checker_fails_the_run() {
        for name in crate::WORKLOADS {
            let out = run_tiny(name, true);
            assert!(out.failed >= 1, "{name}: injected mismatch not counted");
            assert_ne!(crate::exit_code(&out), 0, "{name}");
        }
    }
}
