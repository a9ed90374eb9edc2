//! `cli_cold`: closed loop, one `archrel predict` process at a time; one
//! round predicts once each on the `paper_remote`, `webshop` and
//! `flow1024` models.
//!
//! Every invocation starts cold, so DSL parsing and first evaluations
//! dominate here and nowhere else; no daemon layer takes part.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use archrel_core::Evaluator;
use archrel_dsl::parse_assembly;
use archrel_expr::Bindings;

use super::{ms, secs, Ctx, Outcome};
use crate::inputs::{fingerprint, model, sorted_bindings, Model, Rng};
use crate::trace::Tracer;

const MODELS: [&str; 3] = ["paper_remote", "webshop", "flow1024"];
/// Binding points per model; round `r` uses point `r % POINTS`.
const POINTS: usize = 16;

/// One model on disk with its binding points and their expected answers.
struct Prepared {
    model: Model,
    path: PathBuf,
    points: Vec<(Bindings, f64)>,
}

fn prepare(ctx: &Ctx) -> Result<Vec<Prepared>, String> {
    let mut rng = Rng::new(ctx.seed, 2);
    let mut prepared = Vec::new();
    for name in MODELS {
        let model = model(name, &ctx.scale, &ctx.root)?;
        let path = ctx.run_dir.join(format!("{name}.arch"));
        std::fs::write(&path, &model.text).map_err(|e| format!("{}: {e}", path.display()))?;
        let assembly = parse_assembly(&model.text).map_err(|e| e.to_string())?;
        let mut points = Vec::with_capacity(POINTS);
        for _ in 0..POINTS {
            let bindings = model.bindings(&mut rng);
            let expected = Evaluator::new(&assembly)
                .failure_probability(&model.service.into(), &bindings)
                .map_err(|e| format!("{name}: {e}"))?
                .value();
            points.push((bindings, expected));
        }
        prepared.push(Prepared {
            model,
            path,
            points,
        });
    }
    Ok(prepared)
}

fn command(archrel: &PathBuf, p: &Prepared, bindings: &Bindings) -> Command {
    let mut cmd = Command::new(archrel);
    crate::host::scrub(&mut cmd)
        .arg("predict")
        .arg(&p.path)
        .args(["--service", p.model.service]);
    for (k, v) in sorted_bindings(bindings) {
        cmd.arg("--bind").arg(format!("{k}={v}"));
    }
    cmd.stdin(Stdio::null()).stderr(Stdio::piped());
    cmd
}

/// The `Pfail(...) = <value>` line of `archrel predict`.
fn parse_pfail(stdout: &str) -> Option<f64> {
    stdout
        .lines()
        .find(|l| l.starts_with("Pfail("))
        .and_then(|l| l.split_once("= "))
        .and_then(|(_, v)| v.trim().parse().ok())
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let archrel = ctx.archrel()?.clone();
    let started = Instant::now();
    let prepared = prepare(ctx)?;
    out.setup_s = secs(started);
    let mut inputs = String::new();
    for p in &prepared {
        inputs.push_str(&p.model.text);
        for (b, _) in &p.points {
            inputs.push_str(&format!("{:?}\n", sorted_bindings(b)));
        }
    }
    out.fingerprints
        .push(("models_and_bindings", fingerprint(inputs.as_bytes())));

    let (mut parse_ns, mut cold_ns, mut process_ns) = (0u128, 0u128, 0u128);
    let (mut plan_misses, mut programs) = (0u64, 0u64);
    let mut rounds = 0usize;
    let mut busy_s = 0.0;
    let measured = Instant::now();
    while ctx.more(measured, rounds) {
        let t0 = Instant::now();
        let root_start = t0;
        let mut spans = Vec::new();
        for p in &prepared {
            let (bindings, expected) = &p.points[rounds % POINTS];
            let started = Instant::now();
            let result = command(&archrel, p, bindings).output();
            let ended = Instant::now();
            out.attempted += 1;
            let what = format!("{} predict #{rounds}", p.model.name);
            match result {
                Ok(o) if o.status.success() => {
                    match parse_pfail(&String::from_utf8_lossy(&o.stdout)) {
                        Some(got) => {
                            out.check_bits(&what, got, *expected);
                            if let Some(closed) = p.model.closed_form(bindings) {
                                out.check_close(&what, got, closed, 1e-12);
                            }
                        }
                        None => out.fail(format!("{what}: no Pfail line")),
                    }
                }
                Ok(o) => out.fail(format!(
                    "{what}: {} {}",
                    o.status,
                    String::from_utf8_lossy(&o.stderr).trim()
                )),
                Err(e) => out.fail(format!("{what}: cannot run: {e}")),
            }
            spans.push((p, bindings, started, ended));
        }
        let t1 = Instant::now();
        out.latency_ms.push(ms(t1 - t0));
        busy_s += (t1 - t0).as_secs_f64();
        rounds += 1;
        if tracer.enabled() {
            // The in-process pipeline each invocation ran, timed by the
            // same public calls outside the process: read and parse the
            // file, then the first evaluation on a fresh evaluator. The
            // rest of the invocation is process start-up and output.
            let root = tracer.span("round", None, root_start, t1);
            for (p, bindings, started, ended) in spans {
                let call = tracer.span("cli.process", Some(root), started, ended);
                let a = Instant::now();
                let text = std::fs::read_to_string(&p.path).map_err(|e| e.to_string())?;
                let assembly = parse_assembly(&text).map_err(|e| e.to_string())?;
                let b = Instant::now();
                let evaluator = Evaluator::new(&assembly);
                evaluator
                    .failure_probability(&p.model.service.into(), bindings)
                    .map_err(|e| e.to_string())?;
                let c = Instant::now();
                let stats = evaluator.cache_stats();
                plan_misses += stats.plan_misses;
                programs += stats.programs_compiled;
                tracer.child("dsl.parse", call, (b - a).as_nanos() as u64);
                tracer.child("core.eval.cold", call, (c - b).as_nanos() as u64);
                parse_ns += (b - a).as_nanos();
                cold_ns += (c - b).as_nanos();
                process_ns += (ended - started)
                    .as_nanos()
                    .saturating_sub((c - a).as_nanos());
            }
        }
    }
    out.throughput_per_s = rounds as f64 / busy_s;
    out.peak_rss_mb = crate::host::children_peak_rss_mb().unwrap_or(0.0);
    out.notes.push(format!(
        "per round: {} cold `archrel predict` processes, one per model",
        MODELS.len()
    ));
    if tracer.enabled() {
        let invocations = (rounds * MODELS.len()) as f64;
        out.layer("dsl.parse_ms", parse_ns as f64 / 1e6 / invocations);
        out.layer("core.eval.cold_ms", cold_ns as f64 / 1e6 / invocations);
        out.layer("cli.process_ms", process_ns as f64 / 1e6 / invocations);
        out.layer("core.plan_cache.misses", plan_misses as f64 / rounds as f64);
        out.layer("core.program.compiled", programs as f64 / rounds as f64);
        out.table = Some(tracer.table("unattributed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pfail_line_round_trips() {
        let v = 1.2345678901234567e-5f64;
        let stdout = format!("Pfail(app) = {v:e}\nreliability      = 0.99\n");
        assert_eq!(parse_pfail(&stdout).map(f64::to_bits), Some(v.to_bits()));
        assert_eq!(parse_pfail("nothing"), None);
    }
}
