//! `benchmark`: what a user of archrel gets with no flags, end to end and
//! layer by layer.
//!
//! Five workloads reach the program only through the `archrel` binary (the
//! one-shot CLI and the `serve` daemon protocol) and through top-level
//! library entry points called with `EvalOptions::default()`:
//!
//! - `serve_mixed`: open-loop predict traffic against `archrel serve`;
//! - `cli_cold`: one cold `archrel predict` process at a time;
//! - `analysis_sweeps`: uncertainty propagation and binding sensitivities;
//! - `program_fixedpoint`: batch evaluation of a recursive mesh and a DAG;
//! - `fleet_stream`: streaming trace ingestion into a 10k-service refresh.
//!
//! Usage (from the repository root):
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! benchmark run [--seed N] [--seconds S] [--trace]
//! ```
//!
//! The first form runs one workload and ends with one JSON line; the second
//! runs every workload, and with `--trace` repeats each one traced and
//! prints the layer tables next to the tracing overhead. Every workload
//! runs in a fresh child process whose environment has every `ARCHREL_*`
//! variable removed. See README.md for the metrics.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

mod host;
mod inputs;
mod stats;
mod trace;
mod workloads;

use inputs::Scale;
use trace::Tracer;
use workloads::{Ctx, Outcome};

/// Workload names, in run order.
pub const WORKLOADS: [&str; 5] = [
    "serve_mixed",
    "cli_cold",
    "analysis_sweeps",
    "program_fixedpoint",
    "fleet_stream",
];

/// End-to-end metrics `(name, unit)`: every workload reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, grouped by the workload that
/// exercises the layer; the others report 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.catalog.get_us", "us"),
    ("core.eval.hit_us", "us"),
    ("core.eval.miss_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.value_cache.hit_ratio", "ratio"),
    ("serve.catalog.load_ms", "ms"),
    ("serve.rss_growth_mb", "MB"),
    ("loadgen.late_p99_us", "us"),
    ("serve.overloaded", "count"),
    ("serve.timed_out", "count"),
    ("dsl.parse_ms", "ms"),
    ("core.eval.cold_ms", "ms"),
    ("cli.process_ms", "ms"),
    ("core.plan_cache.misses", "count"),
    ("core.program.compiled", "count"),
    ("core.staged.stage_ns_per_point", "ns"),
    ("markov.plan.replay_ns_per_point", "ns"),
    ("core.eval.extract_ns_per_point", "ns"),
    ("core.eval.solve_ns_per_point", "ns"),
    ("core.eval.block_points_ratio", "ratio"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("core.fixedpoint.sweeps_per_point", "count"),
    ("core.program.scc_iterations_per_point", "count"),
    ("markov.plan.rank1_ratio", "ratio"),
    ("core.program.memo_hit_ratio", "ratio"),
    ("core.program.pin_hits_per_point", "count"),
    ("core.eval.first_point_ms", "ms"),
    ("profile.streaming.observe_us_per_trace", "us"),
    ("profile.streaming.drain_us", "us"),
    ("core.refresh.apply_us", "us"),
    ("core.refresh.staged_ratio", "ratio"),
    ("core.refresh.fallback_solves_per_round", "count"),
    ("core.refresh.services_refreshed_per_round", "count"),
    ("core.refresh.register_ms", "ms"),
];

/// The workload whose layers a per-layer metric describes.
pub fn layer_owner(metric: &str) -> &'static str {
    let i = PER_LAYER
        .iter()
        .position(|(m, _)| *m == metric)
        .expect("known per-layer metric");
    match i {
        0..=11 => "serve_mixed",
        12..=16 => "cli_cold",
        17..=22 => "analysis_sweeps",
        23..=28 => "program_fixedpoint",
        _ => "fleet_stream",
    }
}

/// Default measurement seconds (the `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 10.0;
/// Default input seed; its fingerprints are pinned.
const PINNED_SEED: u64 = 42;
/// Fresh processes per workload run, each measuring an equal share of the
/// time box after one set-up. On a shared host, a process's steady state
/// can settle in a slower mode for its whole life (where its threads were
/// placed), and interference only ever slows a process down, so the run
/// reports the fastest process's median latency and throughput; set-up time
/// and memory are medians across the processes.
const PROCESSES: usize = 5;

/// Process exit code for a finished workload: non-zero on any failed or
/// wrongly answered operation.
pub fn exit_code(out: &Outcome) -> u8 {
    u8::from(out.failed > 0 || out.attempted == 0)
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    archrel: Option<PathBuf>,
    process: usize,
}

#[derive(Debug, PartialEq)]
enum Mode {
    One,
    All,
    Child,
}

const USAGE: &str = "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1
       benchmark run [--seed N] [--seconds S] [--trace]
workloads: serve_mixed cli_cold analysis_sweeps program_fixedpoint fleet_stream";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::One,
        workload: None,
        seed: PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        archrel: None,
        process: 0,
    };
    let mut it = raw.iter().peekable();
    match it.peek().map(|s| s.as_str()) {
        Some("run") => {
            args.mode = Mode::All;
            it.next();
        }
        Some("child") => {
            args.mode = Mode::Child;
            it.next();
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" if args.mode == Mode::All => args.trace = true,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}`: expected 0 or 1")),
                }
            }
            "--archrel" if args.mode == Mode::Child => args.archrel = Some(value()?.into()),
            "--process" if args.mode == Mode::Child => {
                let v = value()?;
                args.process = v.parse().map_err(|_| format!("bad --process `{v}`"))?;
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if args.mode != Mode::All && args.workload.is_none() {
        return Err(format!("missing --workload\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode {
        Mode::Child => child(&args),
        Mode::One => parent_one(&args),
        Mode::All => parent_all(&args),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Host record, default-only environment report, and the `archrel` build.
fn prepare() -> Result<(PathBuf, PathBuf), String> {
    let root = host::repo_root();
    let archrel = host::build_archrel(&root)?;
    for line in host::host_record(&root) {
        println!("{line}");
    }
    let removed = host::archrel_vars();
    println!(
        "env: removed from every child: {}",
        if removed.is_empty() {
            "(no ARCHREL_* variables set)".to_string()
        } else {
            removed.join(" ")
        }
    );
    println!(
        "daemon flags: serve --unix <run dir>/serve.sock --workers 2 --catalog <model>=<file> ..."
    );
    Ok((root, archrel))
}

/// What one workload child reported.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<String, f64>,
    layers: BTreeMap<String, i128>,
    ops: usize,
    end_to_end_ns: i128,
    attempted: u64,
    failed: u64,
}

/// The merged result of one workload run.
struct Merged {
    code: u8,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

/// Runs one child process, echoing its output, and parses its report.
fn run_child(mut cmd: Command) -> Result<(u8, Report), String> {
    let out = cmd
        .stdout(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot start the workload child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let code = out
        .status
        .code()
        .map_or(2, |c| u8::try_from(c).unwrap_or(2));
    if code > 1 {
        return Err(format!("the workload child failed ({})", out.status));
    }
    let mut report = Report::default();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("metric") => {
                if let (Some(name), Some(Ok(value))) = (parts.next(), parts.next().map(str::parse))
                {
                    report.metrics.insert(name.to_string(), value);
                }
            }
            Some("layer") => {
                let (name, ns) = line["layer ".len()..]
                    .rsplit_once(' ')
                    .ok_or("malformed layer line")?;
                report.layers.insert(
                    name.to_string(),
                    ns.parse().map_err(|_| "malformed layer line")?,
                );
            }
            Some("table") => {
                report.ops = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                report.end_to_end_ns = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            }
            Some("result") => {
                for kv in parts {
                    match kv.split_once('=') {
                        Some(("attempted", v)) => report.attempted = v.parse().unwrap_or(0),
                        Some(("failed", v)) => report.failed = v.parse().unwrap_or(0),
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    Ok((code, report))
}

/// Runs `workload` in [`PROCESSES`] fresh children and prints each metric
/// across them (see [`PROCESSES`]), the layer table summed over them, and
/// the totals.
fn run_workload(
    root: &Path,
    archrel: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Merged, String> {
    println!(
        "== {workload}: seed {seed}, {seconds} s over {PROCESSES} processes, trace {} ==",
        if trace { "on" } else { "off" }
    );
    let mut reports = Vec::with_capacity(PROCESSES);
    let mut code = 0;
    for process in 0..PROCESSES {
        println!("-- process {}/{PROCESSES}", process + 1);
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        host::scrub(&mut cmd)
            .current_dir(root)
            .arg("child")
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &(seconds / PROCESSES as f64).to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--process", &process.to_string()])
            .arg("--archrel")
            .arg(archrel);
        let (c, report) = run_child(cmd)?;
        code = code.max(c);
        reports.push(report);
    }

    println!("== {workload}: over {PROCESSES} processes ==");
    let listed: &[(&'static str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut values = BTreeMap::new();
    for &(name, unit) in END_TO_END.iter().chain(listed.iter()) {
        let seen: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.metrics.get(name).copied())
            .collect();
        if seen.is_empty() || values.contains_key(name) {
            continue;
        }
        let s = stats::summarize(&seen);
        let value = match name {
            "latency_p50_ms" => seen.iter().copied().fold(f64::INFINITY, f64::min),
            "throughput_per_s" => seen.iter().copied().fold(0.0, f64::max),
            _ => s.median,
        };
        println!(
            "metric {name} {value} {unit} median={} q1={} q3={} n={}",
            s.median, s.q1, s.q3, s.n
        );
        values.insert(name, value);
    }
    if trace {
        let mut rows: BTreeMap<String, i128> = BTreeMap::new();
        for r in &reports {
            for (name, ns) in &r.layers {
                *rows.entry(name.clone()).or_default() += ns;
            }
        }
        let table = trace::LayerTable {
            rows: rows.into_iter().collect(),
            end_to_end_ns: reports.iter().map(|r| r.end_to_end_ns).sum(),
            ops: reports.iter().map(|r| r.ops).sum(),
        };
        print!("{}", table.render());
    }
    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed = reports.iter().map(|r| r.failed).sum();
    println!("ops attempted={attempted} failed={failed}");
    Ok(Merged {
        code,
        values,
        attempted,
        failed,
    })
}

fn parent_one(args: &Args) -> Result<u8, String> {
    let (root, archrel) = prepare()?;
    let workload = args.workload.as_deref().expect("checked by parse_args");
    let merged = run_workload(
        &root,
        &archrel,
        workload,
        args.seed,
        args.seconds,
        args.trace,
    )?;
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let members: Vec<String> = listed
        .iter()
        .map(|&(name, unit)| {
            // A layer the workload does not exercise reads 0.
            let value = merged.values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        merged.code == 0,
        merged.attempted,
        merged.failed,
        members.join(",")
    );
    Ok(merged.code)
}

fn parent_all(args: &Args) -> Result<u8, String> {
    let (root, archrel) = prepare()?;
    let mut worst = 0u8;
    for workload in WORKLOADS {
        let plain = run_workload(&root, &archrel, workload, args.seed, args.seconds, false)?;
        worst = worst.max(plain.code);
        if !args.trace {
            continue;
        }
        let traced = run_workload(&root, &archrel, workload, args.seed, args.seconds, true)?;
        worst = worst.max(traced.code);
        println!("tracing overhead on {workload}: end-to-end medians, untraced vs traced");
        for (name, unit) in END_TO_END {
            if let (Some(a), Some(b)) = (plain.values.get(name), traced.values.get(name)) {
                println!(
                    "  {name:<18} {a:>14.6} {b:>14.6} {unit:<4} {:+.1}%",
                    100.0 * (b - a) / a
                );
            }
        }
    }
    Ok(worst)
}

fn child(args: &Args) -> Result<u8, String> {
    let root = host::repo_root();
    std::env::set_current_dir(&root)
        .map_err(|e| format!("cannot enter {}: {e}", root.display()))?;
    let workload = args.workload.clone().expect("checked by parse_args");
    let run_dir = PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::FULL,
        root: root.clone(),
        run_dir: run_dir.clone(),
        archrel: args.archrel.clone(),
        inject_wrong_answer: false,
    };
    let mut tracer = Tracer::new(args.trace);
    let result = workloads::run(&workload, &ctx, &mut tracer);
    let _ = std::fs::remove_dir_all(&run_dir);
    let out = result?;

    let pins = inputs::pins();
    let mut mismatched = Vec::new();
    for (input, value) in &out.fingerprints {
        println!("input {input} 0x{value:016x}");
        if args.seed == PINNED_SEED {
            match pins.get(&(workload.clone(), input.to_string())) {
                Some(pinned) if pinned == value => {}
                Some(pinned) => mismatched.push(format!("{input}: pinned 0x{pinned:016x}")),
                None => mismatched.push(format!("{input}: not pinned")),
            }
        }
    }
    if !mismatched.is_empty() {
        return Err(format!(
            "{workload} inputs differ from the pinned seed-{PINNED_SEED} fingerprints ({}); \
             the workload changed, so its numbers are not comparable",
            mismatched.join(", ")
        ));
    }
    for note in &out.notes {
        println!("{note}");
    }
    let latency = stats::summarize(&out.latency_ms);
    let tail = latency
        .tail
        .map_or(String::new(), |(p, v)| format!(" p{p}={v}"));
    println!("metric setup_s {} s", out.setup_s);
    println!(
        "metric latency_p50_ms {} ms median={} q1={} q3={} n={}{tail}",
        latency.median, latency.median, latency.q1, latency.q3, latency.n
    );
    println!("metric throughput_per_s {} 1/s", out.throughput_per_s);
    println!("metric peak_rss_mb {} MB", out.peak_rss_mb);
    if args.trace {
        for (name, value) in &out.layers {
            let unit = PER_LAYER
                .iter()
                .find(|(m, _)| m == name)
                .map_or("?", |(_, u)| u);
            println!("metric {name} {value} {unit}");
        }
        if let Some(table) = &out.table {
            for (name, ns) in &table.rows {
                println!("layer {name} {ns}");
            }
            println!("table {} {}", table.ops, table.end_to_end_ns);
        }
        let spans = PathBuf::from(".bench_run").join(format!(
            "spans-{workload}-seed{}-p{}.tsv",
            args.seed, args.process
        ));
        match tracer.write_tsv(&spans) {
            Ok(()) => println!("spans written to {}", spans.display()),
            Err(e) => eprintln!("benchmark: cannot write {}: {e}", spans.display()),
        }
    }
    for problem in &out.problems {
        println!("FAILED {problem}");
    }
    println!("result attempted={} failed={}", out.attempted, out.failed);
    Ok(exit_code(&out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "cli_cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.mode, Mode::One);
        assert_eq!(a.workload.as_deref(), Some("cli_cold"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parse_args(&strings(&["run", "--trace"])).unwrap();
        assert_eq!((a.mode, a.seed, a.trace), (Mode::All, PINNED_SEED, true));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "cli_cold", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "cli_cold", "--archrel", "x"])).is_err());
    }

    #[test]
    fn metric_names_fit_the_benchmark_record() {
        let valid = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid(name), "{name}");
            assert!(seen.insert(*name), "{name} repeated");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
        for w in WORKLOADS {
            assert!(PER_LAYER.iter().any(|(m, _)| layer_owner(m) == w), "{w}");
        }
    }

    #[test]
    fn benchmark_record_names_every_metric() {
        let record = std::fs::read_to_string(host::repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                record.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            assert!(record.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
