//! Argument parsing and command execution, factored for testability: every
//! command writes to an injected `Write`, so tests drive [`run`] directly.

use std::fmt;
use std::io::Write;

use archrel_core::batch::{BatchEvaluator, Query};
use archrel_core::PlanCache;
use archrel_core::{
    symbolic, CycleMode, EvalOptions, Evaluator, FixedPointMode, SolverPolicy,
    DEFAULT_FIXED_POINT_MAX_ITERATIONS, DEFAULT_FIXED_POINT_TOLERANCE,
};
use archrel_dsl::{dot, parse_assembly, print_assembly};
use archrel_expr::Bindings;
use archrel_model::{Assembly, Service, ServiceId};
use archrel_perf::{failure_aware_latency, LatencyEvaluator, PerfConfig};
use archrel_sim::{estimate, SimulationOptions};
use archrel_store::{ArtifactMode, ArtifactStore};
use std::sync::Arc;

/// CLI error: a message for the user plus nothing else.
#[derive(Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    pub(crate) fn new(msg: impl Into<String>) -> CliError {
        CliError(msg.into())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

macro_rules! from_error {
    ($ty:ty) => {
        impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError(e.to_string())
            }
        }
    };
}
from_error!(archrel_dsl::DslError);
from_error!(archrel_core::CoreError);
from_error!(archrel_sim::SimError);
from_error!(archrel_perf::PerfError);
from_error!(archrel_expr::ExprError);
from_error!(archrel_model::ModelError);

const USAGE: &str = "usage: archrel <command> <file.arch> [options]

commands:
  validate   parse and validate an assembly
  predict    failure probability of a service (--service, --bind k=v)
  report     per-state breakdown (--service, --bind k=v)
  symbolic   closed-form failure formula (--service, optional --diff PARAM)
  simulate   Monte Carlo estimate (--service, --bind, --trials, --seed, --threads)
  latency    expected latency, failure-free and failure-aware (--service, --bind)
  sweep      sweep one parameter (--service, --param, --from, --to, --steps, --log)
  batch      multi-threaded sweep with a shared solve cache (sweep options,
             --threads, --repeat; prints cache hit/miss/solve statistics)
  improve    rank improvement levers; with --target, size the best one
  stream     ingest line-delimited call traces (--traces FILE) into a
             streaming usage-profile estimator, print the drained delta set,
             and re-evaluate the service with moved `<from>_<to>` usage
             parameters bound (--service, --bind, --delta-threshold)
  dot        Graphviz export (--service for a flow, omit for the assembly)
  fmt        canonical pretty-printed form of the document
  serve      warm-process daemon answering line-delimited JSON requests over
             Unix/TCP sockets, amortizing plan compilation across requests
             (`archrel serve --help` for its options)

common options:
  --traces FILE   call traces for stream: one session per line, whitespace-
             separated state names (e.g. `start s end`); blank lines are
             skipped
  --delta-threshold T   minimum per-edge probability movement before stream
             emits a row in its delta set: a finite value in [0, 1)
             (default: 0 -- emit every changed row; or the
             ARCHREL_DELTA_THRESHOLD environment variable when set)
  --solver {auto,dense,sparse,compiled}   absorbing-chain solver for predict/
             report/sweep/batch/improve (default: auto, or the ARCHREL_SOLVER
             environment variable when set; compiled builds each flow
             structure's evaluation plan once and replays it per solve --
             fastest for sweeps)
  --fixed-point {plain,aitken}   evaluate cyclic (mutually recursive)
             assemblies by global fixed-point iteration with the chosen
             scheme: plain successive substitution (the bitwise reference)
             or Aitken's delta-squared acceleration (fewer sweeps, same
             fixed point; falls back to the raw iterate on degenerate
             denominators). Without the flag, cyclic assemblies are an
             error; the ARCHREL_FIXED_POINT environment variable picks the
             scheme without opting cycles in
  --artifact-dir DIR   persistent artifact store: compiled solve plans are
             archived into DIR (mmap-loaded zero-copy on later runs) so
             separate processes share compilation work; equivalent to the
             ARCHREL_ARTIFACT_DIR environment variable. Applies to predict/
             report/sweep/batch
  --artifact-mode {off,read,readwrite}   how the artifact store is used:
             read loads archives but never writes (safe for many processes
             sharing one warmed directory), readwrite also publishes fresh
             compilations (default with --artifact-dir); equivalent to the
             ARCHREL_ARTIFACT_MODE environment variable";

/// Parsed common options.
struct Options {
    file: String,
    service: Option<String>,
    bindings: Bindings,
    trials: u64,
    seed: u64,
    threads: usize,
    diff: Option<String>,
    param: Option<String>,
    from: Option<f64>,
    to: Option<f64>,
    steps: usize,
    log_scale: bool,
    target: Option<f64>,
    repeat: usize,
    solver: Option<SolverPolicy>,
    fixed_point: Option<FixedPointMode>,
    artifact_dir: Option<String>,
    artifact_mode: Option<ArtifactMode>,
    traces: Option<String>,
    delta_threshold: Option<f64>,
}

impl Options {
    /// Evaluator options for this invocation: the environment-aware defaults
    /// with the `--solver` / `--fixed-point` flags (when given) taking
    /// precedence. `--fixed-point` both picks the iteration scheme and opts
    /// cyclic assemblies into fixed-point evaluation (at the library's
    /// default budget and tolerance) instead of the recursion error.
    fn eval_options(&self) -> EvalOptions {
        let mut options = EvalOptions::default();
        if let Some(solver) = self.solver {
            options.solver = solver;
        }
        if let Some(fixed_point) = self.fixed_point {
            options.fixed_point = fixed_point;
            options.cycle_mode = CycleMode::FixedPoint {
                max_iterations: DEFAULT_FIXED_POINT_MAX_ITERATIONS,
                tolerance: DEFAULT_FIXED_POINT_TOLERANCE,
            };
        }
        options
    }

    /// Builds an evaluator honoring the artifact-store flags. Without
    /// flags the plan cache itself reads `ARCHREL_ARTIFACT_DIR`; explicit
    /// flags construct the store directly (never via process-global
    /// environment mutation, which would race parallel invocations).
    fn evaluator<'a>(&self, assembly: &'a Assembly) -> Result<Evaluator<'a>, CliError> {
        match &self.artifact_dir {
            None => Ok(Evaluator::with_options(assembly, self.eval_options())),
            Some(dir) => {
                let mode = self.artifact_mode.unwrap_or(ArtifactMode::ReadWrite);
                let store = if mode == ArtifactMode::Off {
                    None
                } else {
                    Some(Arc::new(ArtifactStore::open(dir, mode).map_err(|e| {
                        CliError::new(format!("cannot open artifact dir `{dir}`: {e}"))
                    })?))
                };
                let plans = Arc::new(PlanCache::new().with_artifact_store(store));
                Ok(Evaluator::with_plan_cache(
                    assembly,
                    self.eval_options(),
                    plans,
                ))
            }
        }
    }
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        file: String::new(),
        service: None,
        bindings: Bindings::new(),
        trials: 100_000,
        seed: 0xA5CE_57A7,
        threads: 4,
        diff: None,
        param: None,
        from: None,
        to: None,
        steps: 10,
        log_scale: false,
        target: None,
        repeat: 1,
        solver: None,
        fixed_point: None,
        artifact_dir: None,
        artifact_mode: None,
        traces: None,
        delta_threshold: None,
    };
    let mut positional = Vec::new();
    let mut i = 0;
    let next_value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError::new(format!("`{flag}` needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--service" => opts.service = Some(next_value(args, &mut i, "--service")?),
            "--bind" => {
                let kv = next_value(args, &mut i, "--bind")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| CliError::new(format!("`--bind {kv}`: expected k=v")))?;
                let value: f64 = v
                    .parse()
                    .map_err(|_| CliError::new(format!("`--bind {kv}`: bad number `{v}`")))?;
                opts.bindings.insert(k, value);
            }
            "--trials" => {
                opts.trials = parse_num(&next_value(args, &mut i, "--trials")?, "--trials")?
            }
            "--seed" => opts.seed = parse_num(&next_value(args, &mut i, "--seed")?, "--seed")?,
            "--threads" => {
                opts.threads =
                    parse_num::<usize>(&next_value(args, &mut i, "--threads")?, "--threads")?
            }
            "--diff" => opts.diff = Some(next_value(args, &mut i, "--diff")?),
            "--param" => opts.param = Some(next_value(args, &mut i, "--param")?),
            "--from" => {
                opts.from = Some(parse_num(&next_value(args, &mut i, "--from")?, "--from")?)
            }
            "--to" => opts.to = Some(parse_num(&next_value(args, &mut i, "--to")?, "--to")?),
            "--steps" => {
                opts.steps = parse_num::<usize>(&next_value(args, &mut i, "--steps")?, "--steps")?
            }
            "--log" => opts.log_scale = true,
            "--repeat" => {
                opts.repeat =
                    parse_num::<usize>(&next_value(args, &mut i, "--repeat")?, "--repeat")?
            }
            "--target" => {
                opts.target = Some(parse_num(
                    &next_value(args, &mut i, "--target")?,
                    "--target",
                )?)
            }
            "--solver" => {
                let value = next_value(args, &mut i, "--solver")?;
                opts.solver = Some(SolverPolicy::parse(&value).ok_or_else(|| {
                    CliError::new(format!(
                        "`--solver {value}`: expected auto, dense, sparse, or compiled"
                    ))
                })?);
            }
            "--fixed-point" => {
                let value = next_value(args, &mut i, "--fixed-point")?;
                opts.fixed_point = Some(FixedPointMode::parse(&value).ok_or_else(|| {
                    CliError::new(format!("`--fixed-point {value}`: expected plain or aitken"))
                })?);
            }
            "--traces" => opts.traces = Some(next_value(args, &mut i, "--traces")?),
            "--delta-threshold" => {
                let value = next_value(args, &mut i, "--delta-threshold")?;
                opts.delta_threshold = Some(
                    archrel_profile::streaming::parse_delta_threshold(&value).ok_or_else(|| {
                        CliError::new(format!(
                            "`--delta-threshold {value}`: expected a finite probability \
                             threshold in [0, 1)"
                        ))
                    })?,
                );
            }
            "--artifact-dir" => {
                opts.artifact_dir = Some(next_value(args, &mut i, "--artifact-dir")?)
            }
            "--artifact-mode" => {
                let value = next_value(args, &mut i, "--artifact-mode")?;
                opts.artifact_mode = Some(ArtifactMode::parse(&value).ok_or_else(|| {
                    CliError::new(format!(
                        "`--artifact-mode {value}`: expected off, read, or readwrite"
                    ))
                })?);
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::new(format!("unknown option `{flag}`")))
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    match positional.len() {
        0 => return Err(CliError::new("missing <file.arch> argument")),
        1 => opts.file = positional.remove(0),
        _ => {
            return Err(CliError::new(format!(
                "unexpected extra arguments: {positional:?}"
            )))
        }
    }
    if opts.artifact_mode.is_some() && opts.artifact_dir.is_none() {
        return Err(CliError::new(
            "`--artifact-mode` requires `--artifact-dir DIR`",
        ));
    }
    Ok(opts)
}

/// Pre-validates an `ARCHREL_DELTA_THRESHOLD` value so a typo'd threshold
/// surfaces as a normal CLI error instead of the library's hard panic when
/// `stream` later reads the environment.
fn check_delta_threshold_env(raw: &str) -> Result<(), CliError> {
    if !raw.trim().is_empty() && archrel_profile::streaming::parse_delta_threshold(raw).is_none() {
        return Err(CliError::new(format!(
            "unrecognized ARCHREL_DELTA_THRESHOLD value `{raw}`: \
             expected a finite probability threshold in [0, 1)"
        )));
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::new(format!("`{flag}`: bad number `{s}`")))
}

fn load(opts: &Options) -> Result<Assembly, CliError> {
    let source = std::fs::read_to_string(&opts.file)
        .map_err(|e| CliError::new(format!("cannot read `{}`: {e}", opts.file)))?;
    Ok(parse_assembly(&source)?)
}

fn required_service(opts: &Options) -> Result<ServiceId, CliError> {
    opts.service
        .as_deref()
        .map(ServiceId::new)
        .ok_or_else(|| CliError::new("missing required `--service NAME`"))
}

/// Entry point shared by `main` and the test suite.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on any failure.
pub fn run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::new(USAGE));
    };
    if command == "--help" || command == "-h" || command == "help" {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    // Pre-validate ARCHREL_SOLVER so a typo'd value surfaces as a normal
    // CLI error instead of the library's hard panic deep inside evaluation.
    // An empty value means unset, as for every other ARCHREL_* variable.
    if let Ok(raw) = std::env::var("ARCHREL_SOLVER") {
        if !raw.trim().is_empty() && SolverPolicy::parse(&raw).is_none() {
            return Err(CliError::new(format!(
                "unrecognized ARCHREL_SOLVER value `{raw}`: \
                 expected one of auto, dense, sparse, compiled"
            )));
        }
    }
    if let Ok(raw) = std::env::var("ARCHREL_FIXED_POINT") {
        if !raw.trim().is_empty() && FixedPointMode::parse(&raw).is_none() {
            return Err(CliError::new(format!(
                "unrecognized ARCHREL_FIXED_POINT value `{raw}`: \
                 expected one of plain, aitken"
            )));
        }
    }
    if let Ok(raw) = std::env::var(archrel_profile::streaming::DELTA_THRESHOLD_ENV) {
        check_delta_threshold_env(&raw)?;
    }
    if let Ok(raw) = std::env::var("ARCHREL_ARTIFACT_MODE") {
        if !raw.is_empty() {
            if ArtifactMode::parse(&raw).is_none() {
                return Err(CliError::new(format!(
                    "unrecognized ARCHREL_ARTIFACT_MODE value `{raw}`: \
                     expected one of off, read, readwrite"
                )));
            }
            if ArtifactMode::parse(&raw) != Some(ArtifactMode::Off)
                && std::env::var("ARCHREL_ARTIFACT_DIR")
                    .map(|d| d.is_empty())
                    .unwrap_or(true)
            {
                return Err(CliError::new(
                    "ARCHREL_ARTIFACT_MODE requires ARCHREL_ARTIFACT_DIR to be set",
                ));
            }
        }
    }
    // `serve` has its own argument shape (no positional file) and parser.
    if command == "serve" {
        return crate::serve_cmd::cmd_serve(&args[1..], out);
    }
    let opts = parse_options(&args[1..])?;
    match command.as_str() {
        "validate" => cmd_validate(&opts, out),
        "predict" => cmd_predict(&opts, out),
        "report" => cmd_report(&opts, out),
        "symbolic" => cmd_symbolic(&opts, out),
        "simulate" => cmd_simulate(&opts, out),
        "latency" => cmd_latency(&opts, out),
        "sweep" => cmd_sweep(&opts, out),
        "batch" => cmd_batch(&opts, out),
        "improve" => cmd_improve(&opts, out),
        "stream" => cmd_stream(&opts, out),
        "dot" => cmd_dot(&opts, out),
        "fmt" => cmd_fmt(&opts, out),
        other => Err(CliError::new(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

fn cmd_validate(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    let assembly = load(opts)?;
    writeln!(out, "ok: {} services", assembly.len())?;
    for service in assembly.services() {
        let kind = match service {
            Service::Simple(_) => "simple   ",
            Service::Composite(_) => "composite",
        };
        writeln!(
            out,
            "  {kind} {}({})",
            service.id(),
            service.formal_params().join(", ")
        )?;
    }
    match assembly.topological_order() {
        Ok(_) => writeln!(out, "dependency graph: acyclic")?,
        Err(_) => writeln!(out, "dependency graph: CYCLIC (use fixed-point evaluation)")?,
    }
    Ok(())
}

fn cmd_predict(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    let assembly = load(opts)?;
    let service = required_service(opts)?;
    let p = opts
        .evaluator(&assembly)?
        .failure_probability(&service, &opts.bindings)?;
    writeln!(out, "Pfail({service}) = {:e}", p.value())?;
    writeln!(out, "reliability      = {:.12}", p.complement().value())?;
    Ok(())
}

fn cmd_report(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    let assembly = load(opts)?;
    let service = required_service(opts)?;
    let report = opts
        .evaluator(&assembly)?
        .report(&service, &opts.bindings)?;
    writeln!(out, "{report}")?;
    Ok(())
}

fn cmd_symbolic(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    let assembly = load(opts)?;
    let service = required_service(opts)?;
    let formula = symbolic::failure_expression(&assembly, &service)?;
    writeln!(out, "Pfail({service}) = {formula}")?;
    if let Some(param) = &opts.diff {
        let derivative = formula.differentiate(param)?;
        writeln!(out, "d/d{param} = {derivative}")?;
    }
    Ok(())
}

fn cmd_simulate(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    let assembly = load(opts)?;
    let service = required_service(opts)?;
    let est = estimate(
        &assembly,
        &service,
        &opts.bindings,
        &SimulationOptions {
            trials: opts.trials,
            seed: opts.seed,
            threads: opts.threads,
        },
    )?;
    writeln!(
        out,
        "Pfail({service}) ~ {:e}  (95% CI [{:e}, {:e}], {} trials, {} failures)",
        est.failure_probability, est.ci_low, est.ci_high, est.trials, est.failures
    )?;
    let predicted = Evaluator::new(&assembly).failure_probability(&service, &opts.bindings)?;
    writeln!(
        out,
        "analytic          = {:e}  ({})",
        predicted.value(),
        if est.contains(predicted.value()) {
            "inside CI"
        } else {
            "OUTSIDE CI"
        }
    )?;
    Ok(())
}

fn cmd_latency(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    let assembly = load(opts)?;
    let service = required_service(opts)?;
    let perf = LatencyEvaluator::new(&assembly, PerfConfig::default());
    let free = perf.expected_latency(&service, &opts.bindings)?;
    writeln!(out, "expected latency (failure-free profile): {free:e}")?;
    let aware = failure_aware_latency(&assembly, &service, &opts.bindings, PerfConfig::default())?;
    writeln!(out, "expected latency (until absorption)    : {aware:e}")?;
    Ok(())
}

fn cmd_sweep(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    let assembly = load(opts)?;
    let service = required_service(opts)?;
    let (param, values) = sweep_grid(opts)?;
    let evaluator = opts.evaluator(&assembly)?;
    // Only the swept parameter moves between points: services outside its
    // dependency cone pin after the first evaluation under the
    // assembly-program path.
    evaluator.declare_varied(&service, std::slice::from_ref(&param));
    writeln!(out, "{:>16} {:>16} {:>16}", param, "Pfail", "reliability")?;
    for value in values {
        let mut env = opts.bindings.clone();
        env.insert(&param, value);
        let p = evaluator.failure_probability(&service, &env)?;
        writeln!(
            out,
            "{value:>16.6} {:>16.6e} {:>16.9}",
            p.value(),
            p.complement().value()
        )?;
    }
    Ok(())
}

/// Grid of parameter values shared by `sweep` and `batch`.
fn sweep_grid(opts: &Options) -> Result<(String, Vec<f64>), CliError> {
    let param = opts
        .param
        .as_deref()
        .ok_or_else(|| CliError::new("missing required `--param NAME`"))?;
    let (from, to) = match (opts.from, opts.to) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(CliError::new("sweep needs `--from A --to B`")),
    };
    if opts.steps < 2 {
        return Err(CliError::new("`--steps` must be at least 2"));
    }
    if opts.log_scale && (from <= 0.0 || to <= 0.0) {
        return Err(CliError::new("`--log` requires positive bounds"));
    }
    let values = (0..opts.steps)
        .map(|i| {
            let t = i as f64 / (opts.steps - 1) as f64;
            if opts.log_scale {
                (from.ln() + t * (to.ln() - from.ln())).exp()
            } else {
                from + t * (to - from)
            }
        })
        .collect();
    Ok((param.to_string(), values))
}

fn cmd_batch(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    let assembly = load(opts)?;
    let service = required_service(opts)?;
    let (param, values) = sweep_grid(opts)?;
    if opts.repeat == 0 {
        return Err(CliError::new("`--repeat` must be at least 1"));
    }
    // `--repeat N` replays the sweep N times; replays are pure cache hits,
    // which makes the shared-cache effect visible in the printed statistics.
    let queries: Vec<Query> = (0..opts.repeat)
        .flat_map(|_| {
            values.iter().map(|&value| {
                let mut env = opts.bindings.clone();
                env.insert(&param, value);
                Query::new(service.clone(), env)
            })
        })
        .collect();
    let batch =
        BatchEvaluator::from_evaluator(opts.evaluator(&assembly)?).with_workers(opts.threads);
    let (results, summary) = batch.evaluate_all_summarized(&queries);
    writeln!(out, "{:>16} {:>16} {:>16}", param, "Pfail", "reliability")?;
    for (query, result) in queries.iter().zip(&results).take(values.len()) {
        let p = result.as_ref().map_err(|e| CliError::new(e.to_string()))?;
        writeln!(
            out,
            "{:>16.6} {:>16.6e} {:>16.9}",
            query.env.get(&param).unwrap_or(f64::NAN),
            p.value(),
            p.complement().value()
        )?;
    }
    writeln!(out, "{summary}")?;
    Ok(())
}

fn cmd_improve(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    use archrel_core::improvement::{
        rank_levers_with_options, required_factor_with_options, Lever,
    };
    let assembly = load(opts)?;
    let service = required_service(opts)?;
    let baseline = Evaluator::with_options(&assembly, opts.eval_options())
        .failure_probability(&service, &opts.bindings)?;
    writeln!(out, "baseline Pfail = {:e}", baseline.value())?;
    let ranked =
        rank_levers_with_options(&assembly, &service, &opts.bindings, opts.eval_options())?;
    if ranked.is_empty() {
        writeln!(out, "no improvement levers (every mechanism is perfect)")?;
        return Ok(());
    }
    writeln!(
        out,
        "{:<40} {:>14} {:>14}",
        "lever", "best_case", "head_room"
    )?;
    for a in &ranked {
        let label = match &a.lever {
            Lever::ServiceFailure(s) => format!("service-failure {s}"),
            Lever::InternalFailure(s) => format!("internal-failure {s}"),
        };
        writeln!(
            out,
            "{label:<40} {:>14.6e} {:>14.6e}",
            a.best_case_failure.value(),
            a.head_room
        )?;
    }
    if let Some(target) = opts.target {
        let target = archrel_model::Probability::new(target)?;
        let lever = &ranked[0].lever;
        match required_factor_with_options(
            &assembly,
            &service,
            &opts.bindings,
            lever,
            target,
            opts.eval_options(),
        )? {
            Some(factor) => writeln!(
                out,
                "to reach Pfail <= {}: scale the top lever by {factor:.6} ({:.2}x better)",
                target.value(),
                1.0 / factor.max(f64::MIN_POSITIVE)
            )?,
            None => writeln!(
                out,
                "the top lever alone cannot reach Pfail <= {}",
                target.value()
            )?,
        }
    }
    Ok(())
}

fn cmd_stream(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    use archrel_profile::streaming::{delta_threshold_from_env, StreamingEstimator};
    let assembly = load(opts)?;
    let service = required_service(opts)?;
    let formals: Vec<String> = assembly
        .require(&service)?
        .formal_params()
        .iter()
        .map(|p| p.to_string())
        .collect();
    let traces_path = opts.traces.as_deref().ok_or_else(|| {
        CliError::new(
            "missing required `--traces FILE` (one session per line, \
             whitespace-separated state names)",
        )
    })?;
    let raw = std::fs::read_to_string(traces_path)
        .map_err(|e| CliError::new(format!("cannot read `{traces_path}`: {e}")))?;
    let mut estimator: StreamingEstimator<String> = StreamingEstimator::new();
    for line in raw.lines() {
        let trace: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        if !trace.is_empty() {
            estimator.observe(&trace);
        }
    }
    writeln!(
        out,
        "ingested {} trace(s), {} transition(s) from `{traces_path}`",
        estimator.traces_ingested(),
        estimator.transitions_observed()
    )?;
    // The ARCHREL_DELTA_THRESHOLD fallback is prevalidated in `run`, so
    // this cannot hit the library's hard panic.
    let threshold = opts
        .delta_threshold
        .unwrap_or_else(delta_threshold_from_env);
    let deltas = estimator.drain_deltas(threshold);
    writeln!(
        out,
        "delta set at threshold {threshold}: {} row(s), {} edge(s)",
        deltas.rows.len(),
        deltas.edge_count()
    )?;
    // Moved edges bind the `<from>_<to>` usage parameter when the service
    // declares it; everything else is informational output.
    let mut bindings = opts.bindings.clone();
    let mut updated = Vec::new();
    for row in &deltas.rows {
        for (to, p) in &row.edges {
            writeln!(out, "  {} -> {to} : {p}", row.from)?;
            let param = format!("{}_{to}", row.from);
            if formals.contains(&param) {
                bindings.insert(&param, *p);
                updated.push(param);
            }
        }
    }
    if updated.is_empty() {
        writeln!(
            out,
            "no usage parameter of `{service}` moved; reliability unchanged"
        )?;
        return Ok(());
    }
    writeln!(
        out,
        "updated {} usage parameter(s): {}",
        updated.len(),
        updated.join(", ")
    )?;
    let p = opts
        .evaluator(&assembly)?
        .failure_probability(&service, &bindings)?;
    writeln!(out, "Pfail({service}) = {:e}", p.value())?;
    writeln!(out, "reliability      = {:.12}", p.complement().value())?;
    Ok(())
}

fn cmd_dot(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    let assembly = load(opts)?;
    match &opts.service {
        Some(name) => {
            let rendered = dot::service_flow_dot(&assembly, name).ok_or_else(|| {
                CliError::new(format!(
                    "`{name}` is not a composite service in the assembly"
                ))
            })?;
            write!(out, "{rendered}")?;
        }
        None => {
            write!(out, "{}", dot::assembly_to_dot(&assembly, &opts.file))?;
        }
    }
    Ok(())
}

fn cmd_fmt(opts: &Options, out: &mut impl Write) -> Result<(), CliError> {
    let assembly = load(opts)?;
    write!(out, "{}", print_assembly(&assembly)?)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOCUMENT: &str = r#"
        blackbox dep(x) { pfail: 0.1; }
        cpu node { speed: 1e9; failure_rate: 1e-9; }
        service app(work) {
          state s {
            call dep(x: 1);
            call node(n: work);
          }
          start -> s : 1;
          s -> end : 1;
        }
    "#;

    fn with_document(f: impl FnOnce(&str)) {
        let dir =
            std::env::temp_dir().join(format!("archrel-cli-{:?}", std::thread::current().id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.arch");
        std::fs::write(&path, DOCUMENT).unwrap();
        f(path.to_str().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A service whose `s` row is driven by `<from>_<to>` usage
    /// parameters, plus a trace file splitting `s`'s sessions 50/50
    /// between the two branches.
    const STREAM_DOCUMENT: &str = r#"
        blackbox dep(x) { pfail: 0.1; }
        service app(s_t, s_end) {
          state s { call dep(x: 1); }
          state t { call dep(x: 1); }
          start -> s : 1;
          s -> t : s_t;
          s -> end : s_end;
          t -> end : 1;
        }
    "#;

    const STREAM_TRACES: &str = "start s t end\nstart s end\n\n";

    fn with_stream_fixture(f: impl FnOnce(&str, &str)) {
        let dir =
            std::env::temp_dir().join(format!("archrel-stream-{:?}", std::thread::current().id()));
        std::fs::create_dir_all(&dir).unwrap();
        let arch = dir.join("stream.arch");
        let traces = dir.join("traces.txt");
        std::fs::write(&arch, STREAM_DOCUMENT).unwrap();
        std::fs::write(&traces, STREAM_TRACES).unwrap();
        f(arch.to_str().unwrap(), traces.to_str().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn run_capture(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let out = run_capture(&["--help"]).unwrap();
        assert!(out.contains("usage: archrel"));
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(run_capture(&[]).is_err());
        assert!(run_capture(&["frobnicate", "x.arch"]).is_err());
    }

    #[test]
    fn validate_lists_services() {
        with_document(|path| {
            let out = run_capture(&["validate", path]).unwrap();
            assert!(out.contains("ok: 3 services"));
            assert!(out.contains("composite app(work)"));
            assert!(out.contains("acyclic"));
        });
    }

    #[test]
    fn predict_computes_pfail() {
        with_document(|path| {
            let out =
                run_capture(&["predict", path, "--service", "app", "--bind", "work=1e6"]).unwrap();
            assert!(out.contains("Pfail(app)"));
            assert!(out.contains("reliability"));
        });
    }

    #[test]
    fn predict_requires_service() {
        with_document(|path| {
            let err = run_capture(&["predict", path]).unwrap_err();
            assert!(err.to_string().contains("--service"));
        });
    }

    #[test]
    fn report_and_symbolic_render() {
        with_document(|path| {
            let out =
                run_capture(&["report", path, "--service", "app", "--bind", "work=1e6"]).unwrap();
            assert!(out.contains("state `s`"));
            let out = run_capture(&["symbolic", path, "--service", "app"]).unwrap();
            assert!(out.contains("Pfail(app) ="));
            let out =
                run_capture(&["symbolic", path, "--service", "app", "--diff", "work"]).unwrap();
            assert!(out.contains("d/dwork ="));
        });
    }

    #[test]
    fn simulate_reports_ci() {
        with_document(|path| {
            let out = run_capture(&[
                "simulate",
                path,
                "--service",
                "app",
                "--bind",
                "work=1e6",
                "--trials",
                "20000",
                "--seed",
                "7",
                "--threads",
                "2",
            ])
            .unwrap();
            assert!(out.contains("95% CI"));
            assert!(out.contains("inside CI"));
        });
    }

    #[test]
    fn latency_reports_both_views() {
        with_document(|path| {
            let out =
                run_capture(&["latency", path, "--service", "app", "--bind", "work=1e6"]).unwrap();
            assert!(out.contains("failure-free"));
            assert!(out.contains("until absorption"));
        });
    }

    #[test]
    fn sweep_produces_table() {
        with_document(|path| {
            let out = run_capture(&[
                "sweep",
                path,
                "--service",
                "app",
                "--param",
                "work",
                "--from",
                "1e3",
                "--to",
                "1e9",
                "--steps",
                "4",
                "--log",
            ])
            .unwrap();
            assert_eq!(out.lines().count(), 5, "{out}");
        });
    }

    #[test]
    fn batch_matches_sweep_and_reports_cache_stats() {
        with_document(|path| {
            let sweep_args = [
                "sweep",
                path,
                "--service",
                "app",
                "--param",
                "work",
                "--from",
                "1e3",
                "--to",
                "1e9",
                "--steps",
                "4",
                "--log",
            ];
            let sweep_out = run_capture(&sweep_args).unwrap();
            let mut batch_args = sweep_args.to_vec();
            batch_args[0] = "batch";
            batch_args.extend_from_slice(&["--threads", "3", "--repeat", "5"]);
            let batch_out = run_capture(&batch_args).unwrap();
            // Same table (batch prints one extra summary line).
            let sweep_lines: Vec<&str> = sweep_out.lines().collect();
            let batch_lines: Vec<&str> = batch_out.lines().collect();
            assert_eq!(batch_lines.len(), sweep_lines.len() + 1, "{batch_out}");
            assert_eq!(&batch_lines[..sweep_lines.len()], &sweep_lines[..]);
            let summary = batch_lines.last().unwrap();
            assert!(summary.contains("20 queries on 3 workers"), "{summary}");
            assert!(summary.contains("hits"), "{summary}");
        });
    }

    #[test]
    fn batch_validates_repeat() {
        with_document(|path| {
            assert!(run_capture(&[
                "batch",
                path,
                "--service",
                "app",
                "--param",
                "work",
                "--from",
                "1",
                "--to",
                "10",
                "--repeat",
                "0",
            ])
            .is_err());
        });
    }

    #[test]
    fn sweep_validates_arguments() {
        with_document(|path| {
            assert!(run_capture(&["sweep", path, "--service", "app"]).is_err());
            assert!(run_capture(&[
                "sweep",
                path,
                "--service",
                "app",
                "--param",
                "work",
                "--from",
                "-1",
                "--to",
                "10",
                "--log",
            ])
            .is_err());
            assert!(run_capture(&[
                "sweep",
                path,
                "--service",
                "app",
                "--param",
                "work",
                "--from",
                "1",
                "--to",
                "10",
                "--steps",
                "1",
            ])
            .is_err());
        });
    }

    #[test]
    fn dot_for_flow_and_assembly() {
        with_document(|path| {
            let out = run_capture(&["dot", path, "--service", "app"]).unwrap();
            assert!(out.starts_with("digraph"));
            let out = run_capture(&["dot", path]).unwrap();
            assert!(out.contains("shape=box"));
            let err = run_capture(&["dot", path, "--service", "dep"]).unwrap_err();
            assert!(err.to_string().contains("not a composite"));
        });
    }

    #[test]
    fn fmt_round_trips() {
        with_document(|path| {
            let out = run_capture(&["fmt", path]).unwrap();
            let reparsed = archrel_dsl::parse_assembly(&out).unwrap();
            assert_eq!(reparsed.len(), 3);
        });
    }

    #[test]
    fn improve_ranks_and_sizes() {
        with_document(|path| {
            let out =
                run_capture(&["improve", path, "--service", "app", "--bind", "work=1e6"]).unwrap();
            assert!(out.contains("baseline Pfail"));
            assert!(out.contains("service-failure dep"));
            let out = run_capture(&[
                "improve",
                path,
                "--service",
                "app",
                "--bind",
                "work=1e6",
                "--target",
                "0.05",
            ])
            .unwrap();
            assert!(out.contains("scale the top lever") || out.contains("cannot reach"));
        });
    }

    #[test]
    fn solver_flag_selects_the_backend_without_changing_the_answer() {
        with_document(|path| {
            let base = ["predict", path, "--service", "app", "--bind", "work=1e6"];
            let outputs: Vec<String> = ["auto", "dense", "sparse", "compiled"]
                .iter()
                .map(|solver| {
                    let mut args = base.to_vec();
                    args.extend_from_slice(&["--solver", solver]);
                    run_capture(&args).unwrap()
                })
                .collect();
            // The test flow is acyclic, so the sparse path is exact and all
            // three backends print identical tables.
            assert!(outputs[0].contains("Pfail(app)"));
            assert_eq!(outputs[0], outputs[1]);
            assert_eq!(outputs[1], outputs[2]);
            assert_eq!(outputs[2], outputs[3]);
            // Other solver-aware commands accept the flag too.
            let out = run_capture(&[
                "sweep",
                path,
                "--service",
                "app",
                "--param",
                "work",
                "--from",
                "1e3",
                "--to",
                "1e6",
                "--steps",
                "3",
                "--solver",
                "sparse",
            ])
            .unwrap();
            assert_eq!(out.lines().count(), 4, "{out}");
        });
    }

    #[test]
    fn solver_flag_rejects_unknown_backends() {
        with_document(|path| {
            let err = run_capture(&["predict", path, "--service", "app", "--solver", "quantum"])
                .unwrap_err();
            assert!(err.to_string().contains("auto, dense, sparse, or compiled"));
        });
    }

    /// Names the document the child half of
    /// `empty_solver_env_means_the_default_policy` predicts on.
    const EMPTY_SOLVER_CHILD_ENV: &str = "ARCHREL_TEST_EMPTY_SOLVER_DOCUMENT";

    /// Child half of `empty_solver_env_means_the_default_policy`: predicts
    /// on the named document and prints the answer. A no-op in ordinary
    /// test runs (the variable is absent).
    #[test]
    fn empty_solver_env_child_helper() {
        let Ok(path) = std::env::var(EMPTY_SOLVER_CHILD_ENV) else {
            return;
        };
        let out = run_capture(&["predict", &path, "--service", "app", "--bind", "work=1e6"])
            .expect("an empty ARCHREL_SOLVER must not be an error");
        print!("{out}");
    }

    /// CI matrices expand absent entries to empty strings, so an empty
    /// `ARCHREL_SOLVER` must mean the default policy — in the CLI's
    /// pre-validation and in `EvalOptions::default()` alike. The variable
    /// is set only in a child process (this test binary re-run, filtered
    /// to the helper above), so no other test sees it.
    #[test]
    fn empty_solver_env_means_the_default_policy() {
        with_document(|path| {
            let want = run_capture(&[
                "predict",
                path,
                "--service",
                "app",
                "--bind",
                "work=1e6",
                "--solver",
                "auto",
            ])
            .unwrap();
            let output = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    "--exact",
                    "cli::tests::empty_solver_env_child_helper",
                    "--nocapture",
                ])
                .env("ARCHREL_SOLVER", "")
                .env(EMPTY_SOLVER_CHILD_ENV, path)
                .output()
                .expect("spawn the child test");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "child failed: {stdout}{}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(stdout.contains(&want), "{stdout} lacks {want}");
        });
    }

    /// Two mutually recursive services over one blackbox leaf — the
    /// smallest document whose dependency graph is cyclic.
    const CYCLIC_DOCUMENT: &str = r#"
        blackbox leaf(x) { pfail: 0.001; }
        service a() {
          state loop { call b(); }
          state down { call leaf(x: 1); }
          start -> loop : 0.4;
          start -> down : 0.6;
          loop -> end : 1;
          down -> end : 1;
        }
        service b() {
          state loop { call a(); }
          state down { call leaf(x: 1); }
          start -> loop : 0.4;
          start -> down : 0.6;
          loop -> end : 1;
          down -> end : 1;
        }
    "#;

    fn with_cyclic_document(f: impl FnOnce(&str)) {
        let dir = std::env::temp_dir().join(format!(
            "archrel-cli-cyclic-{:?}",
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cyclic.arch");
        std::fs::write(&path, CYCLIC_DOCUMENT).unwrap();
        f(path.to_str().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixed_point_flag_opts_cyclic_assemblies_into_iteration() {
        with_cyclic_document(|path| {
            // Without the flag, the cycle is a hard error naming the path.
            let err = run_capture(&["predict", path, "--service", "a"]).unwrap_err();
            assert!(err.to_string().contains("recursive"), "{err}");
            // With it, both schemes converge to the same printed answer on
            // both engines.
            let predict = |extra: &[&str]| {
                let mut args = vec!["predict", path, "--service", "a"];
                args.extend_from_slice(extra);
                run_capture(&args).unwrap()
            };
            let pfail = |output: &str| -> f64 {
                output
                    .lines()
                    .find_map(|l| l.strip_prefix("Pfail(a) = "))
                    .expect("predict prints Pfail")
                    .parse()
                    .expect("Pfail is a number")
            };
            let plain = predict(&["--fixed-point", "plain"]);
            assert!(plain.contains("Pfail(a)"), "{plain}");
            // Aitken follows an accelerated trajectory to the same fixed
            // point, so it agrees numerically but not digit-for-digit.
            let aitken = predict(&["--fixed-point", "aitken"]);
            assert!((pfail(&plain) - pfail(&aitken)).abs() < 1e-10);
            // A sweep over a parameter the model ignores: the first row
            // walks the recursive path, the second runs the compiled program
            // (the target's second sighting), and both print the same.
            let sweep = run_capture(&[
                "sweep",
                path,
                "--service",
                "a",
                "--fixed-point",
                "plain",
                "--param",
                "unused",
                "--from",
                "1",
                "--to",
                "2",
                "--steps",
                "2",
            ])
            .unwrap();
            let rows: Vec<Vec<&str>> = sweep
                .lines()
                .skip(1)
                .map(|row| row.split_whitespace().skip(1).collect())
                .collect();
            assert_eq!(rows.len(), 2, "{sweep}");
            assert_eq!(rows[0], rows[1], "{sweep}");
            // The per-state breakdown resolves against the converged
            // estimates instead of erroring.
            let report =
                run_capture(&["report", path, "--service", "a", "--fixed-point", "plain"]).unwrap();
            assert!(report.contains("state `loop`"), "{report}");
        });
    }

    #[test]
    fn fixed_point_flag_rejects_unknown_schemes() {
        with_cyclic_document(|path| {
            let err = run_capture(&["predict", path, "--service", "a", "--fixed-point", "newton"])
                .unwrap_err();
            assert!(err.to_string().contains("plain or aitken"), "{err}");
        });
    }

    #[test]
    fn artifact_flags_warm_and_reuse_a_store() {
        with_document(|path| {
            let store_dir = std::env::temp_dir().join(format!(
                "archrel-cli-artifacts-{:?}",
                std::thread::current().id()
            ));
            let store_dir = store_dir.to_str().unwrap().to_string();
            let base = [
                "predict",
                path,
                "--service",
                "app",
                "--bind",
                "work=1e6",
                "--solver",
                "compiled",
            ];
            let run_with = |mode: &str| {
                let mut args = base.to_vec();
                args.extend_from_slice(&["--artifact-dir", &store_dir, "--artifact-mode", mode]);
                run_capture(&args).unwrap()
            };
            let plain = run_capture(&base).unwrap();
            // Warm the store, then answer from it read-only; the printed
            // prediction never changes.
            let warmed = run_with("readwrite");
            assert_eq!(plain, warmed);
            let archives = std::fs::read_dir(&store_dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".arst"))
                .count();
            assert!(archives > 0, "warm run must publish archives");
            assert_eq!(plain, run_with("read"));
            assert_eq!(plain, run_with("off"));
            let _ = std::fs::remove_dir_all(&store_dir);
        });
    }

    #[test]
    fn artifact_flags_are_validated() {
        with_document(|path| {
            let err = run_capture(&[
                "predict",
                path,
                "--service",
                "app",
                "--artifact-mode",
                "readwrite",
            ])
            .unwrap_err();
            assert!(err.to_string().contains("--artifact-dir"), "{err}");
            let err = run_capture(&[
                "predict",
                path,
                "--service",
                "app",
                "--artifact-dir",
                "/tmp/x",
                "--artifact-mode",
                "sometimes",
            ])
            .unwrap_err();
            assert!(err.to_string().contains("off, read, or readwrite"), "{err}");
        });
    }

    #[test]
    fn bad_flags_are_reported() {
        with_document(|path| {
            assert!(run_capture(&["predict", path, "--wat"]).is_err());
            assert!(run_capture(&["predict", path, "--bind", "broken"]).is_err());
            assert!(run_capture(&["predict", path, "--bind", "x=abc"]).is_err());
            assert!(run_capture(&["predict", path, "--service"]).is_err());
        });
    }

    #[test]
    fn missing_file_is_reported() {
        let err = run_capture(&["validate", "/nonexistent/path.arch"]).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn stream_updates_reliability_from_traces() {
        with_stream_fixture(|arch, traces| {
            let out = run_capture(&[
                "stream",
                arch,
                "--service",
                "app",
                "--traces",
                traces,
                "--delta-threshold",
                "0",
            ])
            .unwrap();
            assert!(
                out.contains("ingested 2 trace(s), 5 transition(s)"),
                "{out}"
            );
            assert!(out.contains("s -> t : 0.5"), "{out}");
            assert!(out.contains("s -> end : 0.5"), "{out}");
            assert!(
                out.contains("updated 2 usage parameter(s): s_t, s_end"),
                "{out}"
            );
            assert!(out.contains("Pfail(app)"), "{out}");
            assert!(out.contains("reliability"), "{out}");
        });
    }

    #[test]
    fn stream_threshold_suppresses_unmoved_rows() {
        with_stream_fixture(|arch, traces| {
            // The `s` row moved by 0.5 < 0.9 so it is suppressed whole;
            // only the probability-1 rows (start, t) clear the bar, and
            // neither maps to a usage parameter of `app`.
            let out = run_capture(&[
                "stream",
                arch,
                "--service",
                "app",
                "--traces",
                traces,
                "--delta-threshold",
                "0.9",
            ])
            .unwrap();
            assert!(!out.contains("s -> t"), "{out}");
            assert!(out.contains("reliability unchanged"), "{out}");
        });
    }

    #[test]
    fn stream_rejects_bad_delta_thresholds() {
        with_stream_fixture(|arch, traces| {
            for bad in ["1.5", "1.0", "-0.1", "nan", "inf", "many"] {
                let err = run_capture(&[
                    "stream",
                    arch,
                    "--service",
                    "app",
                    "--traces",
                    traces,
                    "--delta-threshold",
                    bad,
                ])
                .unwrap_err();
                assert!(
                    err.to_string()
                        .contains("expected a finite probability threshold in [0, 1)"),
                    "`{bad}`: {err}"
                );
            }
        });
    }

    #[test]
    fn stream_requires_traces_and_service() {
        with_stream_fixture(|arch, _| {
            let err = run_capture(&["stream", arch, "--service", "app"]).unwrap_err();
            assert!(err.to_string().contains("--traces FILE"), "{err}");
            let err = run_capture(&["stream", arch]).unwrap_err();
            assert!(err.to_string().contains("--service"), "{err}");
        });
    }

    #[test]
    fn delta_threshold_env_values_are_prevalidated() {
        // The helper behind `run`'s environment prevalidation, exercised
        // directly so the test never mutates process-global state.
        assert!(check_delta_threshold_env("").is_ok());
        assert!(check_delta_threshold_env("0").is_ok());
        assert!(check_delta_threshold_env(" 0.25 ").is_ok());
        for bad in ["1.0", "-0.1", "nan", "inf", "two"] {
            let err = check_delta_threshold_env(bad).unwrap_err();
            assert!(
                err.to_string()
                    .contains("unrecognized ARCHREL_DELTA_THRESHOLD value"),
                "`{bad}`: {err}"
            );
            assert!(err.to_string().contains("[0, 1)"), "`{bad}`: {err}");
        }
    }
}
