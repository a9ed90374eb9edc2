//! `fleet_stream`: the seeded 10k-service generated fleet, registered with
//! a default-options `FleetRefresh` and bootstrapped from coverage traffic;
//! then time-boxed rounds, each feeding 20 fresh sessions into 64
//! zipf-picked services: `observe_all`, `drain_deltas(0)`, `apply`.
//!
//! The only workload where the streaming estimator and the refresh driver
//! do the work; its cost follows the dirty cone, not the model size. Trace
//! generation stays outside the timed region.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use archrel_bench::scenarios::{generate_fleet, Fleet, FleetService, FleetSpec};
use archrel_core::{EvalOptions, Evaluator, FleetRefresh, RefreshStats};
use archrel_dsl::print_assembly;
use archrel_expr::Bindings;
use archrel_model::ServiceId;
use archrel_profile::streaming::StreamingEstimator;

use super::{ms, ratio, secs, Ctx, Outcome};
use crate::inputs::{fingerprint, Rng};
use crate::trace::Tracer;

/// Random sessions per registered service during the bootstrap.
const BOOTSTRAP_WALKS: usize = 8;
/// Sessions per touched service per round.
const ROUND_WALKS: usize = 20;
/// The fleet itself is fixed, like every other workload's models; the
/// benchmark seed drives the traffic.
const FLEET_SEED: u64 = 42;

/// One registered service's estimator and its edge → parameter map.
struct Stream {
    service: ServiceId,
    estimator: StreamingEstimator<String>,
    edge_params: HashMap<(String, String), String>,
}

impl Stream {
    fn new(svc: &FleetService) -> Self {
        Stream {
            service: svc.service.as_str().into(),
            estimator: StreamingEstimator::new(),
            edge_params: svc
                .edges
                .iter()
                .map(|e| ((e.from.clone(), e.to.clone()), e.param.clone()))
                .collect(),
        }
    }

    /// Drains the moved rows as `(parameter, probability)` deltas; rows of
    /// deterministic hops carry no parameter and are dropped.
    fn drain_into(&mut self, deltas: &mut Vec<(String, f64)>) {
        for row in &self.estimator.drain_deltas(0.0).rows {
            for (to, p) in &row.edges {
                if let Some(param) = self.edge_params.get(&(row.from.clone(), to.clone())) {
                    deltas.push((param.clone(), *p));
                }
            }
        }
    }
}

/// Services with usage parameters, in generation order.
fn registered(fleet: &Fleet) -> impl Iterator<Item = &FleetService> {
    fleet.services.iter().filter(|s| !s.edges.is_empty())
}

/// Rank of a trace state: `s{i}` ranks `i`, `end` ranks last.
fn rank(state: &str) -> usize {
    if state == "end" {
        usize::MAX
    } else {
        state[1..].parse().expect("session states are s{i}")
    }
}

/// A `start → … → end` session that takes the edge `from → to`: advance to
/// `from` without overshooting it, take the edge, then leave by the
/// furthest-forward successor.
fn coverage_trace(svc: &FleetService, from: &str, to: &str) -> Vec<String> {
    let next = |cur: &str, limit: usize| -> String {
        svc.chain
            .successors(&cur.to_string())
            .expect("known state")
            .into_iter()
            .map(|(s, _)| s)
            .filter(|s| rank(s) <= limit)
            .max_by_key(|s| rank(s))
            .expect("a successor within reach")
            .clone()
    };
    let mut trace = vec!["start".to_string()];
    while trace.last().expect("non-empty") != from {
        let step = next(trace.last().expect("non-empty"), rank(from));
        trace.push(step);
    }
    trace.push(to.to_string());
    while trace.last().expect("non-empty") != "end" {
        let step = next(trace.last().expect("non-empty"), usize::MAX);
        trace.push(step);
    }
    trace
}

/// One seeded session sampled from the service's ground-truth chain.
fn random_walk(svc: &FleetService, rng: &mut Rng) -> Vec<String> {
    let mut trace = vec!["start".to_string()];
    while trace.last().expect("non-empty") != "end" && trace.len() < 4096 {
        let successors = svc
            .chain
            .successors(trace.last().expect("non-empty"))
            .expect("known state");
        let u = rng.unit();
        let mut acc = 0.0;
        let mut chosen = successors.last().expect("no dead ends").0;
        for (s, p) in &successors {
            acc += p;
            if u < acc {
                chosen = s;
                break;
            }
        }
        let next = chosen.clone();
        trace.push(next);
    }
    trace
}

/// A registered, bootstrapped fleet.
struct Live<'a> {
    refresh: FleetRefresh<'a>,
    streams: Vec<Stream>,
    register_ms: f64,
}

fn bootstrap<'a>(ctx: &Ctx, fleet: &'a Fleet) -> Result<Live<'a>, String> {
    let mut refresh = FleetRefresh::new(&fleet.assembly, EvalOptions::default());
    let started = Instant::now();
    for svc in registered(fleet) {
        let varied: Vec<String> = svc.edges.iter().map(|e| e.param.clone()).collect();
        refresh
            .register(svc.service.as_str().into(), svc.ground_env.clone(), &varied)
            .map_err(|e| format!("register {}: {e}", svc.service))?;
    }
    let register_ms = ms(started.elapsed());
    let mut rng = Rng::new(ctx.seed, 5);
    let mut streams: Vec<Stream> = registered(fleet).map(Stream::new).collect();
    let mut deltas = Vec::new();
    for (stream, svc) in streams.iter_mut().zip(registered(fleet)) {
        let mut traces: Vec<Vec<String>> = svc
            .edges
            .iter()
            .map(|e| coverage_trace(svc, &e.from, &e.to))
            .collect();
        traces.extend((0..BOOTSTRAP_WALKS).map(|_| random_walk(svc, &mut rng)));
        stream.estimator.observe_all(&traces);
        stream.drain_into(&mut deltas);
    }
    refresh
        .apply(&deltas)
        .map_err(|e| format!("bootstrap apply: {e}"))?;
    Ok(Live {
        refresh,
        streams,
        register_ms,
    })
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let spec = FleetSpec::web_scale(ctx.scale.fleet, FLEET_SEED);
    let started = Instant::now();
    let fleet = generate_fleet(&spec).map_err(|e| e.to_string())?;
    let Live {
        mut refresh,
        mut streams,
        register_ms,
    } = bootstrap(ctx, &fleet)?;
    out.setup_s = secs(started);
    let model = print_assembly(&fleet.assembly).map_err(|e| e.to_string())?;
    out.fingerprints
        .push(("fleet_model", fingerprint(model.as_bytes())));
    let services: Vec<&FleetService> = registered(&fleet).collect();
    out.notes.push(format!(
        "fleet: {} services, {} registered, {} on the staged path",
        spec.total_services(),
        services.len(),
        refresh.staged_count()
    ));

    let cumulative: Vec<f64> = services
        .iter()
        .scan(0.0, |acc, s| {
            *acc += s.weight;
            Some(*acc)
        })
        .collect();
    let total_weight = *cumulative.last().expect("a non-empty fleet");
    let mut rng = Rng::new(ctx.seed, 6);
    let touched_per_round = ctx.scale.fleet_touched.min(services.len());
    let mut stats = RefreshStats::default();
    let (mut observe_ns, mut drain_ns, mut apply_ns, mut traces_in) = (0u128, 0u128, 0u128, 0usize);
    let mut rounds = 0usize;
    let mut busy_s = 0.0;
    let measured = Instant::now();
    while ctx.more(measured, rounds) {
        let mut touched: Vec<usize> = Vec::with_capacity(touched_per_round);
        while touched.len() < touched_per_round {
            let u = rng.unit() * total_weight;
            let i = cumulative
                .partition_point(|&c| c <= u)
                .min(services.len() - 1);
            if !touched.contains(&i) {
                touched.push(i);
            }
        }
        let sessions: Vec<Vec<Vec<String>>> = touched
            .iter()
            .map(|&i| {
                (0..ROUND_WALKS)
                    .map(|_| random_walk(services[i], &mut rng))
                    .collect()
            })
            .collect();
        if rounds == 0 {
            let text: String = sessions
                .iter()
                .flatten()
                .map(|t| t.join(" ") + "\n")
                .collect();
            out.fingerprints
                .push(("first_round_traces", fingerprint(text.as_bytes())));
        }

        let t0 = Instant::now();
        for (&i, traces) in touched.iter().zip(&sessions) {
            streams[i].estimator.observe_all(traces);
        }
        let t1 = Instant::now();
        let mut deltas = Vec::new();
        for &i in &touched {
            streams[i].drain_into(&mut deltas);
        }
        let t2 = Instant::now();
        let applied = refresh.apply(&deltas);
        let t3 = Instant::now();
        out.attempted += 1;
        match applied {
            Ok(round) => stats.merge(&round),
            Err(e) => out.fail(format!("round {rounds}: {e}")),
        }
        out.latency_ms.push(ms(t3 - t0));
        busy_s += (t3 - t0).as_secs_f64();
        observe_ns += (t1 - t0).as_nanos();
        drain_ns += (t2 - t1).as_nanos();
        apply_ns += (t3 - t2).as_nanos();
        traces_in += sessions.iter().map(Vec::len).sum::<usize>();
        rounds += 1;
        if tracer.enabled() {
            let root = tracer.span("round", None, t0, t3);
            tracer.span("profile.streaming.observe_all", Some(root), t0, t1);
            tracer.span("profile.streaming.drain_deltas", Some(root), t1, t2);
            tracer.span("core.refresh.apply", Some(root), t2, t3);
        }
    }
    out.throughput_per_s = rounds as f64 / busy_s;
    out.peak_rss_mb = crate::host::proc_status_mb("self", "VmHWM").unwrap_or(0.0);
    out.notes.push(format!(
        "ingest: {:.0} traces/s inside observe_all",
        traces_in as f64 / (observe_ns as f64 / 1e9)
    ));

    // The refreshed fleet must equal a full batch re-estimate and re-solve
    // of every registered service over the shared plan cache, bitwise.
    let reference = Evaluator::with_plan_cache(
        &fleet.assembly,
        refresh.evaluator().options(),
        Arc::clone(refresh.plan_cache()),
    );
    for (stream, svc) in streams.iter().zip(&services) {
        out.attempted += 1;
        let estimate = match stream.estimator.estimate() {
            Ok(chain) => chain,
            Err(e) => {
                out.fail(format!("{}: estimate: {e}", svc.service));
                continue;
            }
        };
        let mut env = Bindings::new();
        let live_env = refresh.env(&stream.service).expect("registered");
        let mut env_ok = true;
        for e in &svc.edges {
            let want = estimate
                .transition_probability(&e.from, &e.to)
                .unwrap_or(f64::NAN);
            env.insert(&e.param, want);
            let got = live_env.get(&e.param).unwrap_or(f64::NAN);
            env_ok &= got.to_bits() == want.to_bits();
        }
        if !env_ok {
            out.fail(format!(
                "{}: streamed usage differs from the batch estimate",
                svc.service
            ));
            continue;
        }
        match reference.failure_probability(&stream.service, &env) {
            Ok(want) => {
                let got = refresh
                    .failure(&stream.service)
                    .expect("registered")
                    .value();
                out.check_bits(&format!("{} failure", svc.service), got, want.value());
            }
            Err(e) => out.fail(format!("{}: re-solve: {e}", svc.service)),
        }
    }

    if tracer.enabled() {
        let r = rounds as f64;
        out.layer(
            "profile.streaming.observe_us_per_trace",
            observe_ns as f64 / 1e3 / traces_in as f64,
        );
        out.layer("profile.streaming.drain_us", drain_ns as f64 / 1e3 / r);
        out.layer("core.refresh.apply_us", apply_ns as f64 / 1e3 / r);
        out.layer(
            "core.refresh.staged_ratio",
            ratio(stats.staged_rows as f64, stats.services_refreshed as f64),
        );
        out.layer(
            "core.refresh.fallback_solves_per_round",
            stats.fallback_solves as f64 / r,
        );
        out.layer(
            "core.refresh.services_refreshed_per_round",
            stats.services_refreshed as f64 / r,
        );
        out.layer("core.refresh.register_ms", register_ms);
        out.table = Some(tracer.table("unattributed"));
    }
    Ok(())
}
