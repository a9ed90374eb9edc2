//! `serve_mixed`: open-loop `predict` traffic against a child
//! `archrel serve --unix … --workers 2`, over one connection driven by two
//! client threads (a sender that sends on schedule, a reader).
//!
//! The catalog holds `flow1024`, `dag`, `paper_remote` and `webshop`. Nine
//! requests in ten come from a seeded pool of 64 hot binding points per
//! model, warmed during set-up, and one in ten carries fresh bindings: the
//! hits put protocol, transport and the value cache in the median, the
//! misses put the engine's warm-miss path in the tail. A ladder of fixed
//! rates is followed by a saturation phase (a fixed window of requests in
//! flight), whose completion rate is the throughput. Latency is timed from
//! each request's due time, so a stalled sender shows as latency.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use archrel_core::{EvalOptions, Evaluator, PlanCache};
use archrel_dsl::parse_assembly;
use archrel_expr::Bindings;
use archrel_model::{Assembly, ServiceId};
use archrel_serve::json::JsonValue;
use archrel_serve::protocol::{decode_line, ok_line, DecodeCaps};
use archrel_serve::{Catalog, CatalogEntry};

use super::{ms, ratio, secs, Ctx, Outcome};
use crate::inputs::{fingerprint, model, sorted_bindings, Model, Rng};
use crate::stats::percentile;
use crate::trace::Tracer;

const MODELS: [&str; 4] = ["flow1024", "dag", "paper_remote", "webshop"];
/// Daemon worker threads: the machine's two cores.
const WORKERS: &str = "2";
/// Share of requests carrying fresh (never seen) bindings.
const FRESH_SHARE: f64 = 0.10;
/// Open-loop rates, requests per second, lowest first. The highest stays
/// far enough below saturation that a stall of the host does not fill the
/// daemon's default admission queue of 256 requests.
const LADDER: [f64; 3] = [1000.0, 2500.0, 5000.0];
/// The ladder step whose latency is the end-to-end metric.
const REFERENCE: usize = 1;
/// p99 limit a ladder step must meet, with no growing backlog.
const LIMIT_MS: f64 = 10.0;
/// Requests in flight during the saturation phase; well below the daemon's
/// admission queue, so it never answers `overloaded`.
const WINDOW: usize = 16;
/// Saturation requests per second of the phase's share of the time box, a
/// little above what the daemon completes on a 2-core host; a slower daemon
/// takes longer, up to four times the share. The count also sets how many
/// entries the daemon's value cache ends with, and it keeps them well
/// between two of the cache table's doublings, so peak memory does not
/// jump between seeds.
const SATURATION_PER_S: f64 = 22_500.0;
/// Leading requests of each ladder step covered by the schedule
/// fingerprint, whatever the step's length.
const FINGERPRINTED: usize = 1000;
/// How long the reader waits for straggling answers after the last send.
const DRAIN: Duration = Duration::from_secs(15);

/// One request of the schedule.
struct Req {
    model: usize,
    hot: Option<usize>,
    bindings: Bindings,
    line: String,
}

/// One answer as the client saw it.
#[derive(Clone)]
struct Reply {
    at: Instant,
    pfail: Option<f64>,
    error: Option<String>,
}

/// Send-side timing of one request.
#[derive(Clone, Copy)]
struct Sent {
    due: Instant,
    at: Instant,
}

struct Phase {
    sent: Vec<Sent>,
    replies: Vec<Option<Reply>>,
    elapsed: Duration,
}

enum Plan {
    /// Send request `i` at `start + i / rate`.
    Open { rate: f64 },
    /// Keep `window` requests in flight until every request is sent or
    /// `cap_seconds` have passed.
    Closed { window: usize, cap_seconds: f64 },
}

fn request_line(id: usize, m: &Model, bindings: &Bindings) -> String {
    let members: Vec<String> = sorted_bindings(bindings)
        .into_iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"id\":\"{id}\",\"op\":\"predict\",\"assembly\":\"{}\",\"service\":\"{}\",\"bindings\":{{{}}}}}",
        m.name,
        m.service,
        members.join(",")
    )
}

/// The string after `"key":"` up to the next quote.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    line[start..].split('"').next()
}

/// The number after `"key":`.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    line[start..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.trim().parse().ok())
}

fn parse_reply(line: &str, at: Instant) -> Option<(usize, Reply)> {
    let id = json_str(line, "id")?.parse().ok()?;
    let ok = line.contains("\"ok\":true");
    Some((
        id,
        Reply {
            at,
            pfail: if ok { json_num(line, "pfail") } else { None },
            error: (!ok).then(|| json_str(line, "kind").unwrap_or("unknown").to_string()),
        },
    ))
}

/// Runs one phase over the connection: a sender thread (this one) and a
/// reader thread. Ids are positions in `reqs`.
fn run_phase(stream: &UnixStream, reqs: &[Req], plan: &Plan) -> Result<Phase, String> {
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let in_flight = (Mutex::new(0usize), Condvar::new());
    let sent_count = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let started = Instant::now();
    std::thread::scope(|scope| {
        let rx = scope.spawn(|| {
            let mut reader = BufReader::new(reader);
            let mut replies: Vec<Option<Reply>> = vec![None; reqs.len()];
            let mut got = 0usize;
            let mut line = String::new();
            let mut finished_at: Option<Instant> = None;
            loop {
                if done.load(Ordering::SeqCst) {
                    if got >= sent_count.load(Ordering::SeqCst) {
                        break;
                    }
                    let since = *finished_at.get_or_insert_with(Instant::now);
                    if since.elapsed() > DRAIN {
                        break;
                    }
                }
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        let at = Instant::now();
                        if let Some((id, reply)) = parse_reply(line.trim_end(), at) {
                            if id < replies.len() && replies[id].is_none() {
                                replies[id] = Some(reply);
                                got += 1;
                            }
                        }
                        line.clear();
                        let (count, freed) = &in_flight;
                        *count.lock().expect("in-flight lock") -= 1;
                        freed.notify_one();
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => break,
                }
            }
            replies
        });
        let mut sent = Vec::with_capacity(reqs.len());
        let mut failure = None;
        let begin = Instant::now() + Duration::from_millis(2);
        for (i, req) in reqs.iter().enumerate() {
            let due = match plan {
                Plan::Open { rate } => {
                    let due = begin + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due
                }
                Plan::Closed {
                    window,
                    cap_seconds,
                } => {
                    if started.elapsed().as_secs_f64() >= *cap_seconds {
                        break;
                    }
                    let (count, freed) = &in_flight;
                    let mut n = count.lock().expect("in-flight lock");
                    while *n >= *window {
                        n = freed.wait(n).expect("in-flight lock");
                    }
                    Instant::now()
                }
            };
            *in_flight.0.lock().expect("in-flight lock") += 1;
            let mut bytes = req.line.clone().into_bytes();
            bytes.push(b'\n');
            if let Err(e) = writer.write_all(&bytes) {
                failure = Some(format!("send: {e}"));
                break;
            }
            sent.push(Sent {
                due,
                at: Instant::now(),
            });
            sent_count.fetch_add(1, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
        let mut replies = rx.join().expect("reader thread");
        replies.truncate(sent.len());
        match failure {
            Some(e) => Err(e),
            None => Ok(Phase {
                sent,
                replies,
                elapsed: started.elapsed(),
            }),
        }
    })
}

/// A running daemon and the connection to it.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    stream: UnixStream,
}

impl Daemon {
    fn start(ctx: &Ctx, files: &[(String, PathBuf)]) -> Result<Daemon, String> {
        let sock = ctx.run_dir.join("serve.sock");
        let mut cmd = Command::new(ctx.archrel()?);
        crate::host::scrub(&mut cmd)
            .arg("serve")
            .arg("--unix")
            .arg(&sock)
            .args(["--workers", WORKERS]);
        for (name, path) in files {
            cmd.arg("--catalog")
                .arg(format!("{name}={}", path.display()));
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start archrel serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("archrel serve exited before listening".into());
                }
                Ok(_) if line.starts_with("listening on") => break,
                Ok(_) => {}
            }
        }
        match UnixStream::connect(&sock) {
            Ok(stream) => Ok(Daemon {
                child,
                stdout,
                stream,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("connect: {e}"))
            }
        }
    }

    /// One request, one answer, on the caller's thread.
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .set_read_timeout(Some(DRAIN))
            .map_err(|e| e.to_string())?;
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(&self.stream);
        let mut answer = String::new();
        reader.read_line(&mut answer).map_err(|e| e.to_string())?;
        Ok(answer.trim_end().to_string())
    }

    fn status_mb(&self, field: &str) -> f64 {
        crate::host::proc_status_mb(&self.child.id().to_string(), field).unwrap_or(0.0)
    }

    /// Sends `shutdown` and waits for the process to end (dropping the
    /// handle kills it if it has not).
    fn stop(mut self) {
        let _ = self.roundtrip(r#"{"id":"bye","op":"shutdown"}"#);
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    /// A workload that stops early never leaves its daemon behind.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Checks one answer against the expected probability (and the paper's
/// closed form where it applies).
fn check(out: &mut Outcome, what: &str, reply: Option<&Reply>, want: f64, closed: Option<f64>) {
    match reply {
        Some(Reply {
            pfail: Some(got), ..
        }) => {
            if out.check_bits(what, *got, want) {
                if let Some(closed) = closed {
                    out.check_close(what, *got, closed, 1e-12);
                }
            }
        }
        Some(Reply {
            error: Some(kind), ..
        }) => out.fail(format!("{what}: error `{kind}`")),
        _ => out.fail(format!("{what}: no answer")),
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let models: Vec<Model> = MODELS
        .iter()
        .map(|name| model(name, &ctx.scale, &ctx.root))
        .collect::<Result<_, _>>()?;
    let assemblies: Vec<Assembly> = models
        .iter()
        .map(|m| parse_assembly(&m.text).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut files = Vec::new();
    for m in &models {
        let path = ctx.run_dir.join(format!("{}.arch", m.name));
        std::fs::write(&path, &m.text).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push((m.name.to_string(), path));
    }
    let expected = |m: usize, b: &Bindings| -> Result<f64, String> {
        Evaluator::new(&assemblies[m])
            .failure_probability(&ServiceId::from(models[m].service), b)
            .map(|p| p.value())
            .map_err(|e| e.to_string())
    };

    // Inputs: the hot pool and the whole schedule, from the seed alone.
    let mut rng = Rng::new(ctx.seed, 1);
    let hot: Vec<Vec<Bindings>> = models
        .iter()
        .map(|m| {
            (0..ctx.scale.hot_pool)
                .map(|_| m.bindings(&mut rng))
                .collect()
        })
        .collect();
    let hot_expected: Vec<Vec<f64>> = (0..models.len())
        .map(|m| hot[m].iter().map(|b| expected(m, b)).collect())
        .collect::<Result<_, _>>()?;
    // Half the time box goes to saturation: its rate depends on how many
    // expensive misses land in the window, which evens out only over time.
    let step_s = 0.5 * ctx.seconds / LADDER.len() as f64;
    let saturation_s = 0.5 * ctx.seconds;
    // Each phase draws from its own stream, so a phase's first requests do
    // not depend on how long the phases before it ran.
    let schedule = |count: usize, stream: u64| -> Vec<Req> {
        let mut rng = Rng::new(ctx.seed, 100 + stream);
        (0..count)
            .map(|id| {
                let m = rng.index(models.len());
                let (hot_i, bindings) = if rng.unit() < FRESH_SHARE {
                    (None, models[m].bindings(&mut rng))
                } else {
                    let i = rng.index(hot[m].len());
                    (Some(i), hot[m][i].clone())
                };
                Req {
                    model: m,
                    hot: hot_i,
                    line: request_line(id, &models[m], &bindings),
                    bindings,
                }
            })
            .collect()
    };
    let steps: Vec<Vec<Req>> = LADDER
        .iter()
        .zip(0..)
        .map(|(rate, stream)| schedule((rate * step_s).ceil() as usize, stream))
        .collect();
    // A fixed amount of work, so the daemon's value cache ends every run
    // the same size and its peak memory compares across runs.
    let saturation = schedule(
        (SATURATION_PER_S * saturation_s).ceil() as usize,
        LADDER.len() as u64,
    );
    let mut text: String = models.iter().map(|m| m.text.clone()).collect();
    out.fingerprints
        .push(("models", fingerprint(text.as_bytes())));
    text = hot
        .iter()
        .flatten()
        .map(|b| format!("{:?}\n", sorted_bindings(b)))
        .collect();
    for (rate, stream) in LADDER.iter().zip(0..) {
        text.push_str(&format!("rate {rate}\n"));
        for r in schedule(FINGERPRINTED, stream) {
            text.push_str(&r.line);
            text.push('\n');
        }
    }
    out.fingerprints
        .push(("schedule", fingerprint(text.as_bytes())));

    // Set-up: boot the daemon with the catalog and warm the hot pool.
    let prewarm: Vec<(usize, usize, String)> = (0..models.len())
        .flat_map(|m| (0..hot[m].len()).map(move |i| (m, i)))
        .enumerate()
        .map(|(id, (m, i))| (m, i, request_line(id, &models[m], &hot[m][i])))
        .collect();
    let started = Instant::now();
    let mut d = Daemon::start(ctx, &files)?;
    let mut answers = Vec::with_capacity(prewarm.len());
    for (_, _, line) in &prewarm {
        answers.push(d.roundtrip(line)?);
    }
    out.setup_s = secs(started);
    for ((m, i, _), answer) in prewarm.iter().zip(&answers) {
        out.attempted += 1;
        let reply = parse_reply(answer, Instant::now()).map(|(_, r)| r);
        check(
            out,
            &format!("{} warm-up", models[*m].name),
            reply.as_ref(),
            hot_expected[*m][*i],
            models[*m].closed_form(&hot[*m][*i]),
        );
    }
    let rss_after_setup = d.status_mb("VmRSS");

    // Measurement: the ladder, then saturation.
    let mut phases = Vec::with_capacity(LADDER.len());
    for (rate, step) in LADDER.iter().zip(&steps) {
        phases.push(run_phase(&d.stream, step, &Plan::Open { rate: *rate })?);
    }
    let sat = run_phase(
        &d.stream,
        &saturation,
        &Plan::Closed {
            window: WINDOW,
            cap_seconds: 4.0 * saturation_s,
        },
    )?;
    let stats = d.roundtrip(r#"{"id":"stats","op":"stats"}"#)?;
    out.peak_rss_mb = d.status_mb("VmHWM");
    let rss_growth = d.status_mb("VmRSS") - rss_after_setup;
    d.stop();

    // Every answer must equal a fresh in-process evaluation, bitwise. The
    // daemon is gone by now, so both cores compute the expected answers.
    let answered: Vec<(&Req, Option<&Reply>)> = steps
        .iter()
        .zip(&phases)
        .map(|(reqs, p)| (reqs.as_slice(), p))
        .chain(std::iter::once((saturation.as_slice(), &sat)))
        .flat_map(|(reqs, phase)| reqs.iter().zip(phase.replies.iter().map(Option::as_ref)))
        .collect();
    let want = |(req, _): &(&Req, Option<&Reply>)| match req.hot {
        Some(i) => Ok(hot_expected[req.model][i]),
        None => expected(req.model, &req.bindings),
    };
    let half = answered.len().div_ceil(2);
    let wants: Vec<Result<f64, String>> = std::thread::scope(|scope| {
        let (a, b) = answered.split_at(half);
        let second = scope.spawn(|| b.iter().map(want).collect::<Vec<_>>());
        let mut wants: Vec<_> = a.iter().map(want).collect();
        wants.extend(second.join().expect("checker thread"));
        wants
    });
    for ((req, reply), want) in answered.iter().zip(wants) {
        out.attempted += 1;
        check(
            out,
            &format!("{} predict", models[req.model].name),
            *reply,
            want?,
            models[req.model].closed_form(&req.bindings),
        );
    }

    let latencies = |p: &Phase| -> Vec<f64> {
        p.sent
            .iter()
            .zip(&p.replies)
            .filter_map(|(s, r)| {
                r.as_ref()
                    .map(|r| ms(r.at.saturating_duration_since(s.due)))
            })
            .collect()
    };
    let mut max_ok = None;
    for (i, (rate, phase)) in LADDER.iter().zip(&phases).enumerate() {
        let lat = latencies(phase);
        if lat.is_empty() {
            continue;
        }
        let late: Vec<f64> = phase.sent.iter().map(|s| ms(s.at - s.due)).collect();
        let quarter = (lat.len() / 4).max(1);
        let first = percentile(&lat[..quarter], 50.0);
        let last = percentile(&lat[lat.len() - quarter..], 50.0);
        let p99 = percentile(&lat, 99.0);
        let growing = last > (2.0 * first).max(first + 1.0);
        let pass = p99 <= LIMIT_MS && !growing && lat.len() == phase.sent.len();
        if pass && max_ok.is_none_or(|r| r < *rate) {
            max_ok = Some(*rate);
        }
        out.notes.push(format!(
            "rate {rate:>6}/s: {} requests, p50 {:.4} ms, p99 {p99:.4} ms, max {:.4} ms, \
             sender late p99 {:.4} ms, {}",
            lat.len(),
            percentile(&lat, 50.0),
            lat.iter().cloned().fold(0.0, f64::max),
            percentile(&late, 99.0),
            if pass {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        if i == REFERENCE {
            out.latency_ms = lat;
        }
    }
    out.notes.push(format!(
        "highest ladder rate with p99 <= {LIMIT_MS} ms and no growing backlog: {}",
        max_ok.map_or("none".into(), |r| format!("{r}/s"))
    ));
    let completed = sat.replies.iter().filter(|r| r.is_some()).count();
    out.throughput_per_s = completed as f64 / sat.elapsed.as_secs_f64();
    out.notes.push(format!(
        "saturation: {completed} requests with {WINDOW} in flight, {:.0}/s",
        out.throughput_per_s
    ));

    if tracer.enabled() {
        let reference = &phases[REFERENCE];
        replay(tracer, out, &models, &hot, &steps[REFERENCE], reference)?;
        let hits = json_num(&stats, "value_cache_hits").unwrap_or(0.0);
        let misses = json_num(&stats, "value_cache_misses").unwrap_or(0.0);
        out.layer("serve.value_cache.hit_ratio", ratio(hits, hits + misses));
        out.layer("serve.rss_growth_mb", rss_growth);
        let late: Vec<f64> = reference
            .sent
            .iter()
            .map(|s| ms(s.at - s.due) * 1e3)
            .collect();
        out.layer("loadgen.late_p99_us", percentile(&late, 99.0));
        out.layer(
            "serve.overloaded",
            json_num(&stats, "rejected_overload").unwrap_or(0.0),
        );
        out.layer(
            "serve.timed_out",
            json_num(&stats, "timed_out").unwrap_or(0.0),
        );
        out.table = Some(tracer.table("unattributed: serve.transport"));
    }
    Ok(())
}

/// Replays the reference step's requests in process through the daemon's
/// public layers — decode, catalog lookup, evaluation over the entry's
/// shared caches, encode — and splits each measured round trip into those
/// layers, the sender's lateness, and the transport residual.
fn replay(
    tracer: &mut Tracer,
    out: &mut Outcome,
    models: &[Model],
    hot: &[Vec<Bindings>],
    reqs: &[Req],
    phase: &Phase,
) -> Result<(), String> {
    let catalog = Catalog::new(Arc::new(PlanCache::new()));
    let started = Instant::now();
    for m in models {
        catalog.load(m.name, &m.text).map_err(|e| e.to_string())?;
    }
    out.layer("serve.catalog.load_ms", ms(started.elapsed()));
    for (m, points) in models.iter().zip(hot) {
        let entry = catalog.get(m.name).expect("loaded");
        for b in points {
            evaluator_for(&catalog, &entry)
                .failure_probability(&ServiceId::from(m.service), b)
                .map_err(|e| e.to_string())?;
        }
    }
    let caps = DecodeCaps::default();
    let (mut decode, mut get, mut encode, mut transport) = (0.0, 0.0, 0.0, 0.0);
    let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
    let mut n = 0.0;
    for ((req, sent), reply) in reqs.iter().zip(&phase.sent).zip(&phase.replies) {
        let Some(reply) = reply else { continue };
        let a = Instant::now();
        let envelope = decode_line(&req.line, &caps).map_err(|(_, e)| e.message)?;
        let b = Instant::now();
        let name = &models[req.model].name;
        let entry = catalog.get(name).expect("loaded");
        let c = Instant::now();
        let evaluator = evaluator_for(&catalog, &entry);
        let service = ServiceId::from(models[req.model].service);
        let p = evaluator
            .failure_probability(&service, &req.bindings)
            .map_err(|e| e.to_string())?;
        // A value-cache hit answers without evaluating anything.
        let hit = evaluator.local_stats().misses == 0;
        let d = Instant::now();
        let result = JsonValue::Object(BTreeMap::from([
            (
                "service".to_string(),
                JsonValue::String(service.to_string()),
            ),
            ("pfail".to_string(), JsonValue::Number(p.value())),
            (
                "reliability".to_string(),
                JsonValue::Number(p.complement().value()),
            ),
        ]));
        let line = ok_line(&envelope.id, result);
        let e = Instant::now();
        std::hint::black_box(line);

        let root = tracer.span("request", None, sent.due, reply.at);
        tracer.span("loadgen.late", Some(root), sent.due, sent.at);
        let layers = [
            ("serve.protocol.decode", b - a),
            ("serve.catalog.get", c - b),
            (
                if hit {
                    "core.eval.hit"
                } else {
                    "core.eval.miss"
                },
                d - c,
            ),
            ("serve.protocol.encode", e - d),
        ];
        let mut inside = Duration::ZERO;
        for (layer, took) in layers {
            tracer.child(layer, root, took.as_nanos() as u64);
            inside += took;
        }
        let rtt = reply.at.saturating_duration_since(sent.at);
        decode += (b - a).as_secs_f64() * 1e6;
        get += (c - b).as_secs_f64() * 1e6;
        encode += (e - d).as_secs_f64() * 1e6;
        transport += (rtt.as_secs_f64() - inside.as_secs_f64()) * 1e6;
        if hit {
            hit_us.push((d - c).as_secs_f64() * 1e6);
        } else {
            miss_us.push((d - c).as_secs_f64() * 1e6);
        }
        n += 1.0;
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    out.layer("serve.protocol.decode_us", decode / n);
    out.layer("serve.protocol.encode_us", encode / n);
    out.layer("serve.catalog.get_us", get / n);
    out.layer("core.eval.hit_us", mean(&hit_us));
    out.layer("core.eval.miss_us", mean(&miss_us));
    out.layer("serve.transport_us", transport / n);
    Ok(())
}

/// The daemon's request-scoped evaluator: the shared plan cache plus the
/// entry's shared value cache, at default options.
fn evaluator_for<'a>(catalog: &Catalog, entry: &'a CatalogEntry) -> Evaluator<'a> {
    Evaluator::with_plan_cache(
        &entry.assembly,
        EvalOptions::default(),
        Arc::clone(catalog.plan_cache()),
    )
    .with_value_cache(Arc::clone(&entry.values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_parse_without_a_json_library() {
        let at = Instant::now();
        let (id, r) = parse_reply(
            r#"{"id":"17","ok":true,"result":{"pfail":1.25e-7,"reliability":0.999,"service":"app"}}"#,
            at,
        )
        .unwrap();
        assert_eq!((id, r.pfail, r.error), (17, Some(1.25e-7), None));
        let (id, r) = parse_reply(
            r#"{"error":{"kind":"overloaded","message":"full"},"id":"3","ok":false}"#,
            at,
        )
        .unwrap();
        assert_eq!(
            (id, r.pfail, r.error.as_deref()),
            (3, None, Some("overloaded"))
        );
        assert_eq!(json_num(r#"{"timed_out":4,"x":1}"#, "timed_out"), Some(4.0));
    }
}
