//! The daemon: listeners, admission control, worker pool, execution.
//!
//! ## Threading model
//!
//! One thread per accepted connection reads and decodes request lines
//! (cheap, bounded work — a malformed or oversized line is answered with a
//! typed error right there, without consuming an admission slot). Decoded
//! *evaluation* requests (`predict` / `sweep` / `sensitivity` / `stream`)
//! are stamped with a deadline-bearing [`CancelToken`] and submitted to a
//! bounded admission queue drained by a fixed worker pool; control
//! requests (`ping` / `load` / `unload` / `list` / `stats` / `shutdown`)
//! execute inline on the connection thread. A full queue rejects with a
//! typed `overloaded` error immediately — the daemon never buffers
//! unbounded work, so it can be slow but it cannot hang or OOM.
//!
//! ## Deadlines
//!
//! Each evaluation request carries `CancelToken::with_deadline(deadline)`
//! stamped at *admission*: time spent queued counts against the budget. A
//! worker re-checks the token when it dequeues the job (a request that
//! aged out in the queue is answered `timeout` without evaluating) and the
//! core engine checks it cooperatively during evaluation, so a
//! longer-than-budget evaluation aborts mid-flight with the same typed
//! `timeout`.
//!
//! ## Shutdown
//!
//! The `shutdown` op (or [`ServerHandle::shutdown`]) flips one flag:
//! listeners stop accepting, connection readers drain out, workers finish
//! the queued jobs and exit, and [`Server::run`] joins everything before
//! returning its summary — a clean exit, never an abort with work in
//! flight.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use archrel_core::sensitivity::binding_sensitivities_with_workers;
use archrel_core::{
    BatchEvaluator, CacheStats, CancelToken, CoreError, EvalOptions, Evaluator, FleetRefresh,
    PlanCache, Query,
};
use archrel_store::ArtifactStore;

use crate::catalog::Catalog;
use crate::json::JsonValue;
use crate::protocol::{self, DecodeCaps, Envelope, ErrorKind, ProtocolError, Request};

/// `ARCHREL_SERVE_WORKERS`: evaluation worker threads (positive integer).
pub const ENV_WORKERS: &str = "ARCHREL_SERVE_WORKERS";
/// `ARCHREL_SERVE_QUEUE_DEPTH`: admission queue capacity (positive integer).
pub const ENV_QUEUE_DEPTH: &str = "ARCHREL_SERVE_QUEUE_DEPTH";
/// `ARCHREL_SERVE_DEADLINE_MS`: per-request deadline in milliseconds
/// (positive integer).
pub const ENV_DEADLINE_MS: &str = "ARCHREL_SERVE_DEADLINE_MS";
/// `ARCHREL_SERVE_MAX_LINE_BYTES`: request line byte cap (positive integer).
pub const ENV_MAX_LINE_BYTES: &str = "ARCHREL_SERVE_MAX_LINE_BYTES";

/// How often blocking loops (accept, line reads, queue waits) re-check the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Daemon configuration; start from `default()`, override, then
/// [`ServeConfig::apply_env`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on.
    pub unix: Option<PathBuf>,
    /// TCP address to listen on (e.g. `127.0.0.1:0`).
    pub tcp: Option<String>,
    /// Evaluation worker threads.
    pub workers: usize,
    /// Admission queue capacity; a full queue rejects with `overloaded`.
    pub queue_depth: usize,
    /// Per-request deadline, stamped at admission.
    pub deadline: Duration,
    /// Request line byte cap; longer lines are answered `line_too_long`.
    pub max_line_bytes: usize,
    /// Protocol decode caps (collections, strings, nesting, steps).
    pub caps: DecodeCaps,
    /// Engine options used for every catalog evaluation.
    pub eval_options: EvalOptions,
    /// Artifact directory the shared plan cache boots read-through on
    /// (opened read-only; a missing directory means a cold boot).
    pub artifact_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            unix: None,
            tcp: None,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            queue_depth: 256,
            deadline: Duration::from_millis(10_000),
            max_line_bytes: 4 << 20,
            caps: DecodeCaps::default(),
            eval_options: EvalOptions::default(),
            artifact_dir: None,
        }
    }
}

impl ServeConfig {
    /// Applies the `ARCHREL_SERVE_*` environment overrides.
    ///
    /// # Errors
    ///
    /// A human-readable message when a set variable is not a positive
    /// integer — misconfiguration is a hard error, matching the other
    /// `ARCHREL_*` variables.
    pub fn apply_env(mut self) -> Result<Self, String> {
        fn positive(var: &str) -> Result<Option<u64>, String> {
            match std::env::var(var) {
                Ok(raw) if !raw.is_empty() => raw
                    .parse::<u64>()
                    .ok()
                    .filter(|&v| v > 0)
                    .map(Some)
                    .ok_or_else(|| format!("{var} must be a positive integer, got {raw:?}")),
                _ => Ok(None),
            }
        }
        if let Some(v) = positive(ENV_WORKERS)? {
            self.workers = v as usize;
        }
        if let Some(v) = positive(ENV_QUEUE_DEPTH)? {
            self.queue_depth = v as usize;
        }
        if let Some(v) = positive(ENV_DEADLINE_MS)? {
            self.deadline = Duration::from_millis(v);
        }
        if let Some(v) = positive(ENV_MAX_LINE_BYTES)? {
            self.max_line_bytes = v as usize;
        }
        Ok(self)
    }
}

/// Counters reported by [`Server::run`] after a clean shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Requests answered (success or typed error), across all connections.
    pub requests: u64,
    /// Requests rejected with `overloaded`.
    pub rejected_overload: u64,
    /// Requests answered with `timeout`.
    pub timed_out: u64,
}

/// One admitted evaluation job.
struct Job {
    id: Option<String>,
    request: Request,
    writer: SharedWriter,
    token: CancelToken,
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Bounded admission queue: `try_submit` never blocks (a full queue is a
/// typed rejection), `pop` blocks with shutdown-aware timeouts.
struct Admission {
    jobs: Mutex<VecDeque<Box<Job>>>,
    ready: Condvar,
    depth: usize,
}

impl Admission {
    fn new(depth: usize) -> Self {
        Admission {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues, or returns the job back when the queue is at capacity.
    fn try_submit(&self, job: Box<Job>) -> Result<(), Box<Job>> {
        let mut jobs = self.jobs.lock().expect("admission lock poisoned");
        if jobs.len() >= self.depth {
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the next job; `None` once shutdown is set and the queue has
    /// drained.
    fn pop(&self, shutdown: &AtomicBool) -> Option<Box<Job>> {
        let mut jobs = self.jobs.lock().expect("admission lock poisoned");
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(jobs, POLL_INTERVAL)
                .expect("admission lock poisoned");
            jobs = guard;
        }
    }

    fn len(&self) -> usize {
        self.jobs.lock().expect("admission lock poisoned").len()
    }
}

/// State shared by listeners, connection threads, and workers.
struct Shared {
    catalog: Catalog,
    config: ServeConfig,
    queue: Admission,
    shutdown: AtomicBool,
    /// Per-request evaluator-local stats, merged without the shared plan
    /// cache (which is folded in exactly once at reporting time — the
    /// aggregation contract behind `Evaluator::local_stats`).
    local_stats: Mutex<CacheStats>,
    requests: AtomicU64,
    rejected_overload: AtomicU64,
    timed_out: AtomicU64,
    connections: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Shared {
    fn merge_local(&self, stats: &CacheStats) {
        self.local_stats
            .lock()
            .expect("stats lock poisoned")
            .merge(stats);
    }

    fn note_response(&self, error: Option<ErrorKind>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match error {
            Some(ErrorKind::Overloaded) => {
                self.rejected_overload.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::Timeout) => {
                self.timed_out.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// A shutdown trigger detached from the server (for tests and embedders).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests a clean shutdown, as the `shutdown` op would.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.queue.ready.notify_all();
    }
}

/// The bound daemon, ready to [`run`](Server::run).
pub struct Server {
    shared: Arc<Shared>,
    unix: Option<UnixListener>,
    tcp: Option<TcpListener>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Opens the shared plan cache (read-through on the artifact directory
    /// when configured) and binds the configured listeners. At least one of
    /// `unix` / `tcp` must be set.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when no listener is configured; otherwise the bind
    /// error. A pre-existing file at the Unix socket path is replaced.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        if config.unix.is_none() && config.tcp.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs a --unix path and/or a --tcp address",
            ));
        }
        let store: Option<Arc<ArtifactStore>> = config
            .artifact_dir
            .as_ref()
            .and_then(ArtifactStore::open_read_only);
        let plans = Arc::new(PlanCache::new().with_artifact_store(store));
        let catalog = Catalog::new(plans);
        let unix = match &config.unix {
            Some(path) => {
                // Replace a stale socket from a previous run.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let tcp = match &config.tcp {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let unix_path = config.unix.clone();
        let shared = Arc::new(Shared {
            queue: Admission::new(config.queue_depth),
            catalog,
            config,
            shutdown: AtomicBool::new(false),
            local_stats: Mutex::new(CacheStats::default()),
            requests: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            connections: Mutex::new(Vec::new()),
        });
        Ok(Server {
            shared,
            unix,
            tcp,
            unix_path,
        })
    }

    /// The catalog, for pre-loading assemblies before [`Server::run`].
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// The bound TCP address, when a TCP listener is configured (useful
    /// with port 0).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The bound Unix socket path, when configured.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// A detached shutdown trigger.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until shutdown, then drains and joins every thread.
    ///
    /// # Errors
    ///
    /// Propagates listener-thread spawn failures; per-connection I/O
    /// errors only terminate their connection.
    pub fn run(self) -> io::Result<RunSummary> {
        let Server {
            shared,
            unix,
            tcp,
            unix_path,
        } = self;
        let mut workers = Vec::new();
        for _ in 0..shared.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let mut acceptors = Vec::new();
        if let Some(listener) = unix {
            let shared = Arc::clone(&shared);
            acceptors.push(std::thread::spawn(move || {
                accept_loop(&shared, || listener.accept().map(|(s, _)| s), unix_split);
            }));
        }
        if let Some(listener) = tcp {
            let shared = Arc::clone(&shared);
            acceptors.push(std::thread::spawn(move || {
                accept_loop(&shared, || listener.accept().map(|(s, _)| s), tcp_split);
            }));
        }
        for acceptor in acceptors {
            let _ = acceptor.join();
        }
        for worker in workers {
            let _ = worker.join();
        }
        let connections = std::mem::take(
            &mut *shared
                .connections
                .lock()
                .expect("connections lock poisoned"),
        );
        for conn in connections {
            let _ = conn.join();
        }
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(RunSummary {
            requests: shared.requests.load(Ordering::Relaxed),
            rejected_overload: shared.rejected_overload.load(Ordering::Relaxed),
            timed_out: shared.timed_out.load(Ordering::Relaxed),
        })
    }
}

fn unix_split(stream: UnixStream) -> io::Result<(UnixStream, Box<dyn Write + Send>)> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let writer = stream.try_clone()?;
    Ok((stream, Box::new(writer)))
}

fn tcp_split(stream: TcpStream) -> io::Result<(TcpStream, Box<dyn Write + Send>)> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let writer = stream.try_clone()?;
    Ok((stream, Box::new(writer)))
}

/// Polls a nonblocking listener until shutdown, handing accepted streams to
/// connection threads.
fn accept_loop<S, A, F>(shared: &Arc<Shared>, mut accept: A, split: F)
where
    S: Read + Send + 'static,
    A: FnMut() -> io::Result<S>,
    F: Fn(S) -> io::Result<(S, Box<dyn Write + Send>)> + Copy + Send + 'static,
{
    while !shared.shutdown.load(Ordering::Relaxed) {
        match accept() {
            Ok(stream) => {
                let shared_conn = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    if let Ok((reader, writer)) = split(stream) {
                        handle_connection(&shared_conn, reader, writer);
                    }
                });
                shared
                    .connections
                    .lock()
                    .expect("connections lock poisoned")
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Outcome of one bounded line read.
enum LineOutcome {
    /// A complete line within the cap (without the newline).
    Line(String),
    /// The line exceeded the cap; the rest of it was drained and discarded.
    TooLong,
    /// EOF or shutdown: the connection is done.
    Closed,
}

/// Reads one `\n`-terminated line, never buffering more than `max` bytes:
/// once a line outgrows the cap the remainder is consumed *without being
/// stored*, so a hostile client streaming an endless line costs a bounded
/// buffer and one typed error, not memory.
fn read_bounded_line<R: BufRead>(reader: &mut R, max: usize, shutdown: &AtomicBool) -> LineOutcome {
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return LineOutcome::Closed;
        }
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => return LineOutcome::Closed,
        };
        if available.is_empty() {
            return LineOutcome::Closed;
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !discarding && line.len() + pos <= max {
                    line.extend_from_slice(&available[..pos]);
                    reader.consume(pos + 1);
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return LineOutcome::Line(String::from_utf8_lossy(&line).into_owned());
                }
                reader.consume(pos + 1);
                return LineOutcome::TooLong;
            }
            None => {
                let len = available.len();
                if !discarding {
                    if line.len() + len > max {
                        discarding = true;
                        line = Vec::new();
                    } else {
                        line.extend_from_slice(available);
                    }
                }
                reader.consume(len);
            }
        }
    }
}

fn write_line(writer: &SharedWriter, line: &str) {
    let mut guard = writer.lock().expect("writer lock poisoned");
    // A vanished client is its own problem; the daemon just moves on.
    let _ = writeln!(guard, "{line}");
    let _ = guard.flush();
}

fn respond_ok(shared: &Shared, writer: &SharedWriter, id: &Option<String>, result: JsonValue) {
    // Count before writing: a client that reads the response and asks for
    // `stats` must see this request included.
    shared.note_response(None);
    write_line(writer, &protocol::ok_line(id, result));
}

fn respond_err(shared: &Shared, writer: &SharedWriter, id: &Option<String>, error: &ProtocolError) {
    shared.note_response(Some(error.kind));
    write_line(writer, &protocol::error_line(id, error));
}

fn handle_connection<R: Read>(shared: &Arc<Shared>, reader: R, writer: Box<dyn Write + Send>) {
    let writer: SharedWriter = Arc::new(Mutex::new(writer));
    let mut reader = BufReader::new(reader);
    loop {
        let line =
            match read_bounded_line(&mut reader, shared.config.max_line_bytes, &shared.shutdown) {
                LineOutcome::Closed => return,
                LineOutcome::TooLong => {
                    respond_err(
                        shared,
                        &writer,
                        &None,
                        &ProtocolError::new(
                            ErrorKind::LineTooLong,
                            format!(
                                "request line exceeds the cap of {} bytes",
                                shared.config.max_line_bytes
                            ),
                        ),
                    );
                    continue;
                }
                LineOutcome::Line(line) => line,
            };
        if line.trim().is_empty() {
            continue;
        }
        let envelope = match protocol::decode_line(&line, &shared.config.caps) {
            Ok(envelope) => envelope,
            Err((id, error)) => {
                respond_err(shared, &writer, &id, &error);
                continue;
            }
        };
        dispatch(shared, &writer, envelope);
    }
}

/// Routes one decoded request: control ops inline, evaluation ops through
/// the admission queue.
fn dispatch(shared: &Arc<Shared>, writer: &SharedWriter, envelope: Envelope) {
    let Envelope { id, request } = envelope;
    match request {
        Request::Ping
        | Request::List
        | Request::Stats
        | Request::Shutdown
        | Request::Load { .. }
        | Request::Unload { .. } => {
            match execute_control(shared, &request) {
                Ok(result) => respond_ok(shared, writer, &id, result),
                Err(error) => respond_err(shared, writer, &id, &error),
            }
            if matches!(request, Request::Shutdown) {
                shared.shutdown.store(true, Ordering::Relaxed);
                shared.queue.ready.notify_all();
            }
        }
        eval_request => {
            if shared.shutdown.load(Ordering::Relaxed) {
                respond_err(
                    shared,
                    writer,
                    &id,
                    &ProtocolError::new(ErrorKind::ShuttingDown, "daemon is shutting down"),
                );
                return;
            }
            let job = Box::new(Job {
                id,
                request: eval_request,
                writer: Arc::clone(writer),
                token: CancelToken::with_deadline(shared.config.deadline),
            });
            if let Err(rejected) = shared.queue.try_submit(job) {
                respond_err(
                    shared,
                    &rejected.writer,
                    &rejected.id,
                    &ProtocolError::new(
                        ErrorKind::Overloaded,
                        format!(
                            "admission queue is full ({} requests); retry later",
                            shared.config.queue_depth
                        ),
                    ),
                );
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop(&shared.shutdown) {
        // A job that aged out while queued is answered without evaluating.
        if let Err(e) = job.token.check() {
            respond_err(shared, &job.writer, &job.id, &eval_error(e));
            continue;
        }
        match execute_eval(shared, &job.request, &job.token) {
            Ok(result) => respond_ok(shared, &job.writer, &job.id, result),
            Err(error) => respond_err(shared, &job.writer, &job.id, &error),
        }
    }
}

/// Maps a core evaluation error to its protocol kind: cancellation and
/// deadline expiry are `timeout`, everything else is `eval`.
fn eval_error(e: CoreError) -> ProtocolError {
    let kind = match &e {
        CoreError::DeadlineExceeded { .. } | CoreError::Cancelled => ErrorKind::Timeout,
        _ => ErrorKind::Eval,
    };
    ProtocolError::new(kind, e.to_string())
}

fn execute_control(shared: &Shared, request: &Request) -> Result<JsonValue, ProtocolError> {
    match request {
        Request::Ping => Ok(object([("pong", JsonValue::Bool(true))])),
        Request::Shutdown => Ok(object([("stopping", JsonValue::Bool(true))])),
        Request::Load { name, source } => {
            let (entry, swapped) = shared
                .catalog
                .load(name, source)
                .map_err(|e| ProtocolError::new(ErrorKind::BadRequest, e.to_string()))?;
            Ok(object([
                ("name", JsonValue::String(entry.name.clone())),
                ("services", JsonValue::Number(entry.assembly.len() as f64)),
                ("version", JsonValue::Number(entry.version as f64)),
                ("swapped", JsonValue::Bool(swapped)),
            ]))
        }
        Request::Unload { name } => Ok(object([
            ("name", JsonValue::String(name.clone())),
            ("removed", JsonValue::Bool(shared.catalog.unload(name))),
        ])),
        Request::List => {
            let rows = shared
                .catalog
                .list()
                .into_iter()
                .map(|(name, version, services)| {
                    object([
                        ("name", JsonValue::String(name)),
                        ("version", JsonValue::Number(version as f64)),
                        ("services", JsonValue::Number(services as f64)),
                    ])
                })
                .collect();
            Ok(object([("assemblies", JsonValue::Array(rows))]))
        }
        Request::Stats => {
            // Local per-request stats plus the shared plan cache, folded in
            // exactly once — concurrent evaluators never double-count.
            let mut stats = *shared.local_stats.lock().expect("stats lock poisoned");
            stats.merge(&shared.catalog.plan_cache().stats());
            Ok(object([
                ("requests", num(shared.requests.load(Ordering::Relaxed))),
                (
                    "rejected_overload",
                    num(shared.rejected_overload.load(Ordering::Relaxed)),
                ),
                ("timed_out", num(shared.timed_out.load(Ordering::Relaxed))),
                ("queue_depth", num(shared.queue.len() as u64)),
                ("assemblies", num(shared.catalog.len() as u64)),
                ("value_cache_hits", num(stats.hits)),
                ("value_cache_misses", num(stats.misses)),
                ("plan_hits", num(stats.plan_hits)),
                ("plan_misses", num(stats.plan_misses)),
                ("rank1_solves", num(stats.rank1_solves)),
                ("full_solves", num(stats.full_solves)),
                ("memo_hits", num(stats.memo_hits)),
                ("memo_misses", num(stats.memo_misses)),
                ("pin_hits", num(stats.pin_hits)),
                ("programs_compiled", num(stats.programs_compiled)),
                ("store_hits", num(stats.store_hits)),
                ("store_misses", num(stats.store_misses)),
            ]))
        }
        other => Err(ProtocolError::new(
            ErrorKind::BadRequest,
            format!("not a control op: {other:?}"),
        )),
    }
}

fn execute_eval(
    shared: &Shared,
    request: &Request,
    token: &CancelToken,
) -> Result<JsonValue, ProtocolError> {
    match request {
        Request::Predict {
            assembly,
            service,
            bindings,
        } => {
            let entry = resolve(shared, assembly)?;
            let evaluator = evaluator_for(shared, &entry, token);
            let p = evaluator
                .failure_probability(&service.as_str().into(), bindings)
                .map_err(eval_error);
            shared.merge_local(&evaluator.local_stats());
            let p = p?;
            Ok(object([
                ("service", JsonValue::String(service.clone())),
                ("pfail", JsonValue::Number(p.value())),
                ("reliability", JsonValue::Number(p.complement().value())),
            ]))
        }
        Request::Sweep {
            assembly,
            service,
            param,
            from,
            to,
            steps,
            bindings,
        } => {
            let entry = resolve(shared, assembly)?;
            let evaluator = evaluator_for(shared, &entry, token);
            let service_id = archrel_model::ServiceId::from(service.as_str());
            // Only the swept parameter moves: pin everything outside its
            // dependency cone.
            evaluator.declare_varied(&service_id, std::slice::from_ref(param));
            let queries: Vec<Query> = (0..*steps)
                .map(|i| {
                    let t = i as f64 / (*steps - 1) as f64;
                    let value = from + t * (to - from);
                    let mut env = bindings.clone();
                    env.insert(param, value);
                    Query::new(service_id.clone(), env)
                })
                .collect();
            let batch = BatchEvaluator::from_evaluator(evaluator)
                .with_workers(shared.config.workers.max(1));
            let results = batch.evaluate_all(&queries);
            shared.merge_local(&batch.evaluator().local_stats());
            let mut points = Vec::with_capacity(*steps);
            for (query, result) in queries.iter().zip(results) {
                let p = result.map_err(eval_error)?;
                points.push(object([
                    (
                        "value",
                        JsonValue::Number(query.env.get(param).unwrap_or(f64::NAN)),
                    ),
                    ("pfail", JsonValue::Number(p.value())),
                ]));
            }
            Ok(object([
                ("param", JsonValue::String(param.clone())),
                ("points", JsonValue::Array(points)),
            ]))
        }
        Request::Sensitivity {
            assembly,
            service,
            bindings,
        } => {
            let entry = resolve(shared, assembly)?;
            let evaluator = evaluator_for(shared, &entry, token);
            let rows = binding_sensitivities_with_workers(
                &evaluator,
                &service.as_str().into(),
                bindings,
                shared.config.workers.max(1),
            )
            .map_err(eval_error);
            shared.merge_local(&evaluator.local_stats());
            let rows = rows?
                .into_iter()
                .map(|s| {
                    object([
                        ("param", JsonValue::String(s.name)),
                        ("at", JsonValue::Number(s.at)),
                        ("derivative", JsonValue::Number(s.derivative)),
                        ("elasticity", JsonValue::Number(s.elasticity)),
                    ])
                })
                .collect();
            Ok(object([("sensitivities", JsonValue::Array(rows))]))
        }
        Request::Stream {
            assembly,
            service,
            bindings,
            deltas,
        } => {
            let entry = resolve(shared, assembly)?;
            let service_id = archrel_model::ServiceId::from(service.as_str());
            // Varied set = the distinct delta names, registered up front so
            // the stream routes without per-delta annotations.
            let mut varied: Vec<String> = deltas.iter().map(|(name, _)| name.clone()).collect();
            varied.sort();
            varied.dedup();
            let mut fleet = FleetRefresh::with_plan_cache(
                &entry.assembly,
                shared.config.eval_options,
                Arc::clone(shared.catalog.plan_cache()),
            );
            let outcome = fleet
                .register(service_id.clone(), bindings.clone(), &varied)
                .and_then(|_| {
                    token.check()?;
                    fleet.apply(deltas)
                })
                .map_err(eval_error);
            shared.merge_local(&fleet.evaluator().local_stats());
            let stats = outcome?;
            let p = fleet
                .failure(&service_id)
                .expect("registered service has a failure probability");
            Ok(object([
                ("service", JsonValue::String(service.clone())),
                ("pfail", JsonValue::Number(p.value())),
                ("reliability", JsonValue::Number(p.complement().value())),
                ("deltas_routed", num(stats.deltas_routed as u64)),
                ("services_refreshed", num(stats.services_refreshed as u64)),
                ("staged_rows", num(stats.staged_rows as u64)),
                ("fallback_solves", num(stats.fallback_solves as u64)),
            ]))
        }
        other => Err(ProtocolError::new(
            ErrorKind::BadRequest,
            format!("not an evaluation op: {other:?}"),
        )),
    }
}

fn resolve(
    shared: &Shared,
    name: &str,
) -> Result<Arc<crate::catalog::CatalogEntry>, ProtocolError> {
    shared.catalog.get(name).ok_or_else(|| {
        ProtocolError::new(
            ErrorKind::NotFound,
            format!("assembly `{name}` is not loaded"),
        )
    })
}

/// A request-scoped evaluator over a catalog entry: shared plan cache
/// (structure-keyed, survives swaps), the entry's shared value cache and
/// compiled programs (content-keyed, fresh per load), and the request's
/// deadline token.
fn evaluator_for<'a>(
    shared: &Shared,
    entry: &'a crate::catalog::CatalogEntry,
    token: &CancelToken,
) -> Evaluator<'a> {
    Evaluator::with_plan_cache(
        &entry.assembly,
        shared.config.eval_options,
        Arc::clone(shared.catalog.plan_cache()),
    )
    .with_value_cache(Arc::clone(&entry.values))
    .with_cancellation(token.clone())
}

fn object<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(value: u64) -> JsonValue {
    JsonValue::Number(value as f64)
}
