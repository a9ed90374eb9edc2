//! In-process daemon integration tests: boot a real [`Server`] on a Unix
//! socket, drive it with real clients, and pin the protocol-visible
//! behavior — concurrent bitwise-identical answers, hot-swap semantics,
//! one compiled program per catalog entry, typed timeout and overload
//! errors, and clean shutdown.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use archrel_serve::client::{Client, Response};
use archrel_serve::json::JsonValue;
use archrel_serve::server::{RunSummary, ServeConfig, Server};

const MODEL_V1: &str = r#"
    blackbox net(x) { pfail: 0.02; }
    service app() {
      state work { call net(x: 1); }
      start -> work : 1;
      work -> end : 1;
    }
"#;

const MODEL_V2: &str = r#"
    blackbox net(x) { pfail: 0.05; }
    service app() {
      state work { call net(x: 1); }
      start -> work : 1;
      work -> end : 1;
    }
"#;

/// A unique socket path per test, cleaned up by the daemon on exit.
fn socket_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "archrel-serve-test-{}-{tag}-{n}.sock",
        std::process::id()
    ))
}

/// Boots a daemon on a fresh Unix socket; returns the socket path and the
/// thread running it.
fn boot(mut config: ServeConfig, tag: &str) -> (PathBuf, std::thread::JoinHandle<RunSummary>) {
    let path = socket_path(tag);
    config.unix = Some(path.clone());
    let server = Server::bind(config).expect("bind test daemon");
    let runner = std::thread::spawn(move || server.run().expect("daemon run"));
    // The socket exists once bind returned; connecting immediately is fine.
    (path, runner)
}

fn response(value: &JsonValue) -> Response {
    Response::from_json(value).expect("line is a response envelope")
}

fn load_line(name: &str, source: &str) -> String {
    format!(
        r#"{{"op":"load","name":"{name}","source":{}}}"#,
        archrel_serve::json::write(&JsonValue::String(source.to_string()))
    )
}

fn pfail(result: &JsonValue) -> f64 {
    result
        .as_object()
        .and_then(|o| o.get("pfail"))
        .and_then(JsonValue::as_f64)
        .expect("result carries pfail")
}

#[test]
fn concurrent_clients_get_bitwise_identical_answers() {
    let (path, runner) = boot(ServeConfig::default(), "concurrent");
    let mut admin = Client::connect_unix(&path).unwrap();
    let r = response(&admin.roundtrip(&load_line("m", MODEL_V1)).unwrap());
    assert!(r.ok, "load failed: {:?}", r.error_message);
    let reference = pfail(
        &response(
            &admin
                .roundtrip(r#"{"op":"predict","assembly":"m","service":"app"}"#)
                .unwrap(),
        )
        .result
        .unwrap(),
    )
    .to_bits();

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_unix(&path).unwrap();
                for _ in 0..20 {
                    let v = client
                        .roundtrip(r#"{"op":"predict","assembly":"m","service":"app"}"#)
                        .unwrap();
                    let r = response(&v);
                    assert!(r.ok, "predict failed: {:?}", r.error_message);
                    assert_eq!(pfail(&r.result.unwrap()).to_bits(), reference);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let bye = response(&admin.roundtrip(r#"{"op":"shutdown"}"#).unwrap());
    assert!(bye.ok);
    let summary = runner.join().unwrap();
    // admin: load + predict + shutdown, clients: 4 x 20 predicts.
    assert_eq!(summary.requests, 3 + 80);
    assert_eq!(summary.rejected_overload, 0);
    assert_eq!(summary.timed_out, 0);
}

#[test]
fn hot_swap_changes_answers_and_unload_forgets() {
    let (path, runner) = boot(ServeConfig::default(), "hotswap");
    let mut client = Client::connect_unix(&path).unwrap();
    assert!(response(&client.roundtrip(&load_line("m", MODEL_V1)).unwrap()).ok);
    let before = pfail(
        &response(
            &client
                .roundtrip(r#"{"op":"predict","assembly":"m","service":"app"}"#)
                .unwrap(),
        )
        .result
        .unwrap(),
    );

    let swap = response(&client.roundtrip(&load_line("m", MODEL_V2)).unwrap());
    assert!(swap.ok);
    let swapped = swap
        .result
        .as_ref()
        .and_then(|r| r.as_object())
        .and_then(|o| o.get("swapped"))
        .cloned();
    assert_eq!(swapped, Some(JsonValue::Bool(true)));
    let after = pfail(
        &response(
            &client
                .roundtrip(r#"{"op":"predict","assembly":"m","service":"app"}"#)
                .unwrap(),
        )
        .result
        .unwrap(),
    );
    assert!(
        after > before,
        "pfail should rise across the swap: {before} -> {after}"
    );

    // A failed swap keeps the current version serving.
    let bad = response(
        &client
            .roundtrip(&load_line("m", "service {{{ nope"))
            .unwrap(),
    );
    assert!(!bad.ok);
    assert_eq!(bad.error_kind.as_deref(), Some("bad_request"));
    let still = pfail(
        &response(
            &client
                .roundtrip(r#"{"op":"predict","assembly":"m","service":"app"}"#)
                .unwrap(),
        )
        .result
        .unwrap(),
    );
    assert_eq!(still.to_bits(), after.to_bits());

    assert!(response(&client.roundtrip(r#"{"op":"unload","name":"m"}"#).unwrap()).ok);
    let gone = response(
        &client
            .roundtrip(r#"{"op":"predict","assembly":"m","service":"app"}"#)
            .unwrap(),
    );
    assert!(!gone.ok);
    assert_eq!(gone.error_kind.as_deref(), Some("not_found"));

    assert!(response(&client.roundtrip(r#"{"op":"shutdown"}"#).unwrap()).ok);
    runner.join().unwrap();
}

#[test]
fn expired_deadline_yields_typed_timeout_error() {
    // A 1 ns budget is over before the worker can possibly dequeue the
    // job: the request must come back as a typed `timeout`, not hang.
    let config = ServeConfig {
        deadline: Duration::from_nanos(1),
        ..ServeConfig::default()
    };
    let (path, runner) = boot(config, "deadline");
    let mut client = Client::connect_unix(&path).unwrap();
    assert!(response(&client.roundtrip(&load_line("m", MODEL_V1)).unwrap()).ok);
    let v = client
        .roundtrip(r#"{"id":"slow","op":"predict","assembly":"m","service":"app"}"#)
        .unwrap();
    let r = response(&v);
    assert!(!r.ok);
    assert_eq!(r.error_kind.as_deref(), Some("timeout"));
    assert!(
        r.error_message
            .as_deref()
            .unwrap_or("")
            .contains("deadline"),
        "message should name the deadline: {:?}",
        r.error_message
    );
    // Control ops are not deadline-bound; the connection still serves.
    assert!(response(&client.roundtrip(r#"{"op":"ping"}"#).unwrap()).ok);
    assert!(response(&client.roundtrip(r#"{"op":"shutdown"}"#).unwrap()).ok);
    let summary = runner.join().unwrap();
    assert_eq!(summary.timed_out, 1);
}

#[test]
fn full_admission_queue_rejects_with_typed_overload() {
    // One worker, a one-slot queue, and a long-running sweep occupying the
    // worker: flooding predicts must draw typed `overloaded` rejections
    // (never a hang), and the flood must not corrupt later requests.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        deadline: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let (path, runner) = boot(config, "overload");
    let mut client = Client::connect_unix(&path).unwrap();
    assert!(response(&client.roundtrip(&load_line("m", MODEL_V1)).unwrap()).ok);

    // Fire-and-forget: a big sweep to occupy the worker, then a burst of
    // predicts, reading nothing until all are written.
    let sweep = r#"{"id":"sweep","op":"sweep","assembly":"m","service":"app","param":"x","from":1,"to":2,"steps":8192}"#;
    client.send(sweep).unwrap();
    let burst = 8;
    for i in 0..burst {
        client
            .send(&format!(
                r#"{{"id":"b{i}","op":"predict","assembly":"m","service":"app"}}"#
            ))
            .unwrap();
    }
    let mut overloaded = 0;
    let mut succeeded = 0;
    // The sweep's response carries 65536 points — far past the default
    // client-side decode limits, so relax them for this connection.
    let relaxed = archrel_serve::json::DecodeLimits {
        max_collection_entries: 1 << 20,
        ..archrel_serve::json::DecodeLimits::default()
    };
    for _ in 0..burst + 1 {
        let line = client.recv_line().unwrap();
        let v = archrel_serve::json::parse(&line, &relaxed).unwrap();
        let r = response(&v);
        if r.ok {
            succeeded += 1;
        } else {
            assert_eq!(r.error_kind.as_deref(), Some("overloaded"));
            overloaded += 1;
        }
    }
    assert!(
        overloaded > 0,
        "a {burst}-request burst into a 1-slot queue behind an 8192-step \
         sweep should overflow (got {succeeded} successes)"
    );
    // The daemon is still healthy after the flood.
    assert!(response(&client.roundtrip(r#"{"op":"ping"}"#).unwrap()).ok);
    assert!(response(&client.roundtrip(r#"{"op":"shutdown"}"#).unwrap()).ok);
    let summary = runner.join().unwrap();
    assert_eq!(summary.rejected_overload, overloaded);
}

#[test]
fn stats_reflect_shared_plan_cache_once() {
    use archrel_core::SolverPolicy;
    let config = ServeConfig {
        eval_options: archrel_core::EvalOptions {
            solver: SolverPolicy::Compiled,
            ..archrel_core::EvalOptions::default()
        },
        ..ServeConfig::default()
    };
    let (path, runner) = boot(config, "stats");
    let mut client = Client::connect_unix(&path).unwrap();
    assert!(response(&client.roundtrip(&load_line("m", MODEL_V1)).unwrap()).ok);
    for _ in 0..3 {
        assert!(
            response(
                &client
                    .roundtrip(r#"{"op":"predict","assembly":"m","service":"app"}"#)
                    .unwrap()
            )
            .ok
        );
    }
    let stats = response(&client.roundtrip(r#"{"op":"stats"}"#).unwrap())
        .result
        .unwrap();
    let get = |key: &str| {
        stats
            .as_object()
            .and_then(|o| o.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("stats carries {key}"))
    };
    // Three identical predicts over one structure: the flow compiles once
    // (first request), then the entry's shared value cache answers the
    // repeats — if stats were double-counted across the per-request
    // evaluators the miss count would drift above the number of distinct
    // structures.
    assert_eq!(get("plan_misses") as u64, 1, "one structure, one compile");
    assert_eq!(
        get("value_cache_hits") as u64,
        2,
        "two repeats must hit the entry's shared memo"
    );
    // The stats op reads the counter before counting itself: load + 3
    // predicts have been answered at that point.
    assert_eq!(get("requests") as u64, 4);
    assert!(response(&client.roundtrip(r#"{"op":"shutdown"}"#).unwrap()).ok);
    runner.join().unwrap();
}

/// A parameterised model whose sub-service `mid` is called twice per
/// point with the same actuals, so a compiled program answers the second
/// call from its memo.
const PARAM_V1: &str = r#"
    blackbox net(x) { pfail_per_unit: 1e-4; }
    service mid(k) {
      state a { call net(x: k); }
      start -> a : 1;
      a -> end : 1;
    }
    service app(n) {
      state one { call mid(k: n); }
      state two { call mid(k: n); call net(x: 2 * n); }
      start -> one : 1;
      one -> two : 1;
      two -> end : 1;
    }
"#;

/// `PARAM_V1` with a different per-unit failure rate: same structure,
/// new numbers.
fn param_v2() -> String {
    PARAM_V1.replace("1e-4", "3e-4")
}

fn predict_n(client: &mut Client, n: f64) -> f64 {
    let r = response(
        &client
            .roundtrip(&format!(
                r#"{{"op":"predict","assembly":"m","service":"app","bindings":{{"n":{n}}}}}"#
            ))
            .unwrap(),
    );
    assert!(r.ok, "predict failed: {:?}", r.error_message);
    pfail(&r.result.unwrap())
}

fn stat(client: &mut Client, key: &str) -> u64 {
    let stats = response(&client.roundtrip(r#"{"op":"stats"}"#).unwrap())
        .result
        .unwrap();
    stats
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("stats carries {key}")) as u64
}

/// Request-scoped evaluators over one catalog entry share its compiled
/// program: the second request compiles it, and every counter lands in
/// exactly one request, so the daemon reports what one evaluator reports
/// for the same points.
#[test]
fn entry_program_compiles_once_and_counts_each_event_once() {
    use archrel_core::Evaluator;
    use archrel_expr::Bindings;

    let assembly = archrel_dsl::parse_assembly(PARAM_V1).unwrap();
    let app = "app".into();
    let single = Evaluator::new(&assembly);
    let (path, runner) = boot(ServeConfig::default(), "shared-program");
    let mut client = Client::connect_unix(&path).unwrap();
    assert!(response(&client.roundtrip(&load_line("m", PARAM_V1)).unwrap()).ok);
    for i in 1..=6 {
        let n = 16.0 * f64::from(i);
        let env = Bindings::new().with("n", n);
        single.failure_probability(&app, &env).unwrap();
        // A fresh evaluator's first point walks the recursive path.
        let want = Evaluator::new(&assembly)
            .failure_probability(&app, &env)
            .unwrap();
        assert_eq!(predict_n(&mut client, n).to_bits(), want.value().to_bits());
    }
    let want = single.local_stats();
    assert_eq!(want.programs_compiled, 1);
    assert!(want.memo_hits > 0, "{want:?}");
    assert_eq!(stat(&mut client, "programs_compiled"), 1);
    assert_eq!(stat(&mut client, "memo_hits"), want.memo_hits);
    assert_eq!(stat(&mut client, "memo_misses"), want.memo_misses);
    assert_eq!(stat(&mut client, "pin_hits"), want.pin_hits);
    assert_eq!(stat(&mut client, "value_cache_misses"), want.misses);
    assert!(response(&client.roundtrip(r#"{"op":"shutdown"}"#).unwrap()).ok);
    runner.join().unwrap();
}

/// A numeric-only reload starts from a fresh value cache, so no program
/// compiled against the old numbers answers for the new version.
#[test]
fn numeric_reload_compiles_a_fresh_program() {
    use archrel_core::Evaluator;
    use archrel_expr::Bindings;

    let v2 = param_v2();
    let old = archrel_dsl::parse_assembly(PARAM_V1).unwrap();
    let new = archrel_dsl::parse_assembly(&v2).unwrap();
    let app = "app".into();
    let (path, runner) = boot(ServeConfig::default(), "reload-program");
    let mut client = Client::connect_unix(&path).unwrap();
    let points = [8.0, 24.0, 40.0];
    for (source, assembly, compiled) in [(PARAM_V1, &old, 1), (v2.as_str(), &new, 2)] {
        assert!(response(&client.roundtrip(&load_line("m", source)).unwrap()).ok);
        for n in points {
            let want = Evaluator::new(assembly)
                .failure_probability(&app, &Bindings::new().with("n", n))
                .unwrap();
            assert_eq!(predict_n(&mut client, n).to_bits(), want.value().to_bits());
        }
        assert_eq!(stat(&mut client, "programs_compiled"), compiled);
    }
    // The numbers moved: the reloaded version's answers are not the old
    // program's.
    let at = Bindings::new().with("n", points[2]);
    let before = Evaluator::new(&old).failure_probability(&app, &at).unwrap();
    assert_ne!(
        predict_n(&mut client, points[2]).to_bits(),
        before.value().to_bits()
    );
    assert!(response(&client.roundtrip(r#"{"op":"shutdown"}"#).unwrap()).ok);
    runner.join().unwrap();
}

/// An 80-state sequential flow whose states cycle through four demand
/// parameters of a per-unit blackbox: acyclic and in the default solver's
/// sparse regime, so the daemon's sweep drivers run staged rows.
fn long_chain_model() -> String {
    let mut source =
        String::from("blackbox unit(x) { pfail_per_unit: 1e-5; }\nservice app(v0, v1, v2, v3) {\n");
    for i in 0..80 {
        source.push_str(&format!("  state s{i} {{ call unit(x: v{}); }}\n", i % 4));
    }
    source.push_str("  start -> s0 : 1;\n");
    for i in 1..80 {
        source.push_str(&format!("  s{} -> s{i} : 1;\n", i - 1));
    }
    source.push_str("  s79 -> end : 1;\n}\n");
    source
}

#[test]
fn sweep_and_sensitivity_on_a_long_chain_match_forced_sparse_bitwise() {
    use archrel_core::sensitivity::binding_sensitivities_with_workers;
    use archrel_core::{EvalOptions, Evaluator, SolverPolicy};
    use archrel_expr::Bindings;

    let source = long_chain_model();
    let env = Bindings::new()
        .with("v0", 1.0)
        .with("v1", 1.25)
        .with("v2", 1.5)
        .with("v3", 1.75);
    let bindings = r#"{"v0":1,"v1":1.25,"v2":1.5,"v3":1.75}"#;
    let assembly = archrel_dsl::parse_assembly(&source).unwrap();
    let sparse = Evaluator::with_options(
        &assembly,
        EvalOptions {
            solver: SolverPolicy::Sparse,
            ..EvalOptions::default()
        },
    );
    let app = "app".into();

    let (path, runner) = boot(ServeConfig::default(), "long-chain");
    let mut client = Client::connect_unix(&path).unwrap();
    assert!(response(&client.roundtrip(&load_line("m", &source)).unwrap()).ok);
    let field = |row: &JsonValue, key: &str| {
        row.as_object()
            .and_then(|o| o.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("row carries {key}"))
    };
    let array = |result: &JsonValue, key: &str| -> Vec<JsonValue> {
        match result.as_object().and_then(|o| o.get(key)) {
            Some(JsonValue::Array(rows)) => rows.clone(),
            other => panic!("result carries no {key} array: {other:?}"),
        }
    };

    let r = response(
        &client
            .roundtrip(&format!(
                r#"{{"op":"sensitivity","assembly":"m","service":"app","bindings":{bindings}}}"#
            ))
            .unwrap(),
    );
    assert!(r.ok, "sensitivity failed: {:?}", r.error_message);
    let rows = array(&r.result.unwrap(), "sensitivities");
    let want = binding_sensitivities_with_workers(&sparse, &app, &env, 1).unwrap();
    assert_eq!(rows.len(), want.len());
    for (row, want) in rows.iter().zip(&want) {
        assert_eq!(
            field(row, "derivative").to_bits(),
            want.derivative.to_bits()
        );
        assert_eq!(
            field(row, "elasticity").to_bits(),
            want.elasticity.to_bits()
        );
    }

    let (from, to, steps) = (0.5, 4.0, 9usize);
    let r = response(
        &client
            .roundtrip(&format!(
                r#"{{"op":"sweep","assembly":"m","service":"app","param":"v2","from":{from},"to":{to},"steps":{steps},"bindings":{bindings}}}"#
            ))
            .unwrap(),
    );
    assert!(r.ok, "sweep failed: {:?}", r.error_message);
    let points = array(&r.result.unwrap(), "points");
    assert_eq!(points.len(), steps);
    for (i, point) in points.iter().enumerate() {
        let t = i as f64 / (steps - 1) as f64;
        let mut at = env.clone();
        at.insert("v2", from + t * (to - from));
        let want = sparse.failure_probability(&app, &at).unwrap();
        assert_eq!(field(point, "pfail").to_bits(), want.value().to_bits());
    }

    assert!(response(&client.roundtrip(r#"{"op":"shutdown"}"#).unwrap()).ok);
    runner.join().unwrap();
}
