//! End-to-end smoke driver for the daemon, used by CI.
//!
//! Boots the *real* CLI binary (`archrel serve`), then drives it the way a
//! fleet of clients would: checks that predicts with distinct bindings on
//! one parameterised model compile one shared program (`stats` reports
//! `programs_compiled == 1`), loads a model, hot-swaps it, fires concurrent
//! queries from several connections, throws a hostile oversized request at
//! it, and finally asks it to shut down — asserting a typed response at
//! every step and a clean exit (status 0) at the end.
//!
//! Usage: `serve_smoke [path-to-archrel-binary]` (default
//! `target/release/archrel`, overridable via `ARCHREL_BIN`).

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use archrel_serve::client::{Client, Response};
use archrel_serve::json::JsonValue;

const MODEL_V1: &str = "blackbox net(x) { pfail: 0.02; } \
    service app() { state work { call net(x: 1); } \
    start -> work : 1; work -> end : 1; }";

// Same structure, different failure probability: the hot-swap keeps every
// compiled plan warm.
const MODEL_V2: &str = "blackbox net(x) { pfail: 0.05; } \
    service app() { state work { call net(x: 1); } \
    start -> work : 1; work -> end : 1; }";

// A parameterised model: request-scoped evaluators over its catalog entry
// share one compiled program, which the second request compiles.
const MODEL_PARAM: &str = "blackbox net(x) { pfail_per_unit: 1e-4; } \
    service app(n) { state work { call net(x: n); } \
    start -> work : 1; work -> end : 1; }";

fn fail(step: &str, detail: impl std::fmt::Display, daemon: &mut Child) -> ! {
    let _ = daemon.kill();
    eprintln!("serve_smoke FAILED at {step}: {detail}");
    std::process::exit(1);
}

fn expect_ok(step: &str, value: &JsonValue, daemon: &mut Child) -> JsonValue {
    match Response::from_json(value) {
        Some(r) if r.ok => r.result.unwrap_or(JsonValue::Null),
        Some(r) => fail(
            step,
            format!(
                "typed error {:?}: {:?}",
                r.error_kind.as_deref().unwrap_or("?"),
                r.error_message.as_deref().unwrap_or("")
            ),
            daemon,
        ),
        None => fail(step, "response is not an envelope", daemon),
    }
}

fn field_f64(result: &JsonValue, key: &str) -> Option<f64> {
    result.as_object()?.get(key)?.as_f64()
}

fn main() {
    let binary = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::var("ARCHREL_BIN").unwrap_or_else(|_| "target/release/archrel".to_string())
    });

    let mut daemon = Command::new(&binary)
        .args(["serve", "--tcp", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("serve_smoke: cannot spawn `{binary}`: {e}");
            std::process::exit(1);
        });

    // The daemon announces its bound address on stdout: `listening on tcp://...`.
    let stdout = daemon.stdout.take().expect("daemon stdout is piped");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.strip_prefix("listening on tcp://") {
                    break rest.trim().to_string();
                }
            }
            _ => fail(
                "boot",
                "daemon exited before announcing its address",
                &mut daemon,
            ),
        }
    };
    // Drain the rest of stdout in the background so the daemon never blocks
    // on a full pipe.
    std::thread::spawn(move || for _ in lines {});

    let mut admin = Client::connect_tcp(&addr).unwrap_or_else(|e| fail("connect", e, &mut daemon));

    // Shared programs, gated by a counter: predicts with distinct bindings
    // on one parameterised entry compile its program exactly once.
    let load = format!(
        r#"{{"id":"l0","op":"load","name":"p","source":{}}}"#,
        archrel_serve::json::write(&JsonValue::String(MODEL_PARAM.to_string()))
    );
    let v = admin
        .roundtrip(&load)
        .unwrap_or_else(|e| fail("load-param", e, &mut daemon));
    expect_ok("load-param", &v, &mut daemon);
    for n in [8, 16, 32, 64] {
        let line = format!(
            r#"{{"id":"n{n}","op":"predict","assembly":"p","service":"app","bindings":{{"n":{n}}}}}"#
        );
        let v = admin
            .roundtrip(&line)
            .unwrap_or_else(|e| fail("predict-param", e, &mut daemon));
        expect_ok("predict-param", &v, &mut daemon);
    }
    let v = admin
        .roundtrip(r#"{"id":"s0","op":"stats"}"#)
        .unwrap_or_else(|e| fail("stats", e, &mut daemon));
    let compiled = field_f64(&expect_ok("stats", &v, &mut daemon), "programs_compiled");
    if compiled != Some(1.0) {
        fail(
            "shared-program",
            format!("4 distinct predicts on one entry compiled {compiled:?} programs, want 1"),
            &mut daemon,
        );
    }

    // Load, predict, hot-swap, predict again: the number must move.
    let load = format!(
        r#"{{"id":"l1","op":"load","name":"m","source":{}}}"#,
        archrel_serve::json::write(&JsonValue::String(MODEL_V1.to_string()))
    );
    let v = admin
        .roundtrip(&load)
        .unwrap_or_else(|e| fail("load", e, &mut daemon));
    expect_ok("load", &v, &mut daemon);

    let predict = r#"{"id":"p1","op":"predict","assembly":"m","service":"app"}"#;
    let v = admin
        .roundtrip(predict)
        .unwrap_or_else(|e| fail("predict", e, &mut daemon));
    let before = field_f64(&expect_ok("predict", &v, &mut daemon), "pfail")
        .unwrap_or_else(|| fail("predict", "no pfail in result", &mut daemon));

    let swap = format!(
        r#"{{"id":"l2","op":"load","name":"m","source":{}}}"#,
        archrel_serve::json::write(&JsonValue::String(MODEL_V2.to_string()))
    );
    let v = admin
        .roundtrip(&swap)
        .unwrap_or_else(|e| fail("swap", e, &mut daemon));
    let swapped = expect_ok("swap", &v, &mut daemon);
    if swapped.as_object().and_then(|o| o.get("swapped")) != Some(&JsonValue::Bool(true)) {
        fail(
            "swap",
            "second load did not report swapped=true",
            &mut daemon,
        );
    }
    let v = admin
        .roundtrip(predict)
        .unwrap_or_else(|e| fail("predict-after-swap", e, &mut daemon));
    let after = field_f64(&expect_ok("predict-after-swap", &v, &mut daemon), "pfail")
        .unwrap_or_else(|| fail("predict-after-swap", "no pfail", &mut daemon));
    if after <= before {
        fail(
            "hot-swap",
            format!("pfail did not increase across swap: {before} -> {after}"),
            &mut daemon,
        );
    }

    // Concurrent clients: 4 connections x 25 queries each, all must agree
    // bitwise with the admin connection's answer.
    let reference = after.to_bits();
    let workers: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Result<(), String> {
                let mut client =
                    Client::connect_tcp(&addr).map_err(|e| format!("client {c}: {e}"))?;
                for i in 0..25 {
                    let line = format!(
                        r#"{{"id":"c{c}-{i}","op":"predict","assembly":"m","service":"app"}}"#
                    );
                    let v = client
                        .roundtrip(&line)
                        .map_err(|e| format!("client {c}: {e}"))?;
                    let r = Response::from_json(&v)
                        .filter(|r| r.ok)
                        .ok_or_else(|| format!("client {c}: query {i} failed: {v:?}"))?;
                    let p = r
                        .result
                        .as_ref()
                        .and_then(|res| field_f64(res, "pfail"))
                        .ok_or_else(|| format!("client {c}: no pfail"))?;
                    if p.to_bits() != reference {
                        return Err(format!(
                            "client {c}: pfail {p} is not bitwise-identical to {after}"
                        ));
                    }
                }
                Ok(())
            })
        })
        .collect();
    for worker in workers {
        match worker.join() {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => fail("concurrent", msg, &mut daemon),
            Err(_) => fail("concurrent", "client thread panicked", &mut daemon),
        }
    }

    // Hostile input: a structurally oversized request must draw a typed
    // error and leave the connection (and daemon) alive.
    let mut hostile =
        String::from(r#"{"id":"evil","op":"predict","assembly":"m","service":"app","bindings":{"#);
    for i in 0..5000 {
        if i > 0 {
            hostile.push(',');
        }
        hostile.push_str(&format!(r#""p{i}":0.5"#));
    }
    hostile.push_str("}}");
    let v = admin
        .roundtrip(&hostile)
        .unwrap_or_else(|e| fail("hostile", e, &mut daemon));
    match Response::from_json(&v) {
        Some(r) if !r.ok && r.error_kind.as_deref() == Some("oversized") => {}
        _ => fail(
            "hostile",
            format!("expected typed oversized error, got {v:?}"),
            &mut daemon,
        ),
    }
    // ...and the same connection still answers.
    let v = admin
        .roundtrip(r#"{"id":"alive","op":"ping"}"#)
        .unwrap_or_else(|e| fail("post-hostile ping", e, &mut daemon));
    expect_ok("post-hostile ping", &v, &mut daemon);

    // Clean shutdown: the op is acknowledged, then the process exits 0.
    let v = admin
        .roundtrip(r#"{"id":"bye","op":"shutdown"}"#)
        .unwrap_or_else(|e| fail("shutdown", e, &mut daemon));
    expect_ok("shutdown", &v, &mut daemon);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match daemon.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(None) => fail(
                "exit",
                "daemon did not exit within 30s of shutdown",
                &mut daemon,
            ),
            Err(e) => fail("exit", e, &mut daemon),
        }
    };
    if !status.success() {
        eprintln!("serve_smoke FAILED: daemon exited with {status}");
        std::process::exit(1);
    }
    println!("serve_smoke: ok (one shared program per entry, hot-swap, 4x25 concurrent bitwise-identical queries, hostile oversized request, clean shutdown)");
}
