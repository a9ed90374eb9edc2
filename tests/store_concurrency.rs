//! Concurrency suite for the persistent artifact store.
//!
//! Many workers — threads in one process, and separate processes — share
//! one artifact directory. The contract (ISSUE 7): publication is
//! rename-atomic, so a concurrent reader sees either no archive or a
//! complete, valid archive, **never** a partial one. Operationally:
//! `validate_rejects` stays at zero no matter how writers and readers
//! interleave, and every archive a reader does see evaluates bitwise
//! like the freshly compiled plan.
//!
//! 1. two writer threads (distinct `ArtifactStore` instances over the
//!    same directory) republish a working set while reader threads spin
//!    on `load_plan` — with the writers also deleting and re-publishing
//!    files, so renames happen continuously under the readers;
//! 2. a spawned child process (this test binary re-invoked, the
//!    env-gated `child_publisher_helper` below) publishes the working
//!    set while the parent polls read-only until every archive is
//!    served, proving cross-process sharing needs no locks.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use archrel::markov::{Dtmc, DtmcBuilder, SolvePlan};
use archrel::store::{ArtifactMode, ArtifactStore};

const END: u32 = 1000;
const FAIL: u32 = 1001;

/// Env var carrying the shared directory to the spawned child process.
const CHILD_DIR_ENV: &str = "ARCHREL_STORE_CONCURRENCY_CHILD_DIR";

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "archrel-store-conc-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A linear absorbing chain of `k` transient states; `k` varies the
/// structure, so each working-set entry has a distinct fingerprint. The
/// last state's self-loop fills the tape's self-loop section too.
fn chain(k: usize) -> Dtmc<u32> {
    let mut b = DtmcBuilder::new();
    for i in 0..k as u32 {
        if i + 1 < k as u32 {
            b = b.transition(i, i + 1, 0.7).transition(i, END, 0.2);
        } else {
            b = b.transition(i, i, 0.1).transition(i, END, 0.8);
        }
        b = b.transition(i, FAIL, 0.1);
    }
    b.build().expect("stochastic rows")
}

/// The shared working set: plan + its parameter vector + the reference
/// result bits a loaded archive must reproduce exactly.
struct WorkItem {
    plan: SolvePlan,
    params: Vec<f64>,
    expected_bits: u64,
}

fn working_set() -> Vec<WorkItem> {
    (2..10)
        .map(|k| {
            let chain = chain(k);
            let plan = SolvePlan::compile(&chain, &0u32, &END)
                .expect("compiles")
                .expect("acyclic chain");
            let params = plan.parameters(&chain).expect("same structure");
            let expected_bits = plan.evaluate(&params).expect("evaluates").to_bits();
            WorkItem {
                plan,
                params,
                expected_bits,
            }
        })
        .collect()
}

/// Two writer threads continuously delete + republish the working set
/// over one directory while two readers spin on it. No torn reads: every
/// successful load evaluates bitwise, and no reader ever counts a
/// validation rejection.
#[test]
fn concurrent_writers_and_readers_never_tear() {
    let dir = scratch_dir("threads");
    let items = Arc::new(working_set());
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for w in 0..2 {
            let dir = dir.clone();
            let items = Arc::clone(&items);
            let done = &done;
            s.spawn(move || {
                let store = ArtifactStore::open(&dir, ArtifactMode::ReadWrite).unwrap();
                for round in 0..60 {
                    for item in items.iter() {
                        // Alternate deletion between the writers so the
                        // published file keeps churning through renames.
                        if round % 2 == w {
                            let _ = std::fs::remove_file(store.plan_path(item.plan.fingerprint()));
                        }
                        store.store_plan(&item.plan).expect("publish never errors");
                    }
                }
                done.store(true, Ordering::Relaxed);
            });
        }

        for _ in 0..2 {
            let dir = dir.clone();
            let items = Arc::clone(&items);
            let done = &done;
            s.spawn(move || {
                let store = ArtifactStore::open(&dir, ArtifactMode::Read).unwrap();
                let mut loads = 0u64;
                while !done.load(Ordering::Relaxed) || loads == 0 {
                    for item in items.iter() {
                        if let Some(plan) = store.load_plan(item.plan.fingerprint()) {
                            loads += 1;
                            assert_eq!(plan.fingerprint(), item.plan.fingerprint());
                            assert_eq!(
                                plan.evaluate(&item.params).unwrap().to_bits(),
                                item.expected_bits,
                                "archived plan diverged from fresh compile"
                            );
                        }
                    }
                }
                let stats = store.stats();
                assert_eq!(
                    stats.validate_rejects, 0,
                    "reader observed a torn archive: {stats:?}"
                );
                assert!(stats.hits >= loads);
            });
        }
    });

    std::fs::remove_dir_all(&dir).ok();
}

/// Child-process half of `child_process_shares_the_directory`: publishes
/// the working set into the directory named by the gate env var. A no-op
/// in ordinary test runs (the variable is absent).
#[test]
fn child_publisher_helper() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else {
        return;
    };
    let store = ArtifactStore::open(dir, ArtifactMode::ReadWrite).expect("child opens store");
    for item in working_set() {
        store.store_plan(&item.plan).expect("child publishes");
    }
}

/// A separate process (this binary re-run, filtered to the helper above)
/// publishes while the parent polls read-only: the parent eventually
/// serves every archive, bitwise-correct, with zero rejections — no
/// cross-process coordination beyond rename atomicity.
#[test]
fn child_process_shares_the_directory() {
    let dir = scratch_dir("child");
    let items = working_set();
    let exe = std::env::current_exe().expect("test binary path");

    let mut child = std::process::Command::new(exe)
        .args(["--exact", "child_publisher_helper"])
        .env(CHILD_DIR_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child publisher");

    // Poll read-only while the child writes; every fingerprint must be
    // served eventually, and nothing partial may ever be observed.
    let store = ArtifactStore::open(&dir, ArtifactMode::Read).expect("parent opens store");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut served = vec![false; items.len()];
    while served.iter().any(|s| !s) {
        assert!(
            std::time::Instant::now() < deadline,
            "child never published the full working set"
        );
        for (i, item) in items.iter().enumerate() {
            if served[i] {
                continue;
            }
            if let Some(plan) = store.load_plan(item.plan.fingerprint()) {
                assert_eq!(
                    plan.evaluate(&item.params).unwrap().to_bits(),
                    item.expected_bits,
                    "cross-process archive diverged from fresh compile"
                );
                served[i] = true;
            }
        }
        std::thread::yield_now();
    }
    let stats = store.stats();
    assert_eq!(
        stats.validate_rejects, 0,
        "parent observed a torn archive: {stats:?}"
    );

    let status = child.wait().expect("child exit status");
    assert!(status.success(), "child publisher failed: {status}");

    std::fs::remove_dir_all(&dir).ok();
}
