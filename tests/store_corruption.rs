//! Corruption and robustness suite for the persistent artifact store.
//!
//! A store directory is a trust boundary: any process (or any bit rot)
//! may have written the files under it. The contract this suite pins
//! (ISSUE 7): a corrupt, truncated, stale, or hostile archive is always
//! a **typed** [`StoreError`] — never a panic, never UB, never a wrong
//! number — and the evaluation pipeline falls back to fresh compilation,
//! counting the rejection in `CacheStats::store_validate_rejects`.
//!
//! Fixtures, each derived from one valid published plan archive:
//!
//! 1. truncation at every prefix length → `Truncated` / `LengthMismatch`
//!    (and checksum/magic errors for cuts the framing can't see);
//! 2. single-bit flips over every byte of the archive body → an error
//!    from the typed family, with `ChecksumMismatch` for payload flips;
//! 3. a crafted wrong-format-version file whose checksum is *valid* →
//!    `BadVersion` (the version gate fires before payload parsing);
//! 4. a valid archive renamed to another fingerprint's path →
//!    `KeyMismatch` (the key gate binds file name to content).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use archrel::core::{EvalOptions, Evaluator, PlanCache, SolverPolicy};
use archrel::expr::{Bindings, Expr};
use archrel::markov::{Dtmc, DtmcBuilder, SolvePlan};
use archrel::store::{archive_checksum, ArtifactMode, ArtifactStore, StoreError, FORMAT_VERSION};

const END: u32 = 1000;
const FAIL: u32 = 1001;

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "archrel-store-corrupt-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A small acyclic absorbing chain whose tape has target, self-loop and
/// successor slots, so every section of the archive is non-empty.
fn sample_chain() -> Dtmc<u32> {
    DtmcBuilder::new()
        .transition(0u32, 1u32, 0.55)
        .transition(0u32, END, 0.35)
        .transition(0u32, FAIL, 0.10)
        .transition(1u32, 1u32, 0.25)
        .transition(1u32, 2u32, 0.40)
        .transition(1u32, END, 0.35)
        .transition(2u32, 2u32, 0.15)
        .transition(2u32, END, 0.60)
        .transition(2u32, FAIL, 0.25)
        .build()
        .expect("stochastic rows")
}

/// Publishes the sample plan into a fresh store directory and returns
/// the store, the plan, and the bytes of the published archive.
fn published_fixture(tag: &str) -> (Arc<ArtifactStore>, SolvePlan, Vec<u8>) {
    let store =
        Arc::new(ArtifactStore::open(scratch_dir(tag), ArtifactMode::ReadWrite).expect("open"));
    let chain = sample_chain();
    let plan = SolvePlan::compile(&chain, &0u32, &END)
        .expect("compiles")
        .expect("acyclic chain");
    assert!(store.store_plan(&plan).expect("publishes"));
    let bytes = std::fs::read(store.plan_path(plan.fingerprint())).expect("published file");
    (store, plan, bytes)
}

fn cleanup(store: &ArtifactStore) {
    std::fs::remove_dir_all(store.dir()).ok();
}

/// Every truncation of the archive is a typed framing error — and no
/// prefix, however short, panics or parses.
#[test]
fn every_truncation_is_a_typed_error() {
    let (store, plan, bytes) = published_fixture("truncate");
    let path = store.plan_path(plan.fingerprint());
    for len in 0..bytes.len() {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let err = store.read_plan(plan.fingerprint()).expect_err("truncated");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::LengthMismatch { .. }
                    | StoreError::BadMagic
                    | StoreError::ChecksumMismatch { .. }
                    // The zero-byte prefix cannot even be mapped; that
                    // surfaces as the (typed) I/O variant.
                    | StoreError::Io(_)
            ),
            "truncation to {len} bytes gave unexpected error: {err}"
        );
    }
    cleanup(&store);
}

/// Single-bit flips over every byte: always a typed error, and for any
/// flip past the header's self-describing fields the checksum catches it.
#[test]
fn every_single_bit_flip_is_a_typed_error() {
    let (store, plan, bytes) = published_fixture("bitflip");
    let path = store.plan_path(plan.fingerprint());
    for byte in 0..bytes.len() {
        // One flip per byte keeps the suite fast; the bit index varies
        // with position so low and high bits both get coverage.
        let bit = byte % 8;
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 1 << bit;
        std::fs::write(&path, &corrupt).unwrap();
        let err = store
            .read_plan(plan.fingerprint())
            .expect_err("bit flip must not parse");
        // Flips inside the checksum field itself, or in header fields
        // checked before the checksum, surface as their own variants;
        // everything from the meta block onward is a checksum mismatch.
        if byte >= 48 {
            assert!(
                matches!(err, StoreError::ChecksumMismatch { .. }),
                "payload flip at byte {byte} bit {bit} gave {err}"
            );
        }
    }
    cleanup(&store);
}

/// A file from "format version 2" with a perfectly valid checksum is
/// rejected by the version gate — the reader never guesses at layouts.
#[test]
fn wrong_format_version_is_rejected_before_parsing() {
    let (store, plan, bytes) = published_fixture("version");
    let path = store.plan_path(plan.fingerprint());
    let mut future = bytes;
    future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let sum = archive_checksum(&future);
    future[40..48].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &future).unwrap();
    match store.read_plan(plan.fingerprint()) {
        Err(StoreError::BadVersion { found }) => assert_eq!(found, FORMAT_VERSION + 1),
        other => panic!("expected BadVersion, got {other:?}"),
    }
    cleanup(&store);
}

/// A valid archive filed under another fingerprint's name is rejected by
/// the key gate: the expected fingerprint is cross-checked against the
/// one sealed into the header.
#[test]
fn fingerprint_mismatch_is_rejected() {
    let (store, plan, bytes) = published_fixture("keymismatch");
    let wrong_fp = plan.fingerprint() ^ 0xdead_beef;
    std::fs::write(store.plan_path(wrong_fp), &bytes).unwrap();
    match store.read_plan(wrong_fp) {
        Err(StoreError::KeyMismatch { expected, found }) => {
            assert_eq!(expected, wrong_fp);
            assert_eq!(found, plan.fingerprint());
        }
        other => panic!("expected KeyMismatch, got {other:?}"),
    }
    cleanup(&store);
}

/// A 64-state sequential flow with a demand parameter: acyclic and in the
/// default solver's sparse regime, so its second evaluation on one
/// evaluator compiles (and publishes) a plan.
fn long_flow_assembly() -> archrel::model::Assembly {
    use archrel::model::{
        catalog, AssemblyBuilder, CompositeService, FlowBuilder, FlowState, Service, ServiceCall,
        StateId,
    };
    let name = |i: usize| StateId::named(format!("s{i}"));
    let mut flow = FlowBuilder::new().transition(StateId::Start, name(0), Expr::one());
    for i in 0..64 {
        flow = flow.state(FlowState::new(
            name(i),
            vec![ServiceCall::new("cpu").with_param(catalog::CPU_PARAM, Expr::param("n"))],
        ));
        let next = if i == 63 { StateId::End } else { name(i + 1) };
        flow = flow.transition(name(i), next, Expr::one());
    }
    AssemblyBuilder::new()
        .service(catalog::cpu_resource("cpu", 1e9, 1e-9))
        .service(Service::Composite(
            CompositeService::new("app", vec!["n".into()], flow.build().unwrap()).unwrap(),
        ))
        .build()
        .unwrap()
}

/// End-to-end fallback: an evaluator pointed at a store whose archive is
/// corrupt still answers correctly (fresh compile), counts the rejection
/// in `CacheStats::store_validate_rejects`, and the `load_plan` soft
/// path returns `None` rather than erroring.
#[test]
fn corrupt_archive_falls_back_to_fresh_compilation() {
    let assembly = long_flow_assembly();
    let points: Vec<Bindings> = [1e6, 2e6, 3e6]
        .iter()
        .map(|&n| Bindings::new().with("n", n))
        .collect();
    let opts = EvalOptions {
        solver: SolverPolicy::Auto,
        ..EvalOptions::default()
    };
    // One evaluator answers every point: the second one compiles the
    // program and its pinned plan.
    let run = |store: Option<Arc<ArtifactStore>>| {
        let eval = Evaluator::with_plan_cache(
            &assembly,
            opts,
            Arc::new(PlanCache::new().with_artifact_store(store)),
        );
        let bits: Vec<u64> = points
            .iter()
            .map(|env| {
                eval.failure_probability(&"app".into(), env)
                    .unwrap()
                    .value()
                    .to_bits()
            })
            .collect();
        (bits, eval.cache_stats())
    };

    // Reference result with no store at all.
    let (reference, stats) = run(None);
    assert_eq!(stats.plan_misses, 1, "{stats:?}");

    // Warm a store, then corrupt every published archive in place.
    let dir = scratch_dir("fallback");
    let warm = Arc::new(ArtifactStore::open(&dir, ArtifactMode::ReadWrite).unwrap());
    let (warmed, _) = run(Some(Arc::clone(&warm)));
    assert_eq!(warmed, reference);
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        corrupted += 1;
    }
    assert!(corrupted > 0, "warm run published nothing");

    // A cold reader over the corrupted store: same answer, rejections
    // counted, soft path silent.
    let read = Arc::new(ArtifactStore::open(&dir, ArtifactMode::Read).unwrap());
    let (got, stats) = run(Some(Arc::clone(&read)));
    assert_eq!(got, reference);
    assert!(
        stats.store_validate_rejects > 0,
        "corrupt archives must be counted: {stats:?}"
    );
    assert_eq!(stats.store_hits, 0, "nothing valid to hit: {stats:?}");

    std::fs::remove_dir_all(&dir).ok();
}
