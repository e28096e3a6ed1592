//! Crash-safety properties of a persisted cache directory.
//!
//! Whatever state a killed run leaves behind — a mangled legacy
//! `cache.json` awaiting migration, stale temp files, a half-written
//! manifest swap — the next engine built over the directory must never
//! panic, must quarantine-and-recompute instead of analysing with bad
//! data, and must produce exactly the table a cold run produces.
//! (Frame-level faults inside the segmented store itself are covered by
//! `store_faults.rs`.)

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use decisive_engine::cache::{CACHE_FILE, QUARANTINE_FILE};
use decisive_engine::{Engine, MANIFEST_FILE, STORE_DIR};
use decisive_workload::sets::chain_model;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A process-unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "decisive-crash-{}-{}-{}",
            std::process::id(),
            tag,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("mkdir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One way a killed run can mangle a file on disk.
#[derive(Debug, Clone)]
enum Corruption {
    /// The file stops mid-write at a fraction of its length.
    Truncate(f64),
    /// A single bit flips (disk or transfer corruption).
    BitFlip(usize),
    /// The contents are replaced by unrelated bytes.
    Garbage(String),
}

impl Corruption {
    fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        match self {
            Corruption::Truncate(frac) => {
                let keep = ((bytes.len() as f64) * frac) as usize;
                bytes[..keep.min(bytes.len())].to_vec()
            }
            Corruption::BitFlip(seed) => {
                let mut out = bytes.to_vec();
                if !out.is_empty() {
                    let pos = seed % out.len();
                    out[pos] ^= 1 << (seed % 8);
                }
                out
            }
            Corruption::Garbage(junk) => junk.as_bytes().to_vec(),
        }
    }
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        (0.0..1.0f64).prop_map(Corruption::Truncate),
        (0usize..10_000).prop_map(Corruption::BitFlip),
        "[ -~]{0,64}".prop_map(Corruption::Garbage),
    ]
}

/// The table a cold run of the test model produces, and the v3 JSON
/// export of the cache that run filled.
fn cold_run() -> (decisive_core::fmea::FmeaTable, String) {
    let (model, top) = chain_model(4);
    let mut engine = Engine::builder().jobs(1).build().expect("engine builds");
    let table = engine.analyze_graph(&model, top).expect("seed analysis");
    (table, decisive_federation::json::to_string(&engine.cache().to_value()))
}

/// Seeds `dir` with a committed segmented store and returns the expected
/// analysis table.
fn seed_store(dir: &Path) -> decisive_core::fmea::FmeaTable {
    let (model, top) = chain_model(4);
    let mut engine = Engine::builder().jobs(1).cache_dir(dir).build().expect("engine builds");
    engine.analyze_graph(&model, top).expect("seed analysis")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corrupting a legacy `cache.json` arbitrarily never panics its
    /// migration into the store, and the recomputed analysis equals a
    /// cold run bit for bit (`verify_against_full` cross-checks against
    /// the from-scratch algorithm).
    #[test]
    fn corrupted_cache_recovers_to_cold_run(corruption in arb_corruption()) {
        let dir = TempDir::new("cache");
        let (expected, legacy) = cold_run();
        let corrupted = corruption.apply(legacy.as_bytes());
        std::fs::write(dir.path().join(CACHE_FILE), &corrupted).expect("corrupt");

        let (model, top) = chain_model(4);
        let mut engine = Engine::builder()
            .jobs(1)
            .cache_dir(dir.path())
            .build()
            .expect("corruption is never fatal");
        let table = engine.verify_against_full(&model, top).expect("recomputed run verifies");
        prop_assert_eq!(table, expected);
        // Prior state is never silently lost: the legacy bytes are kept,
        // retired after the import or quarantined when they did not parse.
        prop_assert!(!dir.path().join(CACHE_FILE).exists());
        let kept = [format!("{CACHE_FILE}.imported"), QUARANTINE_FILE.to_owned()]
            .iter()
            .filter_map(|name| std::fs::read(dir.path().join(name)).ok())
            .collect::<Vec<_>>();
        prop_assert_eq!(kept, vec![corrupted]);
    }

    /// Stale temp files from a killed write never shadow or destroy the
    /// committed store, and the next manifest swap still lands
    /// atomically.
    #[test]
    fn stale_temp_files_are_harmless(junk in "[ -~]{0,64}") {
        let dir = TempDir::new("tmp");
        let expected = seed_store(dir.path());
        let manifest_tmp = dir.path().join(STORE_DIR).join(format!("{MANIFEST_FILE}.tmp"));
        std::fs::write(dir.path().join(format!("{CACHE_FILE}.tmp")), &junk).expect("stale tmp");
        std::fs::write(&manifest_tmp, &junk).expect("stale tmp");

        let (model, top) = chain_model(4);
        let mut engine =
            Engine::builder().jobs(1).cache_dir(dir.path()).build().expect("open ignores temp files");
        prop_assert!(!engine.degraded_report().is_degraded(), "committed state is intact");
        let table = engine.analyze_graph(&model, top).expect("warm run");
        prop_assert_eq!(&table, &expected);
        prop_assert_eq!(engine.stats().phase("graph-rows").expect("phase").cache_misses, 0);
        let store = engine.shared_store().and_then(|s| s.durable()).expect("durable store");
        store.compact().expect("compaction swaps the manifest");
        prop_assert!(!manifest_tmp.exists(), "the swap leaves no temp file");
    }
}

/// An interrupted manifest swap (temp file written, rename never
/// happened) leaves the committed store fully intact — deterministic
/// end-to-end check of the kill-safety acceptance criterion.
#[test]
fn interrupted_save_preserves_previous_cache() {
    let dir = TempDir::new("interrupted");
    let expected = seed_store(dir.path());
    // Simulate a crash mid-swap: a half-written manifest temp file next
    // to the committed one.
    std::fs::write(
        dir.path().join(STORE_DIR).join(format!("{MANIFEST_FILE}.tmp")),
        "{\"version\":1,\"gener",
    )
    .expect("tmp");

    let (model, top) = chain_model(4);
    let mut engine = Engine::builder().jobs(1).cache_dir(dir.path()).build().expect("open");
    assert!(!engine.degraded_report().is_degraded());
    let table = engine.verify_against_full(&model, top).expect("verify");
    assert_eq!(table, expected);
    let warm = engine.stats().phase("graph-rows").expect("phase");
    assert_eq!(warm.cache_misses, 0, "warm run is served entirely from the surviving store");
}
