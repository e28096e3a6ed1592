//! Bench: warm start through the segmented store versus reading the
//! wholesale v3 JSON exchange document.
//!
//! The store's promise is O(touched-artifacts) warm start: opening is
//! one checksummed index scan (no JSON parsing of values), and values
//! decode lazily on first hit. The strawman is what `decisive store
//! import` does with a v3 document: read it, parse it and audit every
//! entry (`CacheStore::from_value_audited`) before the first artefact can
//! be served. This harness builds the same 10k-artifact corpus in both
//! formats and measures, for each, the time from cold process to "the
//! first hundred artefacts are served".
//!
//! It prints one `BENCH_store {...}` JSON line; `warm_ok` (the store
//! beats the JSON load by the acceptance criterion's ≥5× at ≥10k
//! artifacts, with every entry intact) is the CI gate, and the
//! checked-in `BENCH_store.json` holds the first recorded baseline.
//!
//! Plain `fn main` (`harness = false`), same as the other benches:
//! minima over repeated runs are stable enough without Criterion.

use std::time::Instant;

use decisive::engine::{ArtifactKind, CacheStore, Fingerprint, SegmentStore, StoreOptions};
use decisive::federation::{json, Value};
use decisive::obs::Telemetry;

/// Corpus size — the acceptance criterion's floor.
const ARTIFACTS: u64 = 10_000;
/// Artefacts a warm run actually touches before its first result.
const TOUCHED: u64 = 100;
/// Repetitions; the minimum filters filesystem-cache and allocator noise.
const ITERS: usize = 5;

/// A plausible FMEA-row-shaped payload: eight floats and a label.
fn row(i: u64) -> Vec<f64> {
    (0..8).map(|j| (i * 8 + j) as f64 * 0.125).collect()
}

fn key(i: u64) -> Fingerprint {
    Fingerprint(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn main() {
    let dir = std::env::temp_dir().join(format!("decisive-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let json_file = dir.join("snapshot.json");
    let store_dir = dir.join("store");

    // One corpus, persisted both ways.
    let mut cache = CacheStore::new();
    for i in 0..ARTIFACTS {
        cache.put(ArtifactKind::GraphRow, key(i), "bench", &row(i)).expect("seed put");
    }
    std::fs::write(&json_file, json::to_string(&cache.to_value())).expect("json write");
    {
        let (log, _) = SegmentStore::open(&store_dir, StoreOptions::default(), Telemetry::noop())
            .expect("store open");
        let imported = log.import(&cache).expect("store import");
        assert_eq!(imported as u64, ARTIFACTS);
    }

    // Strawman: read, parse and audit the whole document, then read
    // TOUCHED entries.
    let mut json_ms = f64::INFINITY;
    for _ in 0..ITERS {
        let t = Instant::now();
        let text = std::fs::read_to_string(&json_file).expect("json read");
        let value = json::parse(&text).expect("json parse");
        let (loaded, report) = CacheStore::from_value_audited(&value);
        assert!(report.is_clean(), "clean corpus audits clean");
        for i in 0..TOUCHED {
            assert!(
                loaded.get::<Vec<f64>>(ArtifactKind::GraphRow, key(i)).is_some(),
                "json path serves artefact {i}"
            );
        }
        json_ms = json_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(loaded.len() as u64, ARTIFACTS);
    }

    // New path: index scan, then decode only the TOUCHED entries.
    let mut store_ms = f64::INFINITY;
    let mut recovered = 0usize;
    for _ in 0..ITERS {
        let t = Instant::now();
        let (log, recovery) =
            SegmentStore::open(&store_dir, StoreOptions::default(), Telemetry::noop())
                .expect("store warm open");
        assert!(recovery.is_clean(), "clean corpus recovers clean");
        for i in 0..TOUCHED {
            assert!(
                log.get(ArtifactKind::GraphRow, key(i)).is_some(),
                "store path serves artefact {i}"
            );
        }
        store_ms = store_ms.min(t.elapsed().as_secs_f64() * 1e3);
        recovered = log.len();
    }
    assert_eq!(recovered as u64, ARTIFACTS, "no committed artefact lost");

    let speedup = json_ms / store_ms;
    let summary = Value::record([
        ("artifacts", Value::Int(ARTIFACTS as i64)),
        ("touched", Value::Int(TOUCHED as i64)),
        ("json_load_ms", Value::Real(json_ms)),
        ("store_open_ms", Value::Real(store_ms)),
        ("speedup_json_over_store", Value::Real(speedup)),
        ("recovered", Value::Int(recovered as i64)),
        ("warm_ok", Value::Bool(speedup >= 5.0 && recovered as u64 == ARTIFACTS)),
    ]);
    println!("BENCH_store {}", json::to_string(&summary));
    std::fs::remove_dir_all(&dir).ok();
}
