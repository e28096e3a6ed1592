//! The content-addressed artefact cache.
//!
//! Every derived analysis artefact (per-component FMEA rows, container
//! path facts, per-candidate injection rows, FTA subtree quantifications,
//! monitor sets) is stored under `(kind, fingerprint-of-its-inputs)`.
//! Content addressing makes invalidation automatic — an edited input hashes
//! to a new key and simply misses — so the explicit
//! [`CacheStore::invalidate_owner`] pass exists to *garbage-collect* stale
//! entries and to report how many keys a change dirtied.
//!
//! Persistence has one path: a durable [`SharedStore`] backed by the
//! crash-safe append-only log of [`crate::store`] (see
//! [`SharedStore::open_durable`]), which an engine built with a cache
//! directory layers its cache over. Every completed pass is durable
//! before it reports done, and a warm start costs O(touched artifacts).
//!
//! ## The v3 exchange format
//!
//! [`CacheStore::to_value`] and [`CacheStore::from_value_audited`] are the
//! codec of the portable v3 JSON document: `decisive store export` writes
//! it, and `decisive store import` as well as the one-time migration of a
//! legacy `cache.json` read it through [`SegmentStore::import_json`].
//! Every entry carries a fingerprint checksum and the header a whole-file
//! checksum; entries failing checksum or shape validation are skipped
//! and reported (a cache may always be cold, never wrong), and a legacy
//! file that does not parse at all is moved to [`QUARANTINE_FILE`].

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use decisive_federation::{json, serde_bridge, Value};
use decisive_obs::Telemetry;

use crate::error::{EngineError, Result};
use crate::fingerprint::{Fingerprint, Hasher};
use crate::store::{
    CompactionSummary, SegmentStore, StoreHealth, StoreOptions, StoreRecovery, MANIFEST_FILE,
    STORE_DIR,
};

/// Which analysis produced a cached artefact. Kinds namespace the key
/// space: the same input digest keys different artefacts per analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// Path-criticality facts of one container (`graph::container_facts`).
    GraphFacts,
    /// FMEA rows of one component on the SSAM graph path (Algorithm 1).
    GraphRow,
    /// FMEA row of one fault-injection candidate (the simulation path).
    InjectionRow,
    /// Quantified fault subtree of one container.
    FtaSubtree,
    /// Generated runtime monitor checks of one model.
    MonitorSet,
    /// Assessed risk log of one FMEA table (the HARA pass).
    RiskLog,
    /// Evaluated assurance-case report (the assurance pass).
    AssuranceCase,
    /// Completed per-model row of a fleet sweep (the fleet journal: the
    /// supervisor appends one on completion, `--resume` replays them).
    FleetRow,
    /// Per-trial metrics of one Monte-Carlo draw (the stochastic pass).
    McTrial,
    /// Ranked safety-pattern recommendation report of one FMEA table.
    Recommendation,
}

impl ArtifactKind {
    /// All kinds, for iteration.
    pub const ALL: [ArtifactKind; 10] = [
        ArtifactKind::GraphFacts,
        ArtifactKind::GraphRow,
        ArtifactKind::InjectionRow,
        ArtifactKind::FtaSubtree,
        ArtifactKind::MonitorSet,
        ArtifactKind::RiskLog,
        ArtifactKind::AssuranceCase,
        ArtifactKind::FleetRow,
        ArtifactKind::McTrial,
        ArtifactKind::Recommendation,
    ];

    /// The stable persistence tag (also the display name in `decisive
    /// passes`).
    pub fn tag(self) -> &'static str {
        match self {
            ArtifactKind::GraphFacts => "graph-facts",
            ArtifactKind::GraphRow => "graph-row",
            ArtifactKind::InjectionRow => "injection-row",
            ArtifactKind::FtaSubtree => "fta-subtree",
            ArtifactKind::MonitorSet => "monitor-set",
            ArtifactKind::RiskLog => "risk-log",
            ArtifactKind::AssuranceCase => "assurance-case",
            ArtifactKind::FleetRow => "fleet-row",
            ArtifactKind::McTrial => "mc-trial",
            ArtifactKind::Recommendation => "recommendation",
        }
    }

    pub(crate) fn parse(tag: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

/// One cached artefact: its serialized value plus the name of the model
/// element it was derived *for* (the invalidation handle).
#[derive(Debug, Clone, PartialEq)]
struct CacheEntry {
    owner: String,
    value: Value,
}

/// An in-memory artefact store keyed by `(kind, fingerprint)`, optionally
/// persisted to a cache directory.
///
/// A store may be layered over a [`SharedStore`]: its own entries then act
/// as a private *overlay* — lookups fall back to the shared layer on a
/// local miss, and stores write through to it — so many stores (one per
/// daemon session) deduplicate artefacts across sessions while keeping
/// invalidation and persistence local. See [`CacheStore::attach_shared`].
#[derive(Debug, Clone, Default)]
pub struct CacheStore {
    entries: HashMap<(ArtifactKind, Fingerprint), CacheEntry>,
    shared: Option<SharedStore>,
}

/// A thread-safe artefact store shared by many [`CacheStore`] overlays —
/// the cross-session dedup layer of the analysis daemon.
///
/// Content addressing is what makes sharing sound: a `(kind, fingerprint)`
/// key commits to *all* inputs of its artefact, so an entry computed by one
/// session is, by construction, the entry every other session would compute
/// for that key. The shared layer therefore only ever grows during a run
/// (overlays garbage-collect their private entries; the shared layer is
/// rebuilt from a persisted snapshot on daemon start).
///
/// A shared layer is either purely in-memory (the historical behaviour)
/// or *durable*: backed by the crash-safe segmented log of
/// [`crate::store`], opened with [`SharedStore::open_durable`]. A durable
/// layer writes every entry through to the log (committed on
/// [`SharedStore::sync_durable`]) and serves memory misses from the log's
/// index, so a restarted process pays O(touched artifacts) to get warm,
/// not O(history).
///
/// Clones are handles onto the same underlying map (and log).
#[derive(Debug, Clone, Default)]
pub struct SharedStore {
    entries: Arc<Mutex<HashMap<(ArtifactKind, Fingerprint), CacheEntry>>>,
    hits: Arc<AtomicU64>,
    log: Option<Arc<SegmentStore>>,
}

impl SharedStore {
    /// An empty, purely in-memory shared layer.
    pub fn new() -> Self {
        SharedStore::default()
    }

    /// Opens a shared layer durably persisted in `dir/store/` as a
    /// segmented append-only log, running crash recovery. On the *first*
    /// durable open of a directory still holding a legacy v3 `cache.json`,
    /// its verified entries are migrated into the log
    /// ([`SegmentStore::import_json`]) and the file is retired as
    /// `cache.json.imported` (recoverable any time via `decisive store
    /// import`); a legacy file that does not parse is moved to
    /// [`QUARANTINE_FILE`] instead, and the store starts cold.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on environment failures. Corrupt content
    /// never errors — it is quarantined and reported in the returned
    /// [`StoreRecovery`].
    pub fn open_durable(
        dir: impl AsRef<Path>,
        options: StoreOptions,
        telemetry: Telemetry,
    ) -> Result<(SharedStore, StoreRecovery)> {
        let dir = dir.as_ref();
        let store_dir = dir.join(STORE_DIR);
        let fresh = !store_dir.join(MANIFEST_FILE).exists();
        let (log, mut recovery) = SegmentStore::open(&store_dir, options, telemetry)?;
        let log = Arc::new(log);
        let legacy = dir.join(CACHE_FILE);
        if fresh && legacy.exists() {
            match log.import_json(&legacy) {
                Ok((migrated, report)) => {
                    recovery.migrated_entries = migrated;
                    recovery.quarantined_frames += report.quarantined;
                    recovery.notes.extend(report.reasons);
                    std::fs::rename(&legacy, dir.join(format!("{CACHE_FILE}.imported"))).ok();
                }
                Err(EngineError::Cache(reason)) => {
                    // Not even JSON: keep the bytes for post-mortem and
                    // start cold.
                    let quarantine = dir.join(QUARANTINE_FILE);
                    rotate_quarantine(&quarantine);
                    std::fs::rename(&legacy, &quarantine).ok();
                    recovery.quarantined_frames += 1;
                    recovery.notes.push(format!("{reason}; whole file moved to {QUARANTINE_FILE}"));
                }
                Err(e) => return Err(e),
            }
        }
        let shared = SharedStore { log: Some(log), ..SharedStore::default() };
        Ok((shared, recovery))
    }

    /// The segmented log backing this layer, when opened durable.
    pub fn durable(&self) -> Option<&Arc<SegmentStore>> {
        self.log.as_ref()
    }

    /// `true` when this layer persists through the segmented log.
    pub fn is_durable(&self) -> bool {
        self.log.is_some()
    }

    /// Fsyncs appends pending in the backing log — the commit point of
    /// incremental durability. A no-op for in-memory layers.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on fsync failure.
    pub fn sync_durable(&self) -> Result<()> {
        match &self.log {
            Some(log) => log.sync(),
            None => Ok(()),
        }
    }

    /// Health snapshot of the backing log, when durable.
    pub fn durable_health(&self) -> Option<StoreHealth> {
        self.log.as_ref().map(|log| log.health())
    }

    /// Compacts the backing log when its dead-frame thresholds are met.
    /// `Ok(None)` when not durable or below thresholds.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on I/O failure during the rewrite.
    pub fn maybe_compact(&self) -> Result<Option<CompactionSummary>> {
        match &self.log {
            Some(log) => log.maybe_compact(),
            None => Ok(None),
        }
    }

    /// Number of shared artefacts (union of the in-memory map and the
    /// backing log's live index).
    pub fn len(&self) -> usize {
        let mut keys: HashSet<(ArtifactKind, Fingerprint)> =
            self.entries.lock().expect("shared store poisoned").keys().copied().collect();
        if let Some(log) = &self.log {
            keys.extend(log.keys());
        }
        keys.len()
    }

    /// `true` when nothing is shared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys of one artefact kind across memory and the backing log.
    pub fn keys_of_kind(&self, kind: ArtifactKind) -> Vec<Fingerprint> {
        let mut keys: HashSet<Fingerprint> = self
            .entries
            .lock()
            .expect("shared store poisoned")
            .keys()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, f)| f)
            .collect();
        if let Some(log) = &self.log {
            keys.extend(log.keys_of_kind(kind));
        }
        keys.into_iter().collect()
    }

    /// How many lookups were served by this layer after missing the
    /// requesting overlay — the cross-session dedup win.
    pub fn shared_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn get_entry(&self, kind: ArtifactKind, key: Fingerprint) -> Option<CacheEntry> {
        if let Some(entry) =
            self.entries.lock().expect("shared store poisoned").get(&(kind, key)).cloned()
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(entry);
        }
        // Memory miss: read through the durable log's index. The decoded
        // entry is promoted into memory so the next lookup is cheap —
        // this is what makes a warm start O(touched artifacts).
        let (owner, value) = self.log.as_ref()?.get(kind, key)?;
        let entry = CacheEntry { owner, value };
        self.entries.lock().expect("shared store poisoned").insert((kind, key), entry.clone());
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    fn put_entry(&self, kind: ArtifactKind, key: Fingerprint, entry: CacheEntry) -> Result<()> {
        // Log first: if the append fails the memory layer stays in step
        // with disk and the caller sees the error.
        if let Some(log) = &self.log {
            log.append(kind, key, &entry.owner, &entry.value)?;
        }
        self.entries.lock().expect("shared store poisoned").insert((kind, key), entry);
        Ok(())
    }
}

/// File name of a legacy wholesale v3 cache inside a cache directory,
/// migrated into the segmented store on its first open.
pub const CACHE_FILE: &str = "cache.json";

/// File name an unparsable legacy [`CACHE_FILE`] is moved to, for
/// post-mortem inspection. A later corruption event rotates an existing
/// file aside as `cache.quarantine.json.1`, `.2`, … (capped at
/// [`QUARANTINE_KEEP`]) instead of clobbering it.
pub const QUARANTINE_FILE: &str = "cache.quarantine.json";

/// How many rotated quarantine copies are retained per base name before
/// the oldest are pruned.
pub const QUARANTINE_KEEP: usize = 5;

/// Shifts an existing quarantine file aside as `<name>.<n>` (n counting
/// up) so new quarantine content can land at the base name without
/// destroying earlier evidence, pruning all but the newest
/// [`QUARANTINE_KEEP`] rotated copies. Best-effort: rotation failure must
/// never block the load that triggered it.
pub(crate) fn rotate_quarantine(path: &Path) {
    if !path.exists() {
        return;
    }
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else { return };
    let Some(parent) = path.parent() else { return };
    let parent = if parent.as_os_str().is_empty() { Path::new(".") } else { parent };
    let Ok(entries) = std::fs::read_dir(parent) else { return };
    let mut indices: Vec<u64> = entries
        .flatten()
        .filter_map(|e| {
            let file = e.file_name();
            let file = file.to_str()?;
            file.strip_prefix(name)?.strip_prefix('.')?.parse::<u64>().ok()
        })
        .collect();
    let next = indices.iter().max().map_or(1, |m| m + 1);
    if std::fs::rename(path, parent.join(format!("{name}.{next}"))).is_err() {
        return;
    }
    indices.push(next);
    indices.sort_unstable();
    while indices.len() > QUARANTINE_KEEP {
        let oldest = indices.remove(0);
        std::fs::remove_file(parent.join(format!("{name}.{oldest}"))).ok();
    }
}

/// Version stamp of the exchange format; mismatches import nothing.
/// Version 2: injection rows carry their campaign outcome
/// (`InjectionArtifact`) instead of a bare `FmeaRow`.
/// Version 3: per-entry `sum` and whole-file `checksum` fields, verified
/// on import; entries that fail are skipped.
const FORMAT_VERSION: i64 = 3;

/// What [`CacheStore::from_value_audited`] had to drop to produce a
/// usable store. A clean audit has zero quarantined items and no notes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheLoadReport {
    /// Entries rejected by the audit (and so recomputed when needed).
    pub quarantined: usize,
    /// One human-readable reason per dropped or suspicious item.
    pub reasons: Vec<String>,
}

impl CacheLoadReport {
    /// `true` when nothing was dropped and nothing looked suspicious.
    pub fn is_clean(&self) -> bool {
        self.quarantined == 0 && self.reasons.is_empty()
    }
}

/// Checksum of one persisted entry, covering everything that round-trips:
/// kind tag, key, owner, and the serialized artefact value.
fn entry_sum(kind: ArtifactKind, key: Fingerprint, owner: &str, value: &Value) -> Fingerprint {
    Hasher::new()
        .write_str(kind.tag())
        .write_fingerprint(key)
        .write_str(owner)
        .write_str(&json::to_string(value))
        .finish()
}

/// Whole-file checksum: a fingerprint over the per-entry checksums in
/// serialized order, detecting spliced or truncated entry lists that
/// still parse as JSON.
fn file_sum(sums: &[Fingerprint]) -> Fingerprint {
    let mut h = Hasher::new();
    for s in sums {
        h.write_fingerprint(*s);
    }
    h.finish()
}

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, fsync, rename over the target, then fsync the directory so
/// the rename itself is durable. Readers see the old file or the new
/// one — never a torn mix.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = path.with_file_name(format!("{name}.tmp"));
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Some(parent) = path.parent() {
        // Best-effort: directory fsync is not supported everywhere.
        if let Ok(dir) = std::fs::File::open(parent) {
            dir.sync_all().ok();
        }
    }
    Ok(())
}

impl CacheStore {
    /// An empty store.
    pub fn new() -> Self {
        CacheStore::default()
    }

    /// Number of cached artefacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Live entries of one kind — the per-pass cache status shown by
    /// `decisive passes`. With a shared layer attached this is the union
    /// of overlay, shared memory, and (when durable) the backing log, so
    /// warm stores report their real coverage.
    pub fn count_kind(&self, kind: ArtifactKind) -> usize {
        let local = self.entries.keys().filter(|(k, _)| *k == kind);
        let Some(shared) = &self.shared else { return local.count() };
        let mut keys: HashSet<Fingerprint> = local.map(|&(_, f)| f).collect();
        keys.extend(shared.keys_of_kind(kind));
        keys.len()
    }

    /// Layers this store over `shared`: lookups missing the local entries
    /// fall back to the shared layer (counted by
    /// [`SharedStore::shared_hits`]) and stores write through to it.
    /// Export ([`CacheStore::to_value`]) and invalidation stay strictly
    /// local.
    pub fn attach_shared(&mut self, shared: SharedStore) {
        self.shared = Some(shared);
    }

    /// The shared layer this store is an overlay of, if any.
    pub fn shared(&self) -> Option<&SharedStore> {
        self.shared.as_ref()
    }

    /// Fetches and deserialises a cached artefact, falling back to the
    /// attached shared layer on a local miss.
    ///
    /// Returns `None` both on a missing key and on a shape mismatch (a
    /// corrupt entry is treated as a miss and recomputed).
    pub fn get<T: serde::DeserializeOwned>(
        &self,
        kind: ArtifactKind,
        key: Fingerprint,
    ) -> Option<T> {
        if let Some(entry) = self.entries.get(&(kind, key)) {
            return serde_bridge::from_value(&entry.value).ok();
        }
        let entry = self.shared.as_ref()?.get_entry(kind, key)?;
        serde_bridge::from_value(&entry.value).ok()
    }

    /// Stores an artefact under `(kind, key)`, owned by the named model
    /// element (used by [`CacheStore::invalidate_owner`]). With a shared
    /// layer attached the artefact is also published there, so sibling
    /// overlays see it.
    pub fn put<T: serde::Serialize>(
        &mut self,
        kind: ArtifactKind,
        key: Fingerprint,
        owner: &str,
        artefact: &T,
    ) -> Result<()> {
        let value = serde_bridge::to_value(artefact)
            .map_err(|e| EngineError::Cache(format!("unserialisable artefact: {e}")))?;
        let entry = CacheEntry { owner: owner.to_owned(), value };
        if let Some(shared) = &self.shared {
            shared.put_entry(kind, key, entry.clone())?;
        }
        self.entries.insert((kind, key), entry);
        Ok(())
    }

    /// Inserts an already-serialised entry (the store export/import and
    /// legacy-migration path, which must not re-encode values).
    pub(crate) fn insert_value(
        &mut self,
        kind: ArtifactKind,
        key: Fingerprint,
        owner: String,
        value: Value,
    ) {
        self.entries.insert((kind, key), CacheEntry { owner, value });
    }

    /// Iterates the raw local entries (kind, key, owner, value).
    pub(crate) fn iter_entries(
        &self,
    ) -> impl Iterator<Item = (ArtifactKind, Fingerprint, &str, &Value)> {
        self.entries.iter().map(|(&(kind, key), e)| (kind, key, e.owner.as_str(), &e.value))
    }

    /// Fsyncs the attached durable shared layer, if any — the per-pass
    /// commit point of incremental durability. No-op otherwise.
    ///
    /// # Errors
    ///
    /// [`EngineError::Store`] on fsync failure.
    pub fn sync_durable(&self) -> Result<()> {
        match &self.shared {
            Some(shared) => shared.sync_durable(),
            None => Ok(()),
        }
    }

    /// Drops every entry owned by `owner`; returns how many were dropped.
    pub fn invalidate_owner(&mut self, owner: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.owner != owner);
        before - self.entries.len()
    }

    /// Drops every entry of one kind; returns how many were dropped.
    pub fn invalidate_kind(&mut self, kind: ArtifactKind) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(k, _), _| *k != kind);
        before - self.entries.len()
    }

    /// Serialises the whole store as a federation [`Value`] in format v3:
    /// a versioned header with a whole-file checksum, and one `sum`
    /// checksum per entry.
    pub fn to_value(&self) -> Value {
        // Deterministic entry order, so persisted caches diff cleanly.
        let mut keys: Vec<&(ArtifactKind, Fingerprint)> = self.entries.keys().collect();
        keys.sort_by_key(|(kind, fp)| (kind.tag(), *fp));
        let mut sums = Vec::with_capacity(keys.len());
        let entries: Vec<Value> = keys
            .into_iter()
            .map(|k| {
                let entry = &self.entries[k];
                let sum = entry_sum(k.0, k.1, &entry.owner, &entry.value);
                sums.push(sum);
                Value::record([
                    ("kind", Value::from(k.0.tag())),
                    ("key", Value::from(k.1.to_string().as_str())),
                    ("owner", Value::from(entry.owner.as_str())),
                    ("sum", Value::from(sum.to_string().as_str())),
                    ("value", entry.value.clone()),
                ])
            })
            .collect();
        Value::record([
            ("version", Value::Int(FORMAT_VERSION)),
            ("checksum", Value::from(file_sum(&sums).to_string().as_str())),
            ("entries", Value::List(entries)),
        ])
    }

    /// Rebuilds a store from [`CacheStore::to_value`] output, dropping
    /// anything that fails validation, and returns the audit report
    /// alongside it.
    ///
    /// Validation per entry: known kind tag, parsable key, string owner,
    /// present value, and a `sum` matching the recomputed entry checksum.
    /// Each rejected entry is counted in the report with one reason. A
    /// version mismatch yields an empty store with a note but rejects
    /// nothing (an old format is stale, not corrupt); a whole-file
    /// checksum mismatch over individually valid entries is noted but
    /// keeps the entries.
    pub fn from_value_audited(value: &Value) -> (CacheStore, CacheLoadReport) {
        let mut store = CacheStore::new();
        let mut report = CacheLoadReport::default();
        let version = value.get("version").and_then(Value::as_i64);
        if version != Some(FORMAT_VERSION) {
            report.reasons.push(format!(
                "cache format version {} does not match expected {FORMAT_VERSION}; starting cold",
                version.map(|v| v.to_string()).unwrap_or_else(|| "<missing>".to_owned())
            ));
            return (store, report);
        }
        let Some(Value::List(entries)) = value.get("entries") else {
            report.quarantined = 1;
            report.reasons.push("cache header has no `entries` list".to_owned());
            return (store, report);
        };
        let mut sums = Vec::with_capacity(entries.len());
        for (idx, entry) in entries.iter().enumerate() {
            let kind = entry.get("kind").and_then(Value::as_str).and_then(ArtifactKind::parse);
            let key = entry.get("key").and_then(Value::as_str).and_then(Fingerprint::parse);
            let owner = entry.get("owner").and_then(Value::as_str);
            let stored_sum = entry.get("sum").and_then(Value::as_str).and_then(Fingerprint::parse);
            let (Some(kind), Some(key), Some(owner), Some(sum), Some(value)) =
                (kind, key, owner, stored_sum, entry.get("value"))
            else {
                report.quarantined += 1;
                report.reasons.push(format!("entry {idx}: malformed shape"));
                continue;
            };
            let expected = entry_sum(kind, key, owner, value);
            if expected != sum {
                report.quarantined += 1;
                report.reasons.push(format!(
                    "entry {idx} ({} {key}, owner `{owner}`): checksum mismatch",
                    kind.tag()
                ));
                continue;
            }
            sums.push(sum);
            store
                .entries
                .insert((kind, key), CacheEntry { owner: owner.to_owned(), value: value.clone() });
        }
        let stored_file_sum = value.get("checksum").and_then(Value::as_str);
        if report.quarantined == 0 && stored_file_sum != Some(file_sum(&sums).to_string().as_str())
        {
            report.reasons.push(
                "whole-file checksum mismatch; kept the individually verified entries".to_owned(),
            );
        }
        (store, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Hasher;

    fn fp(text: &str) -> Fingerprint {
        Hasher::new().write_str(text).finish()
    }

    /// Writes `store` as a legacy v3 `cache.json` into `dir`.
    fn write_legacy(dir: &Path, store: &CacheStore) {
        std::fs::create_dir_all(dir).unwrap();
        atomic_write(&dir.join(CACHE_FILE), &json::to_string(&store.to_value())).unwrap();
    }

    fn open(dir: &Path) -> (SharedStore, StoreRecovery) {
        SharedStore::open_durable(dir, StoreOptions::default(), Telemetry::noop()).unwrap()
    }

    #[test]
    fn roundtrips_through_value_and_disk() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &vec![1.5f64, 2.5]).unwrap();
        store.put(ArtifactKind::GraphFacts, fp("b"), "top", &"facts".to_owned()).unwrap();
        let (back, _) = CacheStore::from_value_audited(&store.to_value());
        assert_eq!(back.len(), 2);
        assert_eq!(back.get::<Vec<f64>>(ArtifactKind::GraphRow, fp("a")), Some(vec![1.5, 2.5]));
        assert_eq!(back.get::<String>(ArtifactKind::GraphFacts, fp("b")), Some("facts".into()));

        let dir = std::env::temp_dir().join(format!("decisive_cache_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        write_legacy(&dir, &store);
        let (log, _) =
            SegmentStore::open(dir.join(STORE_DIR), StoreOptions::default(), Telemetry::noop())
                .unwrap();
        let (imported, report) = log.import_json(&dir.join(CACHE_FILE)).unwrap();
        assert_eq!(imported, 2);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(log.export().to_value(), store.to_value(), "disk round trip is lossless");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_loads_empty() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_new_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (shared, recovery) = open(&dir);
        assert!(shared.is_empty());
        assert!(recovery.is_clean(), "{recovery:?}");
        assert_eq!(recovery.migrated_entries, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn owner_invalidation_is_selective() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        store.put(ArtifactKind::GraphRow, fp("b"), "L1", &2i64).unwrap();
        store.put(ArtifactKind::GraphFacts, fp("c"), "D1", &3i64).unwrap();
        assert_eq!(store.invalidate_owner("D1"), 2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get::<i64>(ArtifactKind::GraphRow, fp("b")), Some(2));
    }

    #[test]
    fn kind_namespaces_the_key_space() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("k"), "x", &1i64).unwrap();
        store.put(ArtifactKind::InjectionRow, fp("k"), "x", &2i64).unwrap();
        assert_eq!(store.get::<i64>(ArtifactKind::GraphRow, fp("k")), Some(1));
        assert_eq!(store.get::<i64>(ArtifactKind::InjectionRow, fp("k")), Some(2));
        assert_eq!(store.invalidate_kind(ArtifactKind::InjectionRow), 1);
    }

    #[test]
    fn version_mismatch_loads_empty() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::MonitorSet, fp("m"), "model", &0i64).unwrap();
        let mut value = store.to_value();
        if let Value::Record(fields) = &mut value {
            fields[0].1 = Value::Int(999);
        }
        let (back, report) = CacheStore::from_value_audited(&value);
        assert!(back.is_empty());
        assert_eq!(report.quarantined, 0, "stale format is cold, not corrupt");
        assert!(!report.is_clean(), "but the report notes it");
    }

    #[test]
    fn clean_roundtrip_report_is_clean() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        let (back, report) = CacheStore::from_value_audited(&store.to_value());
        assert_eq!(back.len(), 1);
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn tampered_entry_is_quarantined_not_loaded() {
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        store.put(ArtifactKind::GraphRow, fp("b"), "L1", &2i64).unwrap();
        let mut value = store.to_value();
        // Flip one entry's payload without updating its checksum.
        if let Value::Record(fields) = &mut value {
            for (k, v) in fields.iter_mut() {
                if k != "entries" {
                    continue;
                }
                if let Value::List(entries) = v {
                    if let Value::Record(efields) = &mut entries[0] {
                        for (ek, ev) in efields.iter_mut() {
                            if ek == "value" {
                                *ev = Value::Int(999);
                            }
                        }
                    }
                }
            }
        }
        let (back, report) = CacheStore::from_value_audited(&value);
        assert_eq!(back.len(), 1, "the intact entry survives");
        assert_eq!(report.quarantined, 1);
        assert!(report.reasons[0].contains("checksum mismatch"), "{:?}", report.reasons);
    }

    #[test]
    fn unparsable_file_quarantines_wholesale_and_loads_cold() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_q_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CACHE_FILE), "{definitely not json").unwrap();
        let (shared, recovery) = open(&dir);
        assert!(shared.is_empty());
        assert_eq!(recovery.quarantined_frames, 1);
        assert!(!recovery.is_clean(), "the run reports the degradation");
        assert_eq!(
            std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap(),
            "{definitely not json",
            "bytes preserved for post-mortem"
        );
        assert!(!dir.join(CACHE_FILE).exists(), "corrupt original moved away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_quarantines_and_next_save_recovers() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_t_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut store = CacheStore::new();
        store.put(ArtifactKind::GraphRow, fp("a"), "D1", &vec![1.0f64]).unwrap();
        write_legacy(&dir, &store);
        let full = std::fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        std::fs::write(dir.join(CACHE_FILE), &full[..full.len() / 2]).unwrap();

        let (cold, recovery) = open(&dir);
        assert!(cold.is_empty());
        assert!(!recovery.is_clean());

        // Importing an intact snapshot over the quarantined state warms
        // the store again.
        let snapshot = dir.join("snapshot.json");
        std::fs::write(&snapshot, &full).unwrap();
        let (imported, report) = cold.durable().unwrap().import_json(&snapshot).unwrap();
        assert_eq!(imported, 1);
        assert!(report.is_clean(), "{report:?}");
        drop(cold);
        let (warm, recovery) = open(&dir);
        assert_eq!(warm.len(), 1);
        assert!(recovery.is_clean(), "{recovery:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_layer_serves_sibling_overlays() {
        let shared = SharedStore::new();
        let mut a = CacheStore::new();
        a.attach_shared(shared.clone());
        let mut b = CacheStore::new();
        b.attach_shared(shared.clone());

        a.put(ArtifactKind::GraphRow, fp("k"), "D1", &41i64).unwrap();
        assert_eq!(shared.len(), 1, "writes publish to the shared layer");
        // A's own lookup is a local hit: no shared traffic.
        assert_eq!(a.get::<i64>(ArtifactKind::GraphRow, fp("k")), Some(41));
        assert_eq!(shared.shared_hits(), 0);
        // B misses locally and is served by the shared layer.
        assert_eq!(b.get::<i64>(ArtifactKind::GraphRow, fp("k")), Some(41));
        assert_eq!(shared.shared_hits(), 1);
        // A detached store sees nothing.
        assert_eq!(CacheStore::new().get::<i64>(ArtifactKind::GraphRow, fp("k")), None);
    }

    #[test]
    fn overlay_invalidation_and_persistence_stay_local() {
        let shared = SharedStore::new();
        let mut overlay = CacheStore::new();
        overlay.attach_shared(shared.clone());
        overlay.put(ArtifactKind::GraphRow, fp("a"), "D1", &1i64).unwrap();
        overlay.put(ArtifactKind::GraphFacts, fp("b"), "top", &2i64).unwrap();

        assert_eq!(overlay.invalidate_owner("D1"), 1);
        assert_eq!(shared.len(), 2, "GC of the overlay never touches the shared layer");
        // The shared copy still serves the invalidated key (content
        // addressing: same key, same artefact).
        assert_eq!(overlay.get::<i64>(ArtifactKind::GraphRow, fp("a")), Some(1));

        // to_value exports only the overlay's own entries.
        let (exported, _) = CacheStore::from_value_audited(&overlay.to_value());
        assert_eq!(exported.len(), 1);
    }

    #[test]
    fn repeated_quarantines_rotate_and_cap_instead_of_clobbering() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_rot_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for round in 0..8 {
            // A store-less directory each round, so the legacy file is
            // always a first-open migration candidate.
            std::fs::remove_dir_all(dir.join(STORE_DIR)).ok();
            std::fs::write(dir.join(CACHE_FILE), format!("{{corrupt event {round}")).unwrap();
            let (_, recovery) = open(&dir);
            assert_eq!(recovery.quarantined_frames, 1, "round {round}");
        }
        let base = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).unwrap();
        assert!(base.contains("event 7"), "base name holds the newest evidence");
        let rotated: Vec<u64> =
            (1..=7).filter(|n| dir.join(format!("{QUARANTINE_FILE}.{n}")).exists()).collect();
        assert_eq!(rotated, vec![3, 4, 5, 6, 7], "oldest copies pruned, newest kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_shared_layer_round_trips_across_opens() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_dur_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (shared, recovery) = open(&dir);
        assert!(recovery.is_clean(), "{recovery:?}");
        assert!(shared.is_durable());
        let mut overlay = CacheStore::new();
        overlay.attach_shared(shared.clone());
        overlay.put(ArtifactKind::GraphRow, fp("a"), "D1", &41i64).unwrap();
        overlay.sync_durable().unwrap();
        drop((overlay, shared));

        let (shared, recovery) = open(&dir);
        assert!(recovery.is_clean(), "{recovery:?}");
        assert_eq!(shared.len(), 1);
        let mut fresh = CacheStore::new();
        fresh.attach_shared(shared.clone());
        assert_eq!(fresh.get::<i64>(ArtifactKind::GraphRow, fp("a")), Some(41));
        assert_eq!(shared.shared_hits(), 1, "served by the log read-through");
        assert_eq!(fresh.count_kind(ArtifactKind::GraphRow), 1, "union counting sees the log");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_cache_json_migrates_into_the_log_exactly_once() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_mig_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut legacy = CacheStore::new();
        legacy.put(ArtifactKind::MonitorSet, fp("m"), "model", &7i64).unwrap();
        write_legacy(&dir, &legacy);

        let (shared, recovery) = open(&dir);
        assert_eq!(recovery.migrated_entries, 1);
        assert!(recovery.is_clean(), "clean migration is routine, not degraded: {recovery:?}");
        assert!(!dir.join(CACHE_FILE).exists(), "legacy file retired");
        assert!(dir.join(format!("{CACHE_FILE}.imported")).exists());
        let mut overlay = CacheStore::new();
        overlay.attach_shared(shared);
        assert_eq!(overlay.get::<i64>(ArtifactKind::MonitorSet, fp("m")), Some(7));

        // Once the manifest exists, a stray cache.json is never
        // re-imported — the log is authoritative.
        let mut stray = CacheStore::new();
        stray.put(ArtifactKind::MonitorSet, fp("other"), "model", &9i64).unwrap();
        write_legacy(&dir, &stray);
        let (shared, recovery) = open(&dir);
        assert_eq!(recovery.migrated_entries, 0);
        assert_eq!(shared.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let dir = std::env::temp_dir().join(format!("decisive_cache_a_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("doc.json");
        let tmp = dir.join("doc.json.tmp");
        atomic_write(&file, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "first");
        assert!(!tmp.exists());
        // A stale temp file from a killed write is replaced by the next
        // one, never left behind or read.
        std::fs::write(&tmp, "torn half-write").unwrap();
        atomic_write(&file, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "second");
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
