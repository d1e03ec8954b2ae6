//! The content-addressed verification result cache.
//!
//! One entry stores the complete outcome of verifying a single PEC under a
//! single failure scenario for a given policy/options pair — keyed by the
//! task content key computed in [`plankton_pec::invalidation`]: a hash over
//! the PEC's configuration content, the network slices its protocol models
//! read, the policy/options fingerprints, the failure set, and (composed
//! recursively) the keys of every PEC it transitively depends on. Equal key
//! ⟹ bit-identical inputs ⟹ the cached outcome *is* the outcome, so
//! incremental re-verification serves clean tasks from here and re-executes
//! only tasks whose key misses.
//!
//! The cache is built for concurrent sessions: the map is split into
//! [`ResultCache::SHARDS`] independently locked shards (keys are FNV
//! outputs, so the low bits spread uniformly), which keeps insert traffic
//! from the engine's worker pool and planning-pass lookups from several
//! client connections off one global lock. Its hit, miss, eviction and
//! occupancy counts are instruments in a [`Registry`]: a private one by
//! default, the owning session's with [`ResultCache::in_registry`].
//!
//! The cache also owns the session's [`SliceMemo`] — the memo of the
//! Dijkstra-derived slice fingerprints that task keys are composed from. It
//! lives here because it has the cache's lifetime and the cache's soundness
//! argument (content-addressed, so valid across snapshots with nothing to
//! invalidate), and because every caller that can consult the cache already
//! holds it.
//!
//! Because keys are content hashes, entries are also meaningful *across
//! process lifetimes*: [`ResultCache::to_snapshot`] /
//! [`ResultCache::absorb_snapshot`] serialize the map (version-stamped with
//! [`plankton_config::FINGERPRINT_SCHEME_VERSION`]) so a restarted daemon
//! can warm-start from the previous run's results — see
//! [`ResultCache::save_to`] / [`ResultCache::load_from`].

use crate::outcome::ConvergedRecord;
use crate::report::Violation;
use parking_lot::Mutex;
use plankton_checker::SearchStats;
use plankton_config::{Fingerprinter, SliceMemo, FINGERPRINT_SCHEME_VERSION};
use plankton_telemetry::{Counter, Gauge, Registry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A cache's instruments, registered in the registry the cache was built
/// in. A registry hands out one instrument per name, so a cache rebuilt in
/// the same registry (a daemon's `Load`) continues its predecessor's counts.
#[derive(Debug)]
struct CacheMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    capacity: Arc<Gauge>,
    /// One occupancy gauge per shard, labelled `shard="0"`..`shard="15"`.
    shard_entries: Vec<Arc<Gauge>>,
}

impl CacheMetrics {
    fn register(registry: &Registry) -> Self {
        const SHARD_LABELS: [&str; ResultCache::SHARDS] = [
            "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
        ];
        CacheMetrics {
            hits: registry.counter(
                "plankton_cache_hits_total",
                "Verification tasks served from the result cache.",
            ),
            misses: registry.counter(
                "plankton_cache_misses_total",
                "Verification tasks that had to be recomputed.",
            ),
            evictions: registry.counter(
                "plankton_cache_evictions_total",
                "Entries evicted (second chance) by the capacity bound.",
            ),
            capacity: registry.gauge(
                "plankton_cache_capacity",
                "Bound on resident result-cache entries (follows the largest pass seen).",
            ),
            shard_entries: SHARD_LABELS
                .iter()
                .map(|shard| {
                    registry.gauge_with(
                        "plankton_cache_entries",
                        "Resident result-cache entries per shard.",
                        &[("shard", shard)],
                    )
                })
                .collect(),
        }
    }
}

/// The cached outcome of one (PEC × failure scenario) verification task.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Violations found on this PEC under this failure set. The `pec` field
    /// of each entry holds the id at caching time; it is relabeled to the
    /// current id when merged into a report (PEC ids shift when a delta
    /// repartitions the header space, content does not).
    pub violations: Vec<Violation>,
    /// Model-checking statistics of the task.
    pub stats: SearchStats,
    /// Converged data planes on which the policy was evaluated.
    pub data_planes_checked: u64,
    /// Converged records for dependent PECs (empty when the PEC had no
    /// dependents under this request).
    pub records: Vec<Arc<ConvergedRecord>>,
}

/// One resident entry, in its shard's clock.
#[derive(Debug)]
struct Slot {
    key: u64,
    outcome: Arc<PolicyOutcome>,
    /// Set by every lookup that hits; cleared when the clock hand passes.
    referenced: bool,
}

/// One lock's worth of the cache: the resident entries in a clock (a ring of
/// slots with a hand), plus the key → slot index.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Slot>,
    index: HashMap<u64, usize>,
    /// The next slot the eviction sweep examines.
    hand: usize,
}

impl Shard {
    /// The outcome under `key`, marking it referenced.
    fn lookup(&mut self, key: u64) -> Option<Arc<PolicyOutcome>> {
        let slot = &mut self.slots[*self.index.get(&key)?];
        slot.referenced = true;
        Some(Arc::clone(&slot.outcome))
    }

    /// Store a non-resident `key`, keeping at most `capacity` entries.
    /// Returns whether an entry was evicted to make room.
    fn store(&mut self, key: u64, outcome: Arc<PolicyOutcome>, capacity: usize) -> bool {
        let slot = Slot {
            key,
            outcome,
            referenced: false,
        };
        if self.slots.len() < capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(slot);
            return false;
        }
        // Second chance: an entry looked up since the hand last passed it
        // gives up its mark instead of its slot. Terminates within two
        // laps — the first clears every mark it meets.
        while self.slots[self.hand].referenced {
            self.slots[self.hand].referenced = false;
            self.hand = (self.hand + 1) % self.slots.len();
        }
        self.index.remove(&self.slots[self.hand].key);
        self.index.insert(key, self.hand);
        self.slots[self.hand] = slot;
        self.hand = (self.hand + 1) % self.slots.len();
        true
    }
}

/// A serializable image of the cache contents, stamped with the
/// fingerprint-scheme version that produced the keys. Snapshots from a
/// different scheme version are rejected on load: their keys were computed
/// under different hashing semantics and must not be matched against.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// [`FINGERPRINT_SCHEME_VERSION`] at save time.
    pub version: u32,
    /// Every resident `(key, outcome)` pair, in shard-then-slot order.
    pub entries: Vec<(u64, Arc<PolicyOutcome>)>,
}

/// A concurrent, sharded, content-hash-keyed map of task outcomes.
///
/// Entries are immutable once inserted (`Arc`-shared). The cache is bounded
/// per shard, and the bound is what keeps a long-lived daemon's memory from
/// following its request count: every delta mints keys that are never looked
/// up again. When an insert would exceed a shard's share of the capacity, a
/// *second-chance* sweep picks the victim: each entry carries a referenced
/// bit that any hit ([`ResultCache::get`] / [`ResultCache::peek`]) sets; the
/// clock hand clears set bits as it passes and evicts the first entry whose
/// bit is already clear. Entries that every re-verify touches — the base
/// configuration's tasks — therefore outlive any number of one-shot keys,
/// while a never-reused key is gone within one lap. Eviction only costs
/// re-verification, never correctness.
///
/// A cache built with [`ResultCache::new`] sizes its bound from the work it
/// sees: [`ResultCache::DEFAULT_CAPACITY`] entries, raised to four times the
/// task count of the largest verification pass ([`ResultCache::fit_pass`]),
/// so one pass's results can never evict each other. A cache built with
/// [`ResultCache::with_capacity`] keeps exactly the bound it was given.
#[derive(Debug)]
pub struct ResultCache {
    shards: Box<[Mutex<Shard>]>,
    shard_capacity: AtomicUsize,
    /// Does the bound grow with the passes seen (`new`), or stay as given
    /// (`with_capacity`)?
    follows_passes: bool,
    metrics: CacheMetrics,
    slice_memo: SliceMemo,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultCache {
    /// The bound on resident entries a [`ResultCache::new`] cache starts
    /// with (and never goes below).
    pub const DEFAULT_CAPACITY: usize = 16_384;

    /// Lock shards (a power of two; keys are FNV hashes, so the low bits
    /// select uniformly).
    pub const SHARDS: usize = 16;

    /// An empty cache whose capacity follows the largest pass it serves,
    /// counting in a private registry.
    pub fn new() -> Self {
        Self::in_registry(&Registry::new())
    }

    /// [`ResultCache::new`], with its instruments registered in `registry`
    /// (a daemon session's, so `Stats` and the `Metrics` scrape read them).
    pub fn in_registry(registry: &Registry) -> Self {
        ResultCache {
            follows_passes: true,
            ..Self::bounded(Self::DEFAULT_CAPACITY, registry)
        }
    }

    /// An empty cache bounded to (approximately, rounded up to a multiple of
    /// [`ResultCache::SHARDS`]) `capacity` entries, for good, counting in a
    /// private registry.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::bounded(capacity, &Registry::new())
    }

    fn bounded(capacity: usize, registry: &Registry) -> Self {
        let shards = (0..Self::SHARDS).map(|_| Mutex::new(Shard::default()));
        let shard_capacity = capacity.max(1).div_ceil(Self::SHARDS);
        let metrics = CacheMetrics::register(registry);
        metrics.capacity.set((shard_capacity * Self::SHARDS) as u64);
        // A cache replacing another in the same registry starts empty.
        for gauge in &metrics.shard_entries {
            gauge.set(0);
        }
        ResultCache {
            shards: shards.collect(),
            shard_capacity: AtomicUsize::new(shard_capacity),
            follows_passes: false,
            metrics,
            slice_memo: SliceMemo::new(),
        }
    }

    /// The current bound on resident entries.
    pub fn capacity(&self) -> usize {
        self.shard_capacity.load(Ordering::Relaxed) * Self::SHARDS
    }

    /// Tell the cache a verification pass of `tasks` (PEC × failure-set)
    /// tasks is about to look up and insert its keys. A cache from
    /// [`ResultCache::new`] raises its bound to hold four such passes; one
    /// from [`ResultCache::with_capacity`] ignores the hint.
    pub fn fit_pass(&self, tasks: usize) {
        if !self.follows_passes {
            return;
        }
        let wanted = tasks.saturating_mul(4).div_ceil(Self::SHARDS);
        if self.shard_capacity.fetch_max(wanted, Ordering::Relaxed) < wanted {
            self.metrics.capacity.set(self.capacity() as u64);
        }
    }

    /// The session's memo of slice fingerprints, consulted when task keys
    /// are derived. Its entries are keyed by the content they were computed
    /// from, not by a network, so they stay valid across every delta.
    pub fn slice_memo(&self) -> &SliceMemo {
        &self.slice_memo
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key as usize) & (Self::SHARDS - 1)]
    }

    /// Look a task outcome up, counting the hit/miss.
    pub fn get(&self, key: u64) -> Option<Arc<PolicyOutcome>> {
        let found = self.shard(key).lock().lookup(key);
        match &found {
            Some(_) => self.metrics.hits.inc(),
            None => self.metrics.misses.inc(),
        };
        found
    }

    /// Look a task outcome up without touching the hit/miss counters (used
    /// by the planning pass that classifies tasks before execution — a key
    /// that hits but whose component re-runs anyway saved no work and must
    /// not count as reuse).
    pub fn peek(&self, key: u64) -> Option<Arc<PolicyOutcome>> {
        self.shard(key).lock().lookup(key)
    }

    /// Record `n` tasks actually served from the cache (the planning pass
    /// classifies with [`ResultCache::peek`] and reports reuse explicitly).
    pub fn count_hits(&self, n: u64) {
        self.metrics.hits.add(n);
    }

    /// Record `n` tasks that had to be recomputed.
    pub fn count_misses(&self, n: u64) {
        self.metrics.misses.add(n);
    }

    /// Insert a task outcome. First write wins (outcomes for equal keys are
    /// equal by construction); returns whether the entry was actually
    /// inserted (`false` = the key was already resident). When the shard is
    /// at capacity a second-chance sweep evicts one entry to make room.
    pub fn insert(&self, key: u64, outcome: Arc<PolicyOutcome>) -> bool {
        let mut shard = self.shard(key).lock();
        if shard.index.contains_key(&key) {
            return false;
        }
        let capacity = self.shard_capacity.load(Ordering::Relaxed);
        if shard.store(key, outcome, capacity) {
            self.metrics.evictions.inc();
        }
        self.metrics.shard_entries[(key as usize) & (Self::SHARDS - 1)]
            .set(shard.slots.len() as u64);
        true
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().slots.len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident entries per shard, in shard order (surfaced in daemon
    /// `Stats` so occupancy skew is visible without a metrics scrape).
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().slots.len()).collect()
    }

    /// Hits counted by the cache's registry: this cache's own lifetime
    /// in a private registry, the registry's in a shared one.
    pub fn hits(&self) -> u64 {
        self.metrics.hits.get()
    }

    /// Misses, counted as [`ResultCache::hits`] are.
    pub fn misses(&self) -> u64 {
        self.metrics.misses.get()
    }

    /// Entries evicted by the capacity bound, counted as
    /// [`ResultCache::hits`] are.
    pub fn evictions(&self) -> u64 {
        self.metrics.evictions.get()
    }

    /// A serializable image of the current contents, stamped with the
    /// running fingerprint-scheme version.
    pub fn to_snapshot(&self) -> CacheSnapshot {
        let mut entries = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock();
            entries.extend(
                shard
                    .slots
                    .iter()
                    .map(|slot| (slot.key, Arc::clone(&slot.outcome))),
            );
        }
        CacheSnapshot {
            version: FINGERPRINT_SCHEME_VERSION,
            entries,
        }
    }

    /// Merge a snapshot's entries into the live cache (first write wins, so
    /// live entries are never replaced). Returns the number of entries
    /// actually inserted — keys already resident, or absorbed-then-evicted
    /// by the capacity bound, are not counted — or an error when the
    /// snapshot's fingerprint-scheme version does not match the running one:
    /// such keys were computed under different hashing semantics and
    /// matching against them would serve wrong results.
    pub fn absorb_snapshot(&self, snapshot: &CacheSnapshot) -> Result<usize, String> {
        if snapshot.version != FINGERPRINT_SCHEME_VERSION {
            return Err(format!(
                "cache snapshot has fingerprint-scheme version {} but this build uses {}; \
                 refusing to warm-start from it",
                snapshot.version, FINGERPRINT_SCHEME_VERSION
            ));
        }
        let mut absorbed = 0;
        for (key, outcome) in &snapshot.entries {
            absorbed += self.insert(*key, outcome.clone()) as usize;
        }
        Ok(absorbed)
    }

    /// Persist the cache contents as version-stamped JSON at `path`
    /// (atomically: written to a writer-unique sibling temp file, then
    /// renamed — concurrent `Persist` requests from different daemon
    /// connections must not interleave writes into one temp file, and each
    /// rename installs a complete snapshot, last one winning). The JSON body
    /// is followed by a [`CHECKSUM_PREFIX`] footer line so `load_from` can
    /// tell a truncated or bit-flipped file from a valid one. Returns the
    /// number of entries written.
    pub fn save_to(&self, path: &Path) -> std::io::Result<usize> {
        static WRITER: AtomicU64 = AtomicU64::new(0);
        plankton_faultinject::trigger("cache_save")?;
        let snapshot = self.to_snapshot();
        let json = serde_json::to_string(&snapshot)
            .map_err(|e| std::io::Error::other(format!("cache snapshot serialize: {e}")))?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            WRITER.fetch_add(1, Ordering::Relaxed)
        ));
        let body = format!("{json}\n{CHECKSUM_PREFIX}{:016x}\n", checksum(&json));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, path)?;
        Ok(snapshot.entries.len())
    }

    /// Load a persisted snapshot from `path` and merge it into the live
    /// cache. Returns the number of entries absorbed; a missing file,
    /// unparsable content, a missing/mismatched checksum footer (truncation
    /// or bit rot), or a stale fingerprint-scheme version all report an
    /// error (the caller decides whether a cold start is acceptable).
    pub fn load_from(&self, path: &Path) -> Result<usize, String> {
        plankton_faultinject::trigger("cache_load")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = verify_checksum(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
        let snapshot: CacheSnapshot = serde_json::from_str(json)
            .map_err(|e| format!("{}: not a cache snapshot: {e}", path.display()))?;
        self.absorb_snapshot(&snapshot)
    }
}

/// Marker line that carries the snapshot checksum, after the JSON body.
const CHECKSUM_PREFIX: &str = "#plankton-cache-fnv64:";

/// The workspace's one hasher over the snapshot body; cheap, no tables, and
/// plenty to catch the failure modes that actually happen to a cache file
/// (truncation by a mid-write crash, a flipped bit, a partial rename target).
fn checksum(body: &str) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_str(body);
    fp.finish()
}

/// Split a persisted snapshot into body + footer and verify the checksum,
/// returning the JSON body. The error names the corruption class so the
/// daemon's structured warn is actionable.
fn verify_checksum(raw: &str) -> Result<&str, String> {
    let trimmed = raw.trim_end_matches('\n');
    let Some((body, footer)) = trimmed.rsplit_once('\n') else {
        return Err("missing checksum footer (truncated snapshot?)".to_string());
    };
    let Some(hex) = footer.strip_prefix(CHECKSUM_PREFIX) else {
        return Err("missing checksum footer (truncated snapshot?)".to_string());
    };
    let expected = u64::from_str_radix(hex.trim(), 16)
        .map_err(|_| "unreadable checksum footer".to_string())?;
    let actual = checksum(body);
    if actual != expected {
        return Err(format!(
            "checksum mismatch (stored {expected:016x}, computed {actual:016x}): \
             snapshot is corrupt"
        ));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys that all land in one shard (multiples of SHARDS keep the low
    /// bits equal), so the per-shard capacity bound is observable.
    fn shard_key(i: u64) -> u64 {
        i * ResultCache::SHARDS as u64
    }

    /// Tests that touch `save_to`/`load_from` share this lock: one of them
    /// arms the process-global `cache_save` failpoint, which must not fire
    /// under a concurrently running sibling test.
    static FS_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn get_insert_and_counters() {
        let cache = ResultCache::new();
        assert!(cache.get(7).is_none());
        cache.insert(7, Arc::new(PolicyOutcome::default()));
        assert!(cache.get(7).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(8).is_none());
        assert_eq!(cache.misses(), 1, "peek does not count");
    }

    fn outcome() -> Arc<PolicyOutcome> {
        Arc::new(PolicyOutcome::default())
    }

    #[test]
    fn capacity_bound_evicts_unreferenced_entries_in_clock_order() {
        // Two entries per shard, all keys in one shard.
        let cache = ResultCache::with_capacity(ResultCache::SHARDS * 2);
        cache.insert(shard_key(0), outcome());
        cache.insert(shard_key(1), outcome());
        cache.insert(shard_key(2), outcome());
        assert_eq!(cache.evictions(), 1);
        assert!(
            cache.peek(shard_key(1)).is_some(),
            "key 1 resident, now marked"
        );
        // The hand stands on key 1: its mark buys it one pass, key 2 goes.
        cache.insert(shard_key(3), outcome());
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
        // The mark is spent: key 1 is the next victim.
        cache.insert(shard_key(4), outcome());
        let resident: Vec<u64> = cache.to_snapshot().entries.iter().map(|e| e.0).collect();
        assert_eq!(resident, vec![shard_key(3), shard_key(4)]);
    }

    #[test]
    fn reinserting_a_resident_key_neither_evicts_nor_marks() {
        let cache = ResultCache::with_capacity(ResultCache::SHARDS * 2);
        cache.insert(shard_key(0), outcome());
        cache.insert(shard_key(1), outcome());
        // Shard full; re-inserting a resident key must not evict anything.
        assert!(!cache.insert(shard_key(0), outcome()));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 2);
        // Nor does it count as a use: key 0 is still the first victim.
        cache.insert(shard_key(2), outcome());
        assert_eq!(cache.evictions(), 1);
        let resident: Vec<u64> = cache.to_snapshot().entries.iter().map(|e| e.0).collect();
        assert_eq!(resident, vec![shard_key(2), shard_key(1)]);
    }

    #[test]
    fn a_hot_key_survives_ten_capacities_of_cold_inserts() {
        let capacity = ResultCache::SHARDS * 8;
        let cache = ResultCache::with_capacity(capacity);
        let hot = shard_key(0);
        cache.insert(hot, outcome());
        for i in 1..=10 * capacity as u64 {
            // The hot key is looked up twice per lap of its shard's clock
            // (eight slots), get and peek alternating.
            if i % 4 == 0 {
                let found = if i % 8 == 0 {
                    cache.get(hot)
                } else {
                    cache.peek(hot)
                };
                assert!(found.is_some(), "hot key evicted after {i} cold inserts");
            }
            cache.insert(shard_key(i), outcome());
        }
        assert!(cache.evictions() >= 9 * capacity as u64);
    }

    #[test]
    fn never_reused_keys_do_not_grow_the_cache_past_its_capacity() {
        let cache = ResultCache::with_capacity(64);
        let mut key = 0u64;
        for _pass in 0..100 {
            for _ in 0..40 {
                // A fresh key per task, spread over the shards.
                key += 1;
                cache.insert(key.wrapping_mul(0x9E37_79B9_7F4A_7C15), outcome());
                assert!(cache.len() <= cache.capacity());
            }
        }
        assert_eq!(cache.capacity(), 64);
        assert!(cache.evictions() >= 4000 - 64);
    }

    #[test]
    fn the_default_capacity_follows_the_largest_pass() {
        let cache = ResultCache::new();
        assert_eq!(cache.capacity(), ResultCache::DEFAULT_CAPACITY);
        cache.fit_pass(100);
        assert_eq!(cache.capacity(), ResultCache::DEFAULT_CAPACITY, "a floor");
        cache.fit_pass(10_000);
        assert_eq!(cache.capacity(), 40_000);
        cache.fit_pass(5_000);
        assert_eq!(cache.capacity(), 40_000, "never lowered");
        // An explicit bound is kept, whatever passes come by.
        let fixed = ResultCache::with_capacity(32);
        fixed.fit_pass(10_000);
        assert_eq!(fixed.capacity(), 32);
    }

    #[test]
    fn first_write_wins() {
        let cache = ResultCache::new();
        let a = Arc::new(PolicyOutcome {
            data_planes_checked: 1,
            ..Default::default()
        });
        let b = Arc::new(PolicyOutcome {
            data_planes_checked: 2,
            ..Default::default()
        });
        cache.insert(9, a);
        cache.insert(9, b);
        assert_eq!(cache.peek(9).unwrap().data_planes_checked, 1);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let cache = ResultCache::new();
        for k in [3u64, 19, 0xdead_beef] {
            cache.insert(
                k,
                Arc::new(PolicyOutcome {
                    data_planes_checked: k,
                    ..Default::default()
                }),
            );
        }
        let json = serde_json::to_string(&cache.to_snapshot()).unwrap();
        let snapshot: CacheSnapshot = serde_json::from_str(&json).unwrap();
        let restored = ResultCache::new();
        assert_eq!(restored.absorb_snapshot(&snapshot).unwrap(), 3);
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.peek(19).unwrap().data_planes_checked, 19);
    }

    #[test]
    fn stale_scheme_version_is_rejected() {
        let cache = ResultCache::new();
        cache.insert(1, Arc::new(PolicyOutcome::default()));
        let mut snapshot = cache.to_snapshot();
        snapshot.version = FINGERPRINT_SCHEME_VERSION + 1;
        let restored = ResultCache::new();
        let err = restored.absorb_snapshot(&snapshot).unwrap_err();
        assert!(err.contains("version"), "{err}");
        assert!(restored.is_empty(), "no entries from a stale snapshot");
    }

    #[test]
    fn save_and_load_through_a_file() {
        let _guard = FS_TESTS.lock();
        let dir = std::env::temp_dir().join(format!("plankton-cache-{}", std::process::id()));
        let path = dir.join("cache.json");
        let cache = ResultCache::new();
        cache.insert(42, Arc::new(PolicyOutcome::default()));
        assert_eq!(cache.save_to(&path).unwrap(), 1);
        let restored = ResultCache::new();
        assert_eq!(restored.load_from(&path).unwrap(), 1);
        assert!(restored.peek(42).is_some());
        assert!(restored.load_from(&dir.join("absent.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_snapshots_are_detected_by_the_checksum_footer() {
        let _guard = FS_TESTS.lock();
        let dir = std::env::temp_dir().join(format!("plankton-cache-crc-{}", std::process::id()));
        let path = dir.join("cache.json");
        let cache = ResultCache::new();
        for k in 0..4u64 {
            cache.insert(k, Arc::new(PolicyOutcome::default()));
        }
        cache.save_to(&path).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        assert!(good.contains(CHECKSUM_PREFIX));

        // Truncation: a crash mid-write loses the tail (and the footer).
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let err = ResultCache::new().load_from(&path).unwrap_err();
        assert!(err.contains("checksum"), "{err}");

        // Bit rot: same length, one corrupted byte in the body.
        let mut rotten = good.clone().into_bytes();
        rotten[10] ^= 0x41;
        std::fs::write(&path, &rotten).unwrap();
        let err = ResultCache::new().load_from(&path).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");

        // A pre-footer snapshot (or a hand-edited file) is refused too: no
        // footer means no integrity claim.
        let (body, _) = good.trim_end_matches('\n').rsplit_once('\n').unwrap();
        std::fs::write(&path, body).unwrap();
        let err = ResultCache::new().load_from(&path).unwrap_err();
        assert!(err.contains("missing checksum footer"), "{err}");

        // The untouched original still loads.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(ResultCache::new().load_from(&path).unwrap(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_failpoint_surfaces_as_an_io_error() {
        let _guard = FS_TESTS.lock();
        let dir = std::env::temp_dir().join(format!("plankton-cache-fp-{}", std::process::id()));
        let path = dir.join("cache.json");
        let cache = ResultCache::new();
        cache.insert(1, Arc::new(PolicyOutcome::default()));
        plankton_faultinject::configure("cache_save=io_err*1").unwrap();
        let err = cache.save_to(&path).unwrap_err();
        assert!(err.to_string().contains("failpoint"), "{err}");
        assert!(!path.exists(), "a failed save must not install a file");
        // The budget is spent; the retry succeeds and loads clean.
        assert_eq!(cache.save_to(&path).unwrap(), 1);
        plankton_faultinject::clear();
        assert_eq!(ResultCache::new().load_from(&path).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
