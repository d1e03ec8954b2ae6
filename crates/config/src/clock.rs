//! The bounded, content-addressed table behind a verification session's
//! two caches: the result cache (`plankton_core::ResultCache`, task key →
//! outcome) and the slice memo (`plankton_pec::SliceMemo`, Dijkstra input
//! → competitive fingerprint).
//!
//! Both are keyed by [`Fingerprinter`](crate::Fingerprinter) outputs —
//! equal key ⇒ identical inputs ⇒ the stored value *is* the answer — so
//! neither ever invalidates anything. What they need is a bound: every
//! delta mints keys that are never looked up again, and without one a
//! long-lived daemon's memory would follow its request count. A
//! [`ClockTable`] is that bound, written once:
//!
//! * **Shards.** [`SHARDS`] independently locked shards, picked by the
//!   key's low bits (uniform: the fingerprinter folds every input bit into
//!   them), so concurrent lookups and inserts rarely meet on one lock.
//! * **Second chance.** Each entry carries a referenced bit that every hit
//!   sets. When an insert would exceed its shard's share of the bound, the
//!   shard's clock hand clears set bits as it passes and evicts the first
//!   entry whose bit is already clear. Entries that every request touches —
//!   the base configuration's — outlive any number of one-shot keys, while
//!   a never-reused key is gone within one lap. Eviction only costs a
//!   recomputation, never correctness.
//! * **A bound that follows the work.** [`ClockTable::new`] starts at
//!   [`DEFAULT_CAPACITY`] entries and [`ClockTable::fit_pass`] raises it to
//!   four times the lookups of the largest pass announced, so one pass's
//!   keys never evict each other. [`ClockTable::with_capacity`] keeps the
//!   bound it is given.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock shards (a power of two: the key's low bits select one).
pub const SHARDS: usize = 16;

/// The bound on resident entries a [`ClockTable::new`] table starts with
/// (and never goes below).
pub const DEFAULT_CAPACITY: usize = 16_384;

/// One resident entry, in its shard's clock.
#[derive(Debug)]
struct Slot<V> {
    key: u64,
    value: V,
    /// Set by every lookup that hits; cleared when the clock hand passes.
    referenced: bool,
}

/// One lock's worth of the table: the resident entries in a clock (a ring
/// of slots with a hand), plus the key → slot index.
#[derive(Debug)]
struct Shard<V> {
    slots: Vec<Slot<V>>,
    index: HashMap<u64, usize>,
    /// The next slot the eviction sweep examines.
    hand: usize,
}

impl<V> Shard<V> {
    /// Store a non-resident `key`, keeping at most `capacity` entries.
    /// Returns whether an entry was evicted to make room.
    fn store(&mut self, key: u64, value: V, capacity: usize) -> bool {
        let slot = Slot {
            key,
            value,
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

/// What [`ClockTable::insert`] did with a key that was not resident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stored {
    /// Did an entry make room for it?
    pub evicted: bool,
    /// The shard it went to.
    pub shard: usize,
    /// Resident entries of that shard, the new one included.
    pub shard_len: usize,
}

/// A sharded map from content keys to values with a second-chance bound.
/// See the module docs.
#[derive(Debug)]
pub struct ClockTable<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    shard_capacity: AtomicUsize,
    /// Does the bound grow with the passes announced (`new`), or stay as
    /// given (`with_capacity`)?
    follows_passes: bool,
}

impl<V: Clone> Default for ClockTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> ClockTable<V> {
    /// An empty table whose bound follows the largest pass announced.
    pub fn new() -> Self {
        ClockTable {
            follows_passes: true,
            ..Self::with_capacity(DEFAULT_CAPACITY)
        }
    }

    /// An empty table bounded to (approximately, rounded up to a multiple
    /// of [`SHARDS`]) `capacity` entries, for good.
    pub fn with_capacity(capacity: usize) -> Self {
        let shard = || {
            Mutex::new(Shard {
                slots: Vec::new(),
                index: HashMap::new(),
                hand: 0,
            })
        };
        ClockTable {
            shards: (0..SHARDS).map(|_| shard()).collect(),
            shard_capacity: AtomicUsize::new(capacity.max(1).div_ceil(SHARDS)),
            follows_passes: false,
        }
    }

    /// The current bound on resident entries.
    pub fn capacity(&self) -> usize {
        self.shard_capacity.load(Ordering::Relaxed) * SHARDS
    }

    /// Announce a pass of `lookups` lookups (and the inserts of its misses).
    /// A table from [`ClockTable::new`] raises its bound to hold four such
    /// passes; one from [`ClockTable::with_capacity`] ignores the hint.
    /// Returns whether the bound was raised.
    pub fn fit_pass(&self, lookups: usize) -> bool {
        if !self.follows_passes {
            return false;
        }
        let wanted = lookups.saturating_mul(4).div_ceil(SHARDS);
        self.shard_capacity.fetch_max(wanted, Ordering::Relaxed) < wanted
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard<V>> {
        // A holder only moves or replaces whole slots; a panic between two
        // such steps leaves a valid shard, so a poisoned lock is usable.
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The shard `key` lives in.
    fn shard_of(key: u64) -> usize {
        (key as usize) & (SHARDS - 1)
    }

    /// The value under `key`, marking it referenced.
    pub fn get(&self, key: u64) -> Option<V> {
        let mut shard = self.lock(Self::shard_of(key));
        let at = *shard.index.get(&key)?;
        let slot = &mut shard.slots[at];
        slot.referenced = true;
        Some(slot.value.clone())
    }

    /// Insert `value` under `key`. First write wins (values under equal
    /// keys are equal by construction): `None` when `key` was already
    /// resident, which neither evicts nor marks it. At the bound a
    /// second-chance sweep evicts one entry of the key's shard.
    pub fn insert(&self, key: u64, value: V) -> Option<Stored> {
        let mut shard = self.lock(Self::shard_of(key));
        if shard.index.contains_key(&key) {
            return None;
        }
        let capacity = self.shard_capacity.load(Ordering::Relaxed);
        let evicted = shard.store(key, value, capacity);
        Some(Stored {
            evicted,
            shard: Self::shard_of(key),
            shard_len: shard.slots.len(),
        })
    }

    /// Resident entries per shard, in shard order.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        (0..SHARDS).map(|s| self.lock(s).slots.len()).collect()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shard_occupancy().iter().sum()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every resident `(key, value)` pair, in shard-then-slot order.
    pub fn entries(&self) -> Vec<(u64, V)> {
        let mut entries = Vec::new();
        for s in 0..SHARDS {
            let shard = self.lock(s);
            entries.extend(
                shard
                    .slots
                    .iter()
                    .map(|slot| (slot.key, slot.value.clone())),
            );
        }
        entries
    }
}
