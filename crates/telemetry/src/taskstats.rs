//! Per-task cost attribution: which (PEC × failure-set) tasks eat the time?
//!
//! A registry keyed by task identity — an opaque `(group, sub)` pair (the
//! verifier uses PEC id × a fingerprint of the failure set) — accumulating
//! run count, total and max duration, explored states, cache hits, and
//! panics. It is always on, like the metrics registry: the engine's task
//! path records once per *task* (not per model-checking step), and the
//! steady-state cost of a record is a sharded read-lock plus a handful of
//! relaxed atomic adds — no allocation, no write lock, nothing new on the
//! engine's per-step hot loop. The human-readable label (the failure-set
//! rendering) is built lazily, only the first time a key is seen.
//!
//! The registry is **bounded**: a long-lived daemon sees an unbounded stream
//! of task identities (every link that ever goes down is a new failure set
//! for every PEC), and a table that kept them all would make the daemon's
//! memory follow its request count. A stripe that reaches its share of
//! [`TaskCosts::CAPACITY`] sheds its colder half — least total time first,
//! then fewest executions and hits — before admitting a new identity, so the
//! hottest tasks, which are what the table is for, are never the ones lost.
//! [`TaskCosts::shed_entries`] counts what was dropped.
//!
//! Queried as a top-K hottest-tasks table (`Top {k}` / `planktonctl top`).
//! Ordering is deterministic: total duration descending, then group
//! ascending, then label ascending — ties cannot reshuffle between polls.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Stripe count for the key → entry map.
const SHARDS: usize = 16;

/// Accumulated costs of one task identity. All counters are relaxed atomics;
/// writers never take a write lock once the entry exists.
#[derive(Debug, Default)]
pub struct TaskCost {
    runs: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
    states: AtomicU64,
    cache_hits: AtomicU64,
    panics: AtomicU64,
}

/// A point-in-time copy of one entry, labeled with its identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskCostRow {
    /// The coarse identity component (PEC id for the verifier).
    pub group: u64,
    /// Human-readable sub-identity (the failure-set rendering).
    pub label: String,
    /// Completed executions.
    pub runs: u64,
    /// Total execution time, microseconds.
    pub total_micros: u64,
    /// Longest single execution, microseconds.
    pub max_micros: u64,
    /// Total states explored across executions.
    pub states: u64,
    /// Executions avoided entirely by the result cache.
    pub cache_hits: u64,
    /// Executions that panicked.
    pub panics: u64,
}

struct Shard {
    entries: HashMap<(u64, u64), Arc<Entry>>,
}

impl Shard {
    /// Drop the colder half of the entries; returns how many went.
    fn shed_colder_half(&mut self) -> u64 {
        let heat = |e: &Entry| {
            let c = &e.cost;
            (
                c.total_micros.load(Ordering::Relaxed),
                c.runs.load(Ordering::Relaxed) + c.cache_hits.load(Ordering::Relaxed),
            )
        };
        let mut by_heat: Vec<((u64, u64), (u64, u64))> =
            self.entries.iter().map(|(k, e)| (heat(e), *k)).collect();
        let keep_from = by_heat.len() / 2;
        by_heat.select_nth_unstable(keep_from);
        for (_, key) in &by_heat[..keep_from] {
            self.entries.remove(key);
        }
        keep_from as u64
    }
}

struct Entry {
    group: u64,
    label: String,
    cost: TaskCost,
}

/// The attribution registry: a lock-striped map of task identities to
/// atomic accumulators.
pub struct TaskCosts {
    shards: Vec<RwLock<Shard>>,
    shed: AtomicU64,
}

impl TaskCosts {
    /// Bound on resident task identities (split evenly over the stripes).
    pub const CAPACITY: usize = 4096;

    /// An empty registry.
    pub fn new() -> Self {
        TaskCosts {
            shards: (0..SHARDS)
                .map(|_| {
                    RwLock::new(Shard {
                        entries: HashMap::new(),
                    })
                })
                .collect(),
            shed: AtomicU64::new(0),
        }
    }

    /// Task identities dropped by the capacity bound so far.
    pub fn shed_entries(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    fn entry(&self, group: u64, sub: u64, label: impl FnOnce() -> String) -> Arc<Entry> {
        let shard = &self.shards[(group as usize ^ (sub as usize).rotate_left(7)) % SHARDS];
        {
            let guard = shard.read().expect("taskstats shard poisoned");
            if let Some(entry) = guard.entries.get(&(group, sub)) {
                return entry.clone();
            }
        }
        let mut guard = shard.write().expect("taskstats shard poisoned");
        if guard.entries.len() >= Self::CAPACITY / SHARDS
            && !guard.entries.contains_key(&(group, sub))
        {
            let shed = guard.shed_colder_half();
            self.shed.fetch_add(shed, Ordering::Relaxed);
        }
        guard
            .entries
            .entry((group, sub))
            .or_insert_with(|| {
                Arc::new(Entry {
                    group,
                    label: label(),
                    cost: TaskCost::default(),
                })
            })
            .clone()
    }

    /// Record one completed execution of the task `(group, sub)`.
    pub fn record_run(
        &self,
        group: u64,
        sub: u64,
        elapsed_micros: u64,
        states: u64,
        label: impl FnOnce() -> String,
    ) {
        let entry = self.entry(group, sub, label);
        entry.cost.runs.fetch_add(1, Ordering::Relaxed);
        entry
            .cost
            .total_micros
            .fetch_add(elapsed_micros, Ordering::Relaxed);
        entry
            .cost
            .max_micros
            .fetch_max(elapsed_micros, Ordering::Relaxed);
        entry.cost.states.fetch_add(states, Ordering::Relaxed);
    }

    /// Record one execution of `(group, sub)` avoided by the result cache.
    pub fn record_cache_hit(&self, group: u64, sub: u64, label: impl FnOnce() -> String) {
        let entry = self.entry(group, sub, label);
        entry.cost.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one panicked execution of `(group, sub)`.
    pub fn record_panic(&self, group: u64, sub: u64, label: impl FnOnce() -> String) {
        let entry = self.entry(group, sub, label);
        entry.cost.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// `(runs, total_micros, max_micros)` accumulated so far for one task,
    /// zeroes if never seen. Used to enrich `slow_task` warn events.
    pub fn totals(&self, group: u64, sub: u64) -> (u64, u64, u64) {
        let shard = &self.shards[(group as usize ^ (sub as usize).rotate_left(7)) % SHARDS];
        let guard = shard.read().expect("taskstats shard poisoned");
        match guard.entries.get(&(group, sub)) {
            Some(entry) => (
                entry.cost.runs.load(Ordering::Relaxed),
                entry.cost.total_micros.load(Ordering::Relaxed),
                entry.cost.max_micros.load(Ordering::Relaxed),
            ),
            None => (0, 0, 0),
        }
    }

    /// The `k` hottest tasks by total duration. Deterministic order:
    /// `total_micros` descending, then `group` ascending, then `label`
    /// ascending — equal durations always render in the same order.
    pub fn top(&self, k: usize) -> Vec<TaskCostRow> {
        let mut rows = self.snapshot();
        rows.sort_by(|a, b| {
            b.total_micros
                .cmp(&a.total_micros)
                .then(a.group.cmp(&b.group))
                .then(a.label.cmp(&b.label))
        });
        rows.truncate(k);
        rows
    }

    /// Every entry, unsorted.
    pub fn snapshot(&self) -> Vec<TaskCostRow> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            let guard = shard.read().expect("taskstats shard poisoned");
            for entry in guard.entries.values() {
                rows.push(TaskCostRow {
                    group: entry.group,
                    label: entry.label.clone(),
                    runs: entry.cost.runs.load(Ordering::Relaxed),
                    total_micros: entry.cost.total_micros.load(Ordering::Relaxed),
                    max_micros: entry.cost.max_micros.load(Ordering::Relaxed),
                    states: entry.cost.states.load(Ordering::Relaxed),
                    cache_hits: entry.cost.cache_hits.load(Ordering::Relaxed),
                    panics: entry.cost.panics.load(Ordering::Relaxed),
                });
            }
        }
        rows
    }

    /// Sum of `total_micros` over every entry.
    pub fn total_micros(&self) -> u64 {
        self.snapshot().iter().map(|r| r.total_micros).sum()
    }
}

impl Default for TaskCosts {
    fn default() -> Self {
        TaskCosts::new()
    }
}

/// The process-global registry the verifier feeds.
pub fn global() -> &'static TaskCosts {
    static GLOBAL: OnceLock<TaskCosts> = OnceLock::new();
    GLOBAL.get_or_init(TaskCosts::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_runs_hits_and_panics() {
        let costs = TaskCosts::new();
        costs.record_run(3, 10, 100, 50, || "f{1}".to_string());
        costs.record_run(3, 10, 300, 70, || unreachable!("label built twice"));
        costs.record_cache_hit(3, 10, || unreachable!());
        costs.record_panic(3, 10, || unreachable!());
        let rows = costs.top(10);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!((row.group, row.label.as_str()), (3, "f{1}"));
        assert_eq!(row.runs, 2);
        assert_eq!(row.total_micros, 400);
        assert_eq!(row.max_micros, 300);
        assert_eq!(row.states, 120);
        assert_eq!(row.cache_hits, 1);
        assert_eq!(row.panics, 1);
        assert_eq!(costs.totals(3, 10), (2, 400, 300));
        assert_eq!(costs.totals(9, 9), (0, 0, 0));
    }

    #[test]
    fn the_registry_is_bounded_and_sheds_the_coldest_identities() {
        let costs = TaskCosts::new();
        // One hot task, then a stream of never-repeated identities — the
        // shape of a daemon whose every link flap mints new failure sets.
        costs.record_run(1, 1, 5_000, 10, || "hot".to_string());
        for i in 0..20 * TaskCosts::CAPACITY as u64 {
            costs.record_cache_hit(2 + i % 7, 1_000 + i, || "cold".to_string());
            if i % 64 == 0 {
                costs.record_run(1, 1, 10, 1, || unreachable!("hot entry was shed"));
            }
            if i % 1024 == 0 {
                assert!(costs.snapshot().len() <= TaskCosts::CAPACITY);
            }
        }
        assert!(costs.snapshot().len() <= TaskCosts::CAPACITY);
        assert!(costs.shed_entries() >= 18 * TaskCosts::CAPACITY as u64);
        assert_eq!(costs.top(1)[0].label, "hot");
        assert!(
            costs.totals(1, 1).0 > 1_000,
            "the hot entry kept its history"
        );
    }

    #[test]
    fn top_k_orders_ties_deterministically() {
        let costs = TaskCosts::new();
        // Three tasks with identical totals, one colder task.
        costs.record_run(5, 1, 200, 0, || "f{}".to_string());
        costs.record_run(2, 7, 200, 0, || "f{b}".to_string());
        costs.record_run(2, 3, 200, 0, || "f{a}".to_string());
        costs.record_run(1, 1, 50, 0, || "f{}".to_string());
        let order: Vec<(u64, String)> = costs
            .top(10)
            .into_iter()
            .map(|r| (r.group, r.label))
            .collect();
        assert_eq!(
            order,
            vec![
                (2, "f{a}".to_string()),
                (2, "f{b}".to_string()),
                (5, "f{}".to_string()),
                (1, "f{}".to_string()),
            ]
        );
        // Stability: repeated queries agree, and truncation keeps the prefix.
        let again: Vec<(u64, String)> = costs
            .top(10)
            .into_iter()
            .map(|r| (r.group, r.label))
            .collect();
        assert_eq!(order, again);
        let top2: Vec<(u64, String)> = costs
            .top(2)
            .into_iter()
            .map(|r| (r.group, r.label))
            .collect();
        assert_eq!(&order[..2], &top2[..]);
    }
}
