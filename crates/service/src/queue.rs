//! The streaming delta queue: batching, coalescing, backpressure and the
//! bounded-lag drain contract.
//!
//! Production routers emit updates far faster than one verification per
//! update can absorb (ROADMAP item 2). The [`DeltaQueue`] decouples
//! ingestion from verification: `ApplyDeltas {ack: "enqueued"}` appends to
//! the queue and returns immediately. The queue is emptied only by the
//! session's one delta path, under its mutation lock: the background drain
//! ([`crate::StreamingHandle`]), a `Verify`'s read-your-writes flush and
//! every synchronous delta request (v1 `ApplyDelta`, `ApplyDeltas {ack:
//! "verified"}`) take the whole pending batch and apply it, followed by the
//! request's own deltas, in one analysis rebuild
//! ([`plankton_core::IncrementalVerifier::apply_deltas`]).
//!
//! # Coalescing
//!
//! While deltas wait, redundant ones collapse ([`Coalescer`]):
//!
//! * `LinkDown` / `LinkUp` on one link, and `OspfCostChange` on one
//!   (device, link): **last writer wins** — the earlier queued delta is
//!   replaced in place.
//! * `BgpPolicyEdit` on one (device, peer) session: **field-merged** — a
//!   later edit's `Some` fields win, its `None` fields keep the earlier
//!   edit's values (matching `apply`'s only-`Some`-overwrites semantics).
//! * `StaticRouteRemove (device, prefix)` **cancels** every pending
//!   `StaticRouteAdd`/`StaticRouteRemove` for the same slot (`apply`
//!   removes *all* routes for the prefix, so intermediate adds are
//!   invisible in the final state). `StaticRouteAdd`s never coalesce with
//!   each other: the device's route table is an ordered, duplicate-keeping
//!   `Vec` and replay must preserve it exactly.
//! * `NodeAdd` / `NodeRemove` are structural **barriers**: they seal every
//!   open slot, so nothing coalesces across them.
//!
//! Coalescing is *final-state* equivalence: replaying the coalesced batch
//! through one [`apply_deltas`](plankton_core::IncrementalVerifier::apply_deltas)
//! call yields a network byte-identical to sequential one-at-a-time replay
//! of the raw stream. A coalesced pair like `[Down, Up]` can leave a no-op
//! residue (`Up` on an already-up link); batch apply skips such errors
//! per-delta exactly as sequential replay would have (the delta layer
//! guarantees an errored apply leaves the network unchanged).
//!
//! # Lag contract and backpressure
//!
//! The drain thread wakes when `pending >= max_lag_deltas` or the oldest
//! pending delta is older than `max_lag_ms` (coalesced survivors keep the
//! *earliest* enqueue time of anything folded into them, so coalescing can
//! never hide age). Above `max_pending_deltas` the queue sheds new deltas
//! with the PR 7 `overloaded + retry_after_ms` contract instead of growing
//! unboundedly.

use plankton_config::ConfigDelta;
use plankton_net::ip::Prefix;
use plankton_net::topology::{LinkId, NodeId};
use plankton_telemetry::{Counter, Gauge, Histogram, Registry, Unit};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where a delta lands in the coalescing map: one slot per independently
/// updatable piece of network state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum SlotKey {
    /// Administrative link state (`LinkDown` / `LinkUp`).
    Link(LinkId),
    /// One device's OSPF cost on one link.
    OspfCost(NodeId, LinkId),
    /// One device's static routes for one prefix.
    StaticRoute(NodeId, Prefix),
    /// One BGP session's policy.
    Bgp(NodeId, NodeId),
}

fn slot_key(delta: &ConfigDelta) -> Option<SlotKey> {
    match delta {
        ConfigDelta::LinkDown { link } | ConfigDelta::LinkUp { link } => Some(SlotKey::Link(*link)),
        ConfigDelta::OspfCostChange { device, link, .. } => Some(SlotKey::OspfCost(*device, *link)),
        ConfigDelta::StaticRouteAdd { device, route } => {
            Some(SlotKey::StaticRoute(*device, route.prefix))
        }
        ConfigDelta::StaticRouteRemove { device, prefix } => {
            Some(SlotKey::StaticRoute(*device, *prefix))
        }
        ConfigDelta::BgpPolicyEdit { device, peer, .. } => Some(SlotKey::Bgp(*device, *peer)),
        // Structural deltas have no slot: they are coalescing barriers.
        ConfigDelta::NodeAdd { .. } | ConfigDelta::NodeRemove { .. } => None,
    }
}

/// A delta waiting in the queue (or surviving coalescing inside a
/// [`Coalescer`]). Tombstoned entries keep their position but are skipped
/// when the batch is taken.
struct Pending {
    delta: ConfigDelta,
    /// When the *earliest* delta folded into this entry was enqueued — lag
    /// accounting stays conservative under coalescing.
    enqueued: Instant,
    dead: bool,
}

/// What happens to slots when a delta enters a [`Coalescer`].
enum SlotState {
    /// Single-survivor slots (link, OSPF cost, BGP): index of the live entry.
    One(usize),
    /// Static-route slots: indices of every live add/remove, in order.
    Routes(Vec<usize>),
}

/// The pure coalescing engine: an ordered list of entries plus the open-slot
/// map. Shared by the live [`DeltaQueue`] and [`coalesce_batch`], which
/// coalesces a synchronous request's own deltas without queueing them.
#[derive(Default)]
pub struct Coalescer {
    entries: Vec<Pending>,
    slots: BTreeMap<SlotKey, SlotState>,
    live: usize,
    coalesced: u64,
}

impl Coalescer {
    /// Fold one delta in. Returns the entry index the delta's effect landed
    /// in and how many previously pending deltas this push coalesced away
    /// (0 for a plain append).
    pub fn push(&mut self, delta: ConfigDelta, enqueued: Instant) -> (usize, u64) {
        let before = self.coalesced;
        let entry = match slot_key(&delta) {
            None => {
                // Structural barrier: seal every open slot.
                self.slots.clear();
                self.append(delta, enqueued, None)
            }
            Some(key @ SlotKey::Link(_)) | Some(key @ SlotKey::OspfCost(..)) => {
                match self.slots.get(&key) {
                    Some(SlotState::One(index)) => {
                        let index = *index;
                        self.replace(index, delta);
                        index
                    }
                    _ => self.append(delta, enqueued, Some((key, false))),
                }
            }
            Some(key @ SlotKey::Bgp(..)) => match self.slots.get(&key) {
                Some(SlotState::One(index)) => {
                    let index = *index;
                    self.merge_bgp(index, delta);
                    index
                }
                _ => self.append(delta, enqueued, Some((key, false))),
            },
            Some(key @ SlotKey::StaticRoute(..)) => {
                let removes = matches!(delta, ConfigDelta::StaticRouteRemove { .. });
                if removes {
                    // Remove wipes every route for the prefix: pending adds
                    // and removes in this slot are invisible in the final
                    // state. Tombstone them, keeping the earliest age.
                    let mut earliest = enqueued;
                    if let Some(SlotState::Routes(indices)) = self.slots.remove(&key) {
                        for index in indices {
                            let entry = &mut self.entries[index];
                            if !entry.dead {
                                entry.dead = true;
                                self.live -= 1;
                                self.coalesced += 1;
                                earliest = earliest.min(entry.enqueued);
                            }
                        }
                    }
                    self.append(delta, earliest, Some((key, true)))
                } else {
                    self.append(delta, enqueued, Some((key, true)))
                }
            }
        };
        (entry, self.coalesced - before)
    }

    fn append(
        &mut self,
        delta: ConfigDelta,
        enqueued: Instant,
        slot: Option<(SlotKey, bool)>,
    ) -> usize {
        let index = self.entries.len();
        self.entries.push(Pending {
            delta,
            enqueued,
            dead: false,
        });
        self.live += 1;
        if let Some((key, routes)) = slot {
            if routes {
                match self
                    .slots
                    .entry(key)
                    .or_insert_with(|| SlotState::Routes(Vec::new()))
                {
                    SlotState::Routes(indices) => indices.push(index),
                    one => *one = SlotState::Routes(vec![index]),
                }
            } else {
                self.slots.insert(key, SlotState::One(index));
            }
        }
        index
    }

    /// Last writer wins: overwrite the surviving entry's delta in place,
    /// keeping its queue position and (earlier) enqueue time.
    fn replace(&mut self, index: usize, delta: ConfigDelta) {
        self.entries[index].delta = delta;
        self.coalesced += 1;
    }

    /// Field-merge a BGP edit: the later edit's `Some` fields win, `None`
    /// fields keep the earlier values — matching `apply`'s semantics of
    /// only overwriting `Some` route maps.
    fn merge_bgp(&mut self, index: usize, delta: ConfigDelta) {
        let (ConfigDelta::BgpPolicyEdit {
            import: new_import,
            export: new_export,
            ..
        },) = (delta,)
        else {
            unreachable!("Bgp slot only ever holds BgpPolicyEdit");
        };
        let ConfigDelta::BgpPolicyEdit { import, export, .. } = &mut self.entries[index].delta
        else {
            unreachable!("Bgp slot only ever holds BgpPolicyEdit");
        };
        if let Some(map) = new_import {
            *import = Some(map);
        }
        if let Some(map) = new_export {
            *export = Some(map);
        }
        self.coalesced += 1;
    }

    /// Deltas currently alive (pending minus tombstones).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Deltas coalesced away so far.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Enqueue time of the oldest live delta.
    pub fn oldest(&self) -> Option<Instant> {
        self.entries
            .iter()
            .filter(|e| !e.dead)
            .map(|e| e.enqueued)
            .min()
    }

    /// Take the surviving batch in order, resetting the coalescer.
    pub fn take(&mut self) -> Vec<(ConfigDelta, Instant)> {
        self.slots.clear();
        self.live = 0;
        self.entries
            .drain(..)
            .filter(|e| !e.dead)
            .map(|e| (e.delta, e.enqueued))
            .collect()
    }
}

/// Per-input fate from [`coalesce_batch`]: either the delta is the final
/// writer of a surviving batch slot, or its effect was folded into one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchFate {
    /// The delta survived coalescing as `deltas[output]` in the batch.
    Survivor {
        /// Index into [`CoalescedBatch::deltas`].
        output: usize,
    },
    /// The delta's effect was folded into a later (or merged) survivor.
    Coalesced,
}

/// Result of [`coalesce_batch`]: the surviving deltas in order, a fate per
/// *input* delta, and the coalesced-away count.
pub struct CoalescedBatch {
    /// Surviving deltas, in arrival order of their slots.
    pub deltas: Vec<ConfigDelta>,
    /// One fate per input delta, in input order.
    pub fates: Vec<BatchFate>,
    /// How many input deltas were coalesced away.
    pub coalesced: u64,
}

/// Coalesce a synchronous request's own batch (v1 `ApplyDelta`'s one delta
/// or an `ApplyDeltas {ack: "verified"}` batch), tracking which input delta
/// ended up where so per-delta acks can report `applied` vs `coalesced`.
pub fn coalesce_batch(deltas: Vec<ConfigDelta>) -> CoalescedBatch {
    let mut coalescer = Coalescer::default();
    let now = Instant::now();
    let mut entry_of = Vec::with_capacity(deltas.len());
    let mut last_writer: Vec<usize> = Vec::new();
    for (input, delta) in deltas.into_iter().enumerate() {
        let (entry, _) = coalescer.push(delta, now);
        if entry == last_writer.len() {
            last_writer.push(input);
        } else {
            last_writer[entry] = input;
        }
        entry_of.push(entry);
    }
    let coalesced = coalescer.coalesced();
    // Surviving entries keep arrival order: map entry index -> batch index.
    let mut output_of = vec![None; coalescer.entries.len()];
    let mut next = 0usize;
    for (index, entry) in coalescer.entries.iter().enumerate() {
        if !entry.dead {
            output_of[index] = Some(next);
            next += 1;
        }
    }
    let fates = entry_of
        .iter()
        .enumerate()
        .map(|(input, &entry)| match output_of[entry] {
            Some(output) if last_writer[entry] == input => BatchFate::Survivor { output },
            _ => BatchFate::Coalesced,
        })
        .collect();
    let deltas = coalescer.take().into_iter().map(|(d, _)| d).collect();
    CoalescedBatch {
        deltas,
        fates,
        coalesced,
    }
}

/// Verify-lag percentiles over the recent-sample ring.
#[derive(Clone, Copy, Debug, Default)]
pub struct LagSnapshot {
    /// Median enqueue→verified lag, microseconds.
    pub p50_micros: u64,
    /// 99th-percentile enqueue→verified lag, microseconds.
    pub p99_micros: u64,
}

/// How many recent lag samples the percentile ring keeps.
const LAG_RING: usize = 4096;

/// A queue's instruments, registered in the registry it was built in (the
/// session's `Stats` reads them there).
pub(crate) struct QueueMetrics {
    depth: Arc<Gauge>,
    pub(crate) enqueued: Arc<Counter>,
    pub(crate) coalesced: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) max_batch: Arc<Gauge>,
    lag: Arc<Histogram>,
}

impl QueueMetrics {
    fn register(registry: &Registry) -> Self {
        QueueMetrics {
            depth: registry.gauge(
                "plankton_delta_queue_depth",
                "Deltas pending in the streaming queue (after coalescing).",
            ),
            enqueued: registry.counter(
                "plankton_deltas_enqueued_total",
                "Deltas accepted into the streaming queue.",
            ),
            coalesced: registry.counter(
                "plankton_deltas_coalesced_total",
                "Pending deltas coalesced away before verification.",
            ),
            shed: registry.counter(
                "plankton_deltas_shed_total",
                "Deltas shed at the queue high-water mark (overloaded).",
            ),
            batches: registry.counter(
                "plankton_delta_batches_total",
                "Coalesced batches drained from the streaming queue.",
            ),
            max_batch: registry.gauge(
                "plankton_delta_batch_max",
                "Largest coalesced batch drained from the streaming queue.",
            ),
            lag: registry.histogram(
                "plankton_verify_lag_seconds",
                "Per-delta enqueue-to-verified lag through the streaming path.",
                Unit::Micros,
            ),
        }
    }
}

struct QueueInner {
    coalescer: Coalescer,
    stopped: bool,
    /// The pending-delta count at which the drain thread wants to be woken
    /// ([`DeltaQueue::wait_drain_needed`] records its threshold here before
    /// it sleeps; `u64::MAX` until then).
    drain_at: u64,
    /// Is the drain thread asleep *without* a timeout (it found the queue
    /// empty), so that only a push can start its lag timer?
    drain_untimed: bool,
}

/// The shared streaming queue: a [`Coalescer`] behind a mutex + condvar,
/// with high-water shedding, drain wakeups and lag accounting.
pub struct DeltaQueue {
    inner: Mutex<QueueInner>,
    drain_wakeup: Condvar,
    pub(crate) metrics: QueueMetrics,
    lag_ring: Mutex<VecDeque<u64>>,
}

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at its high-water mark; retry after the hint.
    HighWater,
    /// The queue was stopped (daemon shutting down).
    Stopped,
}

impl Default for DeltaQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaQueue {
    /// An empty queue, counting in a private registry.
    pub fn new() -> Self {
        Self::in_registry(&Registry::new())
    }

    /// An empty queue whose instruments are registered in `registry` (a
    /// daemon session's, so `Stats` and the `Metrics` scrape read them).
    pub fn in_registry(registry: &Registry) -> Self {
        DeltaQueue {
            inner: Mutex::new(QueueInner {
                coalescer: Coalescer::default(),
                stopped: false,
                drain_at: u64::MAX,
                drain_untimed: false,
            }),
            drain_wakeup: Condvar::new(),
            metrics: QueueMetrics::register(registry),
            lag_ring: Mutex::new(VecDeque::with_capacity(LAG_RING)),
        }
    }

    /// Enqueue one delta, coalescing against everything pending. Returns how
    /// many pending deltas the push coalesced away. Sheds (without mutating
    /// the queue) when `live >= high_water`.
    pub fn push(&self, delta: ConfigDelta, high_water: u64) -> Result<u64, PushError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.stopped {
            return Err(PushError::Stopped);
        }
        if inner.coalescer.live() as u64 >= high_water {
            drop(inner);
            self.metrics.shed.inc();
            return Err(PushError::HighWater);
        }
        let (_, folded) = inner.coalescer.push(delta, Instant::now());
        let depth = inner.coalescer.live() as u64;
        // Wake the drain thread only when it cannot wake itself: it sleeps
        // without a timeout on an empty queue (this push starts its lag
        // timer), or the count threshold is reached. Otherwise it is busy or
        // on a timeout of its own that can only be early, never late — and a
        // wakeup per delta would cost the ingest path a futex call and a
        // lock hand-off each, exactly while the daemon is otherwise idle.
        let wake = inner.drain_untimed || depth >= inner.drain_at;
        drop(inner);
        self.metrics.enqueued.inc();
        if folded > 0 {
            self.metrics.coalesced.add(folded);
        }
        self.metrics.depth.set(depth);
        if wake {
            self.drain_wakeup.notify_one();
        }
        Ok(folded)
    }

    /// Deltas currently pending (after coalescing).
    pub fn depth(&self) -> u64 {
        self.inner.lock().unwrap().coalescer.live() as u64
    }

    /// Age of the oldest pending delta.
    pub fn oldest_age(&self) -> Option<Duration> {
        let inner = self.inner.lock().unwrap();
        inner.coalescer.oldest().map(|t| t.elapsed())
    }

    /// Take everything pending right now (the session's one delta path, for
    /// the drain and every synchronous flush alike). Never blocks.
    pub fn take_all(&self) -> Vec<(ConfigDelta, Instant)> {
        let mut inner = self.inner.lock().unwrap();
        let batch = inner.coalescer.take();
        drop(inner);
        self.note_batch(&batch);
        batch
    }

    /// Block until the lag contract requires a drain — `pending >=
    /// max_lag_deltas`, or the oldest pending delta is at least `max_lag`
    /// old. Returns `false` once the queue is stopped *and* empty (the
    /// drain loop exits only after everything pending was taken).
    ///
    /// This deliberately does *not* take the batch: the taker
    /// ([`DeltaQueue::take_all`]) runs under the session's mutation lock, so
    /// a concurrent `Verify` flush can never race a signalled-but-not-yet-
    /// applied batch out from under its pinned snapshot.
    pub fn wait_drain_needed(&self, max_lag_deltas: u64, max_lag: Duration) -> bool {
        let mut inner = self.inner.lock().unwrap();
        inner.drain_at = max_lag_deltas.max(1);
        loop {
            let live = inner.coalescer.live() as u64;
            if inner.stopped {
                return live > 0;
            }
            if live >= inner.drain_at {
                return true;
            }
            if let Some(oldest) = inner.coalescer.oldest() {
                let age = oldest.elapsed();
                if age >= max_lag {
                    return true;
                }
                // Sleep until the oldest delta crosses the lag bound (or the
                // push that reaches `drain_at`, or a stop, wakes us earlier).
                let (guard, _) = self
                    .drain_wakeup
                    .wait_timeout(inner, max_lag - age)
                    .unwrap();
                inner = guard;
            } else {
                inner.drain_untimed = true;
                inner = self.drain_wakeup.wait(inner).unwrap();
                inner.drain_untimed = false;
            }
        }
    }

    fn note_batch(&self, batch: &[(ConfigDelta, Instant)]) {
        self.metrics.depth.set(0);
        if batch.is_empty() {
            return;
        }
        self.metrics.batches.inc();
        self.metrics.max_batch.record_max(batch.len() as u64);
    }

    /// Record enqueue→verified lag for a drained batch, once its
    /// verification completed.
    pub fn record_drain(&self, enqueued: &[Instant]) {
        let mut ring = self.lag_ring.lock().unwrap();
        for at in enqueued {
            let micros = at.elapsed().as_micros() as u64;
            self.metrics.lag.observe(micros);
            if ring.len() == LAG_RING {
                ring.pop_front();
            }
            ring.push_back(micros);
        }
    }

    /// Discard everything pending without counting a drained batch (used
    /// when `Load` replaces the network the pending deltas referred to).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        let _ = inner.coalescer.take();
        drop(inner);
        self.metrics.depth.set(0);
    }

    /// Stop the queue: pushes fail, and [`DeltaQueue::wait_drain_needed`]
    /// keeps answering `true` until the drain has taken what is left, then
    /// returns `false`.
    pub fn stop(&self) {
        self.inner.lock().unwrap().stopped = true;
        self.drain_wakeup.notify_all();
    }

    /// Lag percentiles over the recent-sample ring: the samples at ranks
    /// `⌊(len − 1)·q⌋` of the sorted ring. The ring is copied under its lock
    /// and the two ranks are selected after it is released, so a reader
    /// never holds up the drain's [`DeltaQueue::record_drain`].
    pub fn lag(&self) -> LagSnapshot {
        let mut samples: Vec<u64> = self.lag_ring.lock().unwrap().iter().copied().collect();
        if samples.is_empty() {
            return LagSnapshot::default();
        }
        let rank = |q: f64| ((samples.len() - 1) as f64 * q) as usize;
        let (p50, p99) = (rank(0.50), rank(0.99));
        let p99_micros = *samples.select_nth_unstable(p99).1;
        LagSnapshot {
            // Selection left every sample of a lower rank before `p99`.
            p50_micros: *samples[..=p99].select_nth_unstable(p50).1,
            p99_micros,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plankton_config::StaticRoute;
    use plankton_net::ip::Prefix;

    fn link(n: u32) -> LinkId {
        LinkId(n)
    }
    fn node(n: u32) -> NodeId {
        NodeId(n)
    }
    fn prefix(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn link_flaps_coalesce_to_the_last_writer() {
        let mut c = Coalescer::default();
        let now = Instant::now();
        c.push(ConfigDelta::LinkDown { link: link(3) }, now);
        c.push(ConfigDelta::LinkUp { link: link(3) }, now);
        c.push(ConfigDelta::LinkDown { link: link(3) }, now);
        c.push(ConfigDelta::LinkDown { link: link(9) }, now);
        assert_eq!(c.live(), 2);
        assert_eq!(c.coalesced(), 2);
        let batch: Vec<_> = c.take().into_iter().map(|(d, _)| d).collect();
        assert_eq!(
            batch,
            vec![
                ConfigDelta::LinkDown { link: link(3) },
                ConfigDelta::LinkDown { link: link(9) },
            ]
        );
    }

    #[test]
    fn ospf_cost_slots_are_per_device_and_link() {
        let mut c = Coalescer::default();
        let now = Instant::now();
        for cost in [10, 20, 30] {
            c.push(
                ConfigDelta::OspfCostChange {
                    device: node(1),
                    link: link(2),
                    cost,
                },
                now,
            );
        }
        c.push(
            ConfigDelta::OspfCostChange {
                device: node(2),
                link: link(2),
                cost: 7,
            },
            now,
        );
        assert_eq!(c.live(), 2);
        assert_eq!(c.coalesced(), 2);
        let batch = c.take();
        assert!(matches!(
            batch[0].0,
            ConfigDelta::OspfCostChange { cost: 30, .. }
        ));
    }

    #[test]
    fn static_route_remove_cancels_pending_adds() {
        let mut c = Coalescer::default();
        let now = Instant::now();
        let p = prefix("10.0.0.0/24");
        c.push(
            ConfigDelta::StaticRouteAdd {
                device: node(1),
                route: StaticRoute::null(p),
            },
            now,
        );
        c.push(
            ConfigDelta::StaticRouteAdd {
                device: node(1),
                route: StaticRoute::null(p).with_distance(2),
            },
            now,
        );
        c.push(
            ConfigDelta::StaticRouteRemove {
                device: node(1),
                prefix: p,
            },
            now,
        );
        assert_eq!(c.live(), 1);
        assert_eq!(c.coalesced(), 2);
        let batch = c.take();
        assert!(matches!(batch[0].0, ConfigDelta::StaticRouteRemove { .. }));
    }

    #[test]
    fn static_route_adds_never_coalesce_with_each_other() {
        // The device route table is an ordered Vec that keeps duplicates:
        // two adds must both survive, in order.
        let mut c = Coalescer::default();
        let now = Instant::now();
        let p = prefix("10.0.0.0/24");
        c.push(
            ConfigDelta::StaticRouteAdd {
                device: node(1),
                route: StaticRoute::null(p),
            },
            now,
        );
        c.push(
            ConfigDelta::StaticRouteAdd {
                device: node(1),
                route: StaticRoute::null(p).with_distance(2),
            },
            now,
        );
        assert_eq!(c.live(), 2);
        assert_eq!(c.coalesced(), 0);
    }

    #[test]
    fn bgp_edits_field_merge_with_later_some_winning() {
        use plankton_config::route_map::RouteMap;
        let mut c = Coalescer::default();
        let now = Instant::now();
        c.push(
            ConfigDelta::BgpPolicyEdit {
                device: node(1),
                peer: node(2),
                import: Some(RouteMap::permit_all()),
                export: Some(RouteMap::deny_all()),
            },
            now,
        );
        c.push(
            ConfigDelta::BgpPolicyEdit {
                device: node(1),
                peer: node(2),
                import: None,
                export: Some(RouteMap::permit_all()),
            },
            now,
        );
        assert_eq!(c.live(), 1);
        assert_eq!(c.coalesced(), 1);
        let batch = c.take();
        let ConfigDelta::BgpPolicyEdit { import, export, .. } = &batch[0].0 else {
            panic!("expected a BGP edit");
        };
        // Earlier import survived; later export won.
        assert!(import.is_some());
        assert_eq!(export.as_ref().unwrap(), &RouteMap::permit_all());
    }

    #[test]
    fn structural_deltas_are_coalescing_barriers() {
        let mut c = Coalescer::default();
        let now = Instant::now();
        c.push(ConfigDelta::LinkDown { link: link(3) }, now);
        c.push(ConfigDelta::NodeRemove { device: node(5) }, now);
        c.push(ConfigDelta::LinkUp { link: link(3) }, now);
        // The LinkUp lands *after* the barrier: nothing coalesces.
        assert_eq!(c.live(), 3);
        assert_eq!(c.coalesced(), 0);
    }

    #[test]
    fn queue_sheds_at_the_high_water_mark() {
        let queue = DeltaQueue::new();
        for n in 0..4 {
            queue
                .push(ConfigDelta::LinkDown { link: link(n) }, 4)
                .unwrap();
        }
        assert_eq!(
            queue.push(ConfigDelta::LinkDown { link: link(99) }, 4),
            Err(PushError::HighWater)
        );
        // Coalescing keeps depth below high water: a repeat of link 0 fits.
        queue
            .push(ConfigDelta::LinkUp { link: link(0) }, 5)
            .unwrap();
        assert_eq!(queue.depth(), 4);
        assert_eq!(queue.metrics.shed.get(), 1);
        assert_eq!(queue.metrics.coalesced.get(), 1);
    }

    #[test]
    fn drain_signal_fires_on_count_and_clears_on_stop() {
        let queue = Arc::new(DeltaQueue::new());
        for n in 0..3 {
            queue
                .push(ConfigDelta::LinkDown { link: link(n) }, 100)
                .unwrap();
        }
        assert!(queue.wait_drain_needed(3, Duration::from_secs(3600)));
        assert_eq!(queue.take_all().len(), 3);
        queue
            .push(ConfigDelta::LinkDown { link: link(9) }, 100)
            .unwrap();
        queue.stop();
        // Stopped but non-empty: one final drain is still required.
        assert!(queue.wait_drain_needed(3, Duration::from_secs(3600)));
        assert_eq!(queue.take_all().len(), 1);
        assert!(!queue.wait_drain_needed(3, Duration::from_secs(3600)));
        assert_eq!(
            queue.push(ConfigDelta::LinkDown { link: link(0) }, 100),
            Err(PushError::Stopped)
        );
    }

    #[test]
    fn drain_signal_fires_for_a_lone_delta_once_it_ages_past_the_lag_bound() {
        let queue = DeltaQueue::new();
        queue
            .push(ConfigDelta::LinkDown { link: link(1) }, 100)
            .unwrap();
        let start = Instant::now();
        assert!(queue.wait_drain_needed(1000, Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert_eq!(queue.take_all().len(), 1);
    }

    #[test]
    fn a_sleeping_drain_is_woken_by_the_first_push_and_by_the_threshold_push() {
        // Pushes in between wake nobody, so a lost wakeup here would leave
        // the waiter asleep for the hour-long lag bound. (The result holds
        // for every interleaving; the pause only makes the interesting one —
        // the waiter asleep before each push — the likely one.)
        let queue = Arc::new(DeltaQueue::new());
        let (done, woke) = std::sync::mpsc::channel();
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                done.send(queue.wait_drain_needed(3, Duration::from_secs(3600)))
                    .unwrap();
            })
        };
        for n in 0..3 {
            std::thread::sleep(Duration::from_millis(20));
            assert!(woke.try_recv().is_err(), "woke below the threshold");
            queue
                .push(ConfigDelta::LinkDown { link: link(n) }, 100)
                .unwrap();
        }
        assert_eq!(woke.recv_timeout(Duration::from_secs(10)), Ok(true));
        waiter.join().unwrap();
    }

    #[test]
    fn coalesce_batch_reports_per_input_fates() {
        let batch = coalesce_batch(vec![
            ConfigDelta::LinkDown { link: link(1) }, // replaced by index 2
            ConfigDelta::LinkDown { link: link(7) }, // survives untouched
            ConfigDelta::LinkUp { link: link(1) },   // final writer of slot 0
        ]);
        assert_eq!(batch.coalesced, 1);
        assert_eq!(
            batch.deltas,
            vec![
                ConfigDelta::LinkUp { link: link(1) },
                ConfigDelta::LinkDown { link: link(7) },
            ]
        );
        assert_eq!(
            batch.fates,
            vec![
                BatchFate::Coalesced,
                BatchFate::Survivor { output: 1 },
                BatchFate::Survivor { output: 0 },
            ]
        );
    }

    #[test]
    fn lag_percentiles_come_from_the_recent_ring() {
        let queue = DeltaQueue::new();
        let past = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        queue.record_drain(&[past, past, past, past]);
        let lag = queue.lag();
        assert!(lag.p50_micros >= 2_000);
        assert!(lag.p99_micros >= lag.p50_micros);
    }

    #[test]
    fn lag_percentiles_equal_the_sorted_ring_ranks() {
        let queue = DeltaQueue::new();
        for len in (1..=300).chain([LAG_RING - 1, LAG_RING]) {
            let mix = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
            let mut sorted: Vec<u64> = (0..len as u64).map(mix).collect();
            *queue.lag_ring.lock().unwrap() = sorted.iter().copied().collect();
            sorted.sort_unstable();
            let at = |q: f64| sorted[((len - 1) as f64 * q) as usize];
            let lag = queue.lag();
            assert_eq!((lag.p50_micros, lag.p99_micros), (at(0.5), at(0.99)));
        }
    }
}
