//! Content fingerprinting of configuration state.
//!
//! The incremental verification service keys its result cache by *what a
//! verification task actually reads*: the PEC's own configuration content
//! plus a network "slice" per protocol (everything an `OspfModel` /
//! `BgpModel` constructor consumes). A fingerprint is a 64-bit hash produced
//! by the one hasher in the workspace, [`Fingerprinter`]: FNV-1a over
//! 64-bit *words* (one multiply per word, not per byte) with a fold after
//! each multiply so high input bits reach the low output bits too.
//!
//! Typed content is hashed by **structural traversal**: [`Fingerprinter`] is
//! a [`serde::Sink`], and [`Fingerprinter::write`] streams a value's serde
//! shape into it — tags, lengths, field names and scalars, in declaration
//! order — without building the `Value` tree. Any type that serializes
//! deterministically (the whole configuration model: derive order is
//! declaration order, maps are `BTreeMap`s) is therefore hashed without
//! bespoke per-type code, and a field added to a derived type is hashed the
//! day it is added. The tree walk survives only as `Value`'s own `stream`
//! impl, which the tests use as the oracle: streaming a value and streaming
//! its tree must absorb the same words.
//!
//! The expensive part of key derivation — one multi-source Dijkstra per
//! (OSPF PEC x failure set) — is memoized across requests in a
//! [`SliceMemo`]; see [`OspfScopedSlices`] for why that needs no
//! invalidation.
//!
//! These are cache keys, not security hashes: a collision merely serves a
//! stale verification result, and 64 bits over structured input make that
//! astronomically unlikely for the config sizes involved.

use crate::Network;
use plankton_net::failure::FailureSet;
use plankton_net::topology::{LinkId, NodeId, SubgraphComponents};
use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Mutex;

/// A 64-bit word-wise FNV-1a hasher with structure tagging.
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprinter {
    /// A fresh hasher.
    pub fn new() -> Self {
        Fingerprinter { state: FNV_OFFSET }
    }

    /// Absorb one 64-bit word: xor, multiply, fold. The multiply alone only
    /// carries input bits upwards; the fold brings the high half back down,
    /// so every output bit depends on every input bit (the cache shards on
    /// the low bits). Each step is a bijection of the state for a fixed word
    /// and of the word for a fixed state.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let x = (self.state ^ v).wrapping_mul(FNV_PRIME);
        self.state = x ^ (x >> 32);
    }

    /// Absorb one byte (used as a structure/type tag) as a word of its own.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.write_u64(b as u64);
    }

    /// Absorb raw bytes: the length, then little-endian words, the last one
    /// zero-padded (the length disambiguates the padding).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    /// Absorb a string (length-prefixed).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Absorb any serializable value by streaming its serde shape (see the
    /// module docs); no intermediate tree is built.
    pub fn write<T: Serialize + ?Sized>(&mut self, t: &T) {
        t.stream(self);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// The serde shape, tagged so that differently-shaped values with the same
/// scalars cannot absorb the same words.
impl serde::Sink for Fingerprinter {
    fn null(&mut self) {
        self.write_u8(0);
    }
    fn bool(&mut self, b: bool) {
        self.write_u8(1);
        self.write_u8(b as u8);
    }
    fn int(&mut self, n: i64) {
        self.write_u8(2);
        self.write_u64(n as u64);
    }
    fn uint(&mut self, n: u64) {
        self.write_u8(3);
        self.write_u64(n);
    }
    fn float(&mut self, f: f64) {
        self.write_u8(4);
        self.write_u64(f.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.write_u8(5);
        self.write_str(s);
    }
    fn array(&mut self, len: usize) {
        self.write_u8(6);
        self.write_u64(len as u64);
    }
    fn object(&mut self, len: usize) {
        self.write_u8(7);
        self.write_u64(len as u64);
    }
    fn key(&mut self, k: &str) {
        self.write_str(k);
    }
}

/// Version of the task-key fingerprint scheme. Persisted result caches are
/// stamped with this value and rejected on mismatch: a content key is only
/// meaningful under the exact hashing scheme that produced it, so any change
/// to key derivation (hasher, slice definitions, key composition, or the
/// serialized shape of any hashed type) must bump this constant. Rejecting a
/// stale snapshot costs one cold verification; accepting one would silently
/// serve results keyed under different semantics.
///
/// History: 1 = byte-wise FNV-1a over the serde `Value` tree; 2 = word-wise
/// FNV-1a over the streamed shape; 3 = the options fingerprint no longer
/// hashes a converged-state limit (the search option is gone); 4 = nor a
/// per-PEC data-plane limit (every converged plane is checked).
pub const FINGERPRINT_SCHEME_VERSION: u32 = 4;

/// Fingerprint one serializable value.
pub fn fingerprint_of<T: Serialize + ?Sized>(t: &T) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write(t);
    fp.finish()
}

/// Combine already-computed fingerprints order-sensitively.
pub fn combine(parts: &[u64]) -> u64 {
    let mut fp = Fingerprinter::new();
    for &p in parts {
        fp.write_u64(p);
    }
    fp.finish()
}

impl Network {
    /// A fingerprint of the entire network document (topology, every device
    /// configuration, administratively-down links). Any observable
    /// configuration change changes this value. Hashed from a canonical
    /// traversal rather than the raw serde tree, because the topology's
    /// serialized form includes a `HashMap` name index whose iteration
    /// order is not deterministic.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'N');
        fp.write_u64(self.node_count() as u64);
        for node in self.topology.nodes() {
            fp.write_str(&node.name);
            fp.write_u8(matches!(node.kind, plankton_net::topology::NodeKind::Host) as u8);
            match node.loopback {
                Some(lb) => fp.write_u64(lb.0 as u64),
                None => fp.write_u8(0xff),
            }
        }
        fp.write_u64(self.topology.link_count() as u64);
        for link in self.topology.links() {
            fp.write_u64(link.a.node.0 as u64);
            fp.write_u64(link.b.node.0 as u64);
            for ifc in [&link.a, &link.b] {
                match ifc.addr {
                    Some(addr) => {
                        fp.write_u64(addr.ip.0 as u64);
                        fp.write_u64(addr.prefix_len as u64);
                    }
                    None => fp.write_u8(0xfe),
                }
            }
        }
        fp.write(&self.down_links);
        fp.write(&self.devices);
        fp.finish()
    }

    /// The OSPF slice: everything an OSPF protocol instance reads from the
    /// network besides the per-prefix origin set and the failure set — each
    /// OSPF speaker's process configuration (interface costs, disabled
    /// links) and the links joining two OSPF speakers.
    ///
    /// Administratively-down links are deliberately **not** filtered out
    /// here: down-ness reaches every verification task through its
    /// *effective failure set* (scenario choice ∪ down links), which is part
    /// of the task's cache key already. Keeping the slice down-agnostic
    /// makes a `LinkDown` delta's tasks key-identical to the pre-delta tasks
    /// that explored the same link as a chosen failure — so a fault-tolerance
    /// verification pre-pays for the link-failure deltas that follow.
    pub fn ospf_slice_fingerprint(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'O');
        fp.write_u64(self.node_count() as u64);
        for n in self.topology.node_ids() {
            if let Some(ospf) = &self.device(n).ospf {
                fp.write_u64(n.0 as u64);
                fp.write(ospf);
            }
        }
        for link in self.topology.links() {
            let (a, b) = link.endpoints();
            if self.device(a).runs_ospf() && self.device(b).runs_ospf() {
                fp.write_u64(link.id.0 as u64);
                fp.write_u64(a.0 as u64);
                fp.write_u64(b.0 as u64);
            }
        }
        fp.finish()
    }

    /// The BGP slice: every BGP speaker's configuration (sessions, route
    /// maps, originated networks), the links that can carry an eBGP
    /// session, and the loopback table iBGP sessions and recursive underlay
    /// resolution consult. iBGP reachability itself flows through dependency
    /// PECs, whose own cache keys are composed into dependents' keys. As
    /// with the OSPF slice, down links are *not* filtered: they reach the
    /// task key through the effective failure set.
    pub fn bgp_slice_fingerprint(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'B');
        fp.write_u64(self.node_count() as u64);
        for n in self.topology.node_ids() {
            if let Some(bgp) = &self.device(n).bgp {
                fp.write_u64(n.0 as u64);
                fp.write(bgp);
            }
        }
        for link in self.topology.links() {
            let (a, b) = link.endpoints();
            let ebgp_pair = |x: plankton_net::topology::NodeId,
                             y: plankton_net::topology::NodeId| {
                self.device(x)
                    .bgp
                    .as_ref()
                    .map(|cfg| cfg.ebgp_neighbors().any(|nbr| nbr.peer == y))
                    .unwrap_or(false)
            };
            if ebgp_pair(a, b) || ebgp_pair(b, a) {
                fp.write_u64(link.id.0 as u64);
                fp.write_u64(a.0 as u64);
                fp.write_u64(b.0 as u64);
            }
        }
        for node in self.topology.nodes() {
            if let Some(lb) = node.loopback {
                fp.write_u64(node.id.0 as u64);
                fp.write_u64(lb.0 as u64);
            }
        }
        fp.finish()
    }

    /// The OSPF speaker graph's connected components: speakers joined by
    /// links on which both ends form an adjacency.
    fn ospf_components(&self) -> SubgraphComponents {
        self.topology.subgraph_components(
            |n| self.device(n).runs_ospf(),
            |l| {
                let enabled = |n: NodeId| {
                    self.device(n)
                        .ospf
                        .as_ref()
                        .and_then(|o| o.cost(l.id))
                        .is_some()
                };
                enabled(l.a.node) && enabled(l.b.node)
            },
        )
    }

    /// The scoped OSPF slicing state for this network: the OSPF speaker
    /// graph's connected components plus per-request closures, over the
    /// session-lifetime `memo` of competitive fingerprints. Compute once per
    /// key-derivation pass; see [`OspfScopedSlices`].
    pub fn ospf_scoped_slices<'a>(&'a self, memo: &'a SliceMemo) -> OspfScopedSlices<'a> {
        OspfScopedSlices {
            network: self,
            memo,
            components: self.ospf_components(),
            structural: RefCell::new(HashMap::new()),
            regions: RefCell::new(HashMap::new()),
            live_graphs: RefCell::new(HashMap::new()),
            memo_hits: Cell::new(0),
            memo_misses: Cell::new(0),
        }
    }

    /// The static-route liveness slice for one device/neighbor pair: the
    /// links between them (an `Interface` static route is installed only
    /// while some joining link is alive — aliveness is decided against the
    /// effective failure set, which the task key carries separately).
    pub fn interface_liveness_fingerprint(
        &self,
        device: plankton_net::topology::NodeId,
        neighbor: plankton_net::topology::NodeId,
    ) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'L');
        fp.write_u64(device.0 as u64);
        fp.write_u64(neighbor.0 as u64);
        for l in self.topology.links_between(device, neighbor) {
            fp.write_u64(l.0 as u64);
        }
        fp.finish()
    }

    /// The address-ownership slice consulted when resolving recursive
    /// static-route next hops and dependency-PEC loopback records: the
    /// loopback table plus every numbered interface.
    pub fn address_ownership_fingerprint(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'A');
        fp.write_u64(self.node_count() as u64);
        for node in self.topology.nodes() {
            if let Some(lb) = node.loopback {
                fp.write_u64(node.id.0 as u64);
                fp.write_u64(lb.0 as u64);
            }
        }
        for link in self.topology.links() {
            for ifc in [&link.a, &link.b] {
                if let Some(addr) = ifc.addr {
                    fp.write_u64(ifc.node.0 as u64);
                    fp.write_u64(addr.ip.0 as u64);
                    fp.write_u64(addr.prefix_len as u64);
                }
            }
        }
        fp.finish()
    }
}

/// A session-lifetime, thread-safe memo of competitive-cost fingerprints
/// (see [`OspfScopedSlices`]), shared by every request and every snapshot of
/// a verification session — it lives beside the result cache.
///
/// **Soundness.** An entry is keyed by *content*: the hash of the region's
/// per-link directional cost table, and the hash of the sorted origin
/// devices plus the failed links inside the region. Those are the whole
/// input of the Dijkstra the fingerprint is computed from, so equal key ⇒
/// identical input ⇒ identical fingerprint — the argument the result cache
/// itself rests on (and, like its keys, up to a 64-bit collision in each
/// half). Nothing in the key names a snapshot, so an entry never goes stale
/// and there is no invalidation step: a delta that changes a cost changes
/// the region hash and simply looks up (or computes) a different entry, and
/// a restore to an earlier state finds the earlier entry again. Debug builds
/// recompute every hit and assert it equal.
///
/// **Bound.** Two generations of at most [`SliceMemo::GENERATION_ENTRIES`]
/// fixed-size entries each — under half a megabyte in all. Inserts go to
/// the young generation; when it is full it becomes the old one and the
/// previous old one is dropped. A hit in the old generation is copied
/// forward, so what recent requests used survives a rotation. Eviction only
/// costs a recomputation.
#[derive(Debug, Default)]
pub struct SliceMemo {
    generations: Mutex<Generations>,
}

#[derive(Debug, Default)]
struct Generations {
    young: HashMap<MemoKey, u64>,
    old: HashMap<MemoKey, u64>,
}

/// (region cost-table hash, hash of `[origin count, origins.., failed
/// links..]`).
type MemoKey = (u64, u64);

fn memo_key(region: u64, origins: &[NodeId], failed_in_scope: &[LinkId]) -> MemoKey {
    let mut fp = Fingerprinter::new();
    fp.write_u8(b'K');
    fp.write_u64(origins.len() as u64);
    for o in origins {
        fp.write_u64(o.0 as u64);
    }
    for l in failed_in_scope {
        fp.write_u64(l.0 as u64);
    }
    (region, fp.finish())
}

impl SliceMemo {
    /// Entries per generation: a full generation is a hash table of 8 192
    /// slots of 25 bytes (16-byte key, 8-byte fingerprint, 1 control byte)
    /// at its maximum load of 7/8 — 200 KB, 400 KB for both.
    pub const GENERATION_ENTRIES: usize = 7 * 1024;

    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Generations> {
        // A holder only moves or inserts map entries; a panic between two
        // such steps leaves valid maps, so a poisoned lock is still usable.
        self.generations
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get(&self, key: MemoKey) -> Option<u64> {
        let mut g = self.lock();
        if let Some(&fp) = g.young.get(&key) {
            return Some(fp);
        }
        let fp = g.old.get(&key).copied()?;
        g.insert(key, fp);
        Some(fp)
    }

    fn insert(&self, key: MemoKey, fp: u64) {
        self.lock().insert(key, fp);
    }

    /// Resident entries (both generations; an entry copied forward counts
    /// twice until the old generation is dropped). Never above twice
    /// [`SliceMemo::GENERATION_ENTRIES`].
    pub fn len(&self) -> usize {
        let g = self.lock();
        g.young.len() + g.old.len()
    }

    /// Is the memo empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Generations {
    fn insert(&mut self, key: MemoKey, fp: u64) {
        if self.young.len() >= SliceMemo::GENERATION_ENTRIES {
            self.old = std::mem::take(&mut self.young);
        }
        self.young.insert(key, fp);
    }
}

/// Per-PEC scoped OSPF slices: fingerprint only what one destination's OSPF
/// exploration can actually read, instead of the global
/// [`Network::ospf_slice_fingerprint`].
///
/// OSPF exploration is a single deterministic trajectory (the checker's
/// `OspfPor` processes the globally cheapest pending update — exactly
/// Dijkstra from the destination's origin set), so a task for a PEC with
/// OSPF origin devices `O` under effective failure set `F` observes exactly:
///
/// * the **structure** of the speaker components containing `O` — member
///   devices and the adjacency-enabled links joining them (down links and
///   failures deliberately *not* filtered out: they reach the task key
///   through the effective failure set, keeping fault-tolerance cache
///   entries valid for the link deltas that follow); and
/// * the **competitive directional costs** under `F`: a cost `c(n ← m)`
///   (configured at `n` for its cheapest live link towards `m`) is readable
///   only when `dist_F(m) + c ≤ dist_F(n)`, where `dist_F` is the
///   shortest-path distance from `O` with the failed links removed. Any
///   costlier advertisement is *shadowed*: the Dijkstra argument processes
///   candidates in nondecreasing cost order, so by the time such a candidate
///   could be picked its node has already converged on something at least as
///   good, and the enabled-set computation never surfaces it. The `≤` keeps
///   equal-cost candidates in scope — they decide ECMP next-hop sets and
///   tie-breaking.
///
/// A cost change outside a PEC's competitive set therefore leaves its task
/// key — and, provably, its byte-exact verification outcome — unchanged.
/// When scoping cannot be established (an origin that is not an OSPF
/// speaker), [`OspfScopedSlices::fingerprint`] returns `None` and the caller
/// falls back to the global slice.
///
/// **Cost.** The competitive fingerprint is one Dijkstra over the region.
/// It is looked up in the session's [`SliceMemo`] first, keyed by the
/// content of exactly what that Dijkstra reads (region cost table, origins,
/// in-scope failed links — the soundness argument is on [`SliceMemo`]), so a
/// request whose regions are in a state seen before — a static-route edit, a
/// link coming back up, a cost restored — runs none. Computing the key costs
/// one pass over the region's links per request (`regions`); a miss builds
/// the live adjacency once per (region, failed links) per request
/// (`live_graphs`, shared by every PEC scoped to the region) and runs the
/// Dijkstra over it with no searching: each edge carries both directional
/// costs.
pub struct OspfScopedSlices<'a> {
    network: &'a Network,
    memo: &'a SliceMemo,
    components: SubgraphComponents,
    /// Per-component structural fingerprints.
    structural: RefCell<HashMap<usize, u64>>,
    /// Per origin-component set: the per-link cost table and its hash.
    regions: RefCell<HashMap<Vec<usize>, Rc<Region>>>,
    /// Per (origin components, failed links within them): the live
    /// adjacency — origin-set independent.
    live_graphs: RefCell<LiveGraphs>,
    memo_hits: Cell<u64>,
    memo_misses: Cell<u64>,
}

type LiveGraphs = HashMap<(Vec<usize>, Vec<LinkId>), Rc<CostGraph>>;

/// The per-link directional costs of a set of components, failures *not*
/// removed: `(link, a, b, cost at a, cost at b)` in component-then-link
/// order, and the hash of that table.
struct Region {
    links: Vec<(LinkId, NodeId, NodeId, u64, u64)>,
    hash: u64,
}

/// The live directional cost map as a CSR adjacency over node indices:
/// `edges[offsets[n]..offsets[n + 1]]` are `n`'s neighbours in ascending
/// order, each with `c(n ← m)` and `c(m ← n)` aggregated (cheapest) over the
/// live parallel links — exactly the aggregation the OSPF model performs.
struct CostGraph {
    offsets: Vec<u32>,
    edges: Vec<Edge>,
}

#[derive(Clone, Copy)]
struct Edge {
    /// The neighbour `m`.
    to: u32,
    /// `c(n ← m)`: configured at `n` towards `m`.
    cost_in: u64,
    /// `c(m ← n)`: configured at `m` towards `n`.
    cost_out: u64,
}

impl CostGraph {
    fn build(n_nodes: usize, region: &Region, failed_in_scope: &[LinkId]) -> Self {
        let mut directed: Vec<(u32, Edge)> = Vec::with_capacity(2 * region.links.len());
        for &(l, a, b, cost_a, cost_b) in &region.links {
            if failed_in_scope.binary_search(&l).is_ok() {
                continue;
            }
            let edge = |to: NodeId, cost_in, cost_out| Edge {
                to: to.0,
                cost_in,
                cost_out,
            };
            directed.push((a.0, edge(b, cost_a, cost_b)));
            directed.push((b.0, edge(a, cost_b, cost_a)));
        }
        directed.sort_unstable_by_key(|&(n, e)| (n, e.to));
        let mut offsets = vec![0u32; n_nodes + 1];
        let mut edges: Vec<Edge> = Vec::with_capacity(directed.len());
        let mut last: Option<(u32, u32)> = None;
        for (n, e) in directed {
            if last == Some((n, e.to)) {
                // A parallel link: keep the cheapest cost each way.
                let merged = edges.last_mut().expect("a previous edge set `last`");
                merged.cost_in = merged.cost_in.min(e.cost_in);
                merged.cost_out = merged.cost_out.min(e.cost_out);
            } else {
                edges.push(e);
                offsets[n as usize + 1] += 1;
                last = Some((n, e.to));
            }
        }
        for n in 0..n_nodes {
            offsets[n + 1] += offsets[n];
        }
        CostGraph { offsets, edges }
    }

    fn edges_of(&self, n: usize) -> &[Edge] {
        &self.edges[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }

    /// The competitive-cost fingerprint from `origins`: every directional
    /// cost the Dijkstra trajectory from `origins` can observe.
    fn competitive_fingerprint(&self, origins: &[NodeId]) -> u64 {
        // Multi-source Dijkstra from the origin set: dist(n) is the cost of
        // n's converged best route, relaxing dist(m) ≤ dist(n) + c(m ← n).
        let n_nodes = self.offsets.len() - 1;
        let mut dist = vec![u64::MAX; n_nodes];
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> = origins
            .iter()
            .map(|o| std::cmp::Reverse((0, o.0)))
            .collect();
        for &o in origins {
            dist[o.index()] = 0;
        }
        while let Some(std::cmp::Reverse((d, n))) = heap.pop() {
            if dist[n as usize] < d {
                continue;
            }
            for e in self.edges_of(n as usize) {
                let cand = d.saturating_add(e.cost_out);
                if cand < dist[e.to as usize] {
                    dist[e.to as usize] = cand;
                    heap.push(std::cmp::Reverse((cand, e.to)));
                }
            }
        }

        // Competitive directional costs, in (n, m) order: c(n ← m) with
        // dist(m) + c ≤ dist(n). Everything costlier is shadowed.
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'R');
        fp.write_u64(origins.len() as u64);
        for &o in origins {
            fp.write_u64(o.0 as u64);
        }
        let mut records = 0u64;
        for (n, &dn) in dist.iter().enumerate() {
            for e in self.edges_of(n) {
                let dm = dist[e.to as usize];
                if dm != u64::MAX && dm.saturating_add(e.cost_in) <= dn {
                    fp.write_u64(n as u64);
                    fp.write_u64(e.to as u64);
                    fp.write_u64(e.cost_in);
                    records += 1;
                }
            }
        }
        fp.write_u64(records);
        fp.finish()
    }
}

impl OspfScopedSlices<'_> {
    /// The speaker-graph components underlying the slices.
    pub fn components(&self) -> &SubgraphComponents {
        &self.components
    }

    /// `(hits, misses)` of this pass's lookups in the session memo.
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.memo_hits.get(), self.memo_misses.get())
    }

    /// The scoped slice fingerprint for a task whose OSPF origin devices are
    /// `origins`, under effective failure set `failures`; `None` when
    /// scoping cannot be proven sound for these origins (caller falls back
    /// to the global slice).
    pub fn fingerprint(&self, origins: &[NodeId], failures: &FailureSet) -> Option<u64> {
        let mut origins = origins.to_vec();
        origins.sort_unstable();
        origins.dedup();
        let comps = self.components.reachable_components(&origins)?;
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'o');
        fp.write_u64(comps.len() as u64);
        for &c in &comps {
            fp.write_u64(self.structural_fingerprint(c));
        }
        fp.write_u64(self.competitive_fingerprint(&origins, &comps, failures));
        Some(fp.finish())
    }

    /// The structural fingerprint of one component: members plus
    /// adjacency-enabled links (memoized).
    fn structural_fingerprint(&self, c: usize) -> u64 {
        if let Some(&fp) = self.structural.borrow().get(&c) {
            return fp;
        }
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'C');
        let members = self.components.members(c);
        fp.write_u64(members.len() as u64);
        for &n in members {
            fp.write_u64(n.0 as u64);
        }
        let links = self.components.links(c);
        fp.write_u64(links.len() as u64);
        for &l in links {
            let link = self.network.topology.link(l);
            fp.write_u64(l.0 as u64);
            fp.write_u64(link.a.node.0 as u64);
            fp.write_u64(link.b.node.0 as u64);
        }
        let fp = fp.finish();
        self.structural.borrow_mut().insert(c, fp);
        fp
    }

    /// The competitive-cost fingerprint of `origins` over `comps` with
    /// `failures` removed: from the session memo when this exact Dijkstra
    /// input was seen before, computed (and remembered) otherwise.
    fn competitive_fingerprint(
        &self,
        origins: &[NodeId],
        comps: &[usize],
        failures: &FailureSet,
    ) -> u64 {
        let failed_in_scope: Vec<LinkId> = failures
            .links()
            .iter()
            .copied()
            .filter(|&l| {
                self.components
                    .component_of_link(l)
                    .is_some_and(|c| comps.contains(&c))
            })
            .collect();
        let region = self.region(comps);
        let key = memo_key(region.hash, origins, &failed_in_scope);
        let remembered = self.memo.get(key);
        let counter = if remembered.is_some() {
            &self.memo_hits
        } else {
            &self.memo_misses
        };
        counter.set(counter.get() + 1);
        // Release builds trust a remembered answer; debug builds challenge
        // it: a stored answer must equal its recomputation.
        if let (Some(fp), false) = (remembered, cfg!(debug_assertions)) {
            return fp;
        }
        let fp = self
            .live_graph(comps, failed_in_scope, &region)
            .competitive_fingerprint(origins);
        match remembered {
            Some(stored) => assert_eq!(
                stored, fp,
                "slice memo served a fingerprint its own inputs do not reproduce"
            ),
            None => self.memo.insert(key, fp),
        }
        fp
    }

    /// The per-link cost table of `comps` and its content hash (one pass
    /// over the region's links, once per request).
    fn region(&self, comps: &[usize]) -> Rc<Region> {
        if let Some(region) = self.regions.borrow().get(comps) {
            return region.clone();
        }
        let cost_at = |n: NodeId, l: LinkId| -> u64 {
            self.network
                .device(n)
                .ospf
                .as_ref()
                .and_then(|o| o.cost(l))
                .expect("component links are adjacency-enabled at both ends") as u64
        };
        let mut fp = Fingerprinter::new();
        fp.write_u8(b'G');
        let mut links = Vec::new();
        for &c in comps {
            for &l in self.components.links(c) {
                let link = self.network.topology.link(l);
                let (a, b) = (link.a.node, link.b.node);
                let (cost_a, cost_b) = (cost_at(a, l), cost_at(b, l));
                for word in [l.0 as u64, a.0 as u64, b.0 as u64, cost_a, cost_b] {
                    fp.write_u64(word);
                }
                links.push((l, a, b, cost_a, cost_b));
            }
        }
        fp.write_u64(links.len() as u64);
        let region = Rc::new(Region {
            links,
            hash: fp.finish(),
        });
        self.regions
            .borrow_mut()
            .insert(comps.to_vec(), region.clone());
        region
    }

    /// The live adjacency of `comps` with `failed_in_scope` removed.
    fn live_graph(
        &self,
        comps: &[usize],
        failed_in_scope: Vec<LinkId>,
        region: &Region,
    ) -> Rc<CostGraph> {
        let key = (comps.to_vec(), failed_in_scope);
        if let Some(graph) = self.live_graphs.borrow().get(&key) {
            return graph.clone();
        }
        let graph = Rc::new(CostGraph::build(self.network.node_count(), region, &key.1));
        self.live_graphs.borrow_mut().insert(key, graph.clone());
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::{fingerprint_of, Fingerprinter, SliceMemo};
    use crate::scenarios::{
        fat_tree_bgp_rfc7938, fat_tree_ospf, isp_ibgp_over_ospf, ring_ospf, CoreStaticRoutes,
    };
    use crate::static_routes::StaticRoute;
    use plankton_net::failure::FailureSet;
    use plankton_net::generators::as_topo::AsTopologySpec;
    use serde::Serialize;

    #[test]
    fn fingerprints_are_deterministic() {
        let a = ring_ospf(6).network;
        let b = ring_ospf(6).network;
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.ospf_slice_fingerprint(), b.ospf_slice_fingerprint());
        assert_ne!(a.fingerprint(), ring_ospf(8).network.fingerprint());
    }

    #[test]
    fn static_route_change_leaves_ospf_slice_alone() {
        let mut net = fat_tree_ospf(4, CoreStaticRoutes::None).network;
        let before_slice = net.ospf_slice_fingerprint();
        let before_full = net.fingerprint();
        net.device_mut(plankton_net::topology::NodeId(0))
            .static_routes
            .push(StaticRoute::null("10.9.9.0/24".parse().unwrap()));
        assert_eq!(net.ospf_slice_fingerprint(), before_slice);
        assert_ne!(net.fingerprint(), before_full);
    }

    #[test]
    fn link_down_changes_the_document_but_not_the_slices() {
        // Down-ness flows through the effective failure set (part of every
        // task key), so the protocol slices stay stable — which is what lets
        // a fault-tolerance run's cache entries serve link-down deltas.
        let s = ring_ospf(6);
        let mut net = s.network.clone();
        let slice_before = net.ospf_slice_fingerprint();
        let doc_before = net.fingerprint();
        net.set_link_down(s.ring.links[0]);
        assert_eq!(net.ospf_slice_fingerprint(), slice_before);
        assert_ne!(net.fingerprint(), doc_before);
        net.set_link_up(s.ring.links[0]);
        assert_eq!(net.fingerprint(), doc_before);
    }

    #[test]
    fn ospf_cost_changes_the_ospf_slice() {
        let s = ring_ospf(6);
        let mut net = s.network.clone();
        let before = net.ospf_slice_fingerprint();
        if let Some(ospf) = &mut net.device_mut(s.ring.routers[1]).ospf {
            ospf.interface_costs.insert(s.ring.links[1], 99);
        }
        assert_ne!(net.ospf_slice_fingerprint(), before);
    }

    #[test]
    fn scoped_slice_is_deterministic_and_origin_sensitive() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let memo = SliceMemo::new();
        let slices = s.network.ospf_scoped_slices(&memo);
        let o1 = vec![s.fat_tree.edge[0][0]];
        let o2 = vec![s.fat_tree.edge[1][0]];
        let none = FailureSet::none();
        let a = slices.fingerprint(&o1, &none).unwrap();
        assert_eq!(a, slices.fingerprint(&o1, &none).unwrap(), "memo stable");
        assert_eq!(slices.memo_stats(), (1, 1), "second lookup is a memo hit");
        assert_ne!(
            a,
            slices.fingerprint(&o2, &none).unwrap(),
            "different origins, different competitive sets"
        );
        // A failure inside the component changes distances and thus the
        // competitive set.
        let failed = FailureSet::single(
            s.network
                .topology
                .link_between(s.fat_tree.edge[0][0], s.fat_tree.aggregation[0][0])
                .unwrap(),
        );
        assert_ne!(a, slices.fingerprint(&o1, &failed).unwrap());
    }

    #[test]
    fn non_competitive_cost_change_leaves_scoped_slice_alone() {
        // The aggregation-side cost of an edge link is competitive only for
        // the prefix at that edge switch: a remote pod's scoped slice must
        // not move, while the local pod's must.
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let agg = s.fat_tree.aggregation[0][0];
        let edge = s.fat_tree.edge[0][0];
        let link = s.network.topology.link_between(agg, edge).unwrap();
        let local = vec![edge];
        let remote = vec![s.fat_tree.edge[2][0]];
        let none = FailureSet::none();
        let memo = SliceMemo::new();
        let before = s.network.ospf_scoped_slices(&memo);
        let (local_before, remote_before) = (
            before.fingerprint(&local, &none).unwrap(),
            before.fingerprint(&remote, &none).unwrap(),
        );
        let mut net = s.network.clone();
        if let Some(ospf) = &mut net.device_mut(agg).ospf {
            ospf.interface_costs.insert(link, 42);
        }
        let after = net.ospf_scoped_slices(&memo);
        assert_ne!(local_before, after.fingerprint(&local, &none).unwrap());
        assert_eq!(remote_before, after.fingerprint(&remote, &none).unwrap());
        // The global slice is coarser: it moves for both.
        assert_ne!(
            s.network.ospf_slice_fingerprint(),
            net.ospf_slice_fingerprint()
        );
    }

    #[test]
    fn scoped_slice_is_down_link_agnostic() {
        let s = ring_ospf(6);
        let origins = vec![s.origin];
        let none = FailureSet::none();
        let memo = SliceMemo::new();
        let before = s
            .network
            .ospf_scoped_slices(&memo)
            .fingerprint(&origins, &none);
        let mut net = s.network.clone();
        net.set_link_down(s.ring.links[2]);
        // Down-ness reaches keys through the effective failure set; the
        // slice itself must not move, or fault-tolerance cache entries would
        // be lost to every link delta.
        assert_eq!(
            net.ospf_scoped_slices(&memo).fingerprint(&origins, &none),
            before
        );
    }

    #[test]
    fn non_speaker_origin_forces_global_fallback() {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        let mut net = s.network.clone();
        let edge = s.fat_tree.edge[0][0];
        net.device_mut(edge).ospf = None;
        let memo = SliceMemo::new();
        let slices = net.ospf_scoped_slices(&memo);
        assert_eq!(slices.fingerprint(&[edge], &FailureSet::none()), None);
    }

    #[test]
    fn component_split_changes_scoped_slice() {
        // Draining a device's OSPF process splits / shrinks its component:
        // every PEC scoped to that component must re-key.
        let s = ring_ospf(6);
        let origins = vec![s.origin];
        let none = FailureSet::none();
        let memo = SliceMemo::new();
        let before = s
            .network
            .ospf_scoped_slices(&memo)
            .fingerprint(&origins, &none)
            .unwrap();
        let mut net = s.network.clone();
        net.device_mut(s.ring.routers[3]).ospf = None;
        let after = net
            .ospf_scoped_slices(&memo)
            .fingerprint(&origins, &none)
            .unwrap();
        assert_ne!(before, after);
    }

    /// The oracle for structural traversal: streaming a value and streaming
    /// the `Value` tree it serializes to must absorb the same words.
    fn assert_streams_like_its_tree<T: Serialize + ?Sized>(t: &T) {
        assert_eq!(fingerprint_of(t), fingerprint_of(&t.to_value()));
    }

    #[test]
    fn streamed_fingerprints_equal_the_tree_walk() {
        let nets = [
            fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf).network,
            fat_tree_bgp_rfc7938(4, 7).network,
            isp_ibgp_over_ospf(&AsTopologySpec::paper_as(3967)).network,
        ];
        for mut net in nets {
            net.set_link_down(net.topology.links()[1].id);
            assert_streams_like_its_tree(&net.devices);
            assert_streams_like_its_tree(&net.down_links);
            for n in net.topology.node_ids().take(8) {
                let device = net.device(n);
                assert_streams_like_its_tree(&device.ospf);
                assert_streams_like_its_tree(&device.bgp);
                assert_streams_like_its_tree(&device.static_routes);
            }
        }
        assert_streams_like_its_tree(&FailureSet::from_links(vec![
            plankton_net::topology::LinkId(3),
            plankton_net::topology::LinkId(1),
        ]));
        assert_streams_like_its_tree("a string longer than one word");
    }

    #[test]
    fn byte_input_is_length_and_padding_safe() {
        let fp = |bytes: &[u8]| {
            let mut fp = Fingerprinter::new();
            fp.write_bytes(bytes);
            fp.finish()
        };
        // A zero-padded tail must not collide with explicit zero bytes, and
        // every prefix of a buffer hashes differently.
        assert_ne!(fp(b"abc"), fp(b"abc\0"));
        assert_ne!(fp(b"12345678"), fp(b"12345678\0"));
        let buf: Vec<u8> = (0..40u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=buf.len() {
            assert!(seen.insert(fp(&buf[..len])), "prefix {len} collided");
        }
        // One flipped bit anywhere changes the hash (the cache-file checksum
        // relies on it).
        let base = fp(&buf);
        for i in 0..buf.len() {
            let mut flipped = buf.clone();
            flipped[i] ^= 0x40;
            assert_ne!(fp(&flipped), base, "bit flip at byte {i} went unseen");
        }
    }

    #[test]
    fn memo_stays_under_its_bound_and_eviction_never_changes_a_fingerprint() {
        // 5 000 distinct region states (one cost value each) x 6 origins
        // fill the memo several times over. The resident entries must never
        // exceed the cap, and every fingerprint served through the shared
        // memo — fresh, remembered, or recomputed after eviction — must
        // equal the one a fresh memo computes.
        let s = ring_ospf(6);
        let none = FailureSet::none();
        let shared = SliceMemo::new();
        let mut net = s.network.clone();
        let mut peak = 0;
        for state in 0..5_000u32 {
            if let Some(ospf) = &mut net.device_mut(s.ring.routers[0]).ospf {
                ospf.interface_costs.insert(s.ring.links[0], 1 + state);
            }
            let fresh = SliceMemo::new();
            let (warm, cold) = (
                net.ospf_scoped_slices(&shared),
                net.ospf_scoped_slices(&fresh),
            );
            for &origin in &s.ring.routers {
                assert_eq!(
                    warm.fingerprint(&[origin], &none),
                    cold.fingerprint(&[origin], &none),
                    "state {state}, origin {origin:?}"
                );
            }
            peak = peak.max(shared.len());
            assert!(peak <= 2 * SliceMemo::GENERATION_ENTRIES, "{peak} entries");
        }
        assert!(
            peak > SliceMemo::GENERATION_ENTRIES,
            "the walk must fill a generation, or it tests no eviction ({peak} entries)"
        );
        assert!(shared.len() < 5_000 * 6, "entries were evicted");
        // The base state was seen first and evicted long ago: asking again
        // recomputes it, to the same value.
        let base = s.network.ospf_scoped_slices(&shared);
        let oracle = SliceMemo::new();
        assert_eq!(
            base.fingerprint(&[s.origin], &none),
            s.network
                .ospf_scoped_slices(&oracle)
                .fingerprint(&[s.origin], &none)
        );
    }

    #[test]
    fn a_hit_in_the_old_generation_survives_the_next_rotation() {
        let s = ring_ospf(6);
        let none = FailureSet::none();
        let memo = SliceMemo::new();
        let hot = [s.origin];
        s.network.ospf_scoped_slices(&memo).fingerprint(&hot, &none);
        let mut net = s.network.clone();
        for state in 0..4_000u32 {
            if let Some(ospf) = &mut net.device_mut(s.ring.routers[0]).ospf {
                ospf.interface_costs.insert(s.ring.links[0], 100 + state);
            }
            let slices = net.ospf_scoped_slices(&memo);
            for &origin in &s.ring.routers {
                slices.fingerprint(&[origin], &none);
            }
            // The hot entry is asked for between the cold ones, as the base
            // state is between a benchmark's forward deltas.
            let base = s.network.ospf_scoped_slices(&memo);
            base.fingerprint(&hot, &none);
            assert_eq!(base.memo_stats(), (1, 0), "hot entry lost at state {state}");
        }
    }
}
