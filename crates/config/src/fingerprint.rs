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
//! The slices here are network-wide. The per-PEC scoped OSPF slice, its
//! Dijkstra and the session memo behind it live in `plankton-pec`
//! (`OspfScopedSlices`, `SliceMemo`), beside the task keys that compose
//! them: that Dijkstra runs on the OSPF model's own adjacency
//! (`plankton_protocols::OspfAdjacency`), so one adjacency feeds both the
//! keys and the model.
//!
//! These are cache keys, not security hashes: a collision merely serves a
//! stale verification result, and 64 bits over structured input make that
//! astronomically unlikely for the config sizes involved.

use crate::Network;
use serde::Serialize;

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
/// per-PEC data-plane limit (every converged plane is checked); 5 = cached
/// outcomes count only the enabled-set entries an initialization derived
/// (`enabled_recomputed_nodes`).
pub const FINGERPRINT_SCHEME_VERSION: u32 = 5;

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

#[cfg(test)]
mod tests {
    use super::{fingerprint_of, Fingerprinter};
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
}
