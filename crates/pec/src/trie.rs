//! The binary prefix trie used to compute Packet Equivalence Classes.
//!
//! Plankton seeds the trie with every prefix obtained from the configuration
//! (§3.1): originated prefixes, static route destinations, prefixes matched
//! by route maps, loopbacks. A recursive traversal then slices the 32-bit
//! destination space into contiguous ranges such that every address in a
//! range is covered by exactly the same set of inserted prefixes — which is
//! precisely the property that makes all packets in the range behave
//! identically under destination-based routing.

use plankton_net::ip::{IpRange, Prefix};
use std::collections::BTreeMap;

/// A binary trie mapping [`Prefix`]es to payloads of type `T`.
///
/// Multiple payloads may be attached to the same prefix (they are kept in
/// insertion order).
#[derive(Clone, Debug)]
pub struct PrefixTrie<T> {
    root: Node<T>,
    len: usize,
}

#[derive(Clone, Debug)]
struct Node<T> {
    /// Payloads attached exactly at this node's prefix.
    payloads: Vec<T>,
    /// Is this node the end of an inserted prefix (even if payload-less)?
    terminal: bool,
    /// children[0] = next bit 0, children[1] = next bit 1.
    children: [Option<Box<Node<T>>>; 2],
}

impl<T> Default for Node<T> {
    fn default() -> Self {
        Node {
            payloads: Vec::new(),
            terminal: false,
            children: [None, None],
        }
    }
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        PrefixTrie {
            root: Node::default(),
            len: 0,
        }
    }
}

impl<T> PrefixTrie<T> {
    /// An empty trie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of inserted (prefix, payload) pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the trie empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a payload at `prefix`.
    pub fn insert(&mut self, prefix: Prefix, payload: T) {
        let node = self.node_mut(prefix);
        node.payloads.push(payload);
        node.terminal = true;
        self.len += 1;
    }

    fn node_mut(&mut self, prefix: Prefix) -> &mut Node<T> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let bit = prefix.bit(i) as usize;
            node = node.children[bit].get_or_insert_with(Box::default);
        }
        node
    }

    /// All payloads attached to prefixes that cover `prefix` (including at
    /// `prefix` itself), from least specific to most specific.
    pub fn covering(&self, prefix: &Prefix) -> Vec<(Prefix, &T)> {
        let mut out = Vec::new();
        let mut node = &self.root;
        let mut depth = 0u8;
        loop {
            for p in &node.payloads {
                out.push((Prefix::new(prefix.addr(), depth), p));
            }
            if depth == prefix.len() {
                break;
            }
            let bit = prefix.bit(depth) as usize;
            match &node.children[bit] {
                Some(child) => {
                    node = child;
                    depth += 1;
                }
                None => break,
            }
        }
        out
    }

    /// Longest-prefix-match lookup for a single address: the payloads of the
    /// most specific inserted prefix covering `addr`, with that prefix.
    pub fn longest_match(&self, addr: plankton_net::ip::Ipv4Addr) -> Option<(Prefix, &[T])> {
        let mut node = &self.root;
        let mut best: Option<(u8, &Node<T>)> = if node.terminal { Some((0, node)) } else { None };
        for depth in 0..32u8 {
            let bit = addr.bit(depth) as usize;
            match &node.children[bit] {
                Some(child) => {
                    node = child;
                    if node.terminal {
                        best = Some((depth + 1, node));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, n)| (Prefix::new(addr, len), n.payloads.as_slice()))
    }

    /// Partition the full address space into contiguous ranges such that all
    /// addresses in a range are covered by the same set of inserted prefixes
    /// (Figure 4 of the paper). Adjacent ranges with identical covering sets
    /// are merged, so the result is the coarsest such partition. The covering
    /// prefixes of each range are listed from least to most specific.
    ///
    /// The ranges are returned in ascending address order, are disjoint, and
    /// together cover the entire 32-bit space.
    pub fn partition(&self) -> Vec<(IpRange, Vec<Prefix>)> {
        let mut raw: Vec<(IpRange, Vec<Prefix>)> = Vec::new();
        let mut covering: Vec<Prefix> = Vec::new();
        Self::walk(&self.root, Prefix::DEFAULT, &mut covering, &mut raw);
        // Merge adjacent ranges with identical covering sets.
        let mut merged: Vec<(IpRange, Vec<Prefix>)> = Vec::new();
        for (range, cover) in raw {
            match merged.last_mut() {
                Some((last_range, last_cover))
                    if *last_cover == cover
                        && last_range.hi.saturating_next() == range.lo
                        && last_range.hi != plankton_net::ip::Ipv4Addr::MAX =>
                {
                    last_range.hi = range.hi;
                }
                _ => merged.push((range, cover)),
            }
        }
        merged
    }

    fn walk(
        node: &Node<T>,
        prefix: Prefix,
        covering: &mut Vec<Prefix>,
        out: &mut Vec<(IpRange, Vec<Prefix>)>,
    ) {
        let pushed = node.terminal;
        if pushed {
            covering.push(prefix);
        }
        match prefix.children() {
            None => out.push((prefix.range(), covering.clone())),
            Some((left, right)) => {
                let both_missing = node.children[0].is_none() && node.children[1].is_none();
                if both_missing {
                    out.push((prefix.range(), covering.clone()));
                } else {
                    match &node.children[0] {
                        Some(child) => Self::walk(child, left, covering, out),
                        None => out.push((left.range(), covering.clone())),
                    }
                    match &node.children[1] {
                        Some(child) => Self::walk(child, right, covering, out),
                        None => out.push((right.range(), covering.clone())),
                    }
                }
            }
        }
        if pushed {
            covering.pop();
        }
    }

    /// Every inserted prefix together with its payloads, in trie
    /// (address/length) order.
    pub fn prefixes(&self) -> Vec<(Prefix, &[T])> {
        let mut out = Vec::new();
        fn rec<'a, T>(node: &'a Node<T>, prefix: Prefix, out: &mut Vec<(Prefix, &'a [T])>) {
            if node.terminal {
                out.push((prefix, node.payloads.as_slice()));
            }
            if let Some((left, right)) = prefix.children() {
                if let Some(c) = &node.children[0] {
                    rec(c, left, out);
                }
                if let Some(c) = &node.children[1] {
                    rec(c, right, out);
                }
            }
        }
        rec(&self.root, Prefix::DEFAULT, &mut out);
        out
    }
}

/// A map-of-prefixes convenience: collect payloads per prefix before
/// inserting into a trie (used by the PEC computation to build one config
/// object per distinct prefix).
pub fn group_by_prefix<T>(
    items: impl IntoIterator<Item = (Prefix, T)>,
) -> BTreeMap<Prefix, Vec<T>> {
    let mut map: BTreeMap<Prefix, Vec<T>> = BTreeMap::new();
    for (p, t) in items {
        map.entry(p).or_default().push(t);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use plankton_net::ip::Ipv4Addr;

    #[test]
    fn empty_trie_partition_is_full_space() {
        let trie: PrefixTrie<()> = PrefixTrie::new();
        let parts = trie.partition();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, IpRange::FULL);
        assert!(parts[0].1.is_empty());
    }

    #[test]
    fn paper_figure4_partition() {
        // Prefixes 128.0.0.0/1 and 192.0.0.0/2 produce three PECs:
        // [0, 127.255.255.255]       covered by {}
        // [128.0.0.0, 191.255.255.255] covered by {128/1}
        // [192.0.0.0, 255.255.255.255] covered by {128/1, 192/2}
        let mut trie = PrefixTrie::new();
        trie.insert("128.0.0.0/1".parse().unwrap(), "r0");
        trie.insert("192.0.0.0/2".parse().unwrap(), "r2");
        let parts = trie.partition();
        assert_eq!(parts.len(), 3);
        assert_eq!(
            parts[0].0,
            IpRange::new(Ipv4Addr::ZERO, Ipv4Addr::new(127, 255, 255, 255))
        );
        assert!(parts[0].1.is_empty());
        assert_eq!(
            parts[1].0,
            IpRange::new(
                Ipv4Addr::new(128, 0, 0, 0),
                Ipv4Addr::new(191, 255, 255, 255)
            )
        );
        assert_eq!(parts[1].1, vec!["128.0.0.0/1".parse::<Prefix>().unwrap()]);
        assert_eq!(
            parts[2].0,
            IpRange::new(Ipv4Addr::new(192, 0, 0, 0), Ipv4Addr::MAX)
        );
        assert_eq!(parts[2].1.len(), 2);
    }

    #[test]
    fn partition_covers_space_disjointly() {
        let mut trie = PrefixTrie::new();
        for p in [
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "192.168.0.0/16",
            "0.0.0.0/0",
        ] {
            trie.insert(p.parse().unwrap(), p);
        }
        let parts = trie.partition();
        // Starts at 0, ends at MAX, each range starts right after the
        // previous one.
        assert_eq!(parts.first().unwrap().0.lo, Ipv4Addr::ZERO);
        assert_eq!(parts.last().unwrap().0.hi, Ipv4Addr::MAX);
        for w in parts.windows(2) {
            assert_eq!(w[0].0.hi.saturating_next(), w[1].0.lo);
        }
        // Adjacent ranges have different covering sets (coarsest partition).
        for w in parts.windows(2) {
            assert_ne!(w[0].1, w[1].1);
        }
    }

    #[test]
    fn nested_prefixes_cover_in_specificity_order() {
        let mut trie = PrefixTrie::new();
        trie.insert("10.0.0.0/8".parse().unwrap(), 8u8);
        trie.insert("10.1.0.0/16".parse().unwrap(), 16u8);
        let covering = trie.covering(&"10.1.2.0/24".parse().unwrap());
        assert_eq!(covering.len(), 2);
        assert_eq!(*covering[0].1, 8);
        assert_eq!(*covering[1].1, 16);
    }

    #[test]
    fn longest_match_lookup() {
        let mut trie = PrefixTrie::new();
        trie.insert("10.0.0.0/8".parse().unwrap(), "coarse");
        trie.insert("10.1.0.0/16".parse().unwrap(), "fine");
        let (p, payloads) = trie.longest_match(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!(p.len(), 16);
        assert_eq!(payloads, &["fine"]);
        let (p, _) = trie.longest_match(Ipv4Addr::new(10, 200, 0, 1)).unwrap();
        assert_eq!(p.len(), 8);
        assert!(trie.longest_match(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn multiple_payloads_per_prefix() {
        let mut trie = PrefixTrie::new();
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        trie.insert(p, 1);
        trie.insert(p, 2);
        assert_eq!(trie.len(), 2);
        let prefixes = trie.prefixes();
        assert_eq!(prefixes.len(), 1);
        assert_eq!(prefixes[0].1, &[1, 2]);
    }

    #[test]
    fn host_route_partition() {
        let mut trie: PrefixTrie<()> = PrefixTrie::new();
        trie.insert(Prefix::host(Ipv4Addr::new(1, 2, 3, 4)), ());
        let parts = trie.partition();
        // /32 splits the space into up-to 3 pieces after merging: before,
        // the host itself, after.
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[1].0.size(), 1);
        assert_eq!(parts[1].0.lo, Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(parts[1].1.len(), 1);
    }

    #[test]
    fn default_route_insert_covers_everything() {
        let mut trie = PrefixTrie::new();
        trie.insert(Prefix::DEFAULT, "default");
        trie.insert("10.0.0.0/8".parse().unwrap(), "ten");
        let parts = trie.partition();
        assert!(parts.iter().all(|(_, c)| !c.is_empty()));
        let ten_part = parts
            .iter()
            .find(|(r, _)| r.contains(Ipv4Addr::new(10, 0, 0, 1)))
            .unwrap();
        assert_eq!(ten_part.1.len(), 2);
    }

    #[test]
    fn group_by_prefix_collects() {
        let p1: Prefix = "10.0.0.0/24".parse().unwrap();
        let p2: Prefix = "20.0.0.0/24".parse().unwrap();
        let grouped = group_by_prefix(vec![(p1, 'a'), (p2, 'b'), (p1, 'c')]);
        assert_eq!(grouped[&p1], vec!['a', 'c']);
        assert_eq!(grouped[&p2], vec!['b']);
    }
}
