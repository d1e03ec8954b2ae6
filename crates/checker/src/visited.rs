//! Visited-state tracking: exact storage of interned states, or SPIN-style
//! bitstate hashing through a Bloom filter (§5, Figure 9 of the paper).
//!
//! Both are keyed by one 64-bit Zobrist hash of the state: the XOR of one
//! [`state_term`] per `(node, route)` pair, `⊥` contributing 0. A term
//! mixes the route's interner content hash, not its handle, so the hash of
//! a state does not depend on the order routes were interned in: two
//! explorers that intern in different orders hash every state alike. A
//! step changes one node's route, so the explorer keeps the hash current in
//! O(1) per step and undo ([`state_hash`] is the same hash folded from
//! scratch, for the reference explorer and for audits).
//!
//! The exact set stores states back to back in one arena ([`StateArena`])
//! behind a chained index on the hash; a hash hit is confirmed by comparing
//! the stored handles with the live state, so the set has no false
//! positives, and clearing it keeps every buffer, so a warmed worker's runs
//! insert without allocating. The bitstate set probes its Bloom filter from
//! the same hash ([`BloomFilter::insert`]), so it hashes nothing either.
//! Which of the two a run records into is chosen in one place,
//! [`SearchScratch::prepare`](crate::SearchScratch::prepare), from
//! [`SearchOptions::bitstate_bits`](crate::SearchOptions::bitstate_bits).

use plankton_protocols::{RouteHandle, RouteInterner};

/// Node `node`'s term of the Zobrist state hash when it holds `handle`: a
/// 64-bit mix (the splitmix64 finalizer) of the node and the route's
/// content hash ([`RouteInterner::content_hash`]), 0 for `⊥`.
#[inline]
pub fn state_term(node: usize, handle: RouteHandle, interner: &RouteInterner) -> u64 {
    if handle.is_none() {
        return 0;
    }
    let mut z = interner
        .content_hash(handle)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(node as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Zobrist hash of a whole state, folded from its routes: what an
/// explorer that updates the hash per step must hold.
pub fn state_hash(state: &[RouteHandle], interner: &RouteInterner) -> u64 {
    state.iter().enumerate().fold(0, |h, (node, &handle)| {
        h ^ state_term(node, handle, interner)
    })
}

/// Exact visited-state storage: every recorded state's handles back to back
/// in one arena, found through a chained index on the state hash.
#[derive(Default)]
pub struct StateArena {
    /// Handles per state (the node count), fixed while the arena is not
    /// empty.
    width: usize,
    /// State `i` is `handles[i * width..(i + 1) * width]`.
    handles: Vec<RouteHandle>,
    /// `hashes[i]` = state `i`'s hash, so a chain walk compares handles
    /// only on a full hash match.
    hashes: Vec<u64>,
    /// `next[i]` = the state after `i` in its bucket's chain, or
    /// [`StateArena::NIL`].
    next: Vec<u32>,
    /// `heads[b]` = the first state of bucket `b` (buckets are the low hash
    /// bits; the count is zero or a power of two).
    heads: Vec<u32>,
}

impl StateArena {
    /// The end of a chain.
    const NIL: u32 = u32::MAX;

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    fn state(&self, id: usize) -> &[RouteHandle] {
        &self.handles[id * self.width..(id + 1) * self.width]
    }

    /// Record `state`, whose hash is `hash`. Returns `true` if no equal
    /// state was recorded before. Equal states must come with equal hashes
    /// (distinct states may share one).
    pub fn insert(&mut self, state: &[RouteHandle], hash: u64) -> bool {
        if self.hashes.is_empty() {
            self.width = state.len();
        }
        debug_assert_eq!(state.len(), self.width, "states of one run have one width");
        if !self.heads.is_empty() {
            let mut id = self.heads[self.bucket(hash)];
            while id != Self::NIL {
                let i = id as usize;
                if self.hashes[i] == hash && self.state(i) == state {
                    return false;
                }
                id = self.next[i];
            }
        }
        // Keep the load factor at most 3/4.
        if 4 * (self.hashes.len() + 1) > 3 * self.heads.len() {
            self.grow();
        }
        assert!(
            self.hashes.len() < Self::NIL as usize,
            "too many visited states"
        );
        let id = self.hashes.len() as u32;
        let b = self.bucket(hash);
        self.handles.extend_from_slice(state);
        self.hashes.push(hash);
        self.next.push(self.heads[b]);
        self.heads[b] = id;
        true
    }

    /// Double the bucket count (64 at first) and re-link every chain.
    fn grow(&mut self) {
        let buckets = (2 * self.heads.len()).max(64);
        self.heads.clear();
        self.heads.resize(buckets, Self::NIL);
        for i in 0..self.hashes.len() {
            let b = self.bucket(self.hashes[i]);
            self.next[i] = self.heads[b];
            self.heads[b] = i as u32;
        }
    }

    /// Forget every state, keeping every buffer (free when empty).
    pub fn clear(&mut self) {
        if self.hashes.is_empty() {
            return;
        }
        self.handles.clear();
        self.hashes.clear();
        self.next.clear();
        self.heads.fill(Self::NIL);
    }

    /// Number of recorded states.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Bytes the recorded states take: their handles plus each one's hash
    /// and chain link. Spare capacity and the bucket array are left out, so
    /// the figure depends on the run alone, not on what an earlier run on
    /// the same worker left allocated.
    pub fn bytes(&self) -> usize {
        self.handles.len() * std::mem::size_of::<RouteHandle>()
            + self.hashes.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }
}

/// A Bloom filter over state hashes. Bitstate hashing trades a small
/// probability of false positives (states wrongly considered visited, i.e.
/// reduced coverage) for a large reduction in memory — the paper reports
/// coverage above 99.9% in its experiments. Its keys must already be
/// uniformly mixed 64-bit hashes (the explorer's [`state_hash`]): the
/// filter probes from their bits and hashes nothing itself.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    hashes: u32,
    inserted: usize,
}

impl BloomFilter {
    /// The actual bit-array size allocated for a requested size: rounded up
    /// to a power of two, with a 1024-bit floor. Shared with
    /// [`SearchScratch::prepare`](crate::SearchScratch::prepare) so its reuse
    /// check can never drift from the allocation policy.
    pub fn rounded_bits(bits: usize) -> usize {
        bits.next_power_of_two().max(1024)
    }

    /// A filter with at least `bits` bits (see [`BloomFilter::rounded_bits`]).
    pub fn with_bits(bits: usize) -> Self {
        let bits = Self::rounded_bits(bits);
        BloomFilter {
            bits: vec![0; bits / 64],
            mask: bits as u64 - 1,
            hashes: 3,
            inserted: 0,
        }
    }

    /// The probe bases for double hashing (Kirsch–Mitzenmacher): `h1` is
    /// the hash itself, and the stride `h2` is its upper half forced odd, so
    /// every stride is a unit modulo the power-of-two bit count. Probe `i`
    /// lands at `h1 + i·h2`.
    #[inline]
    fn probe(hash: u64) -> (u64, u64) {
        (hash, (hash >> 32) | 1)
    }

    fn positions(&self, hash: u64) -> impl Iterator<Item = u64> + '_ {
        let (h1, h2) = Self::probe(hash);
        (0..self.hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) & self.mask)
    }

    /// Insert a hash; returns `true` if it was (probably) new.
    pub fn insert(&mut self, hash: u64) -> bool {
        let (h1, h2) = Self::probe(hash);
        let mut new = false;
        for i in 0..self.hashes as u64 {
            let pos = h1.wrapping_add(i.wrapping_mul(h2)) & self.mask;
            let (word, bit) = ((pos / 64) as usize, pos % 64);
            if self.bits[word] & (1 << bit) == 0 {
                new = true;
                self.bits[word] |= 1 << bit;
            }
        }
        if new {
            self.inserted += 1;
        }
        new
    }

    /// Reset the filter to empty, keeping the allocated bit array. Free when
    /// nothing was ever inserted (the bits are already zero).
    pub fn clear(&mut self) {
        if self.inserted == 0 {
            return;
        }
        self.bits.fill(0);
        self.inserted = 0;
    }

    /// Has the hash (probably) been inserted?
    pub fn contains(&self, hash: u64) -> bool {
        self.positions(hash)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// Number of hashes that were new when inserted.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Memory used by the bit array, in bytes.
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// The visited-state set used by the explorer.
pub enum VisitedSet {
    /// Store every visited state exactly (its interned route handles, in a
    /// [`StateArena`]). No false positives.
    Exact(StateArena),
    /// Bitstate hashing: store only Bloom-filter bits of the state hash.
    Bitstate(BloomFilter),
}

impl Default for VisitedSet {
    fn default() -> Self {
        Self::exact()
    }
}

impl VisitedSet {
    /// An exact visited set.
    pub fn exact() -> Self {
        VisitedSet::Exact(StateArena::default())
    }

    /// A bitstate (Bloom filter) visited set with the given number of bits.
    pub fn bitstate(bits: usize) -> Self {
        VisitedSet::Bitstate(BloomFilter::with_bits(bits))
    }

    /// Reset to empty while keeping the underlying allocations (the state
    /// arena and its index, or the Bloom filter's bit array), so a worker can
    /// reuse one visited set across many verification runs without
    /// reallocating.
    pub fn clear(&mut self) {
        match self {
            VisitedSet::Exact(arena) => arena.clear(),
            VisitedSet::Bitstate(bloom) => bloom.clear(),
        }
    }

    /// The number of Bloom-filter bits, if this is a bitstate set.
    pub fn bitstate_bits(&self) -> Option<usize> {
        match self {
            VisitedSet::Exact(_) => None,
            VisitedSet::Bitstate(bloom) => Some(bloom.bytes() * 8),
        }
    }

    /// Record a state whose [`state_hash`] is `hash`. Returns `true` if the
    /// state had not been seen before (definitely for [`VisitedSet::Exact`],
    /// probabilistically for [`VisitedSet::Bitstate`]). Exact storage finds
    /// the state by `hash` and compares handles; the bitstate set probes
    /// from `hash` alone.
    pub fn insert(&mut self, state: &[RouteHandle], hash: u64) -> bool {
        match self {
            VisitedSet::Exact(arena) => arena.insert(state, hash),
            VisitedSet::Bitstate(bloom) => bloom.insert(hash),
        }
    }

    /// Number of distinct states recorded.
    pub fn len(&self) -> usize {
        match self {
            VisitedSet::Exact(arena) => arena.len(),
            VisitedSet::Bitstate(bloom) => bloom.inserted(),
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint in bytes (for the exact set, see
    /// [`StateArena::bytes`]).
    pub fn approx_bytes(&self) -> usize {
        match self {
            VisitedSet::Exact(arena) => arena.bytes(),
            VisitedSet::Bitstate(bloom) => bloom.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(vals: &[u64]) -> Vec<RouteHandle> {
        vals.iter().map(|&v| RouteHandle(v)).collect()
    }

    // An empty interner: `content_hash` falls back to the handle value, so
    // arbitrary handles still hash consistently in these tests.
    fn interner() -> RouteInterner {
        RouteInterner::new()
    }

    /// Insert `vals` under its folded hash.
    fn insert(v: &mut VisitedSet, vals: &[u64]) -> bool {
        let s = state(vals);
        v.insert(&s, state_hash(&s, &interner()))
    }

    /// A well-mixed 64-bit key per integer, as the filter expects.
    fn mixed(i: u64) -> u64 {
        state_term(0, RouteHandle(i + 1), &interner())
    }

    #[test]
    fn exact_set_detects_duplicates() {
        let mut v = VisitedSet::exact();
        assert!(insert(&mut v, &[1, 2, 3]));
        assert!(!insert(&mut v, &[1, 2, 3]));
        assert!(insert(&mut v, &[1, 2, 4]));
        assert_eq!(v.len(), 2);
        assert!(v.approx_bytes() > 0);
    }

    #[test]
    fn exact_set_confirms_hash_hits_by_comparing_states() {
        // Every state under one hash: one chain holds them all, so only the
        // handle comparison tells them apart.
        let mut v = VisitedSet::exact();
        let states: Vec<Vec<RouteHandle>> = (0..200u64)
            .map(|k| state(&[k % 7, k / 7, 0, k % 3]))
            .collect();
        for (round, expect_new) in [(0, true), (1, false)] {
            for s in &states {
                assert_eq!(v.insert(s, 42), expect_new, "round {round}: {s:?}");
            }
            assert_eq!(v.len(), states.len());
        }
        let bytes = v.approx_bytes();
        assert_eq!(bytes, states.len() * (4 * 8 + 8 + 4));
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.approx_bytes(), 0);
        for s in &states {
            assert!(v.insert(s, 42), "cleared set forgets {s:?}");
        }
        assert_eq!(v.len(), states.len());
        assert_eq!(v.approx_bytes(), bytes);
    }

    #[test]
    fn state_hash_follows_single_node_updates() {
        let i = interner();
        let mut s = state(&[0, 5, 9, 0]);
        let mut h = state_hash(&s, &i);
        for (node, handle) in [(0, 3u64), (1, 0), (3, 8), (0, 0), (2, 4)] {
            let prev = std::mem::replace(&mut s[node], RouteHandle(handle));
            h ^= state_term(node, prev, &i) ^ state_term(node, s[node], &i);
            assert_eq!(h, state_hash(&s, &i), "after {node} := {handle}");
        }
        assert_eq!(
            state_hash(&state(&[0, 0, 0]), &i),
            0,
            "⊥ contributes nothing"
        );
        assert_ne!(
            state_term(0, RouteHandle(1), &i),
            state_term(1, RouteHandle(1), &i)
        );
    }

    #[test]
    fn bitstate_detects_duplicates() {
        let mut v = VisitedSet::bitstate(1 << 16);
        assert!(insert(&mut v, &[1, 2, 3]));
        assert!(!insert(&mut v, &[1, 2, 3]));
        assert!(insert(&mut v, &[9, 9, 9]));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn bitstate_uses_fixed_memory() {
        let mut v = VisitedSet::bitstate(1 << 16);
        let before = v.approx_bytes();
        for i in 0..1000u64 {
            insert(&mut v, &[i, i + 1, i + 2]);
        }
        assert_eq!(v.approx_bytes(), before);
        // Exact storage grows with the number of states.
        let mut e = VisitedSet::exact();
        for i in 0..1000u64 {
            insert(&mut e, &[i, i + 1, i + 2]);
        }
        assert!(e.approx_bytes() > v.approx_bytes() / 4);
    }

    #[test]
    fn bloom_contains_after_insert() {
        let mut b = BloomFilter::with_bits(1 << 14);
        assert!(!b.contains(mixed(42)));
        b.insert(mixed(42));
        assert!(b.contains(mixed(42)));
        assert_eq!(b.inserted(), 1);
    }

    #[test]
    fn double_hashing_probes_three_distinct_positions() {
        let b = BloomFilter::with_bits(1 << 14);
        for i in 0..1000u64 {
            let positions: Vec<u64> = b.positions(mixed(i)).collect();
            assert_eq!(positions.len(), 3);
            // The stride is odd, so probes are pairwise distinct modulo the
            // power-of-two bit count.
            assert_ne!(positions[0], positions[1]);
            assert_ne!(positions[1], positions[2]);
            assert_ne!(positions[0], positions[2]);
            assert!(positions.iter().all(|&p| p < (1 << 14)));
        }
    }

    #[test]
    fn bloom_false_positive_rate_is_low_when_sized_generously() {
        let mut b = BloomFilter::with_bits(1 << 18);
        for i in 0..1000u64 {
            b.insert(mixed(i));
        }
        let false_positives = (10_000..20_000u64)
            .filter(|&i| b.contains(mixed(i)))
            .count();
        assert!(false_positives < 50, "false positives: {false_positives}");
    }
}
