//! Visited-state tracking: exact storage of interned states, or SPIN-style
//! bitstate hashing through a Bloom filter (§5, Figure 9 of the paper).

use plankton_protocols::{RouteHandle, RouteInterner};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// A Bloom filter over state fingerprints. Bitstate hashing trades a small
/// probability of false positives (states wrongly considered visited, i.e.
/// reduced coverage) for a large reduction in memory — the paper reports
/// coverage above 99.9% in its experiments.
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
    /// [`SearchScratch`](crate::SearchScratch) so its reuse check can never
    /// drift from the allocation policy.
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

    /// The probe bases for double hashing (Kirsch–Mitzenmacher): one SipHash
    /// run yields `h1`, the second hash is derived from its upper bits and
    /// forced odd so every stride is a unit modulo the power-of-two bit
    /// count. Probe `i` lands at `h1 + i·h2` — no per-call allocation, no
    /// extra hasher runs.
    #[inline]
    fn probe(fingerprint: u64) -> (u64, u64) {
        let mut h = DefaultHasher::new();
        fingerprint.hash(&mut h);
        let h1 = h.finish();
        let h2 = (h1 >> 32) | 1;
        (h1, h2)
    }

    fn positions(&self, fingerprint: u64) -> impl Iterator<Item = u64> + '_ {
        let (h1, h2) = Self::probe(fingerprint);
        (0..self.hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) & self.mask)
    }

    /// Insert a fingerprint; returns `true` if it was (probably) new.
    pub fn insert(&mut self, fingerprint: u64) -> bool {
        let (h1, h2) = Self::probe(fingerprint);
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

    /// Has the fingerprint (probably) been inserted?
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.positions(fingerprint)
            .all(|pos| self.bits[(pos / 64) as usize] & (1 << (pos % 64)) != 0)
    }

    /// Number of fingerprints that were new when inserted.
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
    /// Store every visited state exactly (as its vector of interned route
    /// handles). No false positives.
    Exact(HashSet<Vec<RouteHandle>>),
    /// Bitstate hashing: store only Bloom-filter bits of the state
    /// fingerprint.
    Bitstate(BloomFilter),
}

impl VisitedSet {
    /// An exact visited set.
    pub fn exact() -> Self {
        VisitedSet::Exact(HashSet::new())
    }

    /// A bitstate (Bloom filter) visited set with the given number of bits.
    pub fn bitstate(bits: usize) -> Self {
        VisitedSet::Bitstate(BloomFilter::with_bits(bits))
    }

    /// The bitstate fingerprint hashes the *content-hash sequence* of the
    /// state, not the handles: handle numbering depends on first-occurrence
    /// order, which differs between explorers that evaluate nodes in
    /// different orders, while content hashes are numbering-independent —
    /// so both explorers make identical pruning decisions.
    fn fingerprint(state: &[RouteHandle], interner: &RouteInterner) -> u64 {
        let mut h = DefaultHasher::new();
        state.len().hash(&mut h);
        for &handle in state {
            interner.content_hash(handle).hash(&mut h);
        }
        h.finish()
    }

    /// Reset to empty while keeping the underlying allocations (the hash
    /// set's table or the Bloom filter's bit array), so a worker can reuse
    /// one visited set across many verification runs without reallocating.
    pub fn clear(&mut self) {
        match self {
            VisitedSet::Exact(set) => set.clear(),
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

    /// Record a state. Returns `true` if the state had not been seen before
    /// (definitely for [`VisitedSet::Exact`], probabilistically for
    /// [`VisitedSet::Bitstate`]). The interner is only consulted for
    /// bitstate fingerprints (content hashes); exact storage compares the
    /// handles directly.
    pub fn insert(&mut self, state: &[RouteHandle], interner: &RouteInterner) -> bool {
        match self {
            VisitedSet::Exact(set) => {
                if set.contains(state) {
                    false
                } else {
                    set.insert(state.to_vec())
                }
            }
            VisitedSet::Bitstate(bloom) => bloom.insert(Self::fingerprint(state, interner)),
        }
    }

    /// Number of distinct states recorded.
    pub fn len(&self) -> usize {
        match self {
            VisitedSet::Exact(set) => set.len(),
            VisitedSet::Bitstate(bloom) => bloom.inserted(),
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            VisitedSet::Exact(set) => set
                .iter()
                .map(|v| v.len() * std::mem::size_of::<RouteHandle>() + 48)
                .sum(),
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
    // arbitrary handles still fingerprint consistently in these tests.
    fn interner() -> RouteInterner {
        RouteInterner::new()
    }

    #[test]
    fn exact_set_detects_duplicates() {
        let i = interner();
        let mut v = VisitedSet::exact();
        assert!(v.insert(&state(&[1, 2, 3]), &i));
        assert!(!v.insert(&state(&[1, 2, 3]), &i));
        assert!(v.insert(&state(&[1, 2, 4]), &i));
        assert_eq!(v.len(), 2);
        assert!(v.approx_bytes() > 0);
    }

    #[test]
    fn bitstate_detects_duplicates() {
        let i = interner();
        let mut v = VisitedSet::bitstate(1 << 16);
        assert!(v.insert(&state(&[1, 2, 3]), &i));
        assert!(!v.insert(&state(&[1, 2, 3]), &i));
        assert!(v.insert(&state(&[9, 9, 9]), &i));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn bitstate_uses_fixed_memory() {
        let int = interner();
        let mut v = VisitedSet::bitstate(1 << 16);
        let before = v.approx_bytes();
        for i in 0..1000u64 {
            v.insert(&state(&[i, i + 1, i + 2]), &int);
        }
        assert_eq!(v.approx_bytes(), before);
        // Exact storage grows with the number of states.
        let mut e = VisitedSet::exact();
        for i in 0..1000u64 {
            e.insert(&state(&[i, i + 1, i + 2]), &int);
        }
        assert!(e.approx_bytes() > v.approx_bytes() / 4);
    }

    #[test]
    fn bloom_contains_after_insert() {
        let mut b = BloomFilter::with_bits(1 << 14);
        assert!(!b.contains(42));
        b.insert(42);
        assert!(b.contains(42));
        assert_eq!(b.inserted(), 1);
    }

    #[test]
    fn double_hashing_probes_three_distinct_positions() {
        let b = BloomFilter::with_bits(1 << 14);
        for fp in 0..1000u64 {
            let positions: Vec<u64> = b.positions(fp).collect();
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
            b.insert(i);
        }
        let false_positives = (10_000..20_000u64).filter(|&i| b.contains(i)).count();
        assert!(false_positives < 50, "false positives: {false_positives}");
    }
}
