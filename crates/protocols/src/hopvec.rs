//! The inline small-vector of the RPVP layer's hot values.
//!
//! Two short sequences are cloned on the checker's inner loop: a route's
//! path ([`HopVec`], cloned on every adopted advertisement and every
//! `extended_through`) and an enabled node's maximal updates
//! ([`UpdateVec`](crate::rpvp::UpdateVec), cloned into every branch-point
//! snapshot). Both are short in practice — a k-ary fat tree's longest
//! shortest path is 4 hops, the paper's AS topologies stay in single digits,
//! and a node rarely ties more than a few peers — so [`InlineVec`] stores up
//! to `N` `Copy` elements in place and spills to the heap only beyond that.
//! Equality, hashing and serialization are defined on the *contents*, never
//! the representation, so a path hashes exactly as the `Vec<NodeId>` it
//! replaced: interner handle numbering and bitstate fingerprints do not
//! depend on the layout.

use plankton_net::topology::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: u8, buf: [T; N] },
    Heap(Vec<T>),
}

/// A sequence of `Copy` values, inline up to `N` entries (`N` < 256).
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    repr: Repr<T, N>,
}

/// A route's hops, next hop first: inline up to four entries (32 bytes).
pub type HopVec = InlineVec<NodeId, 4>;

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Entries stored without a heap allocation.
    pub const INLINE: usize = N;

    /// An empty vector.
    pub fn new() -> Self {
        InlineVec {
            repr: Repr::Inline {
                len: 0,
                buf: [T::default(); N],
            },
        }
    }

    /// An empty vector that will hold `capacity` entries; pre-allocates only
    /// when the capacity exceeds the inline buffer.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= N {
            Self::new()
        } else {
            InlineVec {
                repr: Repr::Heap(Vec::with_capacity(capacity)),
            }
        }
    }

    /// The entries as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v.as_slice(),
        }
    }

    /// Append one entry, spilling to the heap past the inline capacity.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } if (*len as usize) < N => {
                buf[*len as usize] = value;
                *len += 1;
            }
            Repr::Inline { .. } => self.extend_from_slice(&[value]),
            Repr::Heap(v) => v.push(value),
        }
    }

    /// Append every entry of `values`, spilling to the heap when they do not
    /// fit inline.
    pub fn extend_from_slice(&mut self, values: &[T]) {
        match &mut self.repr {
            Repr::Inline { len, buf } if *len as usize + values.len() <= N => {
                let n = *len as usize;
                buf[n..n + values.len()].copy_from_slice(values);
                *len += values.len() as u8;
            }
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                let mut v = Vec::with_capacity((n + values.len()).max(N * 2));
                v.extend_from_slice(&buf[..n]);
                v.extend_from_slice(values);
                self.repr = Repr::Heap(v);
            }
            Repr::Heap(v) => v.extend_from_slice(values),
        }
    }

    /// Are the entries stored inline (no heap allocation)?
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        if v.len() <= N {
            let mut out = Self::new();
            out.extend_from_slice(&v);
            out
        } else {
            InlineVec {
                repr: Repr::Heap(v),
            }
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

// Content-based comparisons: a spilled vector and an inline one with the
// same entries are the same sequence.
impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The slice hash (length-prefixed): exactly what the `Vec` hashed to.
        self.as_slice().hash(state);
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: Copy + Default + Serialize, const N: usize> Serialize for InlineVec<T, N> {
    fn to_value(&self) -> serde::Value {
        self.as_slice().to_value()
    }
}

impl<T: Copy + Default + Deserialize, const N: usize> Deserialize for InlineVec<T, N> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Vec::<T>::from_value(v).map(Self::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpvp::UpdateVec;
    use crate::RouteHandle;
    use std::collections::hash_map::DefaultHasher;

    fn hops(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    /// `count` distinct values of each instantiation.
    fn hop_values(count: u32) -> Vec<NodeId> {
        (0..count).map(|i| NodeId(i + 1)).collect()
    }

    fn update_values(count: u32) -> Vec<(NodeId, RouteHandle)> {
        (0..count)
            .map(|i| (NodeId(i), RouteHandle(u64::from(i) + 1)))
            .collect()
    }

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    /// `push` and `extend_from_slice` both stay inline up to `N` entries and
    /// spill past it, keeping every entry in order.
    fn inline_until_capacity_then_spills<T, const N: usize>(values: &[T])
    where
        T: Copy + Default + PartialEq + fmt::Debug,
    {
        assert_eq!(values.len(), N + 2);
        let mut pushed = InlineVec::<T, N>::new();
        for (i, &value) in values.iter().enumerate() {
            pushed.push(value);
            assert_eq!(pushed.is_inline(), i < N, "after {} pushes", i + 1);
            assert_eq!(pushed.as_slice(), &values[..=i]);
        }
        for split in 0..=values.len() {
            let mut extended = InlineVec::<T, N>::new();
            extended.extend_from_slice(&values[..split]);
            assert_eq!(extended.is_inline(), split <= N);
            extended.extend_from_slice(&values[split..]);
            assert!(!extended.is_inline());
            assert_eq!(extended, pushed, "split at {split}");
        }
        let mut exactly_full = InlineVec::<T, N>::new();
        exactly_full.extend_from_slice(&values[..N]);
        assert!(exactly_full.is_inline());
    }

    /// Equality and hashing see the entries, not the representation, and a
    /// vector hashes as the `Vec` of its entries.
    fn equality_and_hash_ignore_representation<T, const N: usize>(values: &[T])
    where
        T: Copy + Default + Eq + Hash + fmt::Debug,
    {
        let inline = InlineVec::<T, N>::from(values[..N].to_vec());
        let spilled = InlineVec::<T, N> {
            repr: Repr::Heap(values[..N].to_vec()),
        };
        assert!(inline.is_inline() && !spilled.is_inline());
        assert_eq!(inline, spilled);
        assert_eq!(hash_of(&inline), hash_of(&spilled));
        assert_eq!(hash_of(&inline), hash_of(&values[..N].to_vec()));
        assert_ne!(inline, InlineVec::<T, N>::from(values[1..=N].to_vec()));
    }

    /// `From<Vec>` and `FromIterator` build the same vector, inline exactly
    /// when the entries fit.
    fn from_vec_and_from_iter_agree<T, const N: usize>(values: &[T])
    where
        T: Copy + Default + Eq + fmt::Debug,
    {
        for count in 0..=values.len() {
            let from_vec = InlineVec::<T, N>::from(values[..count].to_vec());
            let collected: InlineVec<T, N> = values[..count].iter().copied().collect();
            assert_eq!(from_vec, collected);
            assert_eq!(*from_vec, values[..count]);
            assert_eq!(from_vec.is_inline(), count <= N);
            assert_eq!(collected.is_inline(), count <= N);
        }
    }

    #[test]
    fn hop_vec_inline_boundary() {
        inline_until_capacity_then_spills::<_, 4>(&hop_values(6));
    }

    #[test]
    fn update_vec_inline_boundary() {
        inline_until_capacity_then_spills::<_, 4>(&update_values(6));
        assert_eq!(UpdateVec::INLINE, 4);
    }

    #[test]
    fn hop_vec_equality_and_hash_ignore_representation() {
        equality_and_hash_ignore_representation::<_, 4>(&hop_values(6));
    }

    #[test]
    fn update_vec_equality_and_hash_ignore_representation() {
        equality_and_hash_ignore_representation::<_, 4>(&update_values(6));
    }

    #[test]
    fn hop_vec_from_vec_and_from_iter() {
        from_vec_and_from_iter_agree::<_, 4>(&hop_values(6));
    }

    #[test]
    fn update_vec_from_vec_and_from_iter() {
        from_vec_and_from_iter_agree::<_, 4>(&update_values(6));
    }

    #[test]
    fn hop_vec_layout_is_pinned() {
        // `RouteInterner`'s memory estimate counts `size_of::<Route>()`, and
        // reports carry that estimate: a layout change must be deliberate.
        assert_eq!(std::mem::size_of::<HopVec>(), 32);
    }

    #[test]
    fn slice_api_via_deref() {
        let v: HopVec = hops(&[3, 1, 2]).into();
        assert_eq!(v.first(), Some(&NodeId(3)));
        assert_eq!(v.last(), Some(&NodeId(2)));
        assert!(v.contains(&NodeId(1)));
        assert_eq!(&v[1..], hops(&[1, 2]).as_slice());
    }

    #[test]
    fn serde_roundtrips_as_an_array() {
        let v: HopVec = hops(&[1, 2, 3, 4, 5, 6]).into();
        let value = v.to_value();
        assert_eq!(value, hops(&[1, 2, 3, 4, 5, 6]).to_value());
        let back = HopVec::from_value(&value).unwrap();
        assert_eq!(back, v);
    }
}
