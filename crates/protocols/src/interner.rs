//! Route interning: the paper's state-hashing optimization (§4.4), now
//! living *below* the RPVP layer so routes are interned at generation time.
//!
//! A network state is one routing entry per device; most entries repeat
//! across the millions of states the checker visits. Each distinct
//! [`Route`] is therefore stored exactly once in a table and everything
//! above — [`RpvpState`](crate::rpvp::RpvpState),
//! [`EnabledChoice`](crate::rpvp::EnabledChoice), the checker's undo
//! records and visited sets — holds compact handles. Copying states is a
//! `memcpy`, visited-state comparison is a vector-of-integers comparison,
//! and the checker's per-step route clone disappears entirely.
//!
//! Each entry also carries a *content hash* computed once at intern time.
//! Handle numbering depends on first-occurrence order, which differs
//! between explorers that evaluate nodes in different orders; bitstate
//! fingerprints therefore hash the content-hash sequence instead of the
//! handles, making pruning decisions independent of numbering.

use crate::route::Route;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Handle of an interned route. `NONE` represents `⊥` (no route).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RouteHandle(pub u64);

impl RouteHandle {
    /// The handle for "no route" (`⊥`).
    pub const NONE: RouteHandle = RouteHandle(0);

    /// Is this the `⊥` handle?
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Is this a real route handle?
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl Serialize for RouteHandle {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl Deserialize for RouteHandle {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        u64::from_value(v).map(RouteHandle)
    }
}

/// The content hash reported for the `⊥` handle (an arbitrary fixed odd
/// constant, distinct from any `DefaultHasher` output with overwhelming
/// probability is not required — it only needs to be *consistent*).
const NONE_CONTENT_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// The interning table. The route value is stored once, in an [`Arc`]
/// shared between the lookup map and the resolve table (the previous
/// design stored a full clone in each).
///
/// The table is designed to stay **warm across runs**: handles are
/// content-addressed, so a worker that verifies hundreds of failure
/// scenarios keeps one table and pays the miss cost (clone + content hash +
/// map growth) for each distinct route only once. Per-run statistics stay
/// exact through *run stamping*: [`RouteInterner::begin_run`] opens a new
/// accounting epoch, and each intern call marks its entry as touched, so
/// [`RouteInterner::run_interned`] reports exactly what a freshly allocated
/// interner would contain after the same run.
#[derive(Default)]
pub struct RouteInterner {
    by_route: HashMap<Arc<Route>, RouteHandle>,
    by_handle: Vec<Arc<Route>>,
    /// `content[h-1]` = a hash of the route's value, computed once at
    /// intern time; stable across interners within one process.
    content: Vec<u64>,
    /// `run_stamp[h-1]` = the accounting epoch that last interned the
    /// route (parallel to `by_handle`).
    run_stamp: Vec<u64>,
    /// The current accounting epoch.
    run_id: u64,
    /// Distinct routes interned during the current epoch.
    run_touched: u64,
    /// Sum of the per-route size terms over the current epoch's routes.
    run_route_bytes: usize,
}

/// The per-route term of the memory estimate (doubled by the reporting
/// methods: the route is referenced from both the map key and the table).
fn route_bytes(r: &Route) -> usize {
    std::mem::size_of::<Route>()
        + r.path.len() * std::mem::size_of::<u32>()
        + r.attrs.as_path.len() * 4
        + r.attrs.communities.len() * 4
}

impl RouteInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert_new(&mut self, route: Arc<Route>) -> RouteHandle {
        let handle = RouteHandle(self.by_handle.len() as u64 + 1);
        let mut h = DefaultHasher::new();
        route.hash(&mut h);
        self.content.push(h.finish());
        self.run_stamp.push(self.run_id);
        self.run_touched += 1;
        self.run_route_bytes += route_bytes(&route);
        self.by_handle.push(Arc::clone(&route));
        self.by_route.insert(route, handle);
        handle
    }

    /// Mark a pre-existing entry as interned during the current epoch.
    #[inline]
    fn touch(&mut self, handle: RouteHandle) {
        let idx = handle.0 as usize - 1;
        if self.run_stamp[idx] != self.run_id {
            self.run_stamp[idx] = self.run_id;
            self.run_touched += 1;
            self.run_route_bytes += route_bytes(&self.by_handle[idx]);
        }
    }

    /// Intern a route, returning its (stable) handle. Clones the route
    /// (once, into a shared [`Arc`]) only when it was not already present.
    pub fn intern(&mut self, route: &Route) -> RouteHandle {
        if let Some(&h) = self.by_route.get(route) {
            self.touch(h);
            return h;
        }
        self.insert_new(Arc::new(route.clone()))
    }

    /// Intern an owned route without cloning (zero-copy on both hit and
    /// miss).
    pub fn intern_owned(&mut self, route: Route) -> RouteHandle {
        if let Some(&h) = self.by_route.get(&route) {
            self.touch(h);
            return h;
        }
        self.insert_new(Arc::new(route))
    }

    /// Intern an optional route (`None` maps to [`RouteHandle::NONE`]).
    pub fn intern_opt(&mut self, route: Option<&Route>) -> RouteHandle {
        match route {
            Some(r) => self.intern(r),
            None => RouteHandle::NONE,
        }
    }

    /// Resolve a handle back to its route (`None` for the `⊥` handle).
    pub fn resolve(&self, handle: RouteHandle) -> Option<&Route> {
        if handle.is_none() {
            None
        } else {
            self.by_handle.get(handle.0 as usize - 1).map(Arc::as_ref)
        }
    }

    /// The content hash of a handle's route, computed at intern time.
    /// Numbering-independent: two interners that interned the same route
    /// under different handles report the same content hash for it.
    pub fn content_hash(&self, handle: RouteHandle) -> u64 {
        if handle.is_none() {
            NONE_CONTENT_HASH
        } else {
            self.content
                .get(handle.0 as usize - 1)
                .copied()
                .unwrap_or(handle.0)
        }
    }

    /// Compress a full state (one optional route per node) into handles.
    pub fn compress_state(&mut self, best: &[Option<Route>]) -> Vec<RouteHandle> {
        best.iter().map(|r| self.intern_opt(r.as_ref())).collect()
    }

    /// Number of distinct routes interned.
    pub fn len(&self) -> usize {
        self.by_handle.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.by_handle.is_empty()
    }

    /// Reset to empty while keeping the map and table allocations, so a
    /// worker can reuse one interner across many verification runs.
    /// Handles from before the clear are invalidated.
    pub fn clear(&mut self) {
        self.by_route.clear();
        self.by_handle.clear();
        self.content.clear();
        self.run_stamp.clear();
        self.run_touched = 0;
        self.run_route_bytes = 0;
    }

    /// Open a new accounting epoch without discarding the table. Existing
    /// handles stay valid (routes are content-addressed); only the per-run
    /// counters reset. A warm worker calls this between verification runs so
    /// [`Self::run_interned`] / [`Self::run_approx_bytes`] report exactly
    /// what a fresh interner would have after the run.
    pub fn begin_run(&mut self) {
        self.run_id += 1;
        self.run_touched = 0;
        self.run_route_bytes = 0;
    }

    /// Distinct routes interned since the last [`Self::begin_run`] (or
    /// creation). Equals [`Self::len`] on a freshly created interner.
    pub fn run_interned(&self) -> u64 {
        self.run_touched
    }

    /// Approximate memory the current run's routes would occupy in a fresh
    /// interner, in bytes. Equals [`Self::approx_bytes`] on a freshly
    /// created interner.
    pub fn run_approx_bytes(&self) -> usize {
        self.run_route_bytes * 2 // map key + table reference
    }

    /// Approximate memory used by the distinct route entries, in bytes
    /// (used by the memory statistics the benchmarks report).
    pub fn approx_bytes(&self) -> usize {
        self.by_handle.iter().map(|r| route_bytes(r)).sum::<usize>() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plankton_net::ip::Prefix;
    use plankton_net::topology::NodeId;

    fn route(hops: &[u32]) -> Route {
        let mut r = Route::originated(Prefix::DEFAULT);
        for &h in hops.iter().rev() {
            r = r.extended_through(NodeId(h));
        }
        r
    }

    #[test]
    fn interning_is_idempotent() {
        let mut i = RouteInterner::new();
        let r1 = route(&[1, 2, 3]);
        let h1 = i.intern(&r1);
        let h2 = i.intern(&r1);
        assert_eq!(h1, h2);
        assert_eq!(i.len(), 1);
        assert_eq!(i.resolve(h1), Some(&r1));
        // The owned path hits the same entry.
        assert_eq!(i.intern_owned(r1), h1);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_routes_get_distinct_handles() {
        let mut i = RouteInterner::new();
        let h1 = i.intern(&route(&[1]));
        let h2 = i.intern(&route(&[2]));
        assert_ne!(h1, h2);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn none_handle_is_reserved() {
        let mut i = RouteInterner::new();
        assert_eq!(i.intern_opt(None), RouteHandle::NONE);
        assert!(RouteHandle::NONE.is_none());
        assert_eq!(i.resolve(RouteHandle::NONE), None);
        let h = i.intern_opt(Some(&route(&[5])));
        assert!(!h.is_none());
        assert!(h.is_some());
    }

    #[test]
    fn compress_state_roundtrips() {
        let mut i = RouteInterner::new();
        let state = vec![Some(route(&[1])), None, Some(route(&[1, 2]))];
        let compressed = i.compress_state(&state);
        assert_eq!(compressed.len(), 3);
        assert_eq!(i.resolve(compressed[0]), state[0].as_ref());
        assert_eq!(i.resolve(compressed[1]), None);
        assert_eq!(i.resolve(compressed[2]), state[2].as_ref());
        // Same state compresses to the same handles without growing the table.
        let before = i.len();
        let again = i.compress_state(&state);
        assert_eq!(again, compressed);
        assert_eq!(i.len(), before);
    }

    #[test]
    fn content_hashes_are_numbering_independent() {
        // Intern the same two routes in opposite orders: handles differ,
        // content hashes agree route-for-route.
        let (a, b) = (route(&[1]), route(&[2, 3]));
        let mut left = RouteInterner::new();
        let la = left.intern(&a);
        let lb = left.intern(&b);
        let mut right = RouteInterner::new();
        let rb = right.intern(&b);
        let ra = right.intern(&a);
        assert_ne!(la, ra);
        assert_eq!(left.content_hash(la), right.content_hash(ra));
        assert_eq!(left.content_hash(lb), right.content_hash(rb));
        assert_ne!(left.content_hash(la), left.content_hash(lb));
        assert_eq!(
            left.content_hash(RouteHandle::NONE),
            right.content_hash(RouteHandle::NONE)
        );
    }

    #[test]
    fn clear_keeps_working_and_renumbers() {
        let mut i = RouteInterner::new();
        i.intern(&route(&[1]));
        i.intern(&route(&[2]));
        assert_eq!(i.len(), 2);
        i.clear();
        assert!(i.is_empty());
        let h = i.intern(&route(&[2]));
        assert_eq!(h, RouteHandle(1), "handles restart after clear");
        assert_eq!(i.resolve(h), Some(&route(&[2])));
    }

    #[test]
    fn run_counters_match_a_fresh_interner() {
        // Warm path: intern a, b; begin_run; re-intern b plus a new c. The
        // run counters must equal what a fresh interner would report after
        // interning just {b, c}.
        let (a, b, c) = (route(&[1]), route(&[2, 3]), route(&[4, 5, 6]));
        let mut warm = RouteInterner::new();
        let ha = warm.intern(&a);
        let hb = warm.intern(&b);
        warm.begin_run();
        assert_eq!(warm.run_interned(), 0);
        assert_eq!(warm.run_approx_bytes(), 0);
        assert_eq!(warm.intern(&b), hb, "handles survive begin_run");
        assert_eq!(
            warm.intern(&b),
            hb,
            "re-touch in the same run is idempotent"
        );
        let hc = warm.intern(&c);
        assert_ne!(hc, ha);
        let mut fresh = RouteInterner::new();
        fresh.intern(&b);
        fresh.intern(&c);
        assert_eq!(warm.run_interned(), fresh.len() as u64);
        assert_eq!(warm.run_approx_bytes(), fresh.approx_bytes());
        // A fresh interner's run counters agree with its totals.
        assert_eq!(fresh.run_interned(), fresh.len() as u64);
        assert_eq!(fresh.run_approx_bytes(), fresh.approx_bytes());
    }

    #[test]
    fn memory_estimate_is_nonzero() {
        let mut i = RouteInterner::new();
        assert!(i.is_empty());
        i.intern(&route(&[1, 2, 3, 4]));
        assert!(i.approx_bytes() > 0);
    }
}
