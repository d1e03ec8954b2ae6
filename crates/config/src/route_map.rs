//! Route maps: the import/export policy language.
//!
//! Plankton's abstract protocol model (extended SPVP, §3.4.1 of the paper)
//! replaces vendor configuration with abstract import/export filters and
//! ranking functions "inferred from real-world configurations". A
//! [`RouteMap`] is that inference target: an ordered list of permit/deny
//! clauses, each with match conditions and attribute-set actions, evaluated
//! first-match-wins with an implicit deny at the end (an *empty* route map
//! permits everything unchanged, which is the common "no policy configured"
//! case).

use plankton_net::ip::Prefix;
use plankton_net::topology::NodeId;
use serde::{Deserialize, Serialize};

/// The attributes of a route that import/export policy can match on and
/// rewrite. Protocol models embed this in their route representation.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouteAttrs {
    /// The destination prefix being advertised.
    pub prefix: Prefix,
    /// AS-path, most recent AS first.
    pub as_path: Vec<u32>,
    /// BGP communities attached to the route.
    pub communities: Vec<u32>,
    /// LOCAL_PREF (only meaningful inside an AS). Default 100.
    pub local_pref: u32,
    /// Multi-exit discriminator. Default 0.
    pub med: u32,
}

impl RouteAttrs {
    /// A freshly originated route for `prefix` with default attributes.
    pub fn originated(prefix: Prefix) -> Self {
        RouteAttrs {
            prefix,
            as_path: Vec::new(),
            communities: Vec::new(),
            local_pref: 100,
            med: 0,
        }
    }

    /// Length of the AS path.
    pub fn as_path_len(&self) -> usize {
        self.as_path.len()
    }

    /// Does the route carry community `c`?
    pub fn has_community(&self, c: u32) -> bool {
        self.communities.contains(&c)
    }
}

/// Permit or deny.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouteMapAction {
    /// Accept the route (after applying the clause's set actions).
    Permit,
    /// Reject the route.
    Deny,
}

/// A single match condition inside a route-map clause. A clause matches a
/// route only if *all* of its conditions match.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchCondition {
    /// The route's prefix is exactly this prefix.
    PrefixExact(Prefix),
    /// The route's prefix is covered by any prefix in the list
    /// (a prefix-list with implicit `le 32`).
    PrefixIn(Vec<Prefix>),
    /// The route's prefix length is in `[min, max]`.
    PrefixLength {
        /// Minimum length, inclusive.
        min: u8,
        /// Maximum length, inclusive.
        max: u8,
    },
    /// The route carries this community.
    Community(u32),
    /// The AS path contains this AS number.
    AsPathContains(u32),
    /// The AS path is at most this long.
    AsPathLengthAtMost(u32),
    /// The advertisement came from / is going to this neighbor. Evaluated
    /// against the peer the route map is applied with.
    Neighbor(NodeId),
}

impl MatchCondition {
    /// Does the condition hold for `route` when exchanged with `peer`?
    pub fn matches(&self, route: &RouteAttrs, peer: NodeId) -> bool {
        match self {
            MatchCondition::PrefixExact(p) => route.prefix == *p,
            MatchCondition::PrefixIn(list) => list.iter().any(|p| p.covers(&route.prefix)),
            MatchCondition::PrefixLength { min, max } => {
                route.prefix.len() >= *min && route.prefix.len() <= *max
            }
            MatchCondition::Community(c) => route.has_community(*c),
            MatchCondition::AsPathContains(asn) => route.as_path.contains(asn),
            MatchCondition::AsPathLengthAtMost(n) => route.as_path.len() as u32 <= *n,
            MatchCondition::Neighbor(n) => peer == *n,
        }
    }
}

/// An attribute rewrite applied by a permitting clause.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SetAction {
    /// Set LOCAL_PREF.
    LocalPref(u32),
    /// Set MED.
    Med(u32),
    /// Attach a community.
    AddCommunity(u32),
    /// Strip a community.
    RemoveCommunity(u32),
    /// Prepend `count` copies of `asn` to the AS path.
    PrependAsPath {
        /// The AS number to prepend.
        asn: u32,
        /// How many copies.
        count: u8,
    },
}

impl SetAction {
    /// Apply the rewrite to `route` in place.
    pub fn apply(&self, route: &mut RouteAttrs) {
        match self {
            SetAction::LocalPref(v) => route.local_pref = *v,
            SetAction::Med(v) => route.med = *v,
            SetAction::AddCommunity(c) => {
                if !route.communities.contains(c) {
                    route.communities.push(*c);
                    route.communities.sort_unstable();
                }
            }
            SetAction::RemoveCommunity(c) => route.communities.retain(|x| x != c),
            SetAction::PrependAsPath { asn, count } => {
                for _ in 0..*count {
                    route.as_path.insert(0, *asn);
                }
            }
        }
    }
}

/// One clause of a route map.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouteMapClause {
    /// Permit or deny when the clause matches.
    pub action: RouteMapAction,
    /// All conditions must hold for the clause to match. An empty list
    /// matches every route.
    pub matches: Vec<MatchCondition>,
    /// Rewrites applied when the clause permits.
    pub sets: Vec<SetAction>,
}

impl RouteMapClause {
    /// A clause that permits everything unchanged.
    pub fn permit_any() -> Self {
        RouteMapClause {
            action: RouteMapAction::Permit,
            matches: Vec::new(),
            sets: Vec::new(),
        }
    }

    /// A clause that denies everything (useful as an explicit terminator).
    pub fn deny_any() -> Self {
        RouteMapClause {
            action: RouteMapAction::Deny,
            matches: Vec::new(),
            sets: Vec::new(),
        }
    }

    fn matches_route(&self, route: &RouteAttrs, peer: NodeId) -> bool {
        self.matches.iter().all(|m| m.matches(route, peer))
    }
}

/// An ordered route map. Evaluation: the first clause whose conditions all
/// match decides; permit applies the clause's sets, deny drops the route.
/// If no clause matches the route is dropped, *except* that a route map with
/// no clauses at all permits everything (the "unconfigured" map).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct RouteMap {
    /// The clauses, in evaluation order.
    pub clauses: Vec<RouteMapClause>,
}

impl RouteMap {
    /// The unconfigured map: permits everything unchanged.
    pub fn permit_all() -> Self {
        RouteMap {
            clauses: Vec::new(),
        }
    }

    /// A map that denies everything.
    pub fn deny_all() -> Self {
        RouteMap {
            clauses: vec![RouteMapClause::deny_any()],
        }
    }

    /// A map with a single permitting clause carrying `sets` for routes
    /// matching all of `matches`, followed by a permit-everything clause.
    pub fn permit_with(matches: Vec<MatchCondition>, sets: Vec<SetAction>) -> Self {
        RouteMap {
            clauses: vec![
                RouteMapClause {
                    action: RouteMapAction::Permit,
                    matches,
                    sets,
                },
                RouteMapClause::permit_any(),
            ],
        }
    }

    /// Does this map behave exactly like [`RouteMap::permit_all`]?
    pub fn is_permit_all(&self) -> bool {
        self.clauses.is_empty()
            || (self.clauses.len() == 1 && self.clauses[0] == RouteMapClause::permit_any())
    }

    /// Evaluate the map on `route` exchanged with `peer`. Returns the
    /// (possibly rewritten) route if permitted, `None` if denied.
    pub fn apply(&self, route: &RouteAttrs, peer: NodeId) -> Option<RouteAttrs> {
        if self.clauses.is_empty() {
            return Some(route.clone());
        }
        for clause in &self.clauses {
            if clause.matches_route(route, peer) {
                return match clause.action {
                    RouteMapAction::Permit => {
                        let mut out = route.clone();
                        for set in &clause.sets {
                            set.apply(&mut out);
                        }
                        Some(out)
                    }
                    RouteMapAction::Deny => None,
                };
            }
        }
        None
    }

    /// All prefixes the map matches on explicitly. The PEC computation seeds
    /// its trie with these (§3.1: "any prefixes appearing in route maps").
    pub fn referenced_prefixes(&self) -> Vec<Prefix> {
        let mut out = Vec::new();
        for clause in &self.clauses {
            for m in &clause.matches {
                match m {
                    MatchCondition::PrefixExact(p) => out.push(*p),
                    MatchCondition::PrefixIn(list) => out.extend_from_slice(list),
                    _ => {}
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(prefix: &str) -> RouteAttrs {
        RouteAttrs::originated(prefix.parse().unwrap())
    }

    const PEER: NodeId = NodeId(7);

    #[test]
    fn empty_map_permits_everything() {
        let m = RouteMap::permit_all();
        let r = route("10.0.0.0/24");
        assert_eq!(m.apply(&r, PEER), Some(r.clone()));
        assert!(m.is_permit_all());
    }

    #[test]
    fn deny_all_rejects() {
        let m = RouteMap::deny_all();
        assert_eq!(m.apply(&route("10.0.0.0/24"), PEER), None);
        assert!(!m.is_permit_all());
    }

    #[test]
    fn first_match_wins() {
        let m = RouteMap {
            clauses: vec![
                RouteMapClause {
                    action: RouteMapAction::Deny,
                    matches: vec![MatchCondition::PrefixExact("10.0.0.0/24".parse().unwrap())],
                    sets: vec![],
                },
                RouteMapClause::permit_any(),
            ],
        };
        assert_eq!(m.apply(&route("10.0.0.0/24"), PEER), None);
        assert!(m.apply(&route("10.0.1.0/24"), PEER).is_some());
    }

    #[test]
    fn implicit_deny_when_nothing_matches() {
        let m = RouteMap {
            clauses: vec![RouteMapClause {
                action: RouteMapAction::Permit,
                matches: vec![MatchCondition::Community(65001)],
                sets: vec![],
            }],
        };
        assert_eq!(m.apply(&route("10.0.0.0/24"), PEER), None);
    }

    #[test]
    fn set_local_pref_and_community() {
        let m = RouteMap::permit_with(
            vec![MatchCondition::PrefixIn(vec!["10.0.0.0/8"
                .parse()
                .unwrap()])],
            vec![SetAction::LocalPref(200), SetAction::AddCommunity(65010)],
        );
        let out = m.apply(&route("10.1.0.0/16"), PEER).unwrap();
        assert_eq!(out.local_pref, 200);
        assert!(out.has_community(65010));
        // Non-matching routes fall through to the trailing permit-any.
        let out2 = m.apply(&route("192.168.0.0/24"), PEER).unwrap();
        assert_eq!(out2.local_pref, 100);
    }

    #[test]
    fn prefix_length_and_as_path_matches() {
        let mut r = route("10.0.0.0/30");
        r.as_path = vec![65001, 65002];
        assert!(MatchCondition::PrefixLength { min: 24, max: 32 }.matches(&r, PEER));
        assert!(!MatchCondition::PrefixLength { min: 0, max: 16 }.matches(&r, PEER));
        assert!(MatchCondition::AsPathContains(65002).matches(&r, PEER));
        assert!(!MatchCondition::AsPathContains(65003).matches(&r, PEER));
        assert!(MatchCondition::AsPathLengthAtMost(2).matches(&r, PEER));
        assert!(!MatchCondition::AsPathLengthAtMost(1).matches(&r, PEER));
        assert!(MatchCondition::Neighbor(PEER).matches(&r, PEER));
        assert!(!MatchCondition::Neighbor(NodeId(8)).matches(&r, PEER));
    }

    #[test]
    fn prepend_and_community_removal() {
        let mut r = route("10.0.0.0/24");
        r.communities = vec![1, 2];
        SetAction::PrependAsPath {
            asn: 65000,
            count: 2,
        }
        .apply(&mut r);
        assert_eq!(r.as_path, vec![65000, 65000]);
        SetAction::RemoveCommunity(1).apply(&mut r);
        assert_eq!(r.communities, vec![2]);
        SetAction::AddCommunity(2).apply(&mut r);
        assert_eq!(r.communities, vec![2]);
        SetAction::Med(50).apply(&mut r);
        assert_eq!(r.med, 50);
    }

    #[test]
    fn referenced_prefixes_collected() {
        let m = RouteMap::permit_with(
            vec![
                MatchCondition::PrefixExact("10.0.0.0/24".parse().unwrap()),
                MatchCondition::PrefixIn(vec!["20.0.0.0/8".parse().unwrap()]),
            ],
            vec![],
        );
        let ps = m.referenced_prefixes();
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn multiple_conditions_are_conjunctive() {
        let clause = RouteMapClause {
            action: RouteMapAction::Permit,
            matches: vec![
                MatchCondition::PrefixLength { min: 24, max: 24 },
                MatchCondition::Community(9),
            ],
            sets: vec![],
        };
        let m = RouteMap {
            clauses: vec![clause],
        };
        let mut r = route("10.0.0.0/24");
        assert_eq!(m.apply(&r, PEER), None);
        r.communities.push(9);
        assert!(m.apply(&r, PEER).is_some());
    }
}
