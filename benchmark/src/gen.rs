//! Seeded input generators: the same seed gives byte-identical network files
//! and request streams. The programs under test see only what is generated
//! here (a network JSON file, CLI flags, NDJSON request lines).

use plankton::config::scenarios::{
    fat_tree_bgp_rfc7938, fat_tree_ospf, CoreStaticRoutes, FatTreeOspfScenario,
};
use plankton::config::{ConfigDelta, Network, StaticRoute};
use plankton::net::generators::fat_tree::FatTree;
use plankton::net::ip::{Ipv4Addr, Prefix};
use plankton::net::topology::{LinkId, NodeId};
use plankton::service::{PolicySpec, Request, VerifyOptions};

/// splitmix64: tiny, seedable, and independent of the repo's `rand` shim, so
/// a change there cannot silently change the benchmark's inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Milliseconds between `update_storm` phase-A batches.
pub const STORM_PERIOD_MS: u64 = 20;

/// Problem sizes of one benchmark run. `full()` is what `BENCHMARK.json`
/// measures; `smoke()` is the CI-sized pass.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Fat-tree arity of the OSPF network `cold_ospf_fattree` verifies.
    pub ospf_k: usize,
    /// Fat-tree arity of the network the daemon workloads load.
    pub daemon_k: usize,
    /// Fat-tree arity of the BGP data center.
    pub bgp_k: usize,
    /// Deltas per `update_storm` batch.
    pub storm_batch: usize,
    /// Milliseconds between `update_storm` phase-A verifies.
    pub storm_verify_period_ms: u64,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            ospf_k: 16,
            daemon_k: 14,
            bgp_k: 8,
            storm_batch: 64,
            storm_verify_period_ms: 600,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            ospf_k: 6,
            daemon_k: 6,
            bgp_k: 4,
            storm_batch: 16,
            storm_verify_period_ms: 250,
        }
    }
}

/// The network file the programs under test read: `Network::to_json`'s
/// format, except that `topology.name_index` — a `HashMap`, which the repo
/// writes in an order that differs from process to process — is sorted by
/// name, so that the same network always gives the same bytes.
pub fn network_json(network: &Network) -> String {
    use serde::{Serialize, Value};
    fn field_mut<'a>(value: &'a mut Value, key: &str) -> Option<&'a mut Value> {
        match value {
            Value::Object(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    let mut doc = network.to_value();
    if let Some(Value::Array(pairs)) =
        field_mut(&mut doc, "topology").and_then(|t| field_mut(t, "name_index"))
    {
        pairs.sort_by_key(|pair| match pair {
            Value::Array(kv) => match kv.first() {
                Some(Value::Str(name)) => name.clone(),
                _ => String::new(),
            },
            _ => String::new(),
        });
    }
    serde_json::to_string_pretty(&doc).expect("values serialize")
}

/// The daemon's base network: the `MatchingOspf` fat tree with the default
/// OSPF cost written out explicitly on every core-side interface, so that a
/// cost change followed by its restore gives back a byte-identical network.
pub fn daemon_base(k: usize) -> FatTreeOspfScenario {
    let mut scenario = fat_tree_ospf(k, CoreStaticRoutes::MatchingOspf);
    for &core in &scenario.fat_tree.core {
        let links: Vec<LinkId> = scenario
            .network
            .topology
            .neighbors(core)
            .iter()
            .map(|&(_, l)| l)
            .collect();
        let ospf = scenario
            .network
            .device_mut(core)
            .ospf
            .as_mut()
            .expect("every fat-tree switch runs OSPF");
        for link in links {
            ospf.interface_costs.insert(link, BASE_COST);
        }
    }
    scenario
}

/// The explicit base cost of [`daemon_base`] (the OSPF default).
pub const BASE_COST: u32 = 10;

/// One `plankton verify` invocation with its answer known from construction.
#[derive(Clone, Debug)]
pub struct CliCase {
    /// Flags after `verify --config <file>`.
    pub args: Vec<String>,
    /// Does the policy hold, by construction?
    pub holds: bool,
}

/// The RFC 7938 BGP data center plus the two waypoint questions asked of it.
pub struct BgpDc {
    pub network: Network,
    /// Unsteered waypoint set over every prefix: the source's own rack prefix
    /// is delivered locally without crossing a waypoint ⇒ VIOLATED.
    pub violated: CliCase,
    /// Every aggregation switch of the source pod as waypoint, restricted to
    /// a prefix in another pod: every path out of the pod crosses one ⇒ HOLDS.
    pub holds: CliCase,
}

/// The waypoint draw of [`bgp_dc`]. The cold workloads' inputs depend only
/// on the fat-tree arity, not on the run's seed: which switches are drawn as
/// waypoints moves the verify time by a quarter, which would drown any
/// regression in seed-to-seed spread, and a fixed input makes the exact
/// counts (`checker.steps`, `cli.states`) comparable across seeds.
pub const BGP_SCENARIO_SEED: u64 = 7938;

pub fn bgp_dc(k: usize) -> BgpDc {
    let scenario = fat_tree_bgp_rfc7938(k, BGP_SCENARIO_SEED);
    let name = |n: NodeId| scenario.network.topology.node(n).name.clone();
    let (src, dst) = scenario.monitored_edges;
    let mut violated = vec![
        "--policy".to_string(),
        "waypoint".to_string(),
        "--all-violations".to_string(),
        "--source".to_string(),
        name(src),
    ];
    for &w in &scenario.waypoints {
        violated.push("--waypoint".to_string());
        violated.push(name(w));
    }
    let src_pod = scenario
        .fat_tree
        .pod_of(src)
        .expect("the monitored source is an edge switch");
    let mut holds = vec![
        "--policy".to_string(),
        "waypoint".to_string(),
        "--all-violations".to_string(),
        "--source".to_string(),
        name(src),
        "--prefix".to_string(),
        scenario
            .fat_tree
            .prefix_of_edge(dst)
            .expect("the monitored destination is an edge switch")
            .to_string(),
    ];
    for &w in &scenario.fat_tree.aggregation[src_pod] {
        holds.push("--waypoint".to_string());
        holds.push(name(w));
    }
    BgpDc {
        network: scenario.network,
        violated: CliCase {
            args: violated,
            holds: false,
        },
        holds: CliCase {
            args: holds,
            holds: true,
        },
    }
}

/// The `plankton verify` flags of the cold OSPF workload.
pub fn ospf_loop_args() -> Vec<String> {
    ["--policy", "loop", "--max-failures", "1"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// The daemon workloads' one policy question.
pub fn daemon_verify_line() -> String {
    Request::Verify {
        policy: PolicySpec::LoopFreedom,
        options: Some(VerifyOptions::default()),
    }
    .to_line()
}

/// Cost class of a `delta_reverify` op, by what the re-verify after it has
/// to do (not by measured time).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// Back to a state whose tasks are all cached, or one new task: the
    /// re-verify is fixed overhead (keys, lookups, merge, serde, socket).
    Cheap,
    /// A core OSPF cost change: the competitive tasks re-run.
    Medium,
    /// A link going down: every task whose failure environment changed.
    Expensive,
}

impl OpClass {
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Cheap => "cheap",
            OpClass::Medium => "medium",
            OpClass::Expensive => "expensive",
        }
    }
}

/// One `delta_reverify` op: apply `delta`, then verify.
#[derive(Clone, Debug)]
pub struct DeltaOp {
    pub class: OpClass,
    pub delta: ConfigDelta,
}

/// Pairs per block of the `delta_reverify` stream, by kind. A link pair is
/// down (expensive) + up (cheap); a cost pair is change (medium) + restore
/// (cheap); a static pair is add + remove (both cheap). Per 20 ops that is
/// 13 cheap, 4 medium, 3 expensive: 65 % / 20 % / 15 %, so the median
/// re-verify sits strictly inside the cheap class and p90 strictly inside
/// the expensive one. Cost changes are the costliest deltas to *apply* and
/// are 40 % of the ops, so the median apply sits inside the other kinds.
const LINK_PAIRS: usize = 3;
const COST_PAIRS: usize = 4;
const STATIC_PAIRS: usize = 3;

/// Ops per block of the `delta_reverify` stream.
pub const BLOCK_OPS: usize = 2 * (LINK_PAIRS + COST_PAIRS + STATIC_PAIRS);

fn core_links(ft: &FatTree, network: &Network) -> Vec<(NodeId, LinkId)> {
    ft.core
        .iter()
        .flat_map(|&core| {
            network
                .topology
                .neighbors(core)
                .iter()
                .map(move |&(_, link)| (core, link))
        })
        .collect()
}

/// A prefix no fat-tree switch originates: `10.200+.x.0/24`.
fn spare_prefix(i: usize) -> Prefix {
    Prefix::new(
        Ipv4Addr::new(10, 200 + (i / 250) as u8, (i % 250) as u8, 0),
        24,
    )
}

/// The `delta_reverify` op stream: `blocks` shuffled blocks of
/// [`BLOCK_OPS`] ops. Every forward delta is directly followed by its
/// inverse, so the network is back at base after any even number of ops and
/// its state space stays bounded. Forward deltas never repeat a link,
/// interface or prefix, so a forward op is never served from an earlier
/// op's cache entries.
pub fn delta_reverify_stream(base: &FatTreeOspfScenario, seed: u64, blocks: usize) -> Vec<DeltaOp> {
    let mut rng = Rng::new(seed);
    let ft = &base.fat_tree;
    let mut interfaces = core_links(ft, &base.network);
    rng.shuffle(&mut interfaces);
    let mut down_candidates = interfaces.clone();
    rng.shuffle(&mut down_candidates);
    let mut edges = ft.edges_flat();
    rng.shuffle(&mut edges);

    let mut ops = Vec::with_capacity(blocks * BLOCK_OPS);
    let (mut next_link, mut next_cost, mut next_static) = (0usize, 0usize, 0usize);
    for _ in 0..blocks {
        let mut kinds: Vec<u8> = Vec::new();
        kinds.extend(std::iter::repeat_n(0u8, LINK_PAIRS));
        kinds.extend(std::iter::repeat_n(1u8, COST_PAIRS));
        kinds.extend(std::iter::repeat_n(2u8, STATIC_PAIRS));
        rng.shuffle(&mut kinds);
        for kind in kinds {
            match kind {
                0 => {
                    let (_, link) = down_candidates[next_link % down_candidates.len()];
                    next_link += 1;
                    ops.push(DeltaOp {
                        class: OpClass::Expensive,
                        delta: ConfigDelta::LinkDown { link },
                    });
                    ops.push(DeltaOp {
                        class: OpClass::Cheap,
                        delta: ConfigDelta::LinkUp { link },
                    });
                }
                1 => {
                    let (device, link) = interfaces[next_cost % interfaces.len()];
                    // A different cost per lap over the interfaces, never the base.
                    let cost = BASE_COST
                        + 5
                        + (next_cost / interfaces.len()) as u32 * 7
                        + rng.below(5) as u32;
                    next_cost += 1;
                    ops.push(DeltaOp {
                        class: OpClass::Medium,
                        delta: ConfigDelta::OspfCostChange { device, link, cost },
                    });
                    ops.push(DeltaOp {
                        class: OpClass::Cheap,
                        delta: ConfigDelta::OspfCostChange {
                            device,
                            link,
                            cost: BASE_COST,
                        },
                    });
                }
                _ => {
                    let device = edges[next_static % edges.len()];
                    let prefix = spare_prefix(next_static);
                    next_static += 1;
                    ops.push(DeltaOp {
                        class: OpClass::Cheap,
                        delta: ConfigDelta::StaticRouteAdd {
                            device,
                            route: StaticRoute::null(prefix),
                        },
                    });
                    ops.push(DeltaOp {
                        class: OpClass::Cheap,
                        delta: ConfigDelta::StaticRouteRemove { device, prefix },
                    });
                }
            }
        }
    }
    ops
}

/// The `update_storm` delta source: a small hot set (8 flapping links, 4
/// toggling core OSPF costs, 4 static prefixes added and removed), so the
/// queue coalesces heavily and the reachable state space is finite. Every
/// delta is valid when replayed in order (no delta is a no-op at its turn).
pub struct StormGen {
    rng: Rng,
    links: Vec<(LinkId, bool)>,
    costs: Vec<(NodeId, LinkId, bool)>,
    statics: Vec<(NodeId, Prefix, bool)>,
}

/// The non-base cost the storm's hot interfaces toggle to.
const STORM_COST: u32 = 25;

impl StormGen {
    pub fn new(base: &FatTreeOspfScenario, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5707_0a11);
        let mut interfaces = core_links(&base.fat_tree, &base.network);
        rng.shuffle(&mut interfaces);
        let links = interfaces
            .iter()
            .take(8)
            .map(|&(_, l)| (l, false))
            .collect();
        let costs = interfaces
            .iter()
            .skip(8)
            .take(4)
            .map(|&(d, l)| (d, l, false))
            .collect();
        let mut edges = base.fat_tree.edges_flat();
        rng.shuffle(&mut edges);
        let statics = edges
            .iter()
            .take(4)
            .enumerate()
            .map(|(i, &e)| (e, spare_prefix(10_000 + i), false))
            .collect();
        StormGen {
            rng,
            links,
            costs,
            statics,
        }
    }

    fn next_delta(&mut self) -> ConfigDelta {
        let pick = self.rng.below(16);
        if pick < 8 {
            let (link, down) = &mut self.links[pick];
            *down = !*down;
            if *down {
                ConfigDelta::LinkDown { link: *link }
            } else {
                ConfigDelta::LinkUp { link: *link }
            }
        } else if pick < 12 {
            let (device, link, changed) = &mut self.costs[pick - 8];
            *changed = !*changed;
            ConfigDelta::OspfCostChange {
                device: *device,
                link: *link,
                cost: if *changed { STORM_COST } else { BASE_COST },
            }
        } else {
            let (device, prefix, present) = &mut self.statics[pick - 12];
            *present = !*present;
            if *present {
                ConfigDelta::StaticRouteAdd {
                    device: *device,
                    route: StaticRoute::null(*prefix),
                }
            } else {
                ConfigDelta::StaticRouteRemove {
                    device: *device,
                    prefix: *prefix,
                }
            }
        }
    }

    pub fn next_batch(&mut self, size: usize) -> Vec<ConfigDelta> {
        (0..size).map(|_| self.next_delta()).collect()
    }

    /// The deltas that take the network from where the stream left it back
    /// to base (empty when it is already there).
    pub fn restore_batch(&mut self) -> Vec<ConfigDelta> {
        let mut out = Vec::new();
        for (link, down) in &mut self.links {
            if std::mem::take(down) {
                out.push(ConfigDelta::LinkUp { link: *link });
            }
        }
        for (device, link, changed) in &mut self.costs {
            if std::mem::take(changed) {
                out.push(ConfigDelta::OspfCostChange {
                    device: *device,
                    link: *link,
                    cost: BASE_COST,
                });
            }
        }
        for (device, prefix, present) in &mut self.statics {
            if std::mem::take(present) {
                out.push(ConfigDelta::StaticRouteRemove {
                    device: *device,
                    prefix: *prefix,
                });
            }
        }
        out
    }
}

/// Deltas valid on any network, for probing the delta layers on the cold
/// workloads' inputs: eight link down/up pairs and eight static-route
/// add/remove pairs, each pair leaving the network as it was.
pub fn generic_deltas(network: &Network) -> Vec<ConfigDelta> {
    let mut out = Vec::new();
    for link in network.topology.link_ids().take(8) {
        out.push(ConfigDelta::LinkDown { link });
        out.push(ConfigDelta::LinkUp { link });
    }
    for (i, device) in network.topology.node_ids().take(8).enumerate() {
        let prefix = spare_prefix(20_000 + i);
        out.push(ConfigDelta::StaticRouteAdd {
            device,
            route: StaticRoute::null(prefix),
        });
        out.push(ConfigDelta::StaticRouteRemove { device, prefix });
    }
    out
}

/// One `ApplyDeltas {ack: "enqueued"}` request line.
pub fn storm_line(deltas: Vec<ConfigDelta>) -> String {
    Request::ApplyDeltas {
        deltas,
        ack: "enqueued".to_string(),
    }
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile_index;

    fn stream_lines(seed: u64) -> Vec<String> {
        let base = daemon_base(4);
        delta_reverify_stream(&base, seed, 3)
            .into_iter()
            .map(|op| Request::ApplyDelta { delta: op.delta }.to_line())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes() {
        // Separate builds of one network: `Network::to_json` alone would
        // differ here, in the order of `topology.name_index`.
        let (a, b) = (daemon_base(4).network, daemon_base(4).network);
        assert_eq!(network_json(&a), network_json(&b));
        let (a, b) = (bgp_dc(4).network, bgp_dc(4).network);
        assert_eq!(network_json(&a), network_json(&b));
        // What is written parses back to the same network.
        let back = Network::from_json(&network_json(&a)).expect("parses");
        assert_eq!(network_json(&back), network_json(&a));
        assert_eq!(bgp_dc(4).violated.args, bgp_dc(4).violated.args);
        assert_eq!(stream_lines(11), stream_lines(11));
        assert_ne!(stream_lines(11), stream_lines(12));
        let base = daemon_base(4);
        let batches = |seed| {
            let mut g = StormGen::new(&base, seed);
            let mut lines: Vec<String> = (0..5).map(|_| storm_line(g.next_batch(16))).collect();
            lines.push(storm_line(g.restore_batch()));
            lines
        };
        assert_eq!(batches(3), batches(3));
        assert_ne!(batches(3), batches(4));
    }

    #[test]
    fn delta_reverify_stream_ends_on_base_after_every_pair() {
        let base = daemon_base(4);
        let base_json = network_json(&base.network);
        let mut network = base.network.clone();
        for (i, op) in delta_reverify_stream(&base, 5, 4).iter().enumerate() {
            op.delta
                .apply(&mut network)
                .unwrap_or_else(|e| panic!("op {i} ({:?}) must apply: {e}", op.delta));
            if i % 2 == 1 {
                assert_eq!(network_json(&network), base_json, "after op {i}");
            }
        }
    }

    #[test]
    fn class_shares_put_p50_and_p90_strictly_inside_a_class() {
        let base = daemon_base(4);
        // From two blocks on; in a single block of 20 the expensive class is
        // three samples and p90 is the lowest of them.
        for blocks in [2, 3, 7] {
            let mut classes: Vec<OpClass> = delta_reverify_stream(&base, 9, blocks)
                .iter()
                .map(|op| op.class)
                .collect();
            classes.sort();
            let n = classes.len();
            // Strictly inside: the neighbours of the percentile's rank are
            // of the same class, so a sample more or less cannot move the
            // percentile across a class boundary.
            for (q, class) in [(0.50, OpClass::Cheap), (0.90, OpClass::Expensive)] {
                let i = percentile_index(n, q);
                assert_eq!(classes[i], class, "p{q} of {n}");
                assert_eq!(classes[i - 1], class, "below p{q} of {n}");
                assert_eq!(classes[(i + 1).min(n - 1)], class, "above p{q} of {n}");
            }
        }
    }

    #[test]
    fn storm_replay_is_valid_and_restores_base() {
        let base = daemon_base(4);
        let base_json = network_json(&base.network);
        let mut network = base.network.clone();
        let mut gen = StormGen::new(&base, 21);
        for _ in 0..20 {
            for delta in gen.next_batch(16) {
                delta
                    .apply(&mut network)
                    .expect("every storm delta is valid in order");
            }
        }
        for delta in gen.restore_batch() {
            delta.apply(&mut network).expect("restore deltas are valid");
        }
        assert_eq!(network_json(&network), base_json);
        assert!(gen.restore_batch().is_empty());
    }

    #[test]
    fn rng_is_deterministic_and_spreads() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut seen = [false; 10];
        for _ in 0..200 {
            seen[a.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
