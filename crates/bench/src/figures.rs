//! One harness function per table/figure of the paper.

use plankton_baselines::arc::ArcBaseline;
use plankton_baselines::bonsai::compress;
use plankton_baselines::csp::shortest_path_csp;
use plankton_baselines::minesweeper::{Destination, MinesweeperStyle};
use plankton_checker::SearchOptions;
use plankton_config::scenarios::{
    enterprise_scenario, fat_tree_bgp_rfc7938, fat_tree_ospf, isp_ibgp_over_ospf, isp_ospf,
    ring_ospf, CoreStaticRoutes,
};
use plankton_core::{Plankton, PlanktonOptions};
use plankton_net::failure::FailureScenario;
use plankton_net::failure::FailureSet;
use plankton_net::generators::as_topo::AsTopologySpec;
use plankton_net::generators::enterprise::EnterpriseSpec;
use plankton_net::generators::fat_tree::FatTree;
use plankton_net::graph::dijkstra;
use plankton_net::topology::NodeId;
use plankton_policy::{
    BoundedPathLength, LoopFreedom, MultipathConsistency, PathConsistency, Reachability, Waypoint,
};
use std::time::{Duration, Instant};

/// Work budget given to the Minesweeper-style baseline before it reports a
/// timeout (constraint checks).
const BASELINE_BUDGET: u64 = 40_000_000;

/// One printed row of a figure.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (workload / configuration).
    pub label: String,
    /// Column values, `(name, value)` pairs.
    pub values: Vec<(String, String)>,
}

impl Row {
    fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }

    fn col(mut self, name: &str, value: impl ToString) -> Self {
        self.values.push((name.to_string(), value.to_string()));
        self
    }
}

/// The output of one figure harness.
#[derive(Clone, Debug)]
pub struct FigureResult {
    /// Figure identifier ("2", "7a", ... "9").
    pub id: String,
    /// Caption echoing the paper's.
    pub caption: String,
    /// The rows produced.
    pub rows: Vec<Row>,
}

impl FigureResult {
    /// Render as a markdown-ish table.
    pub fn render(&self) -> String {
        let mut out = format!("Figure {} — {}\n", self.id, self.caption);
        for row in &self.rows {
            out.push_str(&format!("  {:<42}", row.label));
            for (name, value) in &row.values {
                out.push_str(&format!(" {name}={value}"));
            }
            out.push('\n');
        }
        out
    }
}

fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Figure 2: shortest paths via explicit-state search vs. a constraint
/// ("SMT"-style) encoding, on fat trees of growing size.
///
/// Scaling: the paper uses N = 20..180; the constraint formulation solved by
/// our naive backtracking solver is only practical up to N = 45 here, which
/// already shows the orders-of-magnitude gap.
pub fn fig2(quick: bool) -> FigureResult {
    let ks: &[usize] = if quick { &[4] } else { &[4, 6] };
    let mut rows = Vec::new();
    for &k in ks {
        let ft = fat_tree_ospf(k, CoreStaticRoutes::None);
        let n = ft.network.node_count();
        let origin = ft.fat_tree.edge[0][0];

        // Model-checker side: execute the shortest-path computation.
        let (_, mc_time) = time(|| {
            dijkstra(&ft.network.topology, origin, &FailureSet::none(), |_, _| {
                Some(10)
            })
        });

        // Constraint side: encode and solve.
        let edges: Vec<(usize, usize, u64)> = ft
            .network
            .topology
            .links()
            .iter()
            .map(|l| (l.a.node.index(), l.b.node.index(), 10u64))
            .collect();
        let ((solution, stats), csp_time) = time(|| {
            let csp = shortest_path_csp(n, &edges, origin.index(), 10 * n as u64);
            csp.solve(BASELINE_BUDGET)
        });
        let solved = solution.is_some();

        rows.push(
            Row::new(format!("N={n} (fat tree k={k})"))
                .col("model_checker", secs(mc_time))
                .col(
                    "smt_style",
                    if solved {
                        secs(csp_time)
                    } else {
                        format!(">{} (timeout)", secs(csp_time))
                    },
                )
                .col("smt_checks", stats.checks),
        );
    }
    FigureResult {
        id: "2".into(),
        caption: "Comparison of two ways to compute shortest paths".into(),
        rows,
    }
}

fn edge_sources(ft: &FatTree) -> Vec<NodeId> {
    ft.edges_flat()
}

/// Figure 7(a): fat trees with OSPF + core static routes, loop policy
/// (pass and fail variants), Plankton on 1..cores cores vs. the
/// Minesweeper-style baseline.
pub fn fig7a(quick: bool) -> FigureResult {
    let ks: &[usize] = if quick { &[4] } else { &[4, 6] };
    let cores: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut rows = Vec::new();
    for &k in ks {
        for (mode, label) in [
            (CoreStaticRoutes::MatchingOspf, "Pass"),
            (CoreStaticRoutes::Looping, "Fail"),
        ] {
            let s = fat_tree_ospf(k, mode);
            let mut row = Row::new(format!("K={k} N={} ({label})", s.network.node_count()));
            for &c in cores {
                let plankton = Plankton::new(s.network.clone());
                let (report, elapsed) = time(|| {
                    plankton.verify(
                        &LoopFreedom::everywhere(),
                        &FailureScenario::no_failures(),
                        &PlanktonOptions::with_cores(c),
                    )
                });
                row = row.col(&format!("plankton_{c}core"), secs(elapsed)).col(
                    &format!("mem_{c}core_MiB"),
                    format!("{:.1}", report.stats.approx_memory_mib()),
                );
                assert_eq!(report.holds(), mode == CoreStaticRoutes::MatchingOspf);
            }
            // Minesweeper-style baseline: monolithic converged-state search
            // over every destination prefix.
            let destinations: Vec<Destination> = s
                .destinations
                .iter()
                .map(|&p| Destination {
                    prefix: p,
                    origins: s.network.origins_of(&p),
                })
                .collect();
            let ms = MinesweeperStyle::new(&s.network);
            let (ms_report, ms_time) = time(|| {
                ms.verify_reachability(&destinations, &edge_sources(&s.fat_tree), BASELINE_BUDGET)
            });
            row = row.col(
                "minesweeper_style",
                if ms_report.timed_out {
                    format!(">{} (timeout)", secs(ms_time))
                } else {
                    secs(ms_time)
                },
            );
            rows.push(row);
        }
    }
    FigureResult {
        id: "7a".into(),
        caption: "Fat trees with OSPF, loop policy, multi-core".into(),
        rows,
    }
}

/// Figure 7(b): larger fat trees, loop (pass/fail) and single-IP
/// reachability, single core.
pub fn fig7b(quick: bool) -> FigureResult {
    let ks: &[usize] = if quick { &[4, 6] } else { &[4, 6, 8] };
    let mut rows = Vec::new();
    for &k in ks {
        for (mode, label) in [
            (CoreStaticRoutes::MatchingOspf, "Loop (Pass)"),
            (CoreStaticRoutes::Looping, "Loop (Fail)"),
        ] {
            let s = fat_tree_ospf(k, mode);
            let plankton = Plankton::new(s.network.clone());
            let (report, elapsed) = time(|| {
                plankton.verify(
                    &LoopFreedom::everywhere(),
                    &FailureScenario::no_failures(),
                    &PlanktonOptions::with_cores(1),
                )
            });
            rows.push(
                Row::new(format!("N={} {label}", s.network.node_count()))
                    .col("time", secs(elapsed))
                    .col(
                        "memory_MiB",
                        format!("{:.1}", report.stats.approx_memory_mib()),
                    )
                    .col("result", if report.holds() { "pass" } else { "fail" }),
            );
        }
        // Single-IP reachability.
        let s = fat_tree_ospf(k, CoreStaticRoutes::None);
        let dest = s.destinations[0];
        let sources = edge_sources(&s.fat_tree);
        let plankton = Plankton::new(s.network.clone());
        let (report, elapsed) = time(|| {
            plankton.verify(
                &Reachability::new(sources.clone()),
                &FailureScenario::no_failures(),
                &PlanktonOptions::with_cores(1).restricted_to(vec![dest]),
            )
        });
        rows.push(
            Row::new(format!(
                "N={} Single IP Reachability",
                s.network.node_count()
            ))
            .col("time", secs(elapsed))
            .col(
                "memory_MiB",
                format!("{:.1}", report.stats.approx_memory_mib()),
            )
            .col("result", if report.holds() { "pass" } else { "fail" }),
        );
    }
    FigureResult {
        id: "7b".into(),
        caption: "Fat trees with OSPF, multiple policies, 1 core".into(),
        rows,
    }
}

/// Figure 7(c): RFC 7938 BGP fat trees with a waypoint misconfiguration —
/// verification time under heavy protocol non-determinism (age-based tie
/// breaking), single core.
pub fn fig7c(quick: bool) -> FigureResult {
    let ks: &[usize] = if quick { &[4] } else { &[4, 6] };
    let trials: u64 = if quick { 2 } else { 4 };
    let mut rows = Vec::new();
    for &k in ks {
        let mut times = Vec::new();
        let mut mems = Vec::new();
        let mut violations = 0usize;
        for seed in 0..trials {
            let s = fat_tree_bgp_rfc7938(k, seed);
            let (src, dst) = s.monitored_edges;
            let dst_prefix = s.fat_tree.prefix_of_edge(dst).expect("edge prefix");
            let plankton = Plankton::new(s.network.clone());
            let policy = Waypoint::new(vec![src], s.waypoints.clone());
            let (report, elapsed) = time(|| {
                plankton.verify(
                    &policy,
                    &FailureScenario::no_failures(),
                    &PlanktonOptions::with_cores(1).restricted_to(vec![dst_prefix]),
                )
            });
            times.push(elapsed);
            mems.push(report.stats.approx_memory_mib());
            if !report.holds() {
                violations += 1;
            }
        }
        let max_t = times.iter().max().copied().unwrap_or_default();
        let avg_t = times.iter().sum::<Duration>() / times.len() as u32;
        rows.push(
            Row::new(format!("N={} (k={k})", FatTree::size_for_k(k)))
                .col("max_time", secs(max_t))
                .col("avg_time", secs(avg_t))
                .col(
                    "max_memory_MiB",
                    format!("{:.1}", mems.iter().cloned().fold(0.0, f64::max)),
                )
                .col("violations_found", format!("{violations}/{trials}")),
        );
    }
    FigureResult {
        id: "7c".into(),
        caption: "Fat trees with BGP, waypoint policy, 1 core".into(),
        rows,
    }
}

/// Figure 7(d): synthetic RocketFuel-scale AS topologies, OSPF, reachability
/// of every customer prefix from a multihomed ingress under ≤1 link failure.
pub fn fig7d(quick: bool) -> FigureResult {
    let asns: &[u32] = if quick {
        &[3967]
    } else {
        &[1221, 1755, 3967, 6461]
    };
    let cores: &[usize] = if quick { &[4] } else { &[1, 8] };
    let mut rows = Vec::new();
    for &asn in asns {
        let s = isp_ospf(&AsTopologySpec::paper_as(asn));
        let mut row = Row::new(format!(
            "{} ({} nodes)",
            s.as_topology.name,
            s.network.node_count()
        ));
        // Restrict to a sample of customer prefixes so the quick mode stays
        // quick; full mode checks them all.
        let prefixes: Vec<_> = if quick {
            s.destinations.iter().take(8).copied().collect()
        } else {
            s.destinations.clone()
        };
        for &c in cores {
            let plankton = Plankton::new(s.network.clone());
            let (report, elapsed) = time(|| {
                plankton.verify(
                    &Reachability::new(vec![s.ingress]),
                    &FailureScenario::up_to(1),
                    &PlanktonOptions::with_cores(c)
                        .restricted_to(prefixes.clone())
                        .collect_all_violations(),
                )
            });
            row = row
                .col(&format!("plankton_{c}core"), secs(elapsed))
                .col("violations", report.violations.len());
        }
        // Minesweeper-style baseline on the same task (no failures — its
        // encoding here does not model failures, which only helps it).
        let ms = MinesweeperStyle::new(&s.network);
        let destinations: Vec<Destination> = prefixes
            .iter()
            .map(|&p| Destination {
                prefix: p,
                origins: s.network.origins_of(&p),
            })
            .collect();
        let (ms_report, ms_time) =
            time(|| ms.verify_reachability(&destinations, &[s.ingress], BASELINE_BUDGET));
        row = row.col(
            "minesweeper_style",
            if ms_report.timed_out {
                format!(">{} (timeout)", secs(ms_time))
            } else {
                secs(ms_time)
            },
        );
        rows.push(row);
    }
    FigureResult {
        id: "7d".into(),
        caption: "AS topologies with OSPF and failures, reachability policy".into(),
        rows,
    }
}

/// Figure 7(e): iBGP over OSPF on the AS topologies (cross-PEC
/// dependencies). Plankton's dependency-aware scheduler vs. the
/// Minesweeper-style encoding that must include every loopback prefix
/// (the n+1-copies blowup).
pub fn fig7e(quick: bool) -> FigureResult {
    let asns: &[u32] = if quick { &[3967] } else { &[1221, 1755, 3967] };
    let mut rows = Vec::new();
    for &asn in asns {
        let s = isp_ibgp_over_ospf(&AsTopologySpec::paper_as(asn));
        let plankton = Plankton::new(s.network.clone());
        // Sources: iBGP speakers that are not themselves borders — their
        // routes to the external prefixes are iBGP-learned and resolve
        // through the OSPF underlay.
        let sources: Vec<NodeId> = s
            .as_topology
            .backbone
            .iter()
            .filter(|n| !s.borders.contains(n))
            .take(4)
            .copied()
            .collect();
        let (report, elapsed) = time(|| {
            plankton.verify(
                &Reachability::new(sources.clone()),
                &FailureScenario::no_failures(),
                &PlanktonOptions::with_cores(4).restricted_to(s.bgp_destinations.clone()),
            )
        });

        // Baseline: the monolithic encoding must include every iBGP speaker's
        // loopback as an additional destination.
        let ms = MinesweeperStyle::new(&s.network);
        let mut destinations: Vec<Destination> = s
            .bgp_destinations
            .iter()
            .map(|&p| Destination {
                prefix: p,
                origins: s.borders.clone(),
            })
            .collect();
        destinations.extend(s.loopback_prefixes.iter().map(|&p| {
            Destination {
                prefix: p,
                origins: s
                    .network
                    .topology
                    .node_ids()
                    .filter(|n| s.network.topology.node(*n).loopback == Some(p.addr()))
                    .collect(),
            }
        }));
        let (ms_report, ms_time) =
            time(|| ms.verify_reachability(&destinations, &sources, BASELINE_BUDGET));

        rows.push(
            Row::new(format!(
                "{} ({} nodes)",
                s.as_topology.name,
                s.network.node_count()
            ))
            .col("plankton", secs(elapsed))
            .col(
                "plankton_result",
                if report.holds() { "holds" } else { "violated" },
            )
            .col("largest_scc", report.largest_scc)
            .col(
                "minesweeper_style",
                if ms_report.timed_out {
                    format!(">{} (timeout, {} vars)", secs(ms_time), ms_report.variables)
                } else {
                    format!("{} ({} vars)", secs(ms_time), ms_report.variables)
                },
            ),
        );
    }
    FigureResult {
        id: "7e".into(),
        caption: "AS topologies with iBGP over OSPF, reachability policy".into(),
        rows,
    }
}

/// Figure 7(f): Bonsai-compressed fat trees, reachability and bounded path
/// length, Plankton vs. the Minesweeper-style baseline (both on the
/// compressed network).
pub fn fig7f(quick: bool) -> FigureResult {
    let ks: &[usize] = if quick { &[4] } else { &[4, 6, 8] };
    let mut rows = Vec::new();
    for &k in ks {
        let s = fat_tree_ospf(k, CoreStaticRoutes::None);
        let origin = s.fat_tree.edge[0][0];
        let probe = s.fat_tree.edge[k - 1][0];
        let prefix = s.fat_tree.prefix_of_edge(origin).expect("edge prefix");
        let compressed = compress(&s.network, &[origin, probe]);
        let q_probe = compressed.abstract_node(probe);

        let plankton = Plankton::new(compressed.network.clone());
        let (reach, t_reach) = time(|| {
            plankton.verify(
                &Reachability::new(vec![q_probe]),
                &FailureScenario::no_failures(),
                &PlanktonOptions::with_cores(8).restricted_to(vec![prefix]),
            )
        });
        let (bpl, t_bpl) = time(|| {
            plankton.verify(
                &BoundedPathLength::new(vec![q_probe], 4),
                &FailureScenario::no_failures(),
                &PlanktonOptions::with_cores(8).restricted_to(vec![prefix]),
            )
        });

        let ms = MinesweeperStyle::new(&compressed.network);
        let destinations = vec![Destination {
            prefix,
            origins: compressed.network.origins_of(&prefix),
        }];
        let (ms_report, ms_time) =
            time(|| ms.verify_reachability(&destinations, &[q_probe], BASELINE_BUDGET));

        rows.push(
            Row::new(format!(
                "N={} compressed to {}",
                s.network.node_count(),
                compressed.network.node_count()
            ))
            .col("plankton_reachability", secs(t_reach))
            .col("plankton_path_length", secs(t_bpl))
            .col("results", format!("{}/{}", reach.holds(), bpl.holds()))
            .col(
                "minesweeper_reachability",
                if ms_report.timed_out {
                    format!(">{}", secs(ms_time))
                } else {
                    secs(ms_time)
                },
            ),
        );
    }
    FigureResult {
        id: "7f".into(),
        caption: "Bonsai-compressed fat trees with OSPF, multiple policies".into(),
        rows,
    }
}

/// Figure 7(g): comparison with the ARC-style baseline — all-to-all
/// reachability under 0, 1 and 2 link failures on fat trees and AS
/// topologies.
pub fn fig7g(quick: bool) -> FigureResult {
    let mut rows = Vec::new();
    let mut workloads: Vec<(
        String,
        plankton_config::Network,
        Vec<NodeId>,
        Vec<plankton_net::ip::Prefix>,
    )> = Vec::new();
    {
        let s = fat_tree_ospf(4, CoreStaticRoutes::None);
        workloads.push((
            format!("Fat tree ({} nodes)", s.network.node_count()),
            s.network.clone(),
            edge_sources(&s.fat_tree),
            s.destinations.clone(),
        ));
    }
    if !quick {
        let s = isp_ospf(&AsTopologySpec::paper_as(1755));
        workloads.push((
            format!("AS 1755 ({} nodes)", s.network.node_count()),
            s.network.clone(),
            s.as_topology.access.iter().take(6).copied().collect(),
            s.destinations.iter().take(6).copied().collect(),
        ));
    }
    let failure_counts: &[usize] = if quick { &[0, 1] } else { &[0, 1, 2] };
    for (label, network, sources, destinations) in workloads {
        for &k in failure_counts {
            let arc = ArcBaseline::new(&network);
            let (arc_report, arc_time) = time(|| arc.all_to_all(&sources, k));
            let plankton = Plankton::new(network.clone());
            let (p_report, p_time) = time(|| {
                plankton.verify(
                    &Reachability::new(sources.clone()),
                    &FailureScenario::up_to(k),
                    &PlanktonOptions::with_cores(8).restricted_to(destinations.clone()),
                )
            });
            rows.push(
                Row::new(format!("{label}, ≤{k} failures"))
                    .col("arc", secs(arc_time))
                    .col(
                        "arc_result",
                        if arc_report.holds() {
                            "holds"
                        } else {
                            "violated"
                        },
                    )
                    .col("plankton", secs(p_time))
                    .col(
                        "plankton_result",
                        if p_report.holds() {
                            "holds"
                        } else {
                            "violated"
                        },
                    ),
            );
        }
    }
    FigureResult {
        id: "7g".into(),
        caption: "Networks with link failures, all-to-all reachability, vs ARC".into(),
        rows,
    }
}

/// Figure 7(h): the synthetic "real-world" enterprise networks — reachability,
/// bounded path length and waypointing, with and without a single failure.
pub fn fig7h(quick: bool) -> FigureResult {
    let specs = EnterpriseSpec::paper_set();
    let specs: Vec<_> = if quick {
        specs.into_iter().take(3).collect()
    } else {
        specs
    };
    let mut rows = Vec::new();
    for spec in &specs {
        let s = enterprise_scenario(spec);
        let plankton = Plankton::new(s.network.clone());
        let sources: Vec<NodeId> = s.enterprise.access.iter().take(4).copied().collect();
        if sources.is_empty() {
            continue;
        }
        let dest = s.external_destination;
        let mut row = Row::new(format!("{} ({} devices)", spec.name, spec.routers));
        for (label, failures) in [
            ("", FailureScenario::no_failures()),
            ("_1fail", FailureScenario::up_to(1)),
        ] {
            let (reach, t1) = time(|| {
                plankton.verify(
                    &Reachability::new(sources.clone()),
                    &failures,
                    &PlanktonOptions::with_cores(1).restricted_to(vec![dest]),
                )
            });
            let (_bpl, t2) = time(|| {
                plankton.verify(
                    &BoundedPathLength::new(sources.clone(), 8),
                    &failures,
                    &PlanktonOptions::with_cores(1).restricted_to(vec![dest]),
                )
            });
            let (_wp, t3) = time(|| {
                plankton.verify(
                    &Waypoint::new(sources.clone(), s.exits.clone()),
                    &failures,
                    &PlanktonOptions::with_cores(1).restricted_to(vec![dest]),
                )
            });
            row = row
                .col(&format!("reach{label}"), secs(t1))
                .col(&format!("bpl{label}"), secs(t2))
                .col(&format!("waypoint{label}"), secs(t3))
                .col(
                    &format!("reach{label}_result"),
                    if reach.holds() { "holds" } else { "violated" },
                );
        }
        rows.push(row);
    }
    FigureResult {
        id: "7h".into(),
        caption: "Real-world-style configs, multiple policies, 1 core".into(),
        rows,
    }
}

/// Figure 7(i): three enterprise networks where Loop, Multipath Consistency
/// and Path Consistency are meaningful, with and without a failure.
pub fn fig7i(quick: bool) -> FigureResult {
    let names = ["II", "III", "IV"];
    let specs: Vec<EnterpriseSpec> = EnterpriseSpec::paper_set()
        .into_iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .collect();
    let specs: Vec<_> = if quick {
        specs.into_iter().take(1).collect()
    } else {
        specs
    };
    let mut rows = Vec::new();
    for spec in &specs {
        let s = enterprise_scenario(spec);
        let plankton = Plankton::new(s.network.clone());
        let probes: Vec<NodeId> = s.enterprise.access.iter().take(3).copied().collect();
        for (policy_name, failures) in [
            ("Loop", 0usize),
            ("Loop", 1),
            ("MultipathConsistency", 0),
            ("MultipathConsistency", 1),
            ("PathConsistency", 0),
            ("PathConsistency", 1),
        ] {
            let scenario = if failures == 0 {
                FailureScenario::no_failures()
            } else {
                FailureScenario::up_to(failures)
            };
            let options =
                PlanktonOptions::with_cores(4).restricted_to(vec![s.external_destination]);
            let (report, elapsed) = match policy_name {
                "Loop" => time(|| plankton.verify(&LoopFreedom::everywhere(), &scenario, &options)),
                "MultipathConsistency" => time(|| {
                    plankton.verify(
                        &MultipathConsistency {
                            sources: Some(probes.clone()),
                        },
                        &scenario,
                        &options,
                    )
                }),
                _ => time(|| {
                    plankton.verify(&PathConsistency::new(probes.clone()), &scenario, &options)
                }),
            };
            rows.push(
                Row::new(format!("{} {policy_name} ≤{failures} failures", spec.name))
                    .col("time", secs(elapsed))
                    .col(
                        "memory_MiB",
                        format!("{:.1}", report.stats.approx_memory_mib()),
                    )
                    .col("result", if report.holds() { "holds" } else { "violated" }),
            );
        }
    }
    FigureResult {
        id: "7i".into(),
        caption: "Real-world-style configs, Loop/Multipath/Path Consistency".into(),
        rows,
    }
}

/// Figure 8: the optimization ablation — rings, fat trees (OSPF and BGP) and
/// the iBGP AS topology with optimizations disabled or limited.
pub fn fig8(quick: bool) -> FigureResult {
    let mut rows = Vec::new();

    // Rings with one failure: all optimizations vs none.
    let ring_sizes: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16] };
    for &n in ring_sizes {
        let s = ring_ospf(n);
        let sources: Vec<NodeId> = s.ring.routers[1..].to_vec();
        let plankton = Plankton::new(s.network.clone());
        let run = |options: PlanktonOptions| {
            time(|| {
                plankton.verify(
                    &Reachability::new(sources.clone()),
                    &FailureScenario::up_to(1),
                    &options.restricted_to(vec![s.destination]),
                )
            })
        };
        let (all_report, all_time) = run(PlanktonOptions::default());
        let mut capped = PlanktonOptions::no_optimizations();
        capped.search.max_steps = if quick { 200_000 } else { 2_000_000 };
        let (none_report, none_time) = run(capped);
        rows.push(
            Row::new(format!("Ring OSPF {n} nodes, 1 failure"))
                .col("all_opts", secs(all_time))
                .col("all_states", all_report.stats.states_explored())
                .col("no_opts", secs(none_time))
                .col("no_opts_states", none_report.stats.states_explored()),
        );
    }

    // OSPF fat tree: all vs none. The unoptimized search is capped (the
    // paper's own table reports it as ">5 min, >8.9 GB"); a truncated run is
    // reported with a ">" marker.
    let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
    let plankton = Plankton::new(s.network.clone());
    let (all_report, all_time) = time(|| {
        plankton.verify(
            &LoopFreedom::everywhere(),
            &FailureScenario::no_failures(),
            &PlanktonOptions::default(),
        )
    });
    let mut capped = PlanktonOptions::no_optimizations();
    capped.search.max_steps = if quick { 200_000 } else { 2_000_000 };
    let (none_report, none_time) = time(|| {
        plankton.verify(
            &LoopFreedom::everywhere(),
            &FailureScenario::no_failures(),
            &capped,
        )
    });
    let marker = if none_report.stats.truncated { ">" } else { "" };
    rows.push(
        Row::new("Fat tree OSPF 20 nodes")
            .col("all_opts", secs(all_time))
            .col("all_states", all_report.stats.states_explored())
            .col("no_opts", format!("{marker}{}", secs(none_time)))
            .col(
                "no_opts_states",
                format!("{marker}{}", none_report.stats.states_explored()),
            ),
    );

    // BGP fat tree waypoint: all vs no-deterministic-node vs
    // no-policy-pruning.
    let s = fat_tree_bgp_rfc7938(4, 1);
    let (src, dst) = s.monitored_edges;
    let dst_prefix = s.fat_tree.prefix_of_edge(dst).expect("edge prefix");
    let policy = Waypoint::new(vec![src], s.waypoints.clone());
    let plankton = Plankton::new(s.network.clone());
    let run = |search: SearchOptions| {
        time(|| {
            plankton.verify(
                &policy,
                &FailureScenario::no_failures(),
                &PlanktonOptions::with_cores(1)
                    .restricted_to(vec![dst_prefix])
                    .with_search(search),
            )
        })
    };
    let ablation_cap = if quick { 200_000 } else { 2_000_000 };
    let (all_r, all_t) = run(SearchOptions::all_optimizations());
    let mut nodet_opts = SearchOptions::all_optimizations().without_deterministic_nodes();
    nodet_opts.max_steps = ablation_cap;
    let (nodet_r, nodet_t) = run(nodet_opts);
    let mut nopol_opts = SearchOptions::all_optimizations().without_policy_pruning();
    nopol_opts.max_steps = ablation_cap;
    let (nopol_r, nopol_t) = run(nopol_opts);
    rows.push(
        Row::new("Fat tree BGP 20 nodes, waypoint")
            .col("all_opts", secs(all_t))
            .col("all_states", all_r.stats.states_explored())
            .col("no_det_node", secs(nodet_t))
            .col("no_det_states", nodet_r.stats.states_explored())
            .col("no_policy_pruning", secs(nopol_t))
            .col("no_policy_states", nopol_r.stats.states_explored()),
    );

    if !quick {
        // iBGP AS topology: with and without deterministic-node detection.
        let s = isp_ibgp_over_ospf(&AsTopologySpec::paper_as(3967));
        let sources: Vec<NodeId> = s.as_topology.access.iter().take(2).copied().collect();
        let plankton = Plankton::new(s.network.clone());
        let run = |search: SearchOptions| {
            time(|| {
                plankton.verify(
                    &Reachability::new(sources.clone()),
                    &FailureScenario::no_failures(),
                    &PlanktonOptions::with_cores(1)
                        .restricted_to(s.bgp_destinations.clone())
                        .with_search(search),
                )
            })
        };
        let (all_r, all_t) = run(SearchOptions::all_optimizations());
        let mut nodet_opts = SearchOptions::all_optimizations().without_deterministic_nodes();
        nodet_opts.max_steps = 2_000_000;
        let (nodet_r, nodet_t) = run(nodet_opts);
        rows.push(
            Row::new(format!("{} iBGP", s.as_topology.name))
                .col("all_opts", secs(all_t))
                .col("all_states", all_r.stats.states_explored())
                .col("no_det_node", secs(nodet_t))
                .col("no_det_states", nodet_r.stats.states_explored()),
        );
    }

    FigureResult {
        id: "8".into(),
        caption: "Experiments with optimizations disabled/limited".into(),
        rows,
    }
}

/// Figure 9: the effect of bitstate hashing on memory usage.
pub fn fig9(quick: bool) -> FigureResult {
    let ks: &[usize] = if quick { &[4] } else { &[4, 6] };
    let mut rows = Vec::new();
    for &k in ks {
        let s = fat_tree_bgp_rfc7938(k, 2);
        let (src, dst) = s.monitored_edges;
        let dst_prefix = s.fat_tree.prefix_of_edge(dst).expect("edge prefix");
        let policy = Waypoint::new(vec![src], s.waypoints.clone());
        let plankton = Plankton::new(s.network.clone());
        let run = |search: SearchOptions| {
            plankton.verify(
                &policy,
                &FailureScenario::no_failures(),
                &PlanktonOptions::with_cores(1)
                    .restricted_to(vec![dst_prefix])
                    .with_search(search),
            )
        };
        let exact = run(SearchOptions::all_optimizations());
        let bitstate = run(SearchOptions::all_optimizations().with_bitstate(1 << 22));
        rows.push(
            Row::new(format!("{} node BGP DC waypoint", s.network.node_count()))
                .col(
                    "no_bitstate_MiB",
                    format!("{:.2}", exact.stats.approx_memory_mib()),
                )
                .col(
                    "bitstate_MiB",
                    format!("{:.2}", bitstate.stats.approx_memory_mib()),
                )
                .col("states", exact.stats.states_explored())
                .col("agreement", exact.holds() == bitstate.holds()),
        );
    }
    // AS fault tolerance with and without bitstate hashing.
    let s = isp_ospf(&AsTopologySpec::paper_as(3967));
    let prefixes: Vec<_> = s.destinations.iter().take(4).copied().collect();
    let plankton = Plankton::new(s.network.clone());
    let run = |search: SearchOptions| {
        plankton.verify(
            &Reachability::new(vec![s.ingress]),
            &FailureScenario::up_to(1),
            &PlanktonOptions::with_cores(1)
                .restricted_to(prefixes.clone())
                .collect_all_violations()
                .with_search(search),
        )
    };
    let exact = run(SearchOptions::all_optimizations());
    let bitstate = run(SearchOptions::all_optimizations().with_bitstate(1 << 22));
    rows.push(
        Row::new(format!("{} fault tolerance", s.as_topology.name))
            .col(
                "no_bitstate_MiB",
                format!("{:.2}", exact.stats.approx_memory_mib()),
            )
            .col(
                "bitstate_MiB",
                format!("{:.2}", bitstate.stats.approx_memory_mib()),
            )
            .col("agreement", exact.holds() == bitstate.holds()),
    );
    FigureResult {
        id: "9".into(),
        caption: "The effect of bitstate hashing on memory usage".into(),
        rows,
    }
}

/// One measured point of the cores-scaling sweep, serialized as JSON so
/// future changes can track parallel speedup across commits.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct CoresScalingPoint {
    /// Engine workers used.
    pub workers: usize,
    /// Wall-clock seconds for the verification.
    pub seconds: f64,
    /// Speedup relative to the 1-worker run of the same sweep.
    pub speedup: f64,
    /// Tasks in the engine's (component × failure-scenario) graph.
    pub tasks_total: usize,
    /// Tasks that migrated between workers by stealing.
    pub tasks_stolen: u64,
    /// States explored by the model checker (identical across worker counts
    /// — a sanity check that parallelism does not change the search).
    pub states_explored: u64,
}

/// Cores-scaling sweep: the fat-tree loop workload on a growing engine
/// worker pool. The last row carries the raw sweep as JSON.
///
/// Scaling note: the shape of the curve depends on the machine — on a
/// single-core container every worker count measures the same serialized
/// work (speedup ≈ 1.0 plus scheduling overhead), while multi-core machines
/// should approach linear speedup, since the fat-tree workload is dozens of
/// independent (PEC × failure-scenario) tasks.
pub fn cores_scaling(quick: bool) -> FigureResult {
    let cores: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let s = fat_tree_ospf(4, CoreStaticRoutes::MatchingOspf);
    let scenario = if quick {
        FailureScenario::no_failures()
    } else {
        FailureScenario::up_to(1)
    };
    let plankton = Plankton::new(s.network.clone());
    let mut rows = Vec::new();
    let mut points: Vec<CoresScalingPoint> = Vec::new();
    let mut base_seconds = None;
    for &c in cores {
        let (report, elapsed) = time(|| {
            plankton.verify(
                &LoopFreedom::everywhere(),
                &scenario,
                &PlanktonOptions::with_cores(c).collect_all_violations(),
            )
        });
        assert!(
            report.holds(),
            "the matching-static-routes fat tree is loop-free"
        );
        let seconds = elapsed.as_secs_f64();
        let base = *base_seconds.get_or_insert(seconds);
        let speedup = base / seconds.max(1e-9);
        let engine = report.engine.clone().expect("engine stats recorded");
        rows.push(
            Row::new(format!("{c} workers"))
                .col("time", secs(elapsed))
                .col("speedup", format!("{speedup:.2}x"))
                .col("tasks", engine.tasks_total)
                .col("stolen", engine.tasks_stolen),
        );
        points.push(CoresScalingPoint {
            workers: c,
            seconds,
            speedup,
            tasks_total: engine.tasks_total,
            tasks_stolen: engine.tasks_stolen,
            states_explored: report.stats.states_explored(),
        });
    }
    rows.push(Row::new("json").col(
        "data",
        serde_json::to_string(&points).expect("sweep points serialize"),
    ));
    FigureResult {
        id: "cores".into(),
        caption: "Engine cores-scaling sweep on the K=4 fat tree".into(),
        rows,
    }
}

/// One measured point of the incremental-explorer benchmark, serialized as
/// JSON (`BENCH_checker.json`) so the single-core steps/sec trajectory can
/// be tracked across commits.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct CheckerBenchPoint {
    /// Workload label.
    pub scenario: String,
    /// RPVP steps applied during the verification (identical across the two
    /// explorers — a sanity check that they explore the same tree).
    pub steps: u64,
    /// Wall-clock seconds with the pre-incremental reference explorer.
    pub reference_seconds: f64,
    /// Wall-clock seconds with the incremental explorer.
    pub incremental_seconds: f64,
    /// Steps per second through the reference explorer.
    pub reference_steps_per_sec: f64,
    /// Steps per second through the incremental explorer.
    pub incremental_steps_per_sec: f64,
    /// `incremental_steps_per_sec / reference_steps_per_sec`.
    pub speedup: f64,
    /// Enabled-status recomputations the delta maintenance performed
    /// (the reference recomputes every node at every step).
    pub enabled_recomputed_nodes: u64,
    /// Deepest apply/undo stack reached.
    pub undo_depth_max: u64,
}

/// Time `reps` identical verifications through both explorers (best of
/// `iterations` batches, so the wall clock is well above timer noise even on
/// small workloads), assert the two searches did identical work, and append
/// a printed row plus a JSON point.
#[allow(clippy::too_many_arguments)]
fn checker_measure(
    iterations: usize,
    label: String,
    reps: usize,
    plankton: &Plankton,
    policy: &dyn plankton_policy::Policy,
    scenario: &FailureScenario,
    options: &PlanktonOptions,
    rows: &mut Vec<Row>,
    points: &mut Vec<CheckerBenchPoint>,
) {
    let timed_best = |options: &PlanktonOptions| {
        let mut best: Option<(Duration, _)> = None;
        for _ in 0..iterations {
            let (report, elapsed) = time(|| {
                let mut last = None;
                for _ in 0..reps {
                    last = Some(plankton.verify(policy, scenario, options));
                }
                last.expect("at least one rep")
            });
            if best.as_ref().map(|(t, _)| elapsed < *t).unwrap_or(true) {
                best = Some((elapsed, report));
            }
        }
        best.expect("at least one iteration")
    };
    let (ref_time, ref_report) = timed_best(&options.clone().with_reference_explorer());
    let (inc_time, inc_report) = timed_best(options);
    assert_eq!(
        inc_report.stats.without_incremental_counters(),
        ref_report.stats,
        "the two explorers must do identical search work on {label}"
    );
    let steps = inc_report.stats.steps * reps as u64;
    let ref_sps = steps as f64 / ref_time.as_secs_f64().max(1e-9);
    let inc_sps = steps as f64 / inc_time.as_secs_f64().max(1e-9);
    let speedup = inc_sps / ref_sps.max(1e-9);
    rows.push(
        Row::new(label.clone())
            .col("steps", steps)
            .col("reference", secs(ref_time))
            .col("incremental", secs(inc_time))
            .col("steps_per_sec", format!("{inc_sps:.0}"))
            .col("speedup", format!("{speedup:.2}x")),
    );
    points.push(CheckerBenchPoint {
        scenario: label,
        steps,
        reference_seconds: ref_time.as_secs_f64(),
        incremental_seconds: inc_time.as_secs_f64(),
        reference_steps_per_sec: ref_sps,
        incremental_steps_per_sec: inc_sps,
        speedup,
        enabled_recomputed_nodes: inc_report.stats.enabled_recomputed_nodes,
        undo_depth_max: inc_report.stats.undo_depth_max,
    });
}

/// Checker inner-loop benchmark: single-core steps/sec of the incremental
/// explorer vs the pre-incremental reference, on the fat-tree reachability
/// scenario (the acceptance workload) plus a branching-heavy BGP waypoint
/// workload. The last row carries the raw points as JSON.
pub fn checker_bench(quick: bool) -> FigureResult {
    let iterations = if quick { 1 } else { 3 };
    let mut rows = Vec::new();
    let mut points: Vec<CheckerBenchPoint> = Vec::new();
    let mut measure = |label: String,
                       reps: usize,
                       plankton: &Plankton,
                       policy: &dyn plankton_policy::Policy,
                       scenario: &FailureScenario,
                       options: &PlanktonOptions| {
        checker_measure(
            iterations,
            label,
            reps,
            plankton,
            policy,
            scenario,
            options,
            &mut rows,
            &mut points,
        )
    };

    // The acceptance workload: single-IP reachability on an OSPF fat tree
    // under every single-link failure. LEC and policy-based pruning are
    // disabled so every scenario runs the protocol to full convergence —
    // the configuration that isolates the checker's inner loop (the pruning
    // optimizations themselves are benchmarked by figure 8).
    let full_search = SearchOptions::all_optimizations().without_policy_pruning();
    let ks: &[usize] = if quick { &[4] } else { &[4, 6] };
    for &k in ks {
        let s = fat_tree_ospf(k, CoreStaticRoutes::None);
        let dest = s.destinations[0];
        let sources = edge_sources(&s.fat_tree);
        let plankton = Plankton::new(s.network.clone());
        measure(
            format!("fat tree k={k} reachability, ≤1 failure, full convergence"),
            if quick { 3 } else { 10 },
            &plankton,
            &Reachability::new(sources),
            &FailureScenario::up_to(1),
            &PlanktonOptions::with_cores(1)
                .restricted_to(vec![dest])
                .collect_all_violations()
                .without_lec_pruning()
                .with_search(full_search.clone()),
        );
    }

    // A branching-heavy workload: BGP age-based tie-breaking exercises the
    // apply/undo path at branch points and handle-native visited checks.
    let s = fat_tree_bgp_rfc7938(4, 2);
    let (src, dst) = s.monitored_edges;
    let dst_prefix = s.fat_tree.prefix_of_edge(dst).expect("edge prefix");
    let policy = Waypoint::new(vec![src], s.waypoints.clone());
    let plankton = Plankton::new(s.network.clone());
    measure(
        "fat tree k=4 BGP waypoint".to_string(),
        if quick { 5 } else { 20 },
        &plankton,
        &policy,
        &FailureScenario::no_failures(),
        &PlanktonOptions::with_cores(1)
            .restricted_to(vec![dst_prefix])
            .collect_all_violations(),
    );

    rows.push(Row::new("json").col(
        "data",
        serde_json::to_string(&points).expect("bench points serialize"),
    ));
    FigureResult {
        id: "checker".into(),
        caption: "Incremental vs reference explorer: single-core steps/sec".into(),
        rows,
    }
}

/// AS-scale checker benchmark tier (`BENCH_checker_scale.json`): the same
/// single-core incremental-vs-reference comparison as figure `checker`, on
/// workloads past the paper's largest measured AS — a k=8 fat tree (80
/// switches) and synthetic ISPs up to 1000 routers. The reference explorer
/// recomputes every node's enabled status per step, so its cost grows
/// quadratically with network size; this tier tracks how far the
/// delta-maintained inner loop pulls ahead at scale. Quick mode shrinks the
/// failure set and the ISP so the CI smoke stays fast.
pub fn checker_scale_bench(quick: bool) -> FigureResult {
    let iterations = if quick { 1 } else { 2 };
    let mut rows = Vec::new();
    let mut points: Vec<CheckerBenchPoint> = Vec::new();
    let mut measure = |label: String,
                       reps: usize,
                       plankton: &Plankton,
                       policy: &dyn plankton_policy::Policy,
                       scenario: &FailureScenario,
                       options: &PlanktonOptions| {
        checker_measure(
            iterations,
            label,
            reps,
            plankton,
            policy,
            scenario,
            options,
            &mut rows,
            &mut points,
        )
    };
    let full_search = SearchOptions::all_optimizations().without_policy_pruning();

    // k=8 fat tree (80 switches, 256 links): full mode runs every
    // single-link failure to full convergence, quick mode only the
    // failure-free run.
    {
        let s = fat_tree_ospf(8, CoreStaticRoutes::None);
        let dest = s.destinations[0];
        let sources = edge_sources(&s.fat_tree);
        let plankton = Plankton::new(s.network.clone());
        let (scenario, label) = if quick {
            (
                FailureScenario::no_failures(),
                "fat tree k=8 reachability, no failures, full convergence",
            )
        } else {
            (
                FailureScenario::up_to(1),
                "fat tree k=8 reachability, ≤1 failure, full convergence",
            )
        };
        measure(
            label.to_string(),
            2,
            &plankton,
            &Reachability::new(sources),
            &scenario,
            &PlanktonOptions::with_cores(1)
                .restricted_to(vec![dest])
                .collect_all_violations()
                .without_lec_pruning()
                .with_search(full_search.clone()),
        );
    }

    // Synthetic ISPs: all-node reachability to one customer prefix, run to
    // full convergence. The paper's largest measured AS has 315 routers;
    // this tier goes to 1000.
    let routers: &[usize] = if quick { &[250] } else { &[500, 1000] };
    for &n in routers {
        let s = isp_ospf(&AsTopologySpec::scale(n));
        let sources: Vec<NodeId> = s.network.topology.node_ids().collect();
        let plankton = Plankton::new(s.network.clone());
        measure(
            format!(
                "{} all-node reachability, full convergence",
                s.as_topology.name
            ),
            1,
            &plankton,
            &Reachability::new(sources),
            &FailureScenario::no_failures(),
            &PlanktonOptions::with_cores(1)
                .restricted_to(vec![s.destinations[0]])
                .collect_all_violations()
                .without_lec_pruning()
                .with_search(full_search.clone()),
        );
    }

    rows.push(Row::new("json").col(
        "data",
        serde_json::to_string(&points).expect("bench points serialize"),
    ));
    FigureResult {
        id: "checker_scale".into(),
        caption: "AS-scale checker tier: incremental vs reference steps/sec".into(),
        rows,
    }
}

/// One measured point of the incremental-service benchmark, serialized as
/// JSON (`BENCH_service.json`): wall-clock and step counts for a delta
/// re-verification against a from-scratch re-verification of the same
/// post-delta network.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ServiceBenchPoint {
    /// Workload label.
    pub scenario: String,
    /// The delta kind applied between the runs.
    pub delta: String,
    /// PECs whose verdict the request needs.
    pub pecs_checked: usize,
    /// PECs the incremental run re-explored.
    pub pecs_reexplored: usize,
    /// PECs served entirely from the cache.
    pub pecs_cached: usize,
    /// (component × failure-set) tasks resubmitted.
    pub tasks_rerun: usize,
    /// Tasks served from the cache.
    pub tasks_cached: usize,
    /// RPVP steps re-executed by the incremental run.
    pub steps_reexplored: u64,
    /// RPVP steps served from the cache.
    pub steps_cached: u64,
    /// Wall-clock seconds for a from-scratch re-verification (PEC
    /// computation + full verify of the post-delta network).
    pub full_seconds: f64,
    /// Wall-clock seconds for the incremental path (delta application +
    /// invalidation + partial resubmission + report merge).
    pub incremental_seconds: f64,
    /// `full_seconds / incremental_seconds`.
    pub speedup: f64,
    /// Did the two reports match exactly (modulo engine pool stats)?
    pub identical: bool,
    /// Streaming ingestion rate (`update_storm` only; 0 elsewhere).
    #[serde(default)]
    pub deltas_per_sec: f64,
    /// Median enqueue→verified lag, milliseconds (`update_storm` only).
    #[serde(default)]
    pub lag_p50_ms: f64,
    /// 99th-percentile enqueue→verified lag, milliseconds (`update_storm`
    /// only).
    #[serde(default)]
    pub lag_p99_ms: f64,
    /// Deltas coalesced away by the streaming queue (`update_storm` only).
    #[serde(default)]
    pub coalesced: u64,
}

/// Incremental-service benchmark: apply a small config delta to a fat-tree
/// workload and compare the service's delta re-verification against
/// re-running Plankton from scratch on the post-delta network. The last row
/// carries the raw points as JSON (`BENCH_service.json`).
pub fn service_bench(quick: bool) -> FigureResult {
    use plankton_config::static_routes::StaticRoute;
    use plankton_config::ConfigDelta;
    use plankton_core::{IncrementalRunStats, IncrementalVerifier};

    let k = if quick { 4 } else { 6 };
    let iterations = if quick { 1 } else { 3 };
    let s = fat_tree_ospf(k, CoreStaticRoutes::MatchingOspf);
    let policy = LoopFreedom::everywhere();
    let options = PlanktonOptions::default().collect_all_violations();

    let mut rows = Vec::new();
    let mut points: Vec<ServiceBenchPoint> = Vec::new();
    let mut measure = |label: &str,
                       delta: ConfigDelta,
                       warm_scenario: &FailureScenario,
                       reverify_scenario: &FailureScenario| {
        // Warm the session cache with the pre-delta verification, then time
        // the operator-visible latency: delta application + incremental
        // re-verification. Best-of-`iterations` with a fresh warmed session
        // per attempt — both sides of the speedup ratio are sub-5ms wall
        // clocks, so a single sample is scheduler-noise-bound and would make
        // the CI regression gate flaky.
        let mut inc_best: Option<(Duration, _, _)> = None;
        for _ in 0..iterations {
            let session = IncrementalVerifier::new(s.network.clone());
            session.verify(&policy, 1, warm_scenario, &options);
            let ((report, run), inc_time) = time(|| {
                session.apply_delta(&delta).expect("delta applies");
                session.verify(&policy, 1, reverify_scenario, &options)
            });
            if inc_best
                .as_ref()
                .map(|(t, _, _)| inc_time < *t)
                .unwrap_or(true)
            {
                inc_best = Some((inc_time, report, run));
            }
        }
        let (inc_time, report, run) = inc_best.expect("at least one iteration");
        // The from-scratch baseline pays what a non-incremental deployment
        // pays per change: PEC computation plus a full verification.
        let mut post_network = s.network.clone();
        delta.apply(&mut post_network).expect("delta applies");
        let mut full_best: Option<(Duration, _)> = None;
        for _ in 0..iterations {
            let (full_report, full_time) = time(|| {
                let plankton = Plankton::new(post_network.clone());
                plankton.verify(&policy, reverify_scenario, &options)
            });
            if full_best
                .as_ref()
                .map(|(t, _)| full_time < *t)
                .unwrap_or(true)
            {
                full_best = Some((full_time, full_report));
            }
        }
        let (full_time, full_report) = full_best.expect("at least one iteration");
        let identical = report.normalized_json() == full_report.normalized_json();
        assert!(identical, "incremental and from-scratch reports must match");
        let speedup = full_time.as_secs_f64() / inc_time.as_secs_f64().max(1e-9);
        rows.push(
            Row::new(format!("K={k} {label}"))
                .col("full", secs(full_time))
                .col("incremental", secs(inc_time))
                .col("speedup", format!("{speedup:.1}x"))
                .col(
                    "pecs_rerun",
                    format!("{}/{}", run.pecs_reexplored, run.pecs_checked),
                )
                .col("steps_cached", run.steps_cached),
        );
        points.push(ServiceBenchPoint {
            scenario: format!("fat tree k={k} loop freedom"),
            delta: label.to_string(),
            pecs_checked: run.pecs_checked,
            pecs_reexplored: run.pecs_reexplored,
            pecs_cached: run.pecs_cached,
            tasks_rerun: run.tasks_rerun,
            tasks_cached: run.tasks_cached,
            steps_reexplored: run.steps_reexplored,
            steps_cached: run.steps_cached,
            full_seconds: full_time.as_secs_f64(),
            incremental_seconds: inc_time.as_secs_f64(),
            speedup,
            identical,
            deltas_per_sec: 0.0,
            lag_p50_ms: 0.0,
            lag_p99_ms: 0.0,
            coalesced: 0,
        });
    };

    // A one-prefix config edit: only the overlapping PEC re-runs.
    measure(
        "static_route_add",
        ConfigDelta::StaticRouteAdd {
            device: s.fat_tree.aggregation[0][0],
            route: StaticRoute::to_interface(s.destinations[0], s.fat_tree.edge[0][0]),
        },
        &FailureScenario::no_failures(),
        &FailureScenario::no_failures(),
    );
    // An edge-local OSPF cost edit — the aggregation-side cost of one edge
    // link. Competitive only for the prefix originated at that edge switch:
    // scoped slices keep every other OSPF PEC's cache entry alive.
    let agg = s.fat_tree.aggregation[0][0];
    let edge_link = s
        .network
        .topology
        .link_between(agg, s.fat_tree.edge[0][0])
        .expect("edge link");
    measure(
        "ospf_cost_edge_local",
        ConfigDelta::OspfCostChange {
            device: agg,
            link: edge_link,
            cost: 42,
        },
        &FailureScenario::no_failures(),
        &FailureScenario::no_failures(),
    );
    // A spine-central OSPF cost edit — the same aggregation switch's uplink
    // towards a core. That cost sits on the shortest paths of every remote
    // pod's prefix, so most OSPF PECs honestly re-run (~1×); the CI gate
    // allowlists this scenario.
    let core_link = s
        .network
        .topology
        .neighbors(agg)
        .iter()
        .find(|(n, _)| s.fat_tree.core.contains(n))
        .map(|&(_, l)| l)
        .expect("aggregation uplink");
    measure(
        "ospf_cost_spine_central",
        ConfigDelta::OspfCostChange {
            device: agg,
            link: core_link,
            cost: 42,
        },
        &FailureScenario::no_failures(),
        &FailureScenario::no_failures(),
    );
    // A link failure after a fault-tolerance run: the ≤1-failure exploration
    // pre-paid for the delta's effective failure sets.
    measure(
        "link_down",
        ConfigDelta::LinkDown {
            link: s.network.topology.links()[0].id,
        },
        &FailureScenario::up_to(1),
        &FailureScenario::no_failures(),
    );

    // Daemon restart with a persisted cache: the cold side pays what a cold
    // daemon pays (PEC computation + full verify); the warm side pays the
    // restart path (deserialize the persisted cache into a brand-new session,
    // then a delta-free re-verify that must be served fully from cache).
    {
        let mut inc_best: Option<(Duration, IncrementalRunStats, _)> = None;
        // The fault-tolerance environment: the workload where restart
        // amortization matters (a cold daemon re-explores every failure set;
        // a warm one re-reads one cache file).
        let warm_scenario = FailureScenario::up_to(1);
        let session = IncrementalVerifier::new(s.network.clone());
        let (cold_report, _) = session.verify(&policy, 1, &warm_scenario, &options);
        let persisted =
            serde_json::to_string(&session.cache().to_snapshot()).expect("cache serializes");
        drop(session);
        for _ in 0..iterations {
            let ((report, run), inc_time) = time(|| {
                let restarted = IncrementalVerifier::new(s.network.clone());
                let snapshot: plankton_core::CacheSnapshot =
                    serde_json::from_str(&persisted).expect("cache snapshot parses");
                restarted
                    .cache()
                    .absorb_snapshot(&snapshot)
                    .expect("scheme version matches");
                restarted.verify(&policy, 1, &warm_scenario, &options)
            });
            assert_eq!(run.tasks_rerun, 0, "warm restart must be fully cached");
            if inc_best
                .as_ref()
                .map(|(t, _, _)| inc_time < *t)
                .unwrap_or(true)
            {
                inc_best = Some((inc_time, run, report));
            }
        }
        let (inc_time, run, report) = inc_best.expect("at least one iteration");
        let mut full_best: Option<Duration> = None;
        for _ in 0..iterations {
            let (full_report, full_time) = time(|| {
                let plankton = Plankton::new(s.network.clone());
                plankton.verify(&policy, &warm_scenario, &options)
            });
            assert_eq!(report.normalized_json(), full_report.normalized_json());
            full_best = Some(full_best.map_or(full_time, |t| t.min(full_time)));
        }
        let full_time = full_best.expect("at least one iteration");
        let identical = report.normalized_json() == cold_report.normalized_json();
        assert!(identical, "warm-restart report must match the cold run");
        let speedup = full_time.as_secs_f64() / inc_time.as_secs_f64().max(1e-9);
        rows.push(
            Row::new(format!("K={k} warm_restart"))
                .col("cold", secs(full_time))
                .col("restarted", secs(inc_time))
                .col("speedup", format!("{speedup:.1}x"))
                .col("tasks_cached", run.tasks_cached)
                .col("steps_cached", run.steps_cached),
        );
        points.push(ServiceBenchPoint {
            scenario: format!("fat tree k={k} loop freedom"),
            delta: "warm_restart".to_string(),
            pecs_checked: run.pecs_checked,
            pecs_reexplored: run.pecs_reexplored,
            pecs_cached: run.pecs_cached,
            tasks_rerun: run.tasks_rerun,
            tasks_cached: run.tasks_cached,
            steps_reexplored: run.steps_reexplored,
            steps_cached: run.steps_cached,
            full_seconds: full_time.as_secs_f64(),
            incremental_seconds: inc_time.as_secs_f64(),
            speedup,
            identical,
            deltas_per_sec: 0.0,
            lag_p50_ms: 0.0,
            lag_p99_ms: 0.0,
            coalesced: 0,
        });
    }

    // Streaming update storm: sustained ingestion rate of the coalescing
    // bounded-lag queue (`ApplyDeltas {ack: "enqueued"}` + background drain)
    // against one-at-a-time replay (`ApplyDelta` + `Verify` per delta) of
    // the same storm to the same verified end state. `speedup` here is the
    // deltas/sec ratio; the lag percentiles come from the drain's
    // enqueue→verified histogram.
    {
        use plankton_core::Tuning;
        use plankton_service::{PolicySpec, Request, Response, ServiceSession, VerifyOptions};
        use std::sync::Arc;

        let ring = ring_ospf(8);
        let count = if quick { 40 } else { 120 };
        // Deterministic xorshift64* storm concentrated on three targets so
        // coalescing has real work: link flaps, OSPF cost churn, static
        // route add/remove.
        let mut state: u64 = 0x5EED_0BEE;
        let mut deltas = Vec::with_capacity(count);
        for _ in 0..count {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = state.wrapping_mul(0x2545F4914F6CDD1D);
            let slot = (r >> 8) as usize % 3;
            deltas.push(match r % 5 {
                0 => ConfigDelta::LinkDown {
                    link: ring.ring.links[slot],
                },
                1 => ConfigDelta::LinkUp {
                    link: ring.ring.links[slot],
                },
                2 => ConfigDelta::OspfCostChange {
                    device: ring.ring.routers[slot],
                    link: ring.ring.links[slot],
                    cost: 1 + ((r >> 16) % 100) as u32,
                },
                3 => ConfigDelta::StaticRouteAdd {
                    device: ring.ring.routers[slot],
                    route: StaticRoute::null(ring.destination)
                        .with_distance(1 + ((r >> 16) % 200) as u8),
                },
                _ => ConfigDelta::StaticRouteRemove {
                    device: ring.ring.routers[slot],
                    prefix: ring.destination,
                },
            });
        }
        let verify = Request::Verify {
            policy: PolicySpec::LoopFreedom,
            options: Some(VerifyOptions {
                restrict_prefixes: vec![ring.destination],
                ..VerifyOptions::default()
            }),
        };
        let report_bytes = |session: &ServiceSession| {
            let Response::Report(summary) = session.handle(&verify) else {
                panic!("storm verify failed");
            };
            session
                .last_report(&summary.policy)
                .expect("verified policy stored")
                .normalized_json()
        };

        // One-at-a-time replay: what a non-streaming deployment pays to keep
        // the network continuously verified through the storm. No-op deltas
        // (downing a downed link) answer with an error and change nothing —
        // the streaming path must converge to the same state regardless.
        let sequential = ServiceSession::with_network(ring.network.clone());
        sequential.handle(&verify);
        let replay_start = Instant::now();
        for delta in &deltas {
            let _ = sequential.handle(&Request::ApplyDelta {
                delta: delta.clone(),
            });
            sequential.handle(&verify);
        }
        let replay_time = replay_start.elapsed();
        let replay_bytes = report_bytes(&sequential);

        // Streaming: enqueue-acked bursts, coalesced and verified at
        // bounded lag by the background drain (which re-verifies the
        // registered policy after every batch), then a final flush + verify.
        let streaming = Arc::new(ServiceSession::new().with_tuning(Tuning {
            max_lag_deltas: Some(16),
            max_lag_ms: Some(5),
            ..Tuning::default()
        }));
        streaming.load(ring.network.clone());
        streaming.handle(&verify);
        let drain = streaming.start_streaming();
        let stream_start = Instant::now();
        for burst in deltas.chunks(8) {
            let response = streaming.handle(&Request::ApplyDeltas {
                deltas: burst.to_vec(),
                ack: "enqueued".into(),
            });
            assert!(
                matches!(response, Response::DeltasAccepted { .. }),
                "storm burst refused: {response:?}"
            );
        }
        drain.stop();
        let stream_time = stream_start.elapsed();
        let stream_bytes = report_bytes(&streaming);
        let identical = stream_bytes == replay_bytes;
        assert!(
            identical,
            "coalesced streaming storm diverged from sequential replay"
        );

        let stats = streaming.stats();
        let replay_rate = count as f64 / replay_time.as_secs_f64().max(1e-9);
        let stream_rate = count as f64 / stream_time.as_secs_f64().max(1e-9);
        let speedup = stream_rate / replay_rate;
        rows.push(
            Row::new(format!("ring n=8 update_storm ({count} deltas)"))
                .col("replay", format!("{replay_rate:.0}/s"))
                .col("streaming", format!("{stream_rate:.0}/s"))
                .col("speedup", format!("{speedup:.1}x"))
                .col("coalesced", stats.deltas_coalesced)
                .col("lag_p50_ms", format!("{:.2}", stats.verify_lag_p50_ms))
                .col("lag_p99_ms", format!("{:.2}", stats.verify_lag_p99_ms)),
        );
        points.push(ServiceBenchPoint {
            scenario: "ring n=8 update storm".into(),
            delta: "update_storm".to_string(),
            pecs_checked: 0,
            pecs_reexplored: 0,
            pecs_cached: 0,
            tasks_rerun: 0,
            tasks_cached: 0,
            steps_reexplored: 0,
            steps_cached: 0,
            full_seconds: replay_time.as_secs_f64(),
            incremental_seconds: stream_time.as_secs_f64(),
            speedup,
            identical,
            deltas_per_sec: stream_rate,
            lag_p50_ms: stats.verify_lag_p50_ms,
            lag_p99_ms: stats.verify_lag_p99_ms,
            coalesced: stats.deltas_coalesced,
        });
    }

    rows.push(Row::new("json").col(
        "data",
        serde_json::to_string(&points).expect("bench points serialize"),
    ));
    FigureResult {
        id: "service".into(),
        caption: "Incremental service: delta re-verify vs full re-verify".into(),
        rows,
    }
}

/// Run one figure by id ("2", "7a".."7i", "8", "9", "cores", "checker",
/// "checker_scale", "service").
pub fn run_figure(id: &str, quick: bool) -> Option<FigureResult> {
    let result = match id {
        "2" => fig2(quick),
        "7a" => fig7a(quick),
        "7b" => fig7b(quick),
        "7c" => fig7c(quick),
        "7d" => fig7d(quick),
        "7e" => fig7e(quick),
        "7f" => fig7f(quick),
        "7g" => fig7g(quick),
        "7h" => fig7h(quick),
        "7i" => fig7i(quick),
        "8" => fig8(quick),
        "9" => fig9(quick),
        "cores" => cores_scaling(quick),
        "checker" => checker_bench(quick),
        "checker_scale" => checker_scale_bench(quick),
        "service" => service_bench(quick),
        _ => return None,
    };
    Some(result)
}

/// Every figure id, in paper order (plus the engine scaling sweep, the
/// checker inner-loop benchmark and the incremental-service benchmark).
pub fn all_figures() -> Vec<&'static str> {
    vec![
        "2",
        "7a",
        "7b",
        "7c",
        "7d",
        "7e",
        "7f",
        "7g",
        "7h",
        "7i",
        "8",
        "9",
        "cores",
        "checker",
        "checker_scale",
        "service",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig2_produces_rows() {
        let f = fig2(true);
        assert_eq!(f.id, "2");
        assert!(!f.rows.is_empty());
        assert!(f.render().contains("model_checker"));
    }

    #[test]
    fn quick_fig7a_pass_and_fail_rows() {
        let f = fig7a(true);
        assert_eq!(f.rows.len(), 2);
        assert!(f.rows.iter().any(|r| r.label.contains("Pass")));
        assert!(f.rows.iter().any(|r| r.label.contains("Fail")));
    }

    #[test]
    fn quick_fig8_shows_state_reduction() {
        let f = fig8(true);
        // The unoptimized ring search must explore at least as many states as
        // the optimized one.
        let ring_row = &f.rows[0];
        let get = |name: &str| -> u64 {
            ring_row
                .values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.parse().unwrap_or(0))
                .unwrap_or(0)
        };
        assert!(get("no_opts_states") >= get("all_states"));
    }

    #[test]
    fn figure_dispatch_knows_every_id() {
        for id in all_figures() {
            // Only dispatch for the cheap figures in unit tests.
            if ["2"].contains(&id) {
                assert!(run_figure(id, true).is_some());
            }
        }
        assert!(run_figure("nope", true).is_none());
    }

    #[test]
    fn quick_cores_scaling_emits_json() {
        let f = cores_scaling(true);
        assert_eq!(f.id, "cores");
        // 3 worker counts plus the JSON row.
        assert_eq!(f.rows.len(), 4);
        let json_row = f.rows.last().unwrap();
        assert_eq!(json_row.label, "json");
        let data = &json_row.values[0].1;
        let points: Vec<CoresScalingPoint> =
            serde_json::from_str(data).expect("sweep JSON parses back");
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].workers, 1);
        assert!((points[0].speedup - 1.0).abs() < 1e-9);
        // Parallelism must not change the search itself.
        assert!(points.windows(2).all(|w| {
            w[0].states_explored == w[1].states_explored && w[0].tasks_total == w[1].tasks_total
        }));
    }

    #[test]
    fn quick_checker_scale_emits_comparable_points() {
        let f = checker_scale_bench(true);
        assert_eq!(f.id, "checker_scale");
        let json_row = f.rows.last().unwrap();
        assert_eq!(json_row.label, "json");
        let points: Vec<CheckerBenchPoint> =
            serde_json::from_str(&json_row.values[0].1).expect("scale JSON parses back");
        // k=8 fat tree + the quick-mode ISP.
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.steps > 0 && p.speedup > 0.0));
        // The JSON must stay parseable by the CI compare gate.
        let entries =
            crate::compare::parse_entries(&json_row.values[0].1).expect("gate parses scale JSON");
        assert_eq!(entries.len(), 2);
    }
}
