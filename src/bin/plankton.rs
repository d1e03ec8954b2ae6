//! `plankton` — command-line front end to the verifier.
//!
//! ```text
//! plankton verify --config network.json --policy reachability \
//!          --source r1 --source r2 --prefix 10.0.0.0/24 --max-failures 1
//! plankton pecs --config network.json
//! ```
//!
//! The configuration file is the serde/JSON form of
//! [`plankton::config::Network`] (see `Network::to_json`); the examples and
//! scenario builders can emit it.

use plankton::prelude::*;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  plankton verify --config <file.json> --policy <reachability|loop|blackhole|waypoint|bounded-path-length> \\\n                  [--source <node-name>]... [--waypoint <node-name>]... [--prefix <a.b.c.d/len>]... \\\n                  [--max-failures <k>] [--max-hops <n>] [--cores <n>] [--all-violations]\n  plankton pecs   --config <file.json>"
    );
    exit(2);
}

struct Args {
    command: String,
    config: Option<String>,
    policy: Option<String>,
    sources: Vec<String>,
    waypoints: Vec<String>,
    prefixes: Vec<Prefix>,
    max_failures: usize,
    max_hops: usize,
    cores: usize,
    all_violations: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: String::new(),
        config: None,
        policy: None,
        sources: Vec::new(),
        waypoints: Vec::new(),
        prefixes: Vec::new(),
        max_failures: 0,
        max_hops: 16,
        cores: 1,
        all_violations: false,
    };
    let mut iter = std::env::args().skip(1);
    match iter.next() {
        Some(c) if c == "verify" || c == "pecs" => args.command = c,
        _ => usage(),
    }
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--config" => args.config = Some(value()),
            "--policy" => args.policy = Some(value()),
            "--source" => args.sources.push(value()),
            "--waypoint" => args.waypoints.push(value()),
            "--prefix" => match value().parse() {
                Ok(p) => args.prefixes.push(p),
                Err(e) => {
                    eprintln!("bad --prefix: {e}");
                    exit(2);
                }
            },
            "--max-failures" => args.max_failures = value().parse().unwrap_or_else(|_| usage()),
            "--max-hops" => args.max_hops = value().parse().unwrap_or_else(|_| usage()),
            "--cores" => args.cores = value().parse().unwrap_or_else(|_| usage()),
            "--all-violations" => args.all_violations = true,
            _ => usage(),
        }
    }
    args
}

fn resolve_nodes(network: &Network, names: &[String]) -> Vec<NodeId> {
    names
        .iter()
        .map(|name| {
            network.topology.node_by_name(name).unwrap_or_else(|| {
                eprintln!("unknown device {name:?}");
                exit(2);
            })
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let Some(config_path) = &args.config else {
        usage()
    };
    let text = std::fs::read_to_string(config_path).unwrap_or_else(|e| {
        eprintln!("cannot read {config_path}: {e}");
        exit(1);
    });
    let network = Network::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {config_path}: {e}");
        exit(1);
    });
    let problems = network.validate();
    for p in &problems {
        eprintln!("config warning: {p}");
    }

    let verifier = Plankton::new(network.clone());
    if args.command == "pecs" {
        println!(
            "{} devices, {} links, {} packet equivalence classes ({} active), largest dependency SCC {}",
            network.node_count(),
            network.topology.link_count(),
            verifier.pecs().len(),
            verifier.pecs().active_pecs().len(),
            verifier.dependencies().largest_component(),
        );
        for pec in verifier.pecs().active_pecs() {
            let prefixes: Vec<String> = pec.prefixes.iter().map(|p| p.prefix.to_string()).collect();
            println!(
                "  {} {} prefixes [{}]",
                pec.id,
                pec.range,
                prefixes.join(", ")
            );
        }
        return;
    }

    let sources = resolve_nodes(&network, &args.sources);
    let waypoints = resolve_nodes(&network, &args.waypoints);
    let policy: Box<dyn Policy> = match args.policy.as_deref() {
        Some("reachability") => Box::new(Reachability::new(sources.clone())),
        Some("loop") => Box::new(LoopFreedom::everywhere()),
        Some("blackhole") => Box::new(BlackholeFreedom::default()),
        Some("waypoint") => Box::new(Waypoint::new(sources.clone(), waypoints)),
        Some("bounded-path-length") => {
            Box::new(BoundedPathLength::new(sources.clone(), args.max_hops))
        }
        _ => usage(),
    };

    let mut options = PlanktonOptions::with_cores(args.cores);
    if !args.prefixes.is_empty() {
        options = options.restricted_to(args.prefixes.clone());
    }
    if args.all_violations {
        options = options.collect_all_violations();
    }
    let scenario = FailureScenario::up_to(args.max_failures);

    let report = verifier.verify(policy.as_ref(), &scenario, &options);
    println!("{report}");
    if let Some(violation) = report.first_violation() {
        println!("counterexample trail:\n{}", violation.trail);
    }
    exit(if report.holds() { 0 } else { 1 });
}
