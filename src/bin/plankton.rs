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
use plankton::service::{PolicySpec, VerifyOptions};
use std::io::Write;
use std::process::exit;

/// Write to stdout through its lock. When the reader has gone away
/// (`plankton pecs … | head -1`) the write fails with `BrokenPipe`: exit
/// quietly with `status`, the exit status the command has anyway. Any other
/// write error is reported, with exit status 1.
fn print_or_exit(status: i32, text: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(text).and_then(|()| stdout.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(status);
        }
        eprintln!("plankton: cannot write to stdout: {e}");
        exit(1);
    }
}

/// `println!` through [`print_or_exit`], leaving with `$status` if stdout
/// is closed.
macro_rules! say {
    ($status:expr, $($arg:tt)*) => {
        print_or_exit($status, format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  plankton verify --config <file.json> --policy <reachability|loop|blackhole|waypoint|bounded-path-length> \\\n                  [--source <node-name>]... [--waypoint <node-name>]... [--prefix <a.b.c.d/len>]... \\\n                  [--max-failures <k>] [--max-hops <n>] [--cores <n>] [--all-violations]\n  plankton pecs   --config <file.json>"
    );
    exit(2);
}

struct Args {
    command: String,
    config: Option<String>,
    policy: Option<PolicySpec>,
    options: VerifyOptions,
}

/// The flags as the verification question the daemon answers too: a
/// [`PolicySpec`] plus [`VerifyOptions`]. The CLI stops at the first
/// violation unless `--all-violations` is given.
fn parse_args() -> Args {
    let mut config = None;
    let mut policy = None;
    let mut sources = Vec::new();
    let mut waypoints = Vec::new();
    let mut max_hops = 16;
    let mut options = VerifyOptions {
        stop_at_first: true,
        ..Default::default()
    };
    let mut iter = std::env::args().skip(1);
    let command = match iter.next() {
        Some(c) if c == "verify" || c == "pecs" => c,
        _ => usage(),
    };
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--config" => config = Some(value()),
            "--policy" => policy = Some(value()),
            "--source" => sources.push(value()),
            "--waypoint" => waypoints.push(value()),
            "--prefix" => match value().parse() {
                Ok(p) => options.restrict_prefixes.push(p),
                Err(e) => {
                    eprintln!("bad --prefix: {e}");
                    exit(2);
                }
            },
            "--max-failures" => {
                options.max_failures = value().parse().unwrap_or_else(|_| usage());
            }
            "--max-hops" => max_hops = value().parse().unwrap_or_else(|_| usage()),
            "--cores" => options.cores = value().parse().unwrap_or_else(|_| usage()),
            "--all-violations" => options.stop_at_first = false,
            _ => usage(),
        }
    }
    let policy = match policy.as_deref() {
        None if command == "pecs" => None,
        Some("reachability") => Some(PolicySpec::Reachability { sources }),
        Some("loop") => Some(PolicySpec::LoopFreedom),
        Some("blackhole") => Some(PolicySpec::BlackholeFreedom),
        Some("waypoint") => Some(PolicySpec::Waypoint { sources, waypoints }),
        Some("bounded-path-length") => Some(PolicySpec::BoundedPathLength { sources, max_hops }),
        _ => usage(),
    };
    Args {
        command,
        config,
        policy,
        options,
    }
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
    // A zero OSPF cost is refused, not warned about: the OSPF reduction
    // could answer wrongly on it.
    if let Some(p) = problems
        .iter()
        .find(|p| matches!(p, plankton::config::ConfigError::ZeroOspfCost { .. }))
    {
        eprintln!("invalid configuration: {p}");
        exit(2);
    }

    let verifier = Plankton::new(network.clone());
    if args.command == "pecs" {
        say!(
            0,
            "{} devices, {} links, {} packet equivalence classes ({} active), largest dependency SCC {}",
            network.node_count(),
            network.topology.link_count(),
            verifier.pecs().len(),
            verifier.pecs().active_pecs().len(),
            verifier.dependencies().largest_component(),
        );
        for pec in verifier.pecs().active_pecs() {
            let prefixes: Vec<String> = pec.prefixes.iter().map(|p| p.prefix.to_string()).collect();
            say!(
                0,
                "  {} {} prefixes [{}]",
                pec.id,
                pec.range,
                prefixes.join(", ")
            );
        }
        return;
    }

    let spec = args.policy.as_ref().expect("verify has a policy");
    let policy = spec.build(&network).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    });
    let (options, scenario) = args.options.resolve();

    let report = verifier.verify(policy.as_ref(), &scenario, &options);
    let status = if report.holds() { 0 } else { 1 };
    say!(status, "{report}");
    if let Some(violation) = report.first_violation() {
        say!(status, "counterexample trail:\n{}", violation.trail);
    }
    exit(status);
}
