//! The repo benchmark. Two ways in:
//!
//! * the driver's contract —
//!   `--workload <name> --seed <n> --seconds <s> --trace <0|1>`: one workload,
//!   one JSON object on the last line of stdout;
//! * `run` / `repeat` — everything, for people (see README.md).
//!
//! Run from the repository root, after the root release binaries are built
//! (`benchmark/run.sh` does both).

mod gen;
mod probes;
mod proc;
mod stats;
mod table;
mod trace;
mod workloads;

use gen::Sizes;
use proc::Env;
use stats::ratio_with_base;
use table::Table;
use trace::Tracer;
use workloads::{Measured, Metrics, RunConfig, WORKLOADS};

/// A traced run is a third as long: it is there for shares, not for medians.
const TRACED_FRACTION: f64 = 1.0 / 3.0;
const SETUPS: usize = 5;

fn usage() -> ! {
    eprintln!(
        "usage (from the repository root):\n  \
         plankton-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  \
         plankton-benchmark run [--seed <n>] [--seconds <s>] [--smoke] [--trace <0|1>] [--workload <name>]...\n  \
         plankton-benchmark repeat [--sets <n>] [--seed <n>] [--seconds <s>] [--smoke] [--workload <name>]...\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

/// One finished pass over one workload.
struct Pass {
    workload: String,
    traced: bool,
    attempted: u64,
    failed: u64,
    wrong_verdicts: u64,
    metrics: Metrics,
    /// Per-layer names this workload does not exercise (reported as 0).
    not_applicable: Vec<&'static str>,
    notes: Vec<String>,
}

/// Run one workload once: end to end with tracing off, or traced with the
/// layer-probe pass behind it. The names it produced are held against the
/// table: every one is listed, and every listed end-to-end name is there.
fn run_pass(
    env: &Env,
    table: &'static Table,
    workload: &str,
    cfg: &RunConfig,
) -> Result<Pass, String> {
    let mut tracer = Tracer::new(cfg.traced, 1 << 18);
    let out = workloads::run(workload, env, cfg, &mut tracer)?;
    if out.attempted == 0 {
        return Err(format!("{workload}: no op was attempted"));
    }
    let mut not_applicable = Vec::new();
    let metrics = if cfg.traced {
        // Probe-measured first; what the workload saw over the wire wins.
        let mut merged = probes::run(&out.probe, env, &mut tracer)?;
        merged.extend(out.per_layer.iter().map(|(k, v)| (*k, *v)));
        merged.insert("client.peak_rss_mb", out.end_to_end["peak_rss_mb"]);
        merged.insert("client.ops_per_s", out.end_to_end["ops_per_s"]);
        // The contract wants every per-layer name on every traced run: what
        // this workload does not exercise is 0 and is said to be so.
        for name in table.names(true) {
            if !merged.contains_key(name) {
                merged.insert(name, Measured::default());
                not_applicable.push(name);
            }
        }
        let path = env.out.join("trace.json");
        std::fs::write(&path, tracer.to_json(workload, cfg.seed))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        merged
    } else {
        out.end_to_end.clone()
    };
    let listed: Vec<&str> = table.names(cfg.traced).collect();
    if let Some(name) = metrics.keys().find(|name| !listed.contains(name)) {
        return Err(format!(
            "{workload}: emitted {name:?}, which BENCHMARK.json does not list"
        ));
    }
    if let Some(name) = listed.iter().find(|name| !metrics.contains_key(*name)) {
        return Err(format!(
            "{workload}: did not emit {name:?}, which BENCHMARK.json lists"
        ));
    }
    Ok(Pass {
        workload: workload.to_string(),
        traced: cfg.traced,
        attempted: out.attempted,
        failed: out.failed,
        wrong_verdicts: out.wrong_verdicts,
        metrics,
        not_applicable,
        notes: out.notes,
    })
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

fn unit_of<'a>(table: &'a Table, name: &str) -> &'a str {
    &table
        .metric(name)
        .expect("run_pass held the names against the table")
        .unit
}

/// The driver's result line.
fn driver_line(table: &Table, pass: &Pass) -> String {
    let metrics: Vec<String> = pass
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                finite(m.value),
                json_string(unit_of(table, name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.wrong_verdicts == 0,
        pass.attempted,
        pass.failed,
        metrics.join(", ")
    )
}

fn pass_json(table: &Table, pass: &Pass) -> String {
    let metrics: Vec<String> = pass
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"q1\": {}, \"q3\": {}}}",
                json_string(name),
                finite(m.value),
                json_string(unit_of(table, name)),
                m.n,
                finite(m.q1),
                finite(m.q3)
            )
        })
        .collect();
    let list = |items: Vec<String>| items.join(", ");
    format!(
        "{{\"workload\": {}, \"traced\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failed_share\": {}, \"wrong_verdicts\": {}, \"metrics\": {{{}}}, \
         \"not_applicable\": [{}], \"notes\": [{}]}}",
        json_string(&pass.workload),
        pass.traced,
        pass.attempted,
        pass.failed,
        pass.failed as f64 / pass.attempted as f64,
        pass.wrong_verdicts,
        list(metrics),
        list(pass.not_applicable.iter().map(|n| json_string(n)).collect()),
        list(pass.notes.iter().map(|n| json_string(n)).collect()),
    )
}

fn write_results(
    env: &Env,
    table: &Table,
    seed: u64,
    mode: &str,
    passes: &[Pass],
) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let body: Vec<String> = passes.iter().map(|p| pass_json(table, p)).collect();
    let text = format!(
        "{{\"seed\": {seed}, \"mode\": {}, \"available_parallelism\": {cores}, \"passes\": [\n{}\n]}}\n",
        json_string(mode),
        body.join(",\n")
    );
    let path = env.out.join("results.json");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn print_pass(table: &Table, pass: &Pass) {
    println!(
        "== {} ({}) attempted={} failed={} failed_share={} wrong_verdicts={}",
        pass.workload,
        if pass.traced { "traced" } else { "end to end" },
        pass.attempted,
        pass.failed,
        ratio_with_base(pass.failed as f64, pass.attempted as f64, "attempted"),
        pass.wrong_verdicts
    );
    for (name, m) in &pass.metrics {
        let unit = unit_of(table, name);
        if pass.not_applicable.contains(name) {
            println!(
                "  {name:<38} {:>14} {unit:<6} (not exercised by this workload)",
                0
            );
        } else {
            println!(
                "  {name:<38} {:>14.4} {unit:<6} n={:<6} q1={:.4} q3={:.4}",
                m.value, m.n, m.q1, m.q3
            );
        }
    }
    if pass.traced {
        if let (Some(one), Some(two)) = (
            pass.metrics.get("core.verify_1core_ms"),
            pass.metrics.get("core.verify_2core_ms"),
        ) {
            println!(
                "  engine.speedup_2core = {:.3} (1 worker {:.3} ms / 2 workers {:.3} ms, in-process)",
                one.value / two.value.max(f64::MIN_POSITIVE),
                one.value,
                two.value
            );
        }
    }
    for note in &pass.notes {
        println!("  note: {note}");
    }
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `--trace 0` end to end only, `--trace 1` traced only.
    trace: Option<bool>,
    smoke: bool,
    sets: usize,
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => out.workloads.push(value()),
            "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => out.seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                out.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--sets" => out.sets = value().parse().unwrap_or_else(|_| usage()),
            "--smoke" => out.smoke = true,
            _ => usage(),
        }
    }
    for w in &out.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            eprintln!("unknown workload {w:?}");
            usage();
        }
    }
    if out.sets < 2 {
        eprintln!("--sets needs at least 2");
        usage();
    }
    out
}

impl Args {
    fn full_seconds(&self, table: &Table) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            1.5
        } else {
            table.run_seconds as f64
        })
    }

    fn config(&self, table: &Table, traced: bool) -> RunConfig {
        RunConfig {
            seed: self.seed,
            seconds: if traced {
                self.full_seconds(table) * TRACED_FRACTION
            } else {
                self.full_seconds(table)
            },
            sizes: if self.smoke {
                Sizes::smoke()
            } else {
                Sizes::full()
            },
            traced,
            setups: if traced || self.smoke { 1 } else { SETUPS },
        }
    }

    fn selected(&self) -> Vec<&str> {
        if self.workloads.is_empty() {
            WORKLOADS.to_vec()
        } else {
            self.workloads.iter().map(String::as_str).collect()
        }
    }
}

fn driver(env: &Env, table: &'static Table, args: &Args) -> Result<bool, String> {
    let ([workload], Some(traced)) = (args.workloads.as_slice(), args.trace) else {
        usage()
    };
    let pass = run_pass(env, table, workload, &args.config(table, traced))?;
    for note in &pass.notes {
        eprintln!("note: {note}");
    }
    write_results(env, table, args.seed, "driver", std::slice::from_ref(&pass))?;
    if !pass.not_applicable.is_empty() {
        println!(
            "not exercised by {workload}, 0 below: {}",
            pass.not_applicable.join(" ")
        );
    }
    println!("{}", driver_line(table, &pass));
    Ok(pass.wrong_verdicts == 0)
}

fn run_all(env: &Env, table: &'static Table, args: &Args) -> Result<bool, String> {
    let mut passes = Vec::new();
    for workload in args.selected() {
        for traced in [false, true] {
            if args.trace.is_none_or(|only| only == traced) {
                let pass = run_pass(env, table, workload, &args.config(table, traced))?;
                print_pass(table, &pass);
                passes.push(pass);
            }
        }
    }
    write_results(
        env,
        table,
        args.seed,
        if args.smoke { "smoke" } else { "full" },
        &passes,
    )?;
    // With every workload traced, a listed per-layer name that none of them
    // exercised is a name the harness no longer emits.
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    if traced.len() == WORKLOADS.len() {
        if let Some(name) = table
            .names(true)
            .find(|name| traced.iter().all(|p| p.not_applicable.contains(name)))
        {
            return Err(format!(
                "BENCHMARK.json lists {name:?}, which no workload emits"
            ));
        }
    }
    let wrong: u64 = passes.iter().map(|p| p.wrong_verdicts).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    println!(
        "wrong_verdicts={wrong} failed={failed}; results in {}",
        env.out.join("results.json").display()
    );
    Ok(wrong == 0)
}

/// `repeat --sets N`: the whole end-to-end benchmark N times on one build,
/// then per workload × metric every set's value, the widest disagreement
/// between any two sets and the committed bound.
fn repeat(env: &Env, table: &'static Table, args: &Args) -> Result<bool, String> {
    let mut sets: Vec<Vec<Pass>> = Vec::new();
    for set in 0..args.sets {
        let mut passes = Vec::new();
        for workload in args.selected() {
            eprintln!("set {} of {}: {workload}", set + 1, args.sets);
            passes.push(run_pass(env, table, workload, &args.config(table, false))?);
        }
        sets.push(passes);
    }
    let mut report = String::new();
    let mut all_within = true;
    let mut clean = true;
    use std::fmt::Write as _;
    let _ = writeln!(
        report,
        "repeat --sets {} --seed {} --seconds {} ({}); relative difference is (max - min) / min over the sets",
        sets.len(),
        args.seed,
        args.full_seconds(table),
        if args.smoke { "smoke sizes" } else { "full sizes" }
    );
    for (w, workload) in args.selected().iter().enumerate() {
        let _ = writeln!(report, "{workload}");
        for metric in &table.end_to_end {
            let values: Vec<f64> = sets
                .iter()
                .map(|s| s[w].metrics[metric.name.as_str()].value)
                .collect();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let diff = (max - min) / min.abs().max(f64::MIN_POSITIVE);
            let within = diff <= metric.bound;
            all_within &= within;
            let _ = writeln!(
                report,
                "  {:<16} {} {:<4} rel.diff {diff:.4} (base min = {min:.4})  bound {:.2}  {}",
                metric.name,
                values
                    .iter()
                    .map(|v| format!("{v:>12.4}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                metric.unit,
                metric.bound,
                if within { "ok" } else { "OUTSIDE" }
            );
        }
        for (s, set) in sets.iter().enumerate() {
            let p = &set[w];
            clean &= p.wrong_verdicts == 0 && p.failed == 0;
            let _ = writeln!(
                report,
                "  set {}: attempted {} failed {} wrong_verdicts {}",
                s + 1,
                p.attempted,
                p.failed,
                p.wrong_verdicts
            );
        }
    }
    let _ = writeln!(
        report,
        "agreement: {}; verdicts: {}",
        if all_within {
            "every metric within its bound"
        } else {
            "SOME METRIC OUTSIDE ITS BOUND"
        },
        if clean {
            "no wrong verdict, no failed op"
        } else {
            "WRONG VERDICTS OR FAILED OPS"
        }
    );
    print!("{report}");
    // The committed evidence is the full-size run's; a smoke run only prints.
    if !args.smoke {
        let path = env.out.join("agreement.txt");
        std::fs::write(&path, &report)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(all_within && clean)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("run") => ("run", &argv[1..]),
        Some("repeat") => ("repeat", &argv[1..]),
        Some(flag) if flag.starts_with("--") => ("driver", &argv[..]),
        _ => usage(),
    };
    let args = parse_args(rest);
    let outcome = Table::load(&WORKLOADS).and_then(|table| {
        // Loaded once and read everywhere, metric names included.
        let table: &'static Table = Box::leak(Box::new(table));
        let env = Env::locate()?;
        match command {
            "run" => run_all(&env, table, &args),
            "repeat" => repeat(&env, table, &args),
            _ => driver(&env, table, &args),
        }
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("benchmark: a verdict was wrong or a set disagreed (see above)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}
