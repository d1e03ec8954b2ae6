//! `compare` — the CI bench-regression gate for the checker figures.
//!
//! ```text
//! cargo run --release -p plankton-bench --bin compare -- \
//!     --baseline BENCH_checker.json --current bench-out/BENCH_checker.json
//! ```
//!
//! Exits non-zero when any scenario's speedup falls below
//! `baseline × min-ratio` (default 0.7), or when a baseline scenario is
//! missing from the current run.

use plankton_bench::compare::{compare, parse_entries};

fn usage() -> ! {
    eprintln!("usage: compare --baseline <file.json> --current <file.json> [--min-ratio <r>]");
    std::process::exit(2);
}

fn read_entries(path: &str) -> Vec<plankton_bench::Entry> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("compare: cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_entries(&text).unwrap_or_else(|e| {
        eprintln!("compare: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut min_ratio = 0.7f64;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--baseline" => baseline = Some(value()),
            "--current" => current = Some(value()),
            "--min-ratio" => {
                min_ratio = value().parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    let (Some(baseline), Some(current)) = (baseline, current) else {
        usage();
    };

    let base_entries = read_entries(&baseline);
    let cur_entries = read_entries(&current);
    let outcome = compare(&base_entries, &cur_entries, min_ratio);
    for line in &outcome.checked {
        println!("ok   {line}");
    }
    for line in &outcome.failures {
        println!("FAIL {line}");
    }
    if !outcome.passed() {
        eprintln!(
            "compare: {} regression(s) against {baseline}",
            outcome.failures.len()
        );
        std::process::exit(1);
    }
    println!(
        "compare: {} scenario(s) checked against {baseline}, no regressions",
        outcome.checked.len()
    );
}
