//! # plankton-bench
//!
//! The benchmark harness that regenerates the paper's evaluation (§5): one
//! function per table/figure, each returning the rows it printed so that the
//! numbers can be recorded in `EXPERIMENTS.md`. The `figures` binary drives
//! them (`cargo run -p plankton-bench --bin figures --release -- --fig 7a`),
//! and the Criterion benches in `benches/` time the hot paths.
//!
//! The absolute sizes are scaled down relative to the paper (the paper's
//! largest runs used a 32-core/188 GB server and multi-hour Minesweeper
//! timeouts); the *shape* of every comparison — who wins, how the gap grows
//! with network size, where timeouts appear — is what these harnesses
//! reproduce. Each figure function documents its parameter scaling.

pub mod compare;
pub mod figures;

pub use compare::{compare, parse_entries, Entry, GateOutcome};
pub use figures::{all_figures, checker_bench, run_figure, CheckerBenchPoint, FigureResult, Row};
