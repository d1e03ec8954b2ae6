//! The four workloads. Each one sets up several times (the median is
//! `setup_s`), measures for the requested number of seconds with every
//! metric taken from outside the program, and checks every verdict against
//! an answer known from construction or recomputed in the harness.

mod cold;
mod daemon;

use crate::gen::{CliCase, Sizes};
use crate::proc::Env;
use crate::stats::Sample;
use crate::trace::Tracer;
use plankton::config::Network;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [
    "cold_ospf_fattree",
    "cold_bgp_dc",
    "delta_reverify",
    "update_storm",
];

#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub sizes: Sizes,
    /// Record spans and collect the client-side per-layer metrics.
    pub traced: bool,
    /// How many times to set up (the median is `setup_s`).
    pub setups: usize,
}

/// One reported number with the sample behind it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured {
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Measured {
    pub fn single(value: f64) -> Self {
        Measured {
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    pub fn median_of(values: Vec<f64>) -> Self {
        let s = Sample::new(values);
        Self::of(&s, s.median())
    }

    /// Nearest-rank `q`-quantile.
    pub fn quantile_of(values: Vec<f64>, q: f64) -> Self {
        let s = Sample::new(values);
        Self::of(&s, s.quantile(q))
    }

    fn of(sample: &Sample, value: f64) -> Self {
        let (q1, q3) = sample.quartiles();
        Measured {
            value,
            n: sample.len(),
            q1,
            q3,
        }
    }
}

pub type Metrics = BTreeMap<&'static str, Measured>;

/// What the layer-probe pass replays: the inputs this workload generated and
/// the responses it saw.
pub struct ProbeInputs {
    /// Regenerates the network the way the workload's set-up did.
    pub generate: Box<dyn Fn() -> Network>,
    pub network: Network,
    pub network_json: String,
    /// The CLI flags or wire policy of the workload's main question.
    pub question: Question,
    /// Request lines the workload sent (a sample of each kind).
    pub request_lines: Vec<String>,
    /// Response lines the daemon answered (a sample of each kind).
    pub response_lines: Vec<String>,
    /// Deltas of the workload's stream (empty for the cold workloads).
    pub deltas: Vec<plankton::config::ConfigDelta>,
}

/// The policy question a workload asks, in the form the probes re-ask it
/// in-process.
#[derive(Clone, Debug)]
pub enum Question {
    /// Loop freedom everywhere under up to `max_failures` link failures.
    LoopFreedom { max_failures: usize },
    /// The BGP waypoint question: CLI flags, resolved by the probes.
    Waypoint { case: CliCase },
}

pub struct WorkloadOutput {
    pub attempted: u64,
    pub failed: u64,
    pub wrong_verdicts: u64,
    pub end_to_end: Metrics,
    /// Client-side and daemon-reported per-layer metrics (traced runs).
    pub per_layer: Metrics,
    pub notes: Vec<String>,
    pub probe: ProbeInputs,
}

pub fn run(
    name: &str,
    env: &Env,
    cfg: &RunConfig,
    tracer: &mut Tracer,
) -> Result<WorkloadOutput, String> {
    match name {
        "cold_ospf_fattree" => cold::cold_ospf_fattree(env, cfg, tracer),
        "cold_bgp_dc" => cold::cold_bgp_dc(env, cfg, tracer),
        "delta_reverify" => daemon::delta_reverify(env, cfg, tracer),
        "update_storm" => daemon::update_storm(env, cfg, tracer),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// A note naming the highest percentile of `values` that has at least ten
/// samples beyond it (none under 20 samples).
fn tail_note(what: &str, values_ms: &[f64]) -> String {
    match Sample::new(values_ms.to_vec()).highest_supported() {
        Some((label, v)) => format!(
            "{what}: highest supported percentile {label} = {v:.3} ms (n = {})",
            values_ms.len()
        ),
        None => format!(
            "{what}: n = {} supports no percentile with ten samples beyond it",
            values_ms.len()
        ),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Run `setup` once untimed, so that the binaries are in the page cache and
/// the machine is awake, and then `n` times; the last run's product is kept,
/// the median duration is `setup_s`. Earlier products are handed to `discard`
/// (a daemon has to be shut down, a file just gets overwritten).
fn repeat_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Measured), String> {
    let mut times = Vec::with_capacity(n);
    let mut kept = Some(setup()?);
    for _ in 0..n.max(1) {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let start = Instant::now();
        kept = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((
        kept.expect("at least one setup ran"),
        Measured::median_of(times),
    ))
}

/// `median(traced) / median(untraced) - 1` over samples flagged by whether
/// spans were on when they ran; 0 with `n = 0` when either side is empty.
fn overhead_share(samples: impl Iterator<Item = (f64, bool)>) -> Measured {
    let (on, off): (Vec<_>, Vec<_>) = samples.partition(|&(_, traced)| traced);
    if off.is_empty() || on.is_empty() {
        return Measured::default();
    }
    let median = |side: Vec<(f64, bool)>| Sample::new(side.iter().map(|s| s.0).collect()).median();
    Measured {
        n: on.len(),
        ..Measured::single(median(on) / median(off) - 1.0)
    }
}
