//! The cold workloads: one `plankton` process per sample.

use super::{
    ms, overhead_share, repeat_setup, tail_note, write_file, Measured, Metrics, ProbeInputs,
    Question, RunConfig, WorkloadOutput,
};
use crate::gen::{self, CliCase};
use crate::proc::{run_cli, CliRun, Env};
use crate::trace::{Tracer, NO_PARENT};
use plankton::config::scenarios::{fat_tree_ospf, CoreStaticRoutes};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A cold verify past this is a failed op and misses every latency metric.
const COLD_LIMIT: Duration = Duration::from_secs(30);

/// A cold set-up is a tenth of a second of file writing and process start,
/// which varies by a third from one to the next; three times as many as the
/// daemon workloads do cost a second and give `setup_s` a median that holds.
const COLD_SETUP_FACTOR: usize = 3;

/// The sample every cold workload's `verdict_p50_ms` is the median of.
const PRIMARY: &str = "cli.verify_1core";
/// The sample every cold workload's `ops_per_s` comes from.
const SECOND_CORE: &str = "cli.verify_2core";
const SIDE: &str = "cli.verify_side";

/// One kind of CLI process a cold workload runs.
struct ColdCase {
    /// Span and sample label, e.g. `cli.verify_1core`.
    label: &'static str,
    config: PathBuf,
    case: CliCase,
    cores: usize,
}

impl ColdCase {
    fn new(label: &'static str, config: &Path, case: &CliCase, cores: usize) -> Self {
        ColdCase {
            label,
            config: config.to_path_buf(),
            case: case.clone(),
            cores,
        }
    }
}

#[derive(Default)]
struct ColdSamples {
    wall_ms: Vec<f64>,
    /// Per sample: were spans on?
    traced: Vec<bool>,
    rss_kb: Vec<u64>,
    cpu_s: Vec<f64>,
    states: Vec<u64>,
}

#[derive(Default)]
struct ColdTally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
    samples: BTreeMap<&'static str, ColdSamples>,
}

/// `... N states, ...` from the CLI's report line.
fn parse_states(stdout: &str) -> Option<u64> {
    let line = stdout.lines().next()?;
    let end = line.find(" states")?;
    line[..end].rsplit([' ', ',']).next()?.parse().ok()
}

impl ColdTally {
    /// Run one verify process and check its verdict against construction.
    fn verify(&mut self, env: &Env, tracer: &mut Tracer, case: &ColdCase) -> Result<(), String> {
        let mut args = vec![
            "verify".to_string(),
            "--config".to_string(),
            case.config.display().to_string(),
        ];
        args.extend(case.case.args.iter().cloned());
        args.extend(["--cores".to_string(), case.cores.to_string()]);
        self.attempted += 1;
        let span = tracer.begin(case.label, NO_PARENT, self.attempted);
        let run = run_cli(env, &env.plankton, &args, COLD_LIMIT)
            .map_err(|e| format!("cannot run plankton: {e}"))?;
        tracer.end(span);
        let expected_code = if case.case.holds { 0 } else { 1 };
        let expected_word = if case.case.holds {
            ": HOLDS"
        } else {
            ": VIOLATED"
        };
        if run.timed_out || run.exit_code.is_none() || run.exit_code == Some(2) {
            self.failed += 1;
            self.notes.push(format!(
                "{}: failed (timed_out={}, exit={:?})",
                case.label, run.timed_out, run.exit_code
            ));
            return Ok(());
        }
        let first_line = run.stdout.lines().next().unwrap_or("");
        if run.exit_code != Some(expected_code) || !first_line.contains(expected_word) {
            self.wrong += 1;
            self.notes.push(format!(
                "{}: WRONG VERDICT: expected{expected_word}, got exit {:?}: {first_line}",
                case.label, run.exit_code
            ));
            return Ok(());
        }
        self.record(case.label, &run, tracer.enabled());
        Ok(())
    }

    fn record(&mut self, label: &'static str, run: &CliRun, traced: bool) {
        let s = self.samples.entry(label).or_default();
        s.wall_ms.push(ms(run.wall));
        s.traced.push(traced);
        s.rss_kb.push(run.max_rss_kb);
        s.cpu_s.push(run.cpu_s);
        if let Some(states) = parse_states(&run.stdout) {
            s.states.push(states);
        }
    }

    fn wall_ms(&self, label: &str) -> Vec<f64> {
        self.samples
            .get(label)
            .map(|s| s.wall_ms.clone())
            .unwrap_or_default()
    }
}

/// The last step of a cold set-up: one quick verify, so the binary and the
/// config file are in the page cache before anything is timed.
fn cold_warm_up(env: &Env, side: &ColdCase) -> Result<(), String> {
    let mut tally = ColdTally::default();
    let mut off = Tracer::new(false, 0);
    tally.verify(env, &mut off, side)?;
    if tally.failed + tally.wrong > 0 {
        return Err(format!("warm-up failed: {}", tally.notes.join("; ")));
    }
    Ok(())
}

/// The timed phase of a cold workload: `side` cases once before and once
/// after (verdict checks; they enter no end-to-end metric), and in between as
/// many rounds of the `main` cases as fit in the time.
fn cold_timed_phase(
    env: &Env,
    cfg: &RunConfig,
    tracer: &mut Tracer,
    tally: &mut ColdTally,
    main: &[ColdCase],
    side: &[ColdCase],
) -> Result<(), String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    // Traced runs record spans on every other round: the difference between
    // the two kinds of round is the tracing overhead.
    let traced = tracer.enabled();
    tracer.set_enabled(false);
    for case in side {
        tally.verify(env, tracer, case)?;
    }
    let mut round = Duration::ZERO;
    let mut rounds = 0u32;
    // A traced run needs a round of each kind whatever the budget says.
    let least = if traced { 2 } else { 1 };
    while rounds < least || start.elapsed() + round <= budget {
        tracer.set_enabled(traced && rounds.is_multiple_of(2));
        let round_start = Instant::now();
        for case in main {
            tally.verify(env, tracer, case)?;
        }
        round = round_start.elapsed();
        rounds += 1;
    }
    tracer.set_enabled(false);
    for case in side {
        tally.verify(env, tracer, case)?;
    }
    tracer.set_enabled(traced);
    let note = tail_note(PRIMARY, &tally.wall_ms(PRIMARY));
    tally.notes.push(note);
    Ok(())
}

/// The end-to-end metrics every cold workload reports, from its tally.
fn cold_end_to_end(tally: &ColdTally, setup: Measured) -> Metrics {
    // Each sample is one process's peak; the median over the 1-core
    // verifies, because the maximum over all processes is set by whichever
    // 2-core run happened to grow the most allocator arenas.
    let peak_mb: Vec<f64> = tally
        .samples
        .get(PRIMARY)
        .map(|s| s.rss_kb.iter().map(|&kb| kb as f64 / 1024.0).collect())
        .unwrap_or_default();
    let mut m = Metrics::new();
    m.insert("setup_s", setup);
    m.insert(
        "verdict_p50_ms",
        Measured::median_of(tally.wall_ms(PRIMARY)),
    );
    // What one caller gets from the whole machine: `--cores 2` verdicts per
    // second of their own time, back to back. One over the median, so that
    // one slow process among a handful does not set the rate.
    let two_core = Measured::median_of(tally.wall_ms(SECOND_CORE));
    let rate = |wall_ms: f64| 1e3 / wall_ms.max(f64::MIN_POSITIVE);
    m.insert(
        "ops_per_s",
        Measured {
            value: rate(two_core.value),
            n: two_core.n,
            q1: rate(two_core.q3),
            q3: rate(two_core.q1),
        },
    );
    m.insert("peak_rss_mb", Measured::median_of(peak_mb));
    m
}

/// Client-side per-layer metrics of a cold workload (traced runs).
fn cold_per_layer(tally: &ColdTally) -> Metrics {
    let seconds =
        |label: &str| Measured::median_of(tally.wall_ms(label).iter().map(|v| v / 1e3).collect());
    let mut m = Metrics::new();
    m.insert("client.verdict_s", seconds(PRIMARY));
    m.insert("client.verdict_2core_s", seconds(SECOND_CORE));
    m.insert("client.fail_verdict_s", seconds(SIDE));
    if let Some(s) = tally.samples.get(PRIMARY) {
        m.insert("cli.cpu_s", Measured::median_of(s.cpu_s.clone()));
        let mut states = s.states.clone();
        states.dedup();
        // An exact count: every sample of one input must agree.
        m.insert(
            "cli.states",
            Measured {
                n: s.states.len(),
                ..Measured::single(if states.len() == 1 {
                    states[0] as f64
                } else {
                    -1.0
                })
            },
        );
        m.insert(
            "bench.trace_overhead_share",
            overhead_share(s.wall_ms.iter().copied().zip(s.traced.iter().copied())),
        );
    }
    m
}

/// Run the timed phase and fold the tally into the workload's output.
fn cold_run(
    env: &Env,
    cfg: &RunConfig,
    tracer: &mut Tracer,
    setup: Measured,
    main: &[ColdCase],
    side: &[ColdCase],
    probe: ProbeInputs,
) -> Result<WorkloadOutput, String> {
    let mut tally = ColdTally::default();
    cold_timed_phase(env, cfg, tracer, &mut tally, main, side)?;
    Ok(WorkloadOutput {
        attempted: tally.attempted,
        failed: tally.failed,
        wrong_verdicts: tally.wrong,
        end_to_end: cold_end_to_end(&tally, setup),
        per_layer: cold_per_layer(&tally),
        notes: tally.notes,
        probe,
    })
}

pub fn cold_ospf_fattree(
    env: &Env,
    cfg: &RunConfig,
    tracer: &mut Tracer,
) -> Result<WorkloadOutput, String> {
    let k = cfg.sizes.ospf_k;
    let holds_path = env.tmp.join(format!("ospf_k{k}_matching.json"));
    let loops_path = env.tmp.join(format!("ospf_k{k}_looping.json"));
    let case = |holds| CliCase {
        args: gen::ospf_loop_args(),
        holds,
    };
    let main = [
        ColdCase::new(PRIMARY, &holds_path, &case(true), 1),
        ColdCase::new(SECOND_CORE, &holds_path, &case(true), 2),
    ];
    let side = [ColdCase::new(SIDE, &loops_path, &case(false), 1)];
    let ((network, network_json), setup) = repeat_setup(
        cfg.setups * COLD_SETUP_FACTOR,
        || {
            // `MatchingOspf` ⇒ loop freedom HOLDS, `Looping` ⇒ VIOLATED, both
            // by construction of the core static routes.
            let matching = fat_tree_ospf(k, CoreStaticRoutes::MatchingOspf);
            let looping = fat_tree_ospf(k, CoreStaticRoutes::Looping);
            let json = gen::network_json(&matching.network);
            write_file(&holds_path, &json)?;
            write_file(&loops_path, &gen::network_json(&looping.network))?;
            cold_warm_up(env, &side[0])?;
            Ok((matching.network, json))
        },
        drop,
    )?;
    let probe = ProbeInputs {
        generate: Box::new(move || fat_tree_ospf(k, CoreStaticRoutes::MatchingOspf).network),
        deltas: gen::generic_deltas(&network),
        network,
        network_json,
        question: Question::LoopFreedom { max_failures: 1 },
        request_lines: Vec::new(),
        response_lines: Vec::new(),
    };
    cold_run(env, cfg, tracer, setup, &main, &side, probe)
}

pub fn cold_bgp_dc(
    env: &Env,
    cfg: &RunConfig,
    tracer: &mut Tracer,
) -> Result<WorkloadOutput, String> {
    let k = cfg.sizes.bgp_k;
    let path = env.tmp.join(format!("bgp_k{k}.json"));
    let ((dc, network_json), setup) = repeat_setup(
        cfg.setups * COLD_SETUP_FACTOR,
        || {
            let dc = gen::bgp_dc(k);
            let json = gen::network_json(&dc.network);
            write_file(&path, &json)?;
            cold_warm_up(env, &ColdCase::new(SIDE, &path, &dc.holds, 1))?;
            Ok((dc, json))
        },
        drop,
    )?;
    let main = [
        ColdCase::new(PRIMARY, &path, &dc.violated, 1),
        ColdCase::new(SECOND_CORE, &path, &dc.violated, 2),
    ];
    let side = [ColdCase::new(SIDE, &path, &dc.holds, 1)];
    let probe = ProbeInputs {
        generate: Box::new(move || gen::bgp_dc(k).network),
        deltas: gen::generic_deltas(&dc.network),
        network: dc.network,
        network_json,
        question: Question::Waypoint { case: dc.violated },
        request_lines: Vec::new(),
        response_lines: Vec::new(),
    };
    cold_run(env, cfg, tracer, setup, &main, &side, probe)
}
