//! The CI bench-regression gate: diff a freshly measured checker benchmark
//! JSON against the committed baseline and fail loudly when a speedup
//! regressed.
//!
//! A scenario fails when its measured `speedup` falls below
//! `baseline × min_ratio` (default 0.7; speedups are ratios of two wall
//! clocks on the same machine, so they transfer across runner hardware far
//! better than absolute seconds). A scenario present in the baseline but
//! missing from the current run also fails the gate: silently dropping a
//! measurement reads as "still fast".

use crate::figures::CheckerBenchPoint;

/// One comparable benchmark entry.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Stable label used to match baseline and current points.
    pub label: String,
    /// The measured speedup.
    pub speedup: f64,
}

/// Parse a checker benchmark JSON file into comparable entries.
pub fn parse_entries(json: &str) -> Result<Vec<Entry>, String> {
    let points = serde_json::from_str::<Vec<CheckerBenchPoint>>(json)
        .map_err(|e| format!("not a list of checker benchmark points: {e}"))?;
    Ok(points
        .iter()
        .map(|p| Entry {
            label: p.scenario.clone(),
            speedup: p.speedup,
        })
        .collect())
}

/// The gate's verdict: every check performed plus every failure found.
#[derive(Clone, Debug, Default)]
pub struct GateOutcome {
    /// Human-readable lines for checks that passed.
    pub checked: Vec<String>,
    /// Human-readable failure lines; non-empty means the gate fails.
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// Did the gate pass?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare `current` against `baseline`. `min_ratio` is the fraction of the
/// baseline speedup a scenario must retain.
pub fn compare(baseline: &[Entry], current: &[Entry], min_ratio: f64) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    for base in baseline {
        let Some(cur) = current.iter().find(|c| c.label == base.label) else {
            outcome.failures.push(format!(
                "{}: present in the baseline but missing from the current run",
                base.label
            ));
            continue;
        };
        let floor = base.speedup * min_ratio;
        if cur.speedup < floor {
            outcome.failures.push(format!(
                "{}: speedup {:.2}x fell below {:.2}x (baseline {:.2}x × {min_ratio})",
                cur.label, cur.speedup, floor, base.speedup
            ));
        } else {
            outcome.checked.push(format!(
                "{}: speedup {:.2}x ≥ {:.2}x floor (baseline {:.2}x)",
                cur.label, cur.speedup, floor, base.speedup
            ));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, speedup: f64) -> Entry {
        Entry {
            label: label.into(),
            speedup,
        }
    }

    #[test]
    fn matching_run_passes() {
        let base = vec![entry("a", 5.0), entry("b", 2.8)];
        let cur = vec![entry("a", 4.6), entry("b", 2.2)];
        let out = compare(&base, &cur, 0.7);
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.checked.len(), 2);
    }

    #[test]
    fn doctored_speedup_regression_fails() {
        let base = vec![entry("a", 5.0)];
        let cur = vec![entry("a", 3.0)];
        let out = compare(&base, &cur, 0.7);
        assert!(!out.passed());
        assert!(out.failures[0].contains("fell below"));
    }

    #[test]
    fn missing_scenario_fails() {
        let base = vec![entry("a", 5.0)];
        let out = compare(&base, &[], 0.7);
        assert!(!out.passed());
        assert!(out.failures[0].contains("missing"));
    }

    #[test]
    fn new_scenarios_in_current_are_tolerated() {
        let base = vec![entry("a", 5.0)];
        let cur = vec![entry("a", 5.0), entry("new", 1.0)];
        assert!(compare(&base, &cur, 0.7).passed());
    }

    #[test]
    fn json_shapes_round_trip() {
        let checker = r#"[{"scenario":"fat tree k=6 reachability","steps":100,
            "reference_seconds":1.0,"incremental_seconds":0.4,
            "reference_steps_per_sec":100.0,"incremental_steps_per_sec":250.0,
            "speedup":2.5,"enabled_recomputed_nodes":7,"undo_depth_max":3}]"#;
        let entries = parse_entries(checker).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].label, "fat tree k=6 reachability");
        assert_eq!(entries[0].speedup, 2.5);

        assert!(parse_entries("[{\"nope\":1}]").is_err());
    }
}
