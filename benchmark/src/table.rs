//! `BENCHMARK.json` is the one table of workloads, metric names, units,
//! directions and bounds. The harness loads it at start and holds every pass
//! against it: a name the harness emits but the table does not list, or an
//! end-to-end name the table lists but a pass did not emit, fails the run.

use serde::Deserialize;

#[derive(Clone, Debug, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen.
    #[serde(default)]
    pub bound: f64,
}

#[derive(Clone, Debug, Deserialize)]
pub struct Workload {
    pub name: String,
}

#[derive(Clone, Debug, Deserialize)]
pub struct Table {
    /// The timed length of one full run.
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Letters, digits, `_`, `.`, `-`; starts with a letter or digit; at most 64.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Table {
    /// Read `BENCHMARK.json` from the current directory (the repository
    /// root) and check it against the workloads the harness implements.
    pub fn load(implemented: &[&str]) -> Result<Table, String> {
        let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
            format!("cannot read BENCHMARK.json (run from the repository root): {e}")
        })?;
        Table::parse(&text, implemented)
    }

    fn parse(text: &str, implemented: &[&str]) -> Result<Table, String> {
        let table: Table = serde_json::from_str(text)
            .map_err(|e| format!("BENCHMARK.json does not parse: {e}"))?;
        let listed: Vec<&str> = table.workloads.iter().map(|w| w.name.as_str()).collect();
        if listed != implemented {
            return Err(format!(
                "BENCHMARK.json lists workloads {listed:?}, the harness implements {implemented:?}"
            ));
        }
        let mut names: Vec<&str> = table.metrics().map(|m| m.name.as_str()).collect();
        if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
            return Err(format!(
                "BENCHMARK.json: metric name {bad:?} has characters outside letters, digits, _ . -"
            ));
        }
        if let Some(m) = table
            .metrics()
            .find(|m| m.better != "lower" && m.better != "higher")
        {
            return Err(format!(
                "BENCHMARK.json: {}: better is {:?}, not lower or higher",
                m.name, m.better
            ));
        }
        names.sort_unstable();
        if let Some(pair) = names.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!(
                "BENCHMARK.json: metric name {:?} is used twice",
                pair[0]
            ));
        }
        Ok(table)
    }

    fn metrics(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    /// The names a pass must emit: the end-to-end list, or the per-layer list
    /// for a traced pass.
    pub fn names(&self, traced: bool) -> impl Iterator<Item = &str> {
        let list = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        list.iter().map(|m| m.name.as_str())
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"command": ["x"], "paths": ["p"], "run_seconds": 20,
        "workloads": [{"name": "a", "why": "x"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "pec.compute_us", "unit": "us", "better": "lower"}]}"#;

    #[test]
    fn loads_the_contract_schema() {
        let table = Table::parse(DOC, &["a"]).expect("parses");
        assert_eq!(table.run_seconds, 20);
        assert_eq!(table.names(false).collect::<Vec<_>>(), ["setup_s"]);
        assert_eq!(table.names(true).collect::<Vec<_>>(), ["pec.compute_us"]);
        let setup = table.metric("setup_s").expect("listed");
        assert_eq!((setup.unit.as_str(), setup.bound), ("s", 0.25));
        assert_eq!(table.metric("pec.compute_us").expect("listed").bound, 0.0);
        assert!(table.metric("nope").is_none());
    }

    #[test]
    fn refuses_other_workloads_bad_names_and_duplicates() {
        assert!(Table::parse(DOC, &["b"])
            .unwrap_err()
            .contains("lists workloads"));
        for (bad, what) in [
            ("p99,9", "characters"),
            ("_x", "characters"),
            ("setup_s", "twice"),
        ] {
            let doc = DOC.replace("pec.compute_us", bad);
            let err = Table::parse(&doc, &["a"]).unwrap_err();
            assert!(err.contains(what), "{bad}: {err}");
        }
        let doc = DOC.replace(r#""us", "better": "lower""#, r#""us", "better": "faster""#);
        assert!(Table::parse(&doc, &["a"])
            .unwrap_err()
            .contains("not lower or higher"));
        assert!(valid_name("checker.steps_per_s") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn the_committed_table_loads() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json is at the repository root");
        let table = Table::parse(&text, &crate::workloads::WORKLOADS).expect("valid");
        assert!(table
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(table
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}
