//! Sample statistics: median, quartiles, the highest percentile a sample
//! supports, and open-loop due-time accounting.

use std::time::{Duration, Instant};

/// Rank of the `q`-quantile in a sorted sample of `n` (nearest rank, 0-based).
pub fn percentile_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    (((n as f64) * q).ceil() as usize).clamp(1, n) - 1
}

/// A sorted sample.
#[derive(Clone, Debug, Default)]
pub struct Sample(Vec<f64>);

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        Sample(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile; 0 for an empty sample (a workload that never
    /// exercises the metric reports 0, see the README).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0[percentile_index(self.0.len(), q)]
    }

    /// The median, interpolated between the two middle values for even `n`.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.0[n / 2],
            _ => (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0,
        }
    }

    pub fn quartiles(&self) -> (f64, f64) {
        (self.quantile(0.25), self.quantile(0.75))
    }

    /// The highest of p50 / p90 / p99 / p99.9 with at least ten samples
    /// beyond it, as `(label, value)`; `None` under 20 samples, where not
    /// even the median has ten on each side.
    pub fn highest_supported(&self) -> Option<(&'static str, f64)> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        [
            ("p99.9", 0.999),
            ("p99", 0.99),
            ("p90", 0.90),
            ("p50", 0.50),
        ]
        .into_iter()
        .find(|&(_, q)| n - 1 - percentile_index(n, q) >= 10)
        .map(|(label, q)| (label, self.quantile(q)))
    }
}

/// `a / b` with its base spelled out, for printing: every ratio carries its base.
pub fn ratio_with_base(a: f64, b: f64, base: &str) -> String {
    if b == 0.0 {
        return format!("n/a (base {base} = 0)");
    }
    format!("{:.3} (base {base} = {b:.4})", a / b)
}

/// Completed work per second in each whole `window_s` window of a phase that
/// lasted `total_s`: `events` are `(seconds into the phase, units done)`.
/// A phase shorter than one window is one window of its own length.
pub fn windowed_rates(events: &[(f64, u64)], window_s: f64, total_s: f64) -> Vec<f64> {
    let windows = (total_s / window_s).floor() as usize;
    if windows == 0 {
        let units: u64 = events.iter().map(|e| e.1).sum();
        return vec![units as f64 / total_s.max(f64::MIN_POSITIVE)];
    }
    let mut per_window = vec![0u64; windows];
    for &(at, units) in events {
        let w = (at / window_s) as usize;
        if w < windows {
            per_window[w] += units;
        }
    }
    per_window.iter().map(|&u| u as f64 / window_s).collect()
}

/// An open-loop schedule: op `i` is due at `start + i * period`, whether or
/// not earlier ops have finished. Latency is counted from the due time, so a
/// stall is charged to every op it delays, and how late the generator itself
/// ran is kept apart.
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    issued: u32,
    /// Per op: due → response, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per op: due → actually sent, milliseconds.
    pub late_ms: Vec<f64>,
}

impl OpenLoop {
    pub fn new(start: Instant, period: Duration) -> Self {
        OpenLoop {
            start,
            period,
            issued: 0,
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
        }
    }

    /// When the next op is due.
    pub fn next_due(&self) -> Instant {
        self.start + self.period * self.issued
    }

    /// Sleep until the next op is due (returns at once when already late)
    /// and claim it; returns its due time.
    pub fn wait_next(&mut self) -> Instant {
        let due = self.next_due();
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        self.issued += 1;
        due
    }

    /// Record an op that was due at `due`, sent at `sent` and answered at `done`.
    pub fn record(&mut self, due: Instant, sent: Instant, done: Instant) {
        self.late_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        self.latency_ms
            .push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        let s = Sample::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quartiles(), (2.0, 4.0));
        assert_eq!(Sample::new(vec![1.0, 2.0, 3.0, 4.0]).median(), 2.5);
        assert_eq!(Sample::new(vec![]).median(), 0.0);
    }

    #[test]
    fn nearest_rank() {
        assert_eq!(percentile_index(10, 0.5), 4);
        assert_eq!(percentile_index(10, 0.9), 8);
        assert_eq!(percentile_index(100, 0.99), 98);
        assert_eq!(percentile_index(1, 0.99), 0);
    }

    #[test]
    fn highest_supported_needs_ten_beyond() {
        let of = |n: usize| Sample::new((0..n).map(|i| i as f64).collect()).highest_supported();
        assert_eq!(of(0), None);
        assert_eq!(of(19), None);
        assert_eq!(of(21).map(|(l, _)| l), Some("p50"));
        assert_eq!(of(110).map(|(l, _)| l), Some("p90"));
        assert_eq!(of(1100).map(|(l, _)| l), Some("p99"));
        assert_eq!(of(11_000).map(|(l, _)| l), Some("p99.9"));
        // 110 samples: p90 is rank 99 (0-based 98), 11 samples beyond it.
        assert_eq!(of(110).map(|(_, v)| v), Some(98.0));
    }

    #[test]
    fn windowed_rates_ignore_the_ragged_tail() {
        let events = [(0.1, 10), (0.2, 10), (0.6, 30), (1.05, 99)];
        // Two whole half-second windows in 1.1 s; the event at 1.05 s falls
        // in the ragged tail and is dropped.
        assert_eq!(windowed_rates(&events, 0.5, 1.1), vec![40.0, 60.0]);
        assert_eq!(windowed_rates(&events[..2], 0.5, 0.25), vec![80.0]);
    }

    #[test]
    fn ratio_carries_its_base() {
        let s = ratio_with_base(3.0, 2.0, "verdict_s at 1 core");
        assert!(s.starts_with("1.500"), "{s}");
        assert!(s.contains("verdict_s at 1 core = 2.0000"), "{s}");
        assert!(ratio_with_base(1.0, 0.0, "x").contains("n/a"));
    }

    #[test]
    fn open_loop_counts_from_due_time() {
        let start = Instant::now();
        let mut ol = OpenLoop::new(start, Duration::from_millis(10));
        assert_eq!(ol.next_due(), start);
        let due0 = ol.wait_next();
        assert_eq!(due0, start);
        assert_eq!(ol.next_due(), start + Duration::from_millis(10));
        // An op due at 0 ms, sent 4 ms late, answered at 9 ms: latency is 9,
        // not 5, and the generator's lateness is reported apart.
        ol.record(
            due0,
            start + Duration::from_millis(4),
            start + Duration::from_millis(9),
        );
        assert!((ol.late_ms[0] - 4.0).abs() < 1e-9);
        assert!((ol.latency_ms[0] - 9.0).abs() < 1e-9);
        // The second op is due at 10 ms regardless of how long the first took.
        let due1 = ol.wait_next();
        assert_eq!(due1, start + Duration::from_millis(10));
        assert!(Instant::now() >= due1);
    }
}
