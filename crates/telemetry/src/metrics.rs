//! The metrics registry: named counter/gauge/histogram families with
//! optional labels, rendered as Prometheus-style text exposition.
//!
//! Two kinds of registry exist in a running daemon. The process-global one
//! ([`global`]) holds what verification runs count — checker, engine,
//! incremental core and key derivation — wherever they run. Each service
//! session owns another for its own counts (requests, connections, its
//! streaming queue and its result cache): its `Stats` reply reads those
//! instruments, and its `Metrics` reply renders the global registry followed
//! by its own. Each count has exactly one instrument.
//!
//! Instruments are handed out as `Arc`s; call sites on hot paths keep the
//! handle (in a `OnceLock` for the global registry, in a per-instance
//! struct for a session's) so steady-state updates are single atomic
//! operations with no registry lock. Histograms use one fixed log-scale
//! bucket ladder ([`BUCKET_BOUNDS`], powers of four) — latency metrics
//! observe **microseconds** and declare [`Unit::Micros`] so the exposition
//! renders bucket bounds and sums in seconds, per Prometheus convention.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (or track a high-water mark).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrement by `n` (saturating at zero).
    pub fn sub(&self, n: u64) {
        let mut current = self.value.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(n);
            match self.value.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Raise the value to at least `v` (high-water mark).
    pub fn record_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Histogram bucket upper bounds: powers of four, 1 through 4^13
/// (for [`Unit::Micros`] observations that is 1 µs up to ~67 s, which
/// brackets everything from one cache peek to a cold AS-scale verify).
/// A final implicit `+Inf` bucket catches the rest.
pub const BUCKET_BOUNDS: [u64; 14] = [
    1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
    67_108_864,
];

/// What a histogram's raw `u64` observations mean, for exposition rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Observations are microseconds; render bounds and sums as seconds.
    Micros,
    /// Observations are plain numbers; render them as-is.
    None,
}

/// A fixed-bucket histogram (non-cumulative buckets internally; the
/// exposition renders the Prometheus cumulative form).
#[derive(Debug)]
pub struct Histogram {
    /// One slot per bound plus the +Inf overflow slot.
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation. A value exactly on a bucket bound counts into
    /// that bound's bucket (`le` is inclusive).
    pub fn observe(&self, value: u64) {
        let idx = BUCKET_BOUNDS.partition_point(|&bound| bound < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (in the histogram's raw unit).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Cumulative count of observations `<=` each bound, then the total
    /// (the `+Inf` entry) — the shape the exposition renders.
    pub fn cumulative(&self) -> [u64; BUCKET_BOUNDS.len() + 1] {
        let mut out = [0u64; BUCKET_BOUNDS.len() + 1];
        let mut running = 0;
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            running += bucket.load(Ordering::Relaxed);
            *slot = running;
        }
        out
    }
}

/// One registered instrument.
#[derive(Clone, Debug)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A metric family: one name/help/type, any number of labelled series.
#[derive(Debug)]
struct Family {
    help: &'static str,
    unit: Unit,
    /// Rendered label set (e.g. `kind="verify"`) → instrument. The empty
    /// string is the unlabelled series.
    series: BTreeMap<String, Instrument>,
}

/// A registry of metric families. One process-global instance ([`global`])
/// serves what verification runs count; each service session owns one for
/// its own counts, and objects built outside a session (a one-shot CLI
/// cache, a benchmark's queue) count in a private one. Asking for a name
/// twice returns the same instrument, so an object rebuilt in the same
/// registry continues its predecessor's counts.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

/// The process-global registry verification runs register into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

/// Render a label set deterministically: keys in the order given (callers
/// use a fixed order per metric; series of one family should agree).
fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An unlabelled counter (registered on first use).
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// A labelled counter series.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        match self.instrument(name, help, Unit::None, labels, || {
            Instrument::Counter(Arc::new(Counter::default()))
        }) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.type_name()),
        }
    }

    /// An unlabelled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// A labelled gauge series.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        match self.instrument(name, help, Unit::None, labels, || {
            Instrument::Gauge(Arc::new(Gauge::default()))
        }) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.type_name()),
        }
    }

    /// An unlabelled histogram observing values in `unit`.
    pub fn histogram(&self, name: &'static str, help: &'static str, unit: Unit) -> Arc<Histogram> {
        self.histogram_with(name, help, unit, &[])
    }

    /// A labelled histogram series.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        unit: Unit,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.instrument(name, help, unit, labels, || {
            Instrument::Histogram(Arc::new(Histogram::default()))
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.type_name()),
        }
    }

    fn instrument(
        &self,
        name: &'static str,
        help: &'static str,
        unit: Unit,
        labels: &[(&str, &str)],
        create: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            unit,
            series: BTreeMap::new(),
        });
        family
            .series
            .entry(render_labels(labels))
            .or_insert_with(create)
            .clone()
    }

    /// Render the whole registry as Prometheus text exposition. Families and
    /// series are ordered lexicographically, so equal contents render
    /// byte-identically regardless of registration order.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let type_name = family
                .series
                .values()
                .next()
                .map(Instrument::type_name)
                .unwrap_or("untyped");
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {type_name}");
            for (labels, instrument) in family.series.iter() {
                match instrument {
                    Instrument::Counter(c) => render_scalar(&mut out, name, labels, c.get()),
                    Instrument::Gauge(g) => render_scalar(&mut out, name, labels, g.get()),
                    Instrument::Histogram(h) => {
                        render_histogram(&mut out, name, labels, h, family.unit)
                    }
                }
            }
        }
        out
    }
}

fn render_scalar(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Render one bound in the family's unit: seconds (`0.000256`) for
/// [`Unit::Micros`], the raw integer otherwise.
fn render_bound(unit: Unit, bound: u64) -> String {
    match unit {
        Unit::Micros => format!("{}", bound as f64 / 1e6),
        Unit::None => format!("{bound}"),
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram, unit: Unit) {
    let sep = if labels.is_empty() { "" } else { "," };
    let cumulative = h.cumulative();
    for (i, &bound) in BUCKET_BOUNDS.iter().enumerate() {
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {}",
            render_bound(unit, bound),
            cumulative[i]
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        cumulative[BUCKET_BOUNDS.len()]
    );
    let sum = match unit {
        Unit::Micros => format!("{:.6}", h.sum() as f64 / 1e6),
        Unit::None => format!("{}", h.sum()),
    };
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {sum}");
        let _ = writeln!(out, "{name}_count {}", h.count());
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {sum}");
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_accumulate() {
        let registry = Registry::new();
        let a = registry.counter("plankton_test_total", "help");
        let b = registry.counter("plankton_test_total", "help");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4, "both handles alias one instrument");
        let g = registry.gauge("plankton_test_gauge", "help");
        g.set(10);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 8);
        g.sub(100);
        assert_eq!(g.get(), 0, "gauges saturate at zero");
        g.record_max(5);
        g.record_max(2);
        assert_eq!(g.get(), 5, "record_max keeps the high-water mark");
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let h = Histogram::default();
        // A value exactly on a bound lands in that bound's bucket: after
        // observing 16, the cumulative count at le=16 includes it, and the
        // cumulative count at le=4 does not.
        h.observe(16);
        let cumulative = h.cumulative();
        let le4 = BUCKET_BOUNDS.iter().position(|&b| b == 4).unwrap();
        let le16 = BUCKET_BOUNDS.iter().position(|&b| b == 16).unwrap();
        assert_eq!(cumulative[le4], 0);
        assert_eq!(cumulative[le16], 1);
        // One past the bound spills into the next bucket.
        h.observe(17);
        let cumulative = h.cumulative();
        assert_eq!(cumulative[le16], 1);
        assert_eq!(cumulative[le16 + 1], 2);
        // Zero lands in the very first bucket; a huge value in +Inf only.
        h.observe(0);
        h.observe(u64::MAX);
        let cumulative = h.cumulative();
        assert_eq!(cumulative[0], 1);
        assert_eq!(cumulative[BUCKET_BOUNDS.len() - 1], 3);
        assert_eq!(cumulative[BUCKET_BOUNDS.len()], 4);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn exposition_is_deterministic_across_registration_order() {
        let render = |reversed: bool| {
            let registry = Registry::new();
            let names: &[(&str, &str)] = &[("kind", "verify"), ("kind", "apply_delta")];
            let order: Vec<_> = if reversed {
                names.iter().rev().collect()
            } else {
                names.iter().collect()
            };
            for (k, v) in order {
                registry
                    .counter_with("plankton_b_total", "b", &[(k, v)])
                    .inc();
            }
            registry.counter("plankton_a_total", "a").add(2);
            registry.render()
        };
        let forward = render(false);
        let backward = render(true);
        assert_eq!(forward, backward, "series order must not leak into output");
        // Families sorted by name, series by label value.
        let a_pos = forward.find("plankton_a_total 2").unwrap();
        let b_delta = forward
            .find("plankton_b_total{kind=\"apply_delta\"} 1")
            .unwrap();
        let b_verify = forward.find("plankton_b_total{kind=\"verify\"} 1").unwrap();
        assert!(a_pos < b_delta && b_delta < b_verify, "{forward}");
        assert!(forward.contains("# TYPE plankton_b_total counter"));
    }

    #[test]
    fn histogram_exposition_renders_micros_as_seconds() {
        let registry = Registry::new();
        let h = registry.histogram_with(
            "plankton_request_seconds",
            "latency",
            Unit::Micros,
            &[("kind", "verify")],
        );
        h.observe(256); // 256 µs, exactly on a bound
        h.observe(1_500_000); // 1.5 s
        let text = registry.render();
        assert!(
            text.contains("plankton_request_seconds_bucket{kind=\"verify\",le=\"0.000256\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("plankton_request_seconds_bucket{kind=\"verify\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("plankton_request_seconds_sum{kind=\"verify\"} 1.500256"),
            "{text}"
        );
        assert!(
            text.contains("plankton_request_seconds_count{kind=\"verify\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn plain_unit_histogram_renders_integer_bounds() {
        let registry = Registry::new();
        let h = registry.histogram("plankton_depth", "depth", Unit::None);
        h.observe(5);
        let text = registry.render();
        assert!(
            text.contains("plankton_depth_bucket{le=\"16\"} 1"),
            "{text}"
        );
        assert!(text.contains("plankton_depth_sum 5"), "{text}");
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("plankton_mismatch", "help");
        registry.gauge("plankton_mismatch", "help");
    }
}
