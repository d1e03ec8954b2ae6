//! The zero-cost-when-disabled guarantee, asserted with a counting global
//! allocator: with no sink installed, the event path must not allocate at
//! all. This lives in its own integration-test binary because the global
//! allocator and the global sink registry are process-wide.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use counting_alloc::allocations;
use plankton_telemetry::taskstats::TaskCosts;
use plankton_telemetry::trace::{self, Event, Field, Level, Sink};

struct CountingSink {
    seen: AtomicU64,
}

impl Sink for CountingSink {
    fn emit(&self, _event: &Event<'_>) {
        self.seen.fetch_add(1, Ordering::Relaxed);
    }
}

/// One test fn so the disabled-path assertion cannot race a test that
/// installs a sink: integration tests in one binary run in parallel threads
/// but share the global sink registry.
#[test]
fn disabled_event_path_does_not_allocate_and_sinks_see_events_once_installed() {
    // Phase 1: no sink installed. The full event path — enabled() gate,
    // field-slice literal, span create/drop — must be allocation-free.
    assert!(!trace::enabled(Level::Error));
    let fields = [
        Field::u64("tasks", 12),
        Field::str("kind", "verify"),
        Field::bool("cached", false),
    ];
    // Warm up any lazy thread-local init outside the measured window.
    trace::event(Level::Info, "warmup", &fields);
    let before = allocations();
    for _ in 0..1000 {
        trace::event(Level::Info, "request", &fields);
        trace::event(Level::Error, "boom", &[]);
        let span = trace::span(Level::Debug, "phase");
        drop(span);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled event path allocated {} times",
        after - before
    );

    // Phase 2: install a counting sink at Info; Info and above arrive,
    // Debug is filtered by the sink's level, and spans emit on drop.
    let sink = Arc::new(CountingSink {
        seen: AtomicU64::new(0),
    });
    trace::add_sink(Level::Info, sink.clone());
    assert!(trace::enabled(Level::Info));
    assert!(!trace::enabled(Level::Debug));

    trace::event(Level::Info, "request", &fields);
    trace::event(Level::Warn, "parse_error", &[Field::u64("byte_len", 9)]);
    trace::event(Level::Debug, "filtered", &[]);
    let span = trace::span(Level::Info, "phase");
    drop(span);
    assert_eq!(sink.seen.load(Ordering::Relaxed), 3);

    // Phase 3: clearing sinks restores the free path. With no recorder
    // installed (this binary never calls recorder::install_global), the
    // flight-recorder feature costs nothing here: the disabled event path is
    // byte-for-byte the same gate as before.
    trace::clear_sinks();
    assert!(plankton_telemetry::recorder::global().is_none());
    assert!(!trace::enabled(Level::Error));
    let before = allocations();
    trace::event(Level::Error, "gone", &fields);
    let after = allocations();
    assert_eq!(after - before, 0);
    assert_eq!(sink.seen.load(Ordering::Relaxed), 3);

    // Phase 4: task-cost attribution steady state. The first record of a key
    // allocates (entry + label); every later record of the same key is a
    // shard read-lock plus relaxed atomic adds — zero allocations.
    let costs = TaskCosts::new();
    costs.record_run(7, 42, 100, 10, || "f{3}".to_string());
    let before = allocations();
    for i in 0..1000 {
        costs.record_run(7, 42, i, 1, || unreachable!("label rebuilt"));
        costs.record_cache_hit(7, 42, || unreachable!("label rebuilt"));
    }
    let (runs, total, _max) = costs.totals(7, 42);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state attribution allocated {} times",
        after - before
    );
    assert_eq!(runs, 1001);
    assert_eq!(total, 100 + (0..1000).sum::<u64>());
}
