//! The zero-cost-when-disabled guarantee for failpoint hooks, asserted with
//! the shared counting global allocator (`tests/support/counting_alloc.rs`):
//! a disarmed `trigger` / `trigger_keyed` must not allocate — it is one
//! relaxed atomic load. This is what lets failpoints sit inside the per-task
//! and per-write hot paths without moving the committed bench gates.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use plankton_faultinject as fp;

/// One test fn so the disarmed-path assertion cannot race an arming test:
/// the failpoint table is process-global and integration tests in one
/// binary run in parallel threads.
#[test]
fn disarmed_triggers_do_not_allocate_and_armed_points_fire() {
    // Phase 1: nothing armed. The full hook path must be allocation-free.
    fp::clear();
    assert!(!fp::armed());
    let before = allocations();
    for i in 0..1000 {
        fp::trigger("cache_save").unwrap();
        fp::trigger("write").unwrap();
        fp::trigger_keyed("task", "pec", i).unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disarmed failpoint path allocated {} times",
        after - before
    );

    // Phase 2: arming flips the gate and the named point fires.
    fp::configure("cache_save=io_err*1").unwrap();
    assert!(fp::armed());
    assert!(fp::trigger("cache_save").is_err());
    assert!(fp::trigger("cache_save").is_ok(), "budget of 1 exhausted");

    // Phase 3: clearing restores the free path.
    fp::clear();
    let before = allocations();
    for _ in 0..1000 {
        fp::trigger("cache_save").unwrap();
    }
    let after = allocations();
    assert_eq!(after - before, 0);
}
