//! The clock table's bound and second-chance eviction order.

use plankton_config::clock::{ClockTable, DEFAULT_CAPACITY, SHARDS};

/// Keys that all land in one shard (multiples of SHARDS keep the low
/// bits equal), so the per-shard bound is observable.
fn shard_key(i: u64) -> u64 {
    i * SHARDS as u64
}

fn resident(table: &ClockTable<u64>) -> Vec<u64> {
    table.entries().iter().map(|e| e.0).collect()
}

#[test]
fn the_bound_evicts_unreferenced_entries_in_clock_order() {
    // Two entries per shard, all keys in one shard.
    let table = ClockTable::with_capacity(SHARDS * 2);
    assert_eq!(
        table.insert(shard_key(0), 0).map(|s| s.evicted),
        Some(false)
    );
    table.insert(shard_key(1), 1);
    assert_eq!(table.insert(shard_key(2), 2).map(|s| s.evicted), Some(true));
    assert_eq!(
        table.get(shard_key(1)),
        Some(1),
        "key 1 resident, now marked"
    );
    // The hand stands on key 1: its mark buys it one pass, key 2 goes.
    table.insert(shard_key(3), 3);
    assert_eq!(table.len(), 2);
    // The mark is spent: key 1 is the next victim.
    table.insert(shard_key(4), 4);
    assert_eq!(resident(&table), vec![shard_key(3), shard_key(4)]);
}

#[test]
fn reinserting_a_resident_key_neither_evicts_nor_marks() {
    let table = ClockTable::with_capacity(SHARDS * 2);
    table.insert(shard_key(0), 0);
    table.insert(shard_key(1), 1);
    // Shard full; re-inserting a resident key must not evict anything,
    // nor replace its value.
    assert_eq!(table.insert(shard_key(0), 7), None);
    assert_eq!(table.len(), 2);
    // Nor does it count as a use: key 0 is still the first victim.
    assert!(table.insert(shard_key(2), 2).unwrap().evicted);
    assert_eq!(resident(&table), vec![shard_key(2), shard_key(1)]);
    assert_eq!(table.get(shard_key(1)), Some(1));
}

#[test]
fn a_hot_key_survives_ten_capacities_of_cold_inserts() {
    let capacity = SHARDS * 8;
    let table = ClockTable::with_capacity(capacity);
    let hot = shard_key(0);
    table.insert(hot, 0);
    let mut evictions = 0;
    for i in 1..=10 * capacity as u64 {
        // The hot key is looked up twice per lap of its shard's clock
        // (eight slots).
        if i % 4 == 0 {
            assert!(
                table.get(hot).is_some(),
                "hot key evicted after {i} cold inserts"
            );
        }
        evictions += table.insert(shard_key(i), i).unwrap().evicted as usize;
    }
    assert!(evictions >= 9 * capacity);
}

#[test]
fn never_reused_keys_do_not_grow_the_table_past_its_bound() {
    let table = ClockTable::with_capacity(64);
    let mut key = 0u64;
    let mut evictions = 0;
    for _pass in 0..100 {
        for _ in 0..40 {
            // A fresh key per lookup, spread over the shards.
            key += 1;
            let stored = table.insert(key.wrapping_mul(0x9E37_79B9_7F4A_7C15), key);
            evictions += stored.unwrap().evicted as usize;
            assert!(table.len() <= table.capacity());
        }
    }
    assert_eq!(table.capacity(), 64);
    assert!(evictions >= 4000 - 64);
}

#[test]
fn the_default_bound_follows_the_largest_pass() {
    let table = ClockTable::<u64>::new();
    assert_eq!(table.capacity(), DEFAULT_CAPACITY);
    assert!(!table.fit_pass(100), "a floor");
    assert_eq!(table.capacity(), DEFAULT_CAPACITY);
    assert!(table.fit_pass(10_000));
    assert_eq!(table.capacity(), 40_000);
    assert!(!table.fit_pass(5_000));
    assert_eq!(table.capacity(), 40_000, "never lowered");
    // An explicit bound is kept, whatever passes come by.
    let fixed = ClockTable::<u64>::with_capacity(32);
    assert!(!fixed.fit_pass(10_000));
    assert_eq!(fixed.capacity(), 32);
}
