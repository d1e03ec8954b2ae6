//! Streaming update-storm tests for the delta queue and bounded-lag drain.
//!
//! The contract under test: a storm of deltas ingested through
//! `ApplyDeltas {ack: "enqueued"}` — queued, coalesced, and verified in
//! batches by the background drain — must leave the session in a state
//! whose final merged report is *byte-identical* to a session that replayed
//! the same deltas one at a time through `ApplyDelta`. Coalescing and
//! batching are pure performance transforms; they must never change what
//! the verifier concludes.

use plankton::config::scenarios::{ring_ospf, RingOspfScenario};
use plankton::config::static_routes::StaticRoute;
use plankton::config::ConfigDelta;
use plankton::service::{
    PolicySpec, Request, Response, ServeOptions, ServiceSession, VerifyOptions,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic xorshift64* PRNG: storms must be reproducible from a seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// A seeded storm over a ring: link flaps, OSPF cost churn, and static
/// route add/remove, all concentrated on a handful of targets so that
/// coalescing has real work to do.
fn storm_deltas(s: &RingOspfScenario, seed: u64, count: usize) -> Vec<ConfigDelta> {
    let mut rng = XorShift(seed | 1);
    let mut deltas = Vec::with_capacity(count);
    for _ in 0..count {
        let r = rng.next();
        let slot = (r >> 8) as usize % 3;
        deltas.push(match r % 5 {
            0 => ConfigDelta::LinkDown {
                link: s.ring.links[slot],
            },
            1 => ConfigDelta::LinkUp {
                link: s.ring.links[slot],
            },
            2 => ConfigDelta::OspfCostChange {
                device: s.ring.routers[slot],
                link: s.ring.links[slot],
                cost: 1 + ((r >> 16) % 100) as u32,
            },
            3 => ConfigDelta::StaticRouteAdd {
                device: s.ring.routers[slot],
                route: StaticRoute::null(s.destination).with_distance(1 + ((r >> 16) % 200) as u8),
            },
            _ => ConfigDelta::StaticRouteRemove {
                device: s.ring.routers[slot],
                prefix: s.destination,
            },
        });
    }
    deltas
}

fn verify_request(s: &RingOspfScenario) -> Request {
    Request::Verify {
        policy: PolicySpec::LoopFreedom,
        options: Some(VerifyOptions {
            restrict_prefixes: vec![s.destination],
            ..VerifyOptions::default()
        }),
    }
}

/// Run the final verify and return the full merged report's normalized
/// JSON — the byte-identity oracle.
fn final_report_bytes(session: &ServiceSession, verify: &Request) -> String {
    let Response::Report(summary) = session.handle(verify) else {
        panic!("final verify did not produce a report");
    };
    session
        .last_report(&summary.policy)
        .expect("verified policy must have a stored report")
        .normalized_json()
}

/// The tentpole equivalence test: a coalesced, bounded-lag streaming run
/// must end byte-identical to sequential one-at-a-time replay.
#[test]
fn seeded_storm_streaming_report_is_byte_identical_to_sequential_replay() {
    let s = ring_ospf(6);
    let deltas = storm_deltas(&s, 0x5EED_CAFE, 120);
    let verify = verify_request(&s);

    // Sequential oracle: every delta applied (and verified-for-effect) one
    // at a time. Deltas that are no-ops against the current state (e.g.
    // downing an already-down link) answer with an Error and leave the
    // network unchanged — exactly what the batch path must reproduce.
    let sequential = ServiceSession::with_network(s.network.clone());
    for delta in &deltas {
        match sequential.handle(&Request::ApplyDelta {
            delta: delta.clone(),
        }) {
            Response::DeltaApplied(_) | Response::Error { .. } => {}
            other => panic!("unexpected sequential response {other:?}"),
        }
    }
    let sequential_bytes = final_report_bytes(&sequential, &verify);

    // Streaming run: tight lag bounds so the storm drains in many small
    // coalesced batches while we are still enqueuing.
    let streaming = Arc::new(ServiceSession::new().with_options(ServeOptions {
        max_lag_deltas: 8,
        max_lag_ms: 5,
        ..ServeOptions::default()
    }));
    let Response::Loaded { .. } = streaming.load(s.network.clone()) else {
        panic!("load failed");
    };
    let handle = streaming.start_streaming();
    for burst in deltas.chunks(7) {
        let response = streaming.handle(&Request::ApplyDeltas {
            deltas: burst.to_vec(),
            ack: "enqueued".into(),
        });
        let Response::DeltasAccepted {
            ack, deltas: acks, ..
        } = &response
        else {
            panic!("burst not accepted: {response:?}");
        };
        assert_eq!(ack, "enqueued");
        assert_eq!(acks.len(), burst.len(), "one ack per submitted delta");
        for a in acks {
            assert!(
                a.status == "enqueued" || a.status == "coalesced",
                "unexpected enqueue-mode ack status {:?}",
                a.status
            );
        }
        // Pace the storm past the 5 ms age bound so the drain verifiably
        // runs *during* ingestion, not once at the end.
        std::thread::sleep(Duration::from_millis(3));
    }
    // Stop the drain: this flushes everything still pending, so the final
    // verify below sees the complete storm.
    handle.stop();

    let stats = streaming.stats();
    assert_eq!(stats.queue_depth, 0, "stop() must drain the queue");
    assert_eq!(stats.deltas_enqueued, 120);
    assert!(
        stats.deltas_coalesced > 0,
        "a 120-delta storm over 3 targets must coalesce: {stats:?}"
    );
    assert!(
        stats.delta_batches > 1,
        "tight lag bounds must produce multiple drain batches: {stats:?}"
    );
    assert!(
        stats.deltas_applied < 120,
        "coalescing must save apply work: {} applied",
        stats.deltas_applied
    );

    let streaming_bytes = final_report_bytes(&streaming, &verify);
    assert_eq!(
        streaming_bytes, sequential_bytes,
        "coalesced streaming ingestion changed the verification outcome"
    );
}

/// Per-connection program order across the two delta paths: a v1
/// `ApplyDelta` sent after an enqueue-acked delta must land after it. Both
/// write the same directional cost, so the order decides the final network.
#[test]
fn v1_apply_delta_lands_after_deltas_enqueued_before_it() {
    let s = ring_ospf(6);
    let cost_change = |cost| ConfigDelta::OspfCostChange {
        device: s.ring.routers[0],
        link: s.ring.links[0],
        cost,
    };
    let verify = verify_request(&s);

    let replay = ServiceSession::with_network(s.network.clone());
    for cost in [5, 9] {
        let Response::DeltaApplied(_) = replay.handle(&Request::ApplyDelta {
            delta: cost_change(cost),
        }) else {
            panic!("replay delta rejected");
        };
    }
    let replay_bytes = final_report_bytes(&replay, &verify);

    // No background drain: the enqueued delta is still pending when the v1
    // delta arrives.
    let session = ServiceSession::with_network(s.network.clone());
    let Response::DeltasAccepted { lag, .. } = session.handle(&Request::ApplyDeltas {
        deltas: vec![cost_change(5)],
        ack: "enqueued".into(),
    }) else {
        panic!("enqueue not accepted");
    };
    assert_eq!(lag.pending, 1);
    let Response::DeltaApplied(_) = session.handle(&Request::ApplyDelta {
        delta: cost_change(9),
    }) else {
        panic!("v1 delta rejected");
    };
    let session_bytes = final_report_bytes(&session, &verify);

    let network_json = |session: &ServiceSession| {
        let verifier = session.verifier().expect("a network is loaded");
        verifier.snapshot().network().to_json()
    };
    assert_eq!(
        network_json(&session),
        network_json(&replay),
        "the enqueued cost change was applied after the v1 one that followed it"
    );
    assert_eq!(session_bytes, replay_bytes);
}

/// v1 `ApplyDelta` is the one-element `ApplyDeltas {ack: "verified"}`: over
/// a seeded sequence with no-op rejections and a static route added and
/// removed, the two surfaces answer alike (`DeltaApplied` ↔ `applied` with
/// the same kind, `Error` ↔ `rejected` with the same message) and leave the
/// same network after every step.
#[test]
fn v1_apply_delta_matches_a_one_element_verified_batch() {
    let s = ring_ospf(6);
    let mut deltas = storm_deltas(&s, 0xD1FF_0001, 40);
    // The storm only touches slots 0..3; these target slot 4 so the no-op
    // and the add/remove pair are guaranteed, not left to the seed.
    let spare_link = s.ring.links[4];
    let spare_router = s.ring.routers[4];
    deltas.splice(
        20..20,
        [
            ConfigDelta::LinkDown { link: spare_link },
            ConfigDelta::LinkDown { link: spare_link },
            ConfigDelta::StaticRouteAdd {
                device: spare_router,
                route: StaticRoute::null(s.destination),
            },
            ConfigDelta::StaticRouteRemove {
                device: spare_router,
                prefix: s.destination,
            },
            ConfigDelta::LinkUp { link: spare_link },
        ],
    );
    let v1 = ServiceSession::with_network(s.network.clone());
    let v2 = ServiceSession::with_network(s.network.clone());
    let network_json = |session: &ServiceSession| {
        let verifier = session.verifier().expect("a network is loaded");
        verifier.snapshot().network().to_json()
    };
    let (mut applied, mut rejected) = (0, 0);
    for (step, delta) in deltas.iter().enumerate() {
        let one = v1.handle(&Request::ApplyDelta {
            delta: delta.clone(),
        });
        let batch = v2.handle(&Request::ApplyDeltas {
            deltas: vec![delta.clone()],
            ack: "verified".into(),
        });
        let Response::DeltasAccepted {
            deltas: acks,
            coalesced: 0,
            ..
        } = &batch
        else {
            panic!("step {step}: batch not accepted: {batch:?}");
        };
        let [ack] = acks.as_slice() else {
            panic!("step {step}: one ack per delta, got {acks:?}");
        };
        match &one {
            Response::DeltaApplied(summary) => {
                assert_eq!(ack.status, "applied", "step {step}: {one:?} vs {ack:?}");
                assert_eq!(ack.kind, summary.kind, "step {step}");
                applied += 1;
            }
            Response::Error { message, .. } => {
                assert_eq!(ack.status, "rejected", "step {step}: {one:?} vs {ack:?}");
                assert_eq!(&ack.detail, message, "step {step}");
                rejected += 1;
            }
            other => panic!("step {step}: unexpected v1 response {other:?}"),
        }
        assert_eq!(network_json(&v1), network_json(&v2), "step {step}");
    }
    assert!(
        applied > 0 && rejected > 0,
        "{applied} applied, {rejected} rejected"
    );
    let verify = verify_request(&s);
    assert_eq!(
        final_report_bytes(&v1, &verify),
        final_report_bytes(&v2, &verify)
    );
}

/// A lone delta must not wait for `max_lag_deltas` peers: the age bound
/// (`max_lag_ms`) alone must get it verified.
#[test]
fn lone_enqueued_delta_is_verified_within_the_lag_bound() {
    let s = ring_ospf(4);
    let session = Arc::new(ServiceSession::new().with_options(ServeOptions {
        max_lag_deltas: 1_000_000, // count bound effectively off
        max_lag_ms: 25,
        ..ServeOptions::default()
    }));
    session.load(s.network.clone());
    let handle = session.start_streaming();

    let response = session.handle(&Request::ApplyDeltas {
        deltas: vec![ConfigDelta::LinkDown {
            link: s.ring.links[0],
        }],
        ack: "enqueued".into(),
    });
    let Response::DeltasAccepted { deltas: acks, .. } = &response else {
        panic!("not accepted: {response:?}");
    };
    assert_eq!(acks[0].status, "enqueued");

    // The drain must pick it up on the age bound alone. Generous wall-clock
    // ceiling for a loaded CI machine; the precise lower bound below is the
    // real assertion.
    let start = Instant::now();
    loop {
        let stats = session.stats();
        if stats.delta_batches >= 1 {
            assert_eq!(stats.queue_depth, 0);
            assert_eq!(stats.deltas_applied, 1);
            // It aged past the bound before draining, so the recorded
            // enqueue→verified lag reflects the configured 25 ms.
            assert!(
                stats.verify_lag_p99_ms >= 20.0,
                "lone delta drained suspiciously early: p99 lag {} ms",
                stats.verify_lag_p99_ms
            );
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "lone enqueued delta never drained: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.stop();
}

/// Queue high-water backpressure: pushes past `max_pending_deltas` are
/// shed with the structured `overloaded` contract (PR 7 shape: kind +
/// retry_after_ms), and a flushing request makes room again.
#[test]
fn storm_past_the_high_water_mark_sheds_with_retry_hint() {
    let s = ring_ospf(6);
    // No background drain: the queue can only fill.
    let session = ServiceSession::new().with_options(ServeOptions {
        max_pending_deltas: 4,
        ..ServeOptions::default()
    });
    session.load(s.network.clone());

    // Four non-coalescible deltas (distinct links) fill the queue exactly.
    let fill: Vec<ConfigDelta> = (0..4)
        .map(|i| ConfigDelta::LinkDown {
            link: s.ring.links[i],
        })
        .collect();
    let response = session.handle(&Request::ApplyDeltas {
        deltas: fill,
        ack: "enqueued".into(),
    });
    let Response::DeltasAccepted { lag, .. } = &response else {
        panic!("fill burst not accepted: {response:?}");
    };
    assert_eq!(lag.pending, 4);

    // The fifth distinct delta hits the high-water mark.
    let overflow = Request::ApplyDeltas {
        deltas: vec![ConfigDelta::LinkDown {
            link: s.ring.links[4],
        }],
        ack: "enqueued".into(),
    };
    let Response::Error {
        kind,
        retry_after_ms,
        message,
        ..
    } = session.handle(&overflow)
    else {
        panic!("overflow push was not shed");
    };
    assert_eq!(kind, "overloaded", "{message}");
    let retry = retry_after_ms.expect("overloaded must carry a retry hint");
    assert!(retry >= 1, "nonsense retry hint {retry}");
    assert_eq!(session.stats().deltas_shed, 1);

    // A verified-mode request flushes the queue inline (read-your-writes),
    // making room for the retried delta.
    let Response::Report(_) = session.handle(&verify_request(&s)) else {
        panic!("flushing verify failed");
    };
    assert_eq!(session.stats().queue_depth, 0);
    let Response::DeltasAccepted { lag, .. } = session.handle(&overflow) else {
        panic!("retry after flush still shed");
    };
    assert_eq!(lag.pending, 1);
}

/// `ack: "verified"` batches apply inline with one rebuild: per-delta acks
/// must report applied / coalesced / rejected fates in request order, and
/// the response must be read-your-writes (nothing left pending).
#[test]
fn verified_ack_batch_reports_per_delta_fates_in_order() {
    let s = ring_ospf(6);
    let session = ServiceSession::with_network(s.network.clone());

    let response = session.handle(&Request::ApplyDeltas {
        deltas: vec![
            // Coalesced away by the LinkUp below (same link, last writer wins)...
            ConfigDelta::LinkDown {
                link: s.ring.links[0],
            },
            // ...applies: a genuinely new link-down.
            ConfigDelta::LinkDown {
                link: s.ring.links[1],
            },
            // ...rejected: the link is already up, so the survivor is a no-op.
            ConfigDelta::LinkUp {
                link: s.ring.links[0],
            },
        ],
        ack: "verified".into(),
    });
    let Response::DeltasAccepted {
        ack,
        deltas: acks,
        coalesced,
        lag,
    } = &response
    else {
        panic!("batch not accepted: {response:?}");
    };
    assert_eq!(ack, "verified");
    assert_eq!(*coalesced, 1);
    assert_eq!(lag.pending, 0, "verified ack is read-your-writes");
    let statuses: Vec<&str> = acks.iter().map(|a| a.status.as_str()).collect();
    assert_eq!(statuses, ["coalesced", "applied", "rejected"]);
    assert!(
        acks[2].detail.contains("already"),
        "rejected ack must carry the apply error, got {:?}",
        acks[2].detail
    );
    // Exactly one delta changed the network.
    assert_eq!(session.stats().deltas_applied, 1);
}

/// The readiness-driven server decouples connection count from worker
/// count: many more concurrent connections than workers must all be
/// served, including the v2 Hello handshake on each.
#[cfg(unix)]
#[test]
fn connections_can_dwarf_the_worker_pool() {
    use plankton::service::connect_with_retry;
    use std::io::{BufRead, BufReader, Write};

    let s = ring_ospf(4);
    let session = ServiceSession::with_network(s.network.clone()).with_options(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let dir = std::env::temp_dir().join(format!("plankton-storm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("planktond.sock");
    let timeout = Duration::from_secs(30);

    std::thread::scope(|scope| {
        let server = scope.spawn(|| plankton::service::serve_unix(&session, &path).unwrap());

        // Open all 6 connections up front (3× the worker pool), then talk
        // on every one of them.
        let mut conns: Vec<_> = (0..6)
            .map(|_| {
                let stream = connect_with_retry(&path, timeout).unwrap();
                let reader = BufReader::new(stream.try_clone().unwrap());
                (stream, reader)
            })
            .collect();
        for (writer, reader) in conns.iter_mut() {
            writer.write_all(b"\"Hello\"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let Response::Welcome { proto_version, .. } =
                serde_json::from_str::<Response>(&line).unwrap()
            else {
                panic!("no Welcome: {line}");
            };
            assert!(proto_version.starts_with("3."));

            writer.write_all(b"\"Stats\"\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let Response::Stats(stats) = serde_json::from_str::<Response>(&line).unwrap() else {
                panic!("no Stats: {line}");
            };
            assert!(stats.connections_open >= 1);
        }
        // The last connection sees all six still open.
        let (writer, reader) = conns.last_mut().unwrap();
        writer.write_all(b"\"Stats\"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let Response::Stats(stats) = serde_json::from_str::<Response>(&line).unwrap() else {
            panic!("no Stats: {line}");
        };
        assert_eq!(stats.connections_open, 6);

        writer.write_all(b"\"Shutdown\"\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        server.join().unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);
}
