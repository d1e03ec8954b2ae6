//! The coalescer's algebra, checked exhaustively at the queue layer and on
//! a seeded sample through the session.
//!
//! Coalescing is a performance transform: whatever `coalesce_batch` keeps,
//! applying it in order (skipping errors) must leave the network exactly as
//! one-at-a-time replay of the raw sequence does. Every sequence of up to
//! four deltas over a 13-letter alphabet — link flaps on two links, static
//! route adds and removes for two prefixes on one device, import or export
//! edits of one BGP session, and OSPF costs (two on one interface, one on a
//! second) — is checked for that, for one fate per input, and for survivors
//! in arrival order.

use plankton::config::scenarios::{ring_ospf, RingOspfScenario};
use plankton::config::static_routes::StaticRoute;
use plankton::config::{BgpConfig, BgpNeighborConfig, ConfigDelta, RouteMap, SetAction};
use plankton::prelude::*;
use plankton::service::{
    coalesce_batch, BatchFate, PolicySpec, Request, Response, ServiceSession, VerifyOptions,
};

/// The ring with an eBGP session between routers 1 and 2, so that a BGP
/// policy edit has a session to land on.
fn fixture() -> (RingOspfScenario, Vec<ConfigDelta>) {
    let mut s = ring_ospf(4);
    let [_, a, b, _] = [0, 1, 2, 3].map(|i| s.ring.routers[i]);
    s.network.device_mut(a).bgp =
        Some(BgpConfig::new(65001, 1).with_neighbor(BgpNeighborConfig::ebgp(b, 65002)));
    s.network.device_mut(b).bgp =
        Some(BgpConfig::new(65002, 2).with_neighbor(BgpNeighborConfig::ebgp(a, 65001)));
    let device = s.ring.routers[3];
    let prefixes = [s.destination, "10.201.0.0/24".parse().unwrap()];
    let mut alphabet = Vec::new();
    for link in [s.ring.links[0], s.ring.links[1]] {
        alphabet.push(ConfigDelta::LinkDown { link });
        alphabet.push(ConfigDelta::LinkUp { link });
    }
    for prefix in prefixes {
        alphabet.push(ConfigDelta::StaticRouteAdd {
            device,
            route: StaticRoute::null(prefix),
        });
        alphabet.push(ConfigDelta::StaticRouteRemove { device, prefix });
    }
    alphabet.push(ConfigDelta::BgpPolicyEdit {
        device: a,
        peer: b,
        import: Some(RouteMap::permit_with(
            Vec::new(),
            vec![SetAction::LocalPref(200)],
        )),
        export: None,
    });
    alphabet.push(ConfigDelta::BgpPolicyEdit {
        device: a,
        peer: b,
        import: None,
        export: Some(RouteMap::deny_all()),
    });
    let [(_, first), (_, second)] = [0, 1].map(|i| s.network.topology.neighbors(device)[i]);
    for (link, cost) in [(first, 5), (first, 7), (second, 9)] {
        let change = ConfigDelta::OspfCostChange { device, link, cost };
        assert_eq!(change.apply(&mut s.network.clone()), Ok(()), "{change:?}");
        alphabet.push(change);
    }
    (s, alphabet)
}

/// Apply `deltas` one at a time, skipping the ones that error.
fn replay(network: &Network, deltas: &[ConfigDelta]) -> Network {
    let mut network = network.clone();
    for delta in deltas {
        let _ = delta.apply(&mut network);
    }
    network
}

/// The link, BGP session or OSPF interface a delta writes. Such deltas share
/// one entry per link, session or interface, overwritten in place, so their
/// survivor keeps the first one's position; static route adds and removes
/// (`None`) append.
fn slot(delta: &ConfigDelta) -> Option<String> {
    match delta {
        ConfigDelta::LinkDown { link } | ConfigDelta::LinkUp { link } => Some(format!("{link}")),
        ConfigDelta::BgpPolicyEdit { device, peer, .. } => Some(format!("{device}-{peer}")),
        ConfigDelta::OspfCostChange { device, link, .. } => Some(format!("{device}@{link}")),
        _ => None,
    }
}

fn check_sequence(network: &Network, sequence: &[ConfigDelta]) {
    let batch = coalesce_batch(sequence.to_vec());
    assert_eq!(
        replay(network, &batch.deltas).to_json(),
        replay(network, sequence).to_json(),
        "{sequence:?} coalesced to {:?}",
        batch.deltas
    );

    // One fate per input; every survivor names a distinct output and every
    // output has one survivor.
    assert_eq!(batch.fates.len(), sequence.len(), "{sequence:?}");
    let mut survivors: Vec<(usize, usize)> = batch
        .fates
        .iter()
        .enumerate()
        .filter_map(|(input, fate)| match fate {
            BatchFate::Survivor { output } => Some((*output, input)),
            BatchFate::Coalesced => None,
        })
        .collect();
    survivors.sort();
    assert_eq!(
        survivors
            .iter()
            .map(|&(output, _)| output)
            .collect::<Vec<_>>(),
        (0..batch.deltas.len()).collect::<Vec<_>>(),
        "{sequence:?}: {:?}",
        batch.fates
    );
    assert_eq!(
        batch.coalesced as usize,
        sequence.len() - batch.deltas.len(),
        "{sequence:?}"
    );

    // Survivors in arrival order: a link, session or interface survivor
    // arrives with the first delta on its slot, a static route survivor with
    // itself.
    let arrival = |input: usize| match slot(&sequence[input]) {
        Some(key) => sequence
            .iter()
            .position(|other| slot(other).as_ref() == Some(&key))
            .expect("the delta itself matches"),
        None => input,
    };
    let arrivals: Vec<usize> = survivors.iter().map(|&(_, input)| arrival(input)).collect();
    assert!(
        arrivals.windows(2).all(|w| w[0] < w[1]),
        "{sequence:?}: survivors out of arrival order, {:?}",
        batch.fates
    );
    // Last writer wins: a survivor that is not a field-merged BGP edit is
    // its own input.
    for &(output, input) in &survivors {
        if !matches!(sequence[input], ConfigDelta::BgpPolicyEdit { .. }) {
            assert_eq!(batch.deltas[output], sequence[input], "{sequence:?}");
        }
    }
}

#[test]
fn every_short_sequence_coalesces_to_its_sequential_replay() {
    let (s, alphabet) = fixture();
    let mut checked = 0;
    for len in 0..=4u32 {
        for code in 0..alphabet.len().pow(len) {
            let mut rest = code;
            let sequence: Vec<ConfigDelta> = (0..len)
                .map(|_| {
                    let letter = rest % alphabet.len();
                    rest /= alphabet.len();
                    alphabet[letter].clone()
                })
                .collect();
            check_sequence(&s.network, &sequence);
            checked += 1;
        }
    }
    assert_eq!(checked, 30_941);
}

/// Deterministic xorshift64* PRNG: the sample is reproducible from a seed.
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

/// 200 seeded sequences through one session per ack mode: after each
/// request (flushed by a `Verify` when enqueued) the session's network
/// equals one-at-a-time replay of everything sent so far, and the acks
/// report one fate per delta.
#[test]
fn seeded_sequences_through_the_session_match_sequential_replay() {
    let (s, alphabet) = fixture();
    let flush = Request::Verify {
        policy: PolicySpec::LoopFreedom,
        options: Some(VerifyOptions {
            restrict_prefixes: vec![s.destination],
            ..VerifyOptions::default()
        }),
    };
    for ack in ["verified", "enqueued"] {
        let session = ServiceSession::with_network(s.network.clone());
        let mut expected = s.network.clone();
        let mut rng = XorShift(0xC0A1_E5CE);
        for step in 0..200 {
            let len = 1 + rng.next() as usize % 4;
            let sequence: Vec<ConfigDelta> = (0..len)
                .map(|_| alphabet[rng.next() as usize % alphabet.len()].clone())
                .collect();
            expected = replay(&expected, &sequence);
            let response = session.handle(&Request::ApplyDeltas {
                deltas: sequence.clone(),
                ack: ack.into(),
            });
            let Response::DeltasAccepted {
                deltas: acks,
                coalesced,
                ..
            } = &response
            else {
                panic!("{ack} step {step}: {response:?}");
            };
            assert_eq!(acks.len(), len, "{ack} step {step}");
            let folded = acks.iter().filter(|a| a.status == "coalesced").count();
            let allowed: &[&str] = match ack {
                "verified" => &["applied", "rejected", "coalesced"],
                _ => &["enqueued", "coalesced"],
            };
            for a in acks {
                assert!(
                    allowed.contains(&a.status.as_str()),
                    "{ack} step {step}: {a:?}"
                );
            }
            if ack == "verified" {
                assert_eq!(folded as u64, *coalesced, "{ack} step {step}");
            } else {
                let Response::Report(_) = session.handle(&flush) else {
                    panic!("{ack} step {step}: the flushing Verify failed");
                };
            }
            let network = session
                .verifier()
                .expect("loaded")
                .snapshot()
                .network()
                .clone();
            assert_eq!(
                network.to_json(),
                expected.to_json(),
                "{ack} step {step}: {sequence:?}"
            );
        }
    }
}
