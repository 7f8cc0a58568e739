//! Property tests for the dataplane:
//! - byte conservation through QoS policies (every offered byte is either
//!   delivered or accounted in exactly one discard counter),
//! - token buckets never exceed their configured rate over any window,
//! - TCAM alloc/free conservation,
//! - agreement between the per-packet and aggregate classification paths.

use proptest::prelude::*;
use stellar_dataplane::filter::{Action, FilterRule, MatchSpec, PortMatch};
use stellar_dataplane::qos::{Offer, QosPolicy, TickResult, TickWork};
use stellar_dataplane::shaper::TokenBucket;
use stellar_dataplane::tcam::Tcam;
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::packet::Packet;
use stellar_net::proto::IpProtocol;

fn arb_key() -> impl Strategy<Value = FlowKey> {
    (
        0u32..8,
        0u32..8,
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        prop_oneof![
            Just(IpProtocol::UDP),
            Just(IpProtocol::TCP),
            Just(IpProtocol::ICMP)
        ],
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(sm, dm, sip, dip, proto, sp, dp)| FlowKey {
            src_mac: MacAddr::for_member(64500 + sm, 1),
            dst_mac: MacAddr::for_member(64500 + dm, 1),
            src_ip: IpAddress::V4(Ipv4Address(sip)),
            dst_ip: IpAddress::V4(Ipv4Address(dip)),
            protocol: proto,
            src_port: sp,
            dst_port: dp,
            ..FlowKey::default()
        })
}

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        proptest::option::of(0u32..8),
        proptest::option::of((any::<[u8; 4]>(), 0u8..=32)),
        proptest::option::of((any::<[u8; 4]>(), 0u8..=32)),
        proptest::option::of(prop_oneof![Just(IpProtocol::UDP), Just(IpProtocol::TCP)]),
        proptest::option::of(any::<u16>()),
        proptest::option::of((any::<u16>(), any::<u16>())),
    )
        .prop_map(|(sm, sip, dip, proto, sp, dpr)| MatchSpec {
            src_mac: sm.map(|m| MacAddr::for_member(64500 + m, 1)),
            dst_mac: None,
            src_ip: sip.map(|(o, l)| {
                stellar_net::prefix::Prefix::V4(
                    stellar_net::prefix::Ipv4Prefix::new(Ipv4Address(o), l).unwrap(),
                )
            }),
            dst_ip: dip.map(|(o, l)| {
                stellar_net::prefix::Prefix::V4(
                    stellar_net::prefix::Ipv4Prefix::new(Ipv4Address(o), l).unwrap(),
                )
            }),
            protocol: proto,
            src_port: sp.map(PortMatch::Exact),
            dst_port: dpr.map(|(a, b)| PortMatch::Range(a.min(b), a.max(b))),
            ..Default::default()
        })
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Drop),
        Just(Action::Forward),
        (1_000_000u64..1_000_000_000).prop_map(|r| Action::Shape { rate_bps: r }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qos_conserves_bytes(
        rules in proptest::collection::vec((arb_spec(), arb_action(), any::<u16>()), 0..6),
        offers in proptest::collection::vec((arb_key(), 1u64..10_000_000), 1..12),
        capacity in 1_000_000u64..10_000_000_000,
    ) {
        let mut policy = QosPolicy::new();
        for (i, (spec, action, prio)) in rules.into_iter().enumerate() {
            policy.install(FilterRule::new(i as u64, spec, action, prio));
        }
        let offers: Vec<Offer> = offers
            .into_iter()
            .map(|(key, bytes)| Offer { key, bytes, packets: bytes / 1000 + 1 })
            .collect();
        let offered: u64 = offers.iter().map(|o| o.bytes).sum();
        let (mut w, mut r) = (TickWork::default(), TickResult::default());
        policy.apply_tick_into(&offers, 1_000_000, 1_000_000, capacity, &mut w, &mut r);
        let delivered: u64 = r.delivered.iter().map(|(_, b, _)| b).sum();
        prop_assert_eq!(delivered, r.counters.forwarded_bytes);
        // Conservation: forwarded + every discard class == offered.
        prop_assert_eq!(
            r.counters.forwarded_bytes + r.counters.total_discarded_bytes(),
            offered
        );
        // Capacity: never deliver more than the port can carry in a tick.
        prop_assert!(delivered <= capacity / 8 + 1);
    }

    #[test]
    fn token_bucket_never_exceeds_rate_plus_burst(
        rate_kbps in 8u64..1_000_000,
        burst in 1_500u64..10_000_000,
        offers in proptest::collection::vec(0u64..5_000_000, 1..50),
        tick_us in 10_000u64..1_000_000,
    ) {
        let rate = rate_kbps * 1000;
        let mut tb = TokenBucket::new(rate, burst);
        let mut admitted = 0u64;
        let mut now = 0u64;
        for o in &offers {
            now += tick_us;
            admitted += tb.admit(*o, now);
        }
        let window_s = now as f64 / 1e6;
        let bound = rate as f64 / 8.0 * window_s + burst as f64 + 1.0;
        prop_assert!(admitted as f64 <= bound, "admitted {admitted} > bound {bound}");
    }

    #[test]
    fn tcam_alloc_free_conserves(ops in proptest::collection::vec((0usize..3, 0usize..6), 1..100)) {
        let mut t = Tcam::new(200, 200);
        let mut handles = Vec::new();
        for (mac, l34) in ops {
            if let Ok(h) = t.alloc_raw(mac, l34) {
                handles.push((h, mac, l34));
            }
        }
        let expect_mac: usize = handles.iter().map(|(_, m, _)| m).sum();
        let expect_l34: usize = handles.iter().map(|(_, _, l)| l).sum();
        prop_assert_eq!(t.mac_used(), expect_mac);
        prop_assert_eq!(t.l34_used(), expect_l34);
        for (h, _, _) in handles {
            t.free(h);
        }
        prop_assert_eq!(t.mac_used(), 0);
        prop_assert_eq!(t.l34_used(), 0);
        prop_assert_eq!(t.allocation_count(), 0);
    }

    #[test]
    fn packet_and_aggregate_classification_agree(
        spec in arb_spec(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload_len in 0usize..256,
    ) {
        let packet = Packet::udp_v4(
            MacAddr::for_member(64501, 1),
            MacAddr::for_member(64502, 1),
            Ipv4Address::new(203, 0, 113, 7),
            Ipv4Address::new(100, 10, 10, 10),
            src_port,
            dst_port,
            vec![0xab; payload_len],
        );
        // The per-packet path (decode wire bytes, then match) and the
        // aggregate path (match the flow key directly) must agree.
        let wire = packet.encode();
        let decoded = Packet::decode(&wire).unwrap();
        prop_assert_eq!(
            spec.matches_packet(&decoded),
            spec.matches(&packet.flow_key())
        );
    }
}
