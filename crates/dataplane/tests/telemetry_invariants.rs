//! Telemetry conservation invariants (§3.1): per-rule and per-port
//! counters must agree exactly — the accounting the shaper fix
//! (floor-before-subtract) makes watertight.
//!
//! The scenario: one member port carrying two concurrent shape rules and
//! one drop rule, offered a mix that exercises all three queues plus the
//! forwarding queue's congestion path.

use stellar_dataplane::filter::{Action, FilterRule, MatchSpec, PortMatch};
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::qos::{Offer, TickResult, TickWork};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;

fn flow(src_port: u16, bytes: u64) -> Offer {
    Offer {
        key: FlowKey {
            src_mac: MacAddr::for_member(64502, 1),
            dst_mac: MacAddr::for_member(64500, 1),
            src_ip: IpAddress::V4(Ipv4Address::new(203, 0, 113, 7)),
            dst_ip: IpAddress::V4(Ipv4Address::new(100, 10, 10, 10)),
            protocol: IpProtocol::UDP,
            src_port,
            dst_port: 40000,
            ..FlowKey::default()
        },
        bytes,
        packets: bytes / 1400 + 1,
    }
}

fn rule(id: u64, src_port: u16, action: Action) -> FilterRule {
    FilterRule::new(
        id,
        MatchSpec {
            dst_ip: Some("100.10.10.10/32".parse().unwrap()),
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(src_port)),
            ..Default::default()
        },
        action,
        10,
    )
}

/// Two shape rules + one drop rule on a single 1 Gbps port, driven hard
/// enough that both shapers discard and the forwarding queue congests.
/// Checks, over the whole run:
///
/// - per rule: `matched == passed + discarded` (exact, not approximate);
/// - per port: `total_discarded_bytes` equals the drop rule's discards
///   plus both shapers' discards plus congestion drops — no byte is
///   double-counted or lost between the rule and port ledgers.
#[test]
fn rule_and_port_ledgers_agree_exactly() {
    let mut port = MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000);
    // NTP shaped to 200 Mbps, DNS shaped to 120 Mbps, chargen dropped.
    port.policy.install(rule(
        1,
        123,
        Action::Shape {
            rate_bps: 200_000_000,
        },
    ));
    port.policy.install(rule(
        2,
        53,
        Action::Shape {
            rate_bps: 120_000_000,
        },
    ));
    port.policy.install(rule(3, 19, Action::Drop));
    assert_eq!(port.policy.shaper_count(), 2);

    // 10 seconds in 100 ms ticks: 800 Mbps NTP + 500 Mbps DNS + 300 Mbps
    // chargen + 900 Mbps of unmatched web traffic. The shaped residue
    // (~320 Mbps) plus 900 Mbps web exceeds the 1 Gbps port, so the
    // forwarding queue congests every tick.
    let mut congestion = 0u64;
    let (mut w, mut r) = (TickWork::default(), TickResult::default());
    for tick in 1..=100u64 {
        let offers = [
            flow(123, 10_000_000),
            flow(53, 6_250_000),
            flow(19, 3_750_000),
            flow(443, 11_250_000),
        ];
        port.process_tick_into(&offers, tick * 100_000, 100_000, &mut w, &mut r);
        congestion += r.counters.congestion_dropped_bytes;
    }

    // Per-rule conservation: matched == passed + discarded, exactly.
    let mut rule_discards = 0u64;
    for id in [1u64, 2, 3] {
        let rc = port.policy.rule_counters(id).expect("rule counters exist");
        assert_eq!(
            rc.matched_bytes,
            rc.passed_bytes + rc.discarded_bytes,
            "rule {id}: matched != passed + discarded"
        );
        assert!(rc.matched_bytes > 0, "rule {id} never matched");
        rule_discards += rc.discarded_bytes;
    }
    // The drop rule discards everything it matches.
    let drop_rc = port.policy.rule_counters(3).unwrap();
    assert_eq!(drop_rc.discarded_bytes, drop_rc.matched_bytes);
    assert_eq!(drop_rc.passed_bytes, 0);
    // Both shapers actually shaped (discarded some, passed some).
    for id in [1u64, 2] {
        let rc = port.policy.rule_counters(id).unwrap();
        assert!(rc.discarded_bytes > 0, "shaper {id} never discarded");
        assert!(rc.passed_bytes > 0, "shaper {id} never passed");
    }

    // Port-level conservation: everything the port discarded is either a
    // rule discard or a congestion drop — and congestion did happen.
    assert!(congestion > 0, "forwarding queue never congested");
    assert_eq!(
        port.counters.total_discarded_bytes(),
        rule_discards + congestion,
        "port ledger disagrees with rule ledger + congestion"
    );
    // Cross-check the split: drop-queue and shape-queue port counters
    // match the per-rule views exactly.
    assert_eq!(port.counters.dropped_bytes, drop_rc.discarded_bytes);
    assert_eq!(
        port.counters.shape_dropped_bytes,
        port.policy.rule_counters(1).unwrap().discarded_bytes
            + port.policy.rule_counters(2).unwrap().discarded_bytes
    );
}
