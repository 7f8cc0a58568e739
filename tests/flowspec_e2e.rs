//! End-to-end FlowSpec signaling: a member announces RFC 8955 NLRIs
//! with traffic-rate actions over the route server, validation (RFC
//! 9117), exact lowering and the audit admission path all run, and the
//! dataplane drops the attack. The `flowspec.*` counters partition
//! every announcement into accepted / rejected-by-validation /
//! rejected-by-audit, and two identically-seeded runs export
//! byte-identical metrics snapshots — the CI determinism oracle.

use stellar::bgp::extcommunity::ExtendedCommunity;
use stellar::bgp::flowspec::{BitmaskOp, Component, FlowSpec, NumericOp};
use stellar::bgp::types::{Afi, Asn};
use stellar::core::signal::StellarSignal;
use stellar::core::system::StellarSystem;
use stellar::dataplane::hardware::HardwareInfoBase;
use stellar::dataplane::switch::OfferedAggregate;
use stellar::net::addr::{IpAddress, Ipv4Address};
use stellar::net::flow::{frag, FlowKey};
use stellar::net::mac::MacAddr;
use stellar::net::proto::IpProtocol;
use stellar::net::tcp::TcpFlags;
use stellar::sim::engine::run_ticks_observed;
use stellar::sim::topology::{generic_members, IxpTopology, MemberSpec};

const VICTIM: Asn = Asn(64500);
const END_US: u64 = 8_000_000;
const TICK_US: u64 = 250_000;

fn build() -> StellarSystem {
    let mut specs = vec![MemberSpec {
        asn: VICTIM.0,
        capacity_bps: 1_000_000_000,
        prefixes: vec!["100.50.0.0/16".parse().unwrap()],
    }];
    specs.extend(generic_members(VICTIM.0 + 1, 5));
    StellarSystem::new(
        IxpTopology::build(&specs, HardwareInfoBase::lab_switch()),
        4.33,
    )
}

/// UDP toward the victim host from DNS/NTP amplifier source ports.
fn amplification_flow(dst: &str) -> FlowSpec {
    FlowSpec::new(
        Afi::Ipv4,
        vec![
            Component::DstPrefix(dst.parse().unwrap()),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(vec![NumericOp::equals(53), NumericOp::equals(123)]),
        ],
    )
    .unwrap()
}

fn attack(sys: &StellarSystem) -> OfferedAggregate {
    OfferedAggregate {
        key: FlowKey {
            src_mac: MacAddr::for_member(64503, 1),
            dst_mac: sys.ixp.member(VICTIM).unwrap().mac,
            src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 7)),
            dst_ip: IpAddress::V4(Ipv4Address::new(100, 50, 0, 10)),
            protocol: IpProtocol::UDP,
            src_port: 123,
            dst_port: 40000,
            ..FlowKey::default()
        },
        bytes: 12_500_000, // 400 Mbps over a 250 ms tick
        packets: 8_929,
    }
}

/// One seeded run: shape → non-owner reject → escalate to drop →
/// audit-shadowed second rule → withdraw, attack traffic every tick.
fn run_once() -> (StellarSystem, String) {
    let mut sys = build();
    let offer = attack(&sys);

    // t=0: the victim shapes the amplification flow to 25 MB/s.
    let out = sys.member_flowspec(
        VICTIM,
        amplification_flow("100.50.0.10/32"),
        &[ExtendedCommunity::traffic_rate(VICTIM.0 as u16, 25e6)],
        0,
    );
    assert!(out.rejections.is_empty(), "{:?}", out.rejections);
    // Two source ports lower to exactly two match specs.
    assert_eq!(out.queued_changes, 2);

    let mut registry = stellar::obs::MetricsRegistry::default();
    run_ticks_observed(&mut sys, 0, END_US, TICK_US, &mut registry, |s, t0, t1| {
        match t0 {
            // A non-owner announces a rule for the victim's prefix:
            // the RFC 9117 originator check refuses it.
            1_000_000 => {
                let out = s.member_flowspec(
                    Asn(64503),
                    amplification_flow("100.50.0.10/32"),
                    &[ExtendedCommunity::traffic_rate(64503, 0.0)],
                    t0,
                );
                assert_eq!(out.rejections.len(), 1);
                assert_eq!(out.queued_changes, 0);
            }
            // The victim escalates the same NLRI to a drop: BGP
            // implicit withdraw replaces the shaped rule.
            2_000_000 => {
                let out = s.member_flowspec(
                    VICTIM,
                    amplification_flow("100.50.0.10/32"),
                    &[ExtendedCommunity::traffic_rate(VICTIM.0 as u16, 0.0)],
                    t0,
                );
                assert!(out.rejections.is_empty());
                assert_eq!(out.queued_changes, 4, "replace = 2 removes + 2 adds");
            }
            // A signal-plane drop-all on a second host...
            3_000_000 => {
                s.member_signal(
                    VICTIM,
                    "100.50.0.20/32".parse().unwrap(),
                    &[StellarSignal::drop_all()],
                    t0,
                );
            }
            // ...shadows a later FlowSpec rule for the same host: the
            // batch audit sees both planes as one table per owner.
            3_500_000 => {
                let out = s.member_flowspec(
                    VICTIM,
                    amplification_flow("100.50.0.20/32"),
                    &[ExtendedCommunity::traffic_rate(VICTIM.0 as u16, 0.0)],
                    t0,
                );
                assert_eq!(out.queued_changes, 0);
                assert_eq!(out.audit_rejections.len(), 2, "both lowered specs shadowed");
            }
            // The attack subsides: the victim withdraws its rule.
            6_000_000 => {
                let out =
                    s.member_flowspec_withdraw(VICTIM, amplification_flow("100.50.0.10/32"), t0);
                assert_eq!(out.queued_changes, 2);
            }
            _ => {}
        }
        s.pump(t0);
        if t0.is_multiple_of(1_000_000) {
            s.reconcile(t0);
        }
        s.traffic_tick(&[offer], t1, TICK_US);
    });
    sys.obs
        .registry
        .counter_set("sim.ticks", registry.counter("sim.ticks"));
    sys.observe(END_US);
    let json = sys.obs.snapshot_json(END_US);
    (sys, json)
}

#[test]
fn counters_partition_announcements_and_dataplane_drops_attack() {
    let (sys, json) = run_once();
    let reg = &sys.obs.registry;

    // Every announcement is accounted for exactly once: the initial
    // shape and the drop escalation were accepted; the non-owner NLRI
    // failed validation; the shadowed rule failed the audit.
    assert_eq!(reg.counter("flowspec.accepted"), 2);
    assert_eq!(reg.counter("flowspec.rejected_validation"), 1);
    assert_eq!(reg.counter("flowspec.rejected_audit"), 2);
    assert_eq!(reg.counter("flowspec.withdrawn"), 1);

    // The route server saw the same traffic from its side.
    assert!(reg.counter("routeserver.flowspec.accepted") >= 2);
    assert!(reg.counter("routeserver.flowspec.rejected") >= 1);

    // The lowered rule really filtered: the victim port dropped attack
    // bytes while the drop rule was installed (2 s → 6 s).
    let port = sys.ixp.member(VICTIM).unwrap().port.0;
    let dropped = reg.port(port).dropped_bytes;
    assert!(dropped > 0, "attack traffic was never dropped");

    // After the withdraw only the signal-plane drop-all remains and the
    // planes agree with hardware.
    assert_eq!(sys.active_rules(), 1);
    assert!(sys.is_converged());
    assert_eq!(sys.flowspec.rule_count(), 0);

    // The snapshot exports the flowspec counters by name.
    for needle in [
        "flowspec.accepted",
        "flowspec.rejected_validation",
        "flowspec.rejected_audit",
        "core.flowspec_rules",
    ] {
        assert!(json.contains(needle), "snapshot missing {needle}");
    }
}

#[test]
fn identically_seeded_flowspec_runs_export_byte_identical_snapshots() {
    let (_, a) = run_once();
    let (_, b) = run_once();
    assert_eq!(a, b, "two identically-seeded runs diverged");
}

/// A dual-stack victim for the extended-component episode: the v6
/// prefix makes the flow-label NLRI pass the originator check.
fn build_dual_stack() -> StellarSystem {
    let mut specs = vec![MemberSpec {
        asn: VICTIM.0,
        capacity_bps: 1_000_000_000,
        prefixes: vec![
            "100.50.0.0/16".parse().unwrap(),
            "2001:db8:100::/48".parse().unwrap(),
        ],
    }];
    specs.extend(generic_members(VICTIM.0 + 1, 5));
    StellarSystem::new(
        IxpTopology::build(&specs, HardwareInfoBase::lab_switch()),
        4.33,
    )
}

/// An attack aggregate toward one of the victim's v4 hosts with the
/// extended header fields under test set explicitly.
fn v4_offer(host: u8, protocol: IpProtocol, bytes: u64, ext: fn(&mut FlowKey)) -> OfferedAggregate {
    let mut key = FlowKey {
        src_mac: MacAddr::for_member(64503, 1),
        dst_mac: MacAddr::for_member(VICTIM.0, 1),
        src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 7)),
        dst_ip: IpAddress::V4(Ipv4Address::new(100, 50, 0, host)),
        protocol,
        src_port: 33333,
        dst_port: 40000,
        ..FlowKey::default()
    };
    ext(&mut key);
    OfferedAggregate {
        key,
        bytes,
        packets: bytes / 500 + 1,
    }
}

/// Same, toward the victim's v6 host.
fn v6_offer(bytes: u64, flow_label: u32) -> OfferedAggregate {
    OfferedAggregate {
        key: FlowKey {
            src_mac: MacAddr::for_member(64503, 1),
            dst_mac: MacAddr::for_member(VICTIM.0, 1),
            src_ip: IpAddress::V6("2001:db8:999::1".parse().unwrap()),
            dst_ip: IpAddress::V6("2001:db8:100::10".parse().unwrap()),
            protocol: IpProtocol::UDP,
            src_port: 33333,
            dst_port: 40000,
            flow_label,
            ..FlowKey::default()
        },
        bytes,
        packets: bytes / 500 + 1,
    }
}

/// The six extended RFC 8955/8956 component types — tcp-flags bitmask,
/// packet-length range, DSCP, fragment bitmask, ICMP type/code and the
/// IPv6 flow label — all lower exactly, pass the audit, and drop
/// precisely the matching packets while near-miss twins (one header
/// field off) keep forwarding. `flowspec.rejected_lowering` stays zero:
/// none of the six falls back to refusal.
#[test]
fn extended_components_lower_and_drop_the_right_packets() {
    let mut sys = build_dual_stack();
    let drop = [ExtendedCommunity::traffic_rate(VICTIM.0 as u16, 0.0)];
    let v4 = |host: u8, extra: Vec<Component>| {
        let mut components = vec![Component::DstPrefix(
            format!("100.50.0.{host}/32").parse().unwrap(),
        )];
        components.extend(extra);
        FlowSpec::new(Afi::Ipv4, components).unwrap()
    };

    let announcements = [
        // SYN flood: TCP packets with SYN set and ACK clear.
        v4(
            10,
            vec![
                Component::IpProtocol(vec![NumericOp::equals(6)]),
                Component::TcpFlags(vec![
                    BitmaskOp::new(false, false, true, u64::from(TcpFlags::SYN)),
                    BitmaskOp::new(true, true, false, u64::from(TcpFlags::ACK)),
                ]),
            ],
        ),
        // Amplification payload band: UDP packets of 1000..=1500 bytes.
        v4(
            10,
            vec![
                Component::IpProtocol(vec![NumericOp::equals(17)]),
                Component::PacketLength(vec![NumericOp::ge(1000), NumericOp::and_le(1500)]),
            ],
        ),
        // Spoofed expedited-forwarding marking (DSCP 46).
        v4(11, vec![Component::Dscp(vec![NumericOp::equals(46)])]),
        // Fragment flood: any fragment.
        v4(
            12,
            vec![Component::Fragment(vec![BitmaskOp::new(
                false,
                false,
                true,
                u64::from(frag::IS_FRAGMENT),
            )])],
        ),
        // ICMP echo-request flood.
        v4(
            13,
            vec![
                Component::IpProtocol(vec![NumericOp::equals(1)]),
                Component::IcmpType(vec![NumericOp::equals(8)]),
                Component::IcmpCode(vec![NumericOp::equals(0)]),
            ],
        ),
        // IPv6 flow-label pinned attack stream (RFC 8956 §3.7).
        FlowSpec::new(
            Afi::Ipv6,
            vec![
                Component::DstPrefix("2001:db8:100::10/128".parse().unwrap()),
                Component::FlowLabel(vec![NumericOp::equals(99)]),
            ],
        )
        .unwrap(),
    ];
    for flow in announcements {
        let out = sys.member_flowspec(VICTIM, flow, &drop, 0);
        assert!(out.rejections.is_empty(), "{:?}", out.rejections);
        assert!(out.lowering_errors.is_empty(), "{:?}", out.lowering_errors);
        assert!(
            out.audit_rejections.is_empty(),
            "{:?}",
            out.audit_rejections
        );
        assert_eq!(out.queued_changes, 1, "each NLRI lowers to one exact spec");
    }
    // The production config-change rate (4.33/s) drains six installs in
    // a little over a second of simulation time.
    let mut now = 0;
    while sys.active_rules() < 6 && now < 4_000_000 {
        now += 250_000;
        sys.pump(now);
    }
    assert_eq!(sys.active_rules(), 6);
    assert!(sys.is_converged());

    // Six matching offers, each paired with a near-miss twin that
    // differs in exactly the header field the rule constrains.
    let offers = [
        v4_offer(10, IpProtocol::TCP, 1_000, |k| k.tcp_flags = TcpFlags::SYN),
        v4_offer(10, IpProtocol::TCP, 10_000, |k| {
            k.tcp_flags = TcpFlags::SYN | TcpFlags::ACK
        }),
        v4_offer(10, IpProtocol::UDP, 2_000, |k| k.packet_len = 1_200),
        v4_offer(10, IpProtocol::UDP, 20_000, |k| k.packet_len = 600),
        v4_offer(11, IpProtocol::UDP, 3_000, |k| k.dscp = 46),
        v4_offer(11, IpProtocol::UDP, 30_000, |k| k.dscp = 0),
        v4_offer(12, IpProtocol::UDP, 4_000, |k| {
            k.fragment = frag::IS_FRAGMENT | frag::FIRST_FRAGMENT
        }),
        v4_offer(12, IpProtocol::UDP, 40_000, |k| k.fragment = 0),
        v4_offer(13, IpProtocol::ICMP, 5_000, |k| {
            k.icmp_type = 8;
            k.icmp_code = 0;
        }),
        v4_offer(13, IpProtocol::ICMP, 50_000, |k| k.icmp_type = 3),
        v6_offer(6_000, 99),
        v6_offer(60_000, 0),
    ];
    let results = sys.traffic_tick(&offers, now + 1_000_000, 1_000_000);
    let port = sys.ixp.member(VICTIM).unwrap().port;
    assert_eq!(
        results[&port].counters.dropped_bytes,
        1_000 + 2_000 + 3_000 + 4_000 + 5_000 + 6_000,
        "exactly the six matching aggregates drop"
    );
    assert_eq!(
        results[&port].counters.forwarded_bytes,
        10_000 + 20_000 + 30_000 + 40_000 + 50_000 + 60_000,
        "every near-miss twin keeps forwarding"
    );

    // The counters partition cleanly: all six accepted, nothing refused
    // at lowering, validation or audit.
    let reg = &sys.obs.registry;
    assert_eq!(reg.counter("flowspec.accepted"), 6);
    assert_eq!(reg.counter("flowspec.rejected_lowering"), 0);
    assert_eq!(reg.counter("flowspec.rejected_validation"), 0);
    assert_eq!(reg.counter("flowspec.rejected_audit"), 0);
}
