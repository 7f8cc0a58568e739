//! IPv6 end-to-end: Advanced Blackholing signaling and filtering for an
//! IPv6 victim, carried over MP-BGP (RFC 4760) through the route server
//! and the ADD-PATH controller feed.

use stellar::bgp::types::Asn;
use stellar::core::signal::StellarSignal;
use stellar::core::system::StellarSystem;
use stellar::dataplane::hardware::HardwareInfoBase;
use stellar::dataplane::switch::OfferedAggregate;
use stellar::net::addr::{IpAddress, Ipv6Address};
use stellar::net::flow::FlowKey;
use stellar::net::mac::MacAddr;
use stellar::net::prefix::Prefix;
use stellar::net::proto::IpProtocol;
use stellar::sim::topology::{generic_members, IxpTopology, MemberSpec};

const VICTIM: Asn = Asn(64500);

fn v6_system() -> StellarSystem {
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
        1000.0,
    )
}

fn victim6() -> (Ipv6Address, Prefix) {
    let ip: Ipv6Address = "2001:db8:100::10".parse().unwrap();
    (ip, Prefix::host(IpAddress::V6(ip)))
}

fn v6_flow(src_port: u16, bytes: u64) -> OfferedAggregate {
    let (ip, _) = victim6();
    OfferedAggregate {
        key: FlowKey {
            src_mac: MacAddr::for_member(VICTIM.0 + 2, 1),
            dst_mac: MacAddr::for_member(VICTIM.0, 1),
            src_ip: IpAddress::V6("2001:db8:999::1".parse().unwrap()),
            dst_ip: IpAddress::V6(ip),
            protocol: IpProtocol::UDP,
            src_port,
            dst_port: 40000,
            ..FlowKey::default()
        },
        bytes,
        packets: bytes / 1000 + 1,
    }
}

#[test]
fn ipv6_signal_installs_and_filters() {
    let mut sys = v6_system();
    let (_, victim) = victim6();
    let out = sys.member_signal(VICTIM, victim, &[StellarSignal::drop_udp_src(123)], 0);
    assert!(out.rejections.is_empty(), "{:?}", out.rejections);
    assert_eq!(out.queued_changes, 1);
    sys.pump(10_000);
    assert_eq!(sys.active_rules(), 1);

    let port = sys.ixp.member(VICTIM).unwrap().port;
    let offers = [v6_flow(123, 10_000), v6_flow(53, 5_000)];
    let r = sys.traffic_tick(&offers, 1_000_000, 1_000_000);
    assert_eq!(r[&port].counters.dropped_bytes, 10_000);
    assert_eq!(r[&port].counters.forwarded_bytes, 5_000);
}

#[test]
fn ipv6_withdraw_removes_rule() {
    let mut sys = v6_system();
    let (_, victim) = victim6();
    sys.member_signal(VICTIM, victim, &[StellarSignal::drop_udp_src(123)], 0);
    sys.pump(10_000);
    assert_eq!(sys.active_rules(), 1);
    let out = sys.member_withdraw(VICTIM, victim, 1_000_000);
    assert_eq!(out.queued_changes, 1);
    sys.pump(1_000_000);
    assert_eq!(sys.active_rules(), 0);
}

#[test]
fn ipv6_host_route_needs_service_signal_or_blackhole() {
    let mut sys = v6_system();
    let (_, victim) = victim6();
    // Plain /128 announcement without any signal: too specific.
    let update = sys.ixp.announcement(VICTIM, victim);
    let out = sys.ixp.route_server.handle_update(VICTIM, &update, 0);
    assert_eq!(out.rejections.len(), 1);
    // With a Stellar signal it is accepted (previous tests).
}

#[test]
fn ipv6_controller_feed_is_wire_encodable_with_add_path() {
    use stellar::bgp::message::{DecodeCtx, Message};
    let mut sys = v6_system();
    let (_, victim) = victim6();
    let mut update = sys.ixp.announcement(VICTIM, victim);
    update.add_extended_communities(&[
        StellarSignal::drop_udp_src(123).encode(sys.ixp.route_server.config().ixp_asn)
    ]);
    let out = sys.ixp.route_server.handle_update(VICTIM, &update, 0);
    assert_eq!(out.controller_updates.len(), 1);
    // The feed must survive a real ADD-PATH wire round trip.
    let ctx = DecodeCtx { add_path: true };
    let wire = Message::Update(out.controller_updates[0].clone())
        .encode(ctx)
        .expect("controller feed encodes");
    let (decoded, _) = Message::decode(&wire, ctx).unwrap().unwrap();
    assert_eq!(decoded, Message::Update(out.controller_updates[0].clone()));
}

#[test]
fn ipv6_export_rewrites_blackhole_next_hop() {
    use stellar::bgp::attr::PathAttribute;
    use stellar::bgp::community::Community;
    let mut sys = v6_system();
    let (_, victim) = victim6();
    let mut update = sys.ixp.announcement(VICTIM, victim);
    update.add_communities(&[Community::BLACKHOLE]);
    let out = sys.ixp.route_server.handle_update(VICTIM, &update, 0);
    assert!(out.rejections.is_empty());
    assert!(!out.exports.is_empty());
    let mp = out.exports[0]
        .message
        .attrs
        .iter()
        .find_map(|a| match a {
            PathAttribute::MpReach { next_hop, .. } => Some(*next_hop),
            _ => None,
        })
        .expect("v6 export carries MP_REACH");
    assert_eq!(
        mp,
        IpAddress::V6(sys.ixp.route_server.config().blackhole_next_hop_v6)
    );
}
