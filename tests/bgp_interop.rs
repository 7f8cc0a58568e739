//! Wire-level interop: members, route server and blackholing controller
//! talking over real encoded BGP byte streams (not in-process shortcuts),
//! including ADD-PATH negotiation on the controller's iBGP session.

use stellar::bgp::attr::{AsPath, PathAttribute};
use stellar::bgp::community::Community;
use stellar::bgp::session::{drive_pair, Session, SessionConfig};
use stellar::bgp::types::Asn;
use stellar::bgp::update::UpdateMessage;
use stellar::core::controller::{AbstractChange, BlackholingController};
use stellar::core::signal::StellarSignal;
use stellar::net::addr::Ipv4Address;
use stellar::routeserver::irr::IrrDb;
use stellar::routeserver::policy::ImportPolicy;
use stellar::routeserver::rpki::RpkiTable;
use stellar::routeserver::server::{RouteServer, RouteServerConfig};

const IXP: Asn = Asn(6695);
const MEMBER: Asn = Asn(64500);

fn route_server() -> RouteServer {
    let mut irr = IrrDb::new();
    irr.register("100.10.10.0/24".parse().unwrap(), MEMBER);
    let mut rs = RouteServer::new(
        RouteServerConfig::l_ixp(),
        ImportPolicy::new(irr, RpkiTable::new()),
    );
    rs.add_peer(MEMBER, Ipv4Address::new(80, 81, 192, 1));
    rs.add_peer(Asn(64501), Ipv4Address::new(80, 81, 192, 2));
    rs
}

/// Runs a member announcement through: member session → wire bytes →
/// route-server session → RouteServer logic → controller feed → wire
/// bytes over the ADD-PATH iBGP session → controller.
#[test]
fn full_wire_path_from_member_to_controller() {
    // Member <-> route server (eBGP, no ADD-PATH).
    let mut member = Session::new(SessionConfig::ebgp(MEMBER, Ipv4Address::new(10, 0, 0, 1)));
    let mut rs_member_side = {
        let mut c = SessionConfig::ebgp(IXP, Ipv4Address::new(80, 81, 192, 157));
        c.passive = true;
        Session::new(c)
    };
    drive_pair(&mut member, &mut rs_member_side, 0);
    assert!(member.is_established());

    // Route server <-> controller (iBGP, ADD-PATH Both on both ends).
    let mut rs_ctl_side = Session::new(SessionConfig::ibgp_add_path(
        IXP,
        Ipv4Address::new(80, 81, 192, 157),
    ));
    let mut ctl_side = {
        let mut c = SessionConfig::ibgp_add_path(IXP, Ipv4Address::new(80, 81, 192, 200));
        c.passive = true;
        Session::new(c)
    };
    drive_pair(&mut rs_ctl_side, &mut ctl_side, 0);
    assert!(rs_ctl_side.add_path_negotiated());
    assert!(ctl_side.add_path_negotiated());

    // The member announces its attacked /32 with a Stellar signal.
    let mut update = UpdateMessage::announce(
        "100.10.10.10/32".parse().unwrap(),
        Ipv4Address::new(80, 81, 192, 1),
        PathAttribute::AsPath(AsPath::sequence([MEMBER.0])),
    );
    update.add_extended_communities(&[StellarSignal::drop_udp_src(123).encode(IXP)]);
    let wire = member.send_update(&update).expect("member can send");

    // The route server's session decodes the bytes ...
    let rs_in = rs_member_side.on_bytes(&wire, 1);
    assert_eq!(rs_in.updates.len(), 1);

    // ... the route server logic processes it ...
    let mut rs = route_server();
    let out = rs.handle_update(MEMBER, &rs_in.updates[0], 1);
    assert!(out.rejections.is_empty());
    assert_eq!(out.controller_updates.len(), 1);

    // ... and the controller feed goes over the ADD-PATH session as real
    // bytes again.
    let ctl_wire = rs_ctl_side
        .send_update(&out.controller_updates[0])
        .expect("rs can send to controller");
    let ctl_in = ctl_side.on_bytes(&ctl_wire, 2);
    assert_eq!(ctl_in.updates.len(), 1);
    assert!(ctl_in.updates[0].nlri[0].path_id.is_some());

    // The controller turns it into an AddRule change.
    let mut controller = BlackholingController::new(IXP);
    let changes = controller.process_update(&ctl_in.updates[0]);
    assert_eq!(changes.len(), 1);
    match &changes[0] {
        AbstractChange::AddRule(rule) => {
            assert_eq!(rule.owner, MEMBER);
            assert_eq!(rule.signal(), Some(StellarSignal::drop_udp_src(123)));
            assert_eq!(rule.victim, "100.10.10.10/32".parse().unwrap());
        }
        other => panic!("expected AddRule, got {other:?}"),
    }
}

#[test]
fn rtbh_export_reaches_other_member_with_blackhole_next_hop() {
    let mut rs = route_server();
    // Sessions for the exporting side: RS -> other member.
    let mut rs_side = Session::new(SessionConfig::ebgp(IXP, Ipv4Address::new(80, 81, 192, 157)));
    let mut other = {
        let mut c = SessionConfig::ebgp(Asn(64501), Ipv4Address::new(80, 81, 192, 2));
        c.passive = true;
        Session::new(c)
    };
    drive_pair(&mut rs_side, &mut other, 0);

    let mut bh = UpdateMessage::announce(
        "100.10.10.10/32".parse().unwrap(),
        Ipv4Address::new(80, 81, 192, 1),
        PathAttribute::AsPath(AsPath::sequence([MEMBER.0])),
    );
    bh.add_communities(&[Community::BLACKHOLE]);
    let out = rs.handle_update(MEMBER, &bh, 0);
    assert_eq!(out.exports.len(), 1);
    assert_eq!(out.exports[0].targets, vec![Asn(64501)]);
    let export = &out.exports[0].message;

    // Ship the export over the wire and verify the receiver sees the
    // rewritten next hop and the blackhole community.
    let wire = rs_side.send_update(export).unwrap();
    let got = other.on_bytes(&wire, 1);
    assert_eq!(got.updates.len(), 1);
    let u = &got.updates[0];
    assert_eq!(u.next_hop(), Some(Ipv4Address::new(80, 81, 193, 253)));
    assert!(u.communities().iter().any(|c| c.is_blackhole(IXP)));
}

#[test]
fn session_drop_triggers_implicit_withdrawal_end_to_end() {
    let mut rs = route_server();
    let mut controller = BlackholingController::new(IXP);

    // Announce with a signal, feed the controller.
    let mut update = UpdateMessage::announce(
        "100.10.10.10/32".parse().unwrap(),
        Ipv4Address::new(80, 81, 192, 1),
        PathAttribute::AsPath(AsPath::sequence([MEMBER.0])),
    );
    update.add_extended_communities(&[StellarSignal::drop_udp_src(123).encode(IXP)]);
    let out = rs.handle_update(MEMBER, &update, 0);
    for cu in &out.controller_updates {
        controller.process_update(cu);
    }
    assert_eq!(controller.rule_count(), 1);

    // The member's session dies (hold timer): the route server flushes,
    // the controller must remove the rule.
    let out = rs.peer_down(MEMBER);
    assert_eq!(out.controller_updates.len(), 1);
    let changes: Vec<_> = out
        .controller_updates
        .iter()
        .flat_map(|cu| controller.process_update(cu))
        .collect();
    assert_eq!(changes.len(), 1);
    assert!(matches!(changes[0], AbstractChange::RemoveRule { .. }));
    assert_eq!(controller.rule_count(), 0);
}

#[test]
fn hold_timer_expiry_on_wire_session() {
    let mut a = Session::new(SessionConfig::ebgp(MEMBER, Ipv4Address::new(10, 0, 0, 1)));
    let mut b = {
        let mut c = SessionConfig::ebgp(Asn(64501), Ipv4Address::new(10, 0, 0, 2));
        c.passive = true;
        Session::new(c)
    };
    drive_pair(&mut a, &mut b, 0);
    assert!(a.is_established());
    // Nobody relays traffic; both hold timers (90 s) fire.
    let out_a = a.tick(95_000_000);
    assert!(out_a.session_down);
    let out_b = b.tick(95_000_000);
    assert!(out_b.session_down);
}
