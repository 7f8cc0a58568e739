//! Route-server invariants under arbitrary member behaviour, over IPv4,
//! IPv6 (MP-BGP) and mixed-family UPDATEs:
//! - handle_update never panics,
//! - every controller-feed message is wire-encodable under ADD-PATH and
//!   announces or withdraws exactly one path-id-tagged NLRI, in its
//!   family's place (RFC 4760),
//! - every export is wire-encodable on a plain session and carries
//!   exactly one plain NLRI, in its family's place,
//! - exports never leak action communities,
//! - exports are update groups: one per accepted NLRI and per removed
//!   route, each going to exactly the members other than the sender that
//!   the action communities admit (withdrawals: every other member),
//!   ascending and unique.

use proptest::prelude::*;
use std::collections::BTreeSet;
use stellar_bgp::attr::{AsPath, PathAttribute};
use stellar_bgp::community::Community;
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::message::{DecodeCtx, Message};
use stellar_bgp::nlri::Nlri;
use stellar_bgp::types::{Afi, Asn, Safi};
use stellar_bgp::update::UpdateMessage;
use stellar_net::addr::{IpAddress, Ipv4Address, Ipv6Address};
use stellar_net::prefix::{Ipv4Prefix, Ipv6Prefix, Prefix};
use stellar_routeserver::irr::IrrDb;
use stellar_routeserver::policy::ImportPolicy;
use stellar_routeserver::rpki::RpkiTable;
use stellar_routeserver::server::{RouteServer, RouteServerConfig};
use stellar_routeserver::Export;

/// Peer `a`'s IPv6 space: `2001:db8:a00::/40`.
fn v6_net(a: u32) -> Ipv6Address {
    Ipv6Address::from_groups([0x2001, 0xdb8, (a as u16) << 8, 0, 0, 0, 0, 0])
}

const IXP: u16 = 6695;

fn server() -> RouteServer {
    let mut irr = IrrDb::new();
    // Broad route objects so a good share of generated updates validates.
    for a in 0..8u32 {
        irr.register(
            Prefix::V4(Ipv4Prefix::new(Ipv4Address::new(100 + a as u8, 0, 0, 0), 8).unwrap()),
            Asn(64500 + a),
        );
        irr.register(
            Prefix::V6(Ipv6Prefix::new(v6_net(a), 40).unwrap()),
            Asn(64500 + a),
        );
    }
    let mut rs = RouteServer::new(
        RouteServerConfig::l_ixp(),
        ImportPolicy::new(irr, RpkiTable::new()),
    );
    for a in 0..8u32 {
        rs.add_peer(Asn(64500 + a), Ipv4Address::new(80, 81, 192, a as u8 + 1));
    }
    rs
}

/// Which families one generated UPDATE carries.
#[derive(Debug, Clone, Copy)]
enum Family {
    V4,
    V6,
    Mixed,
}

fn arb_update() -> impl Strategy<Value = (u32, UpdateMessage)> {
    (
        (
            0u32..8, // peer index
            prop_oneof![Just(Family::V4), Just(Family::V6), Just(Family::Mixed)],
            any::<[u8; 4]>(),  // v4 prefix bits
            8u8..=32,          // v4 prefix len
            any::<[u8; 11]>(), // v6 host bits below the peer's /40
            40u8..=128,        // v6 prefix len
        ),
        (
            proptest::collection::vec(arb_community(), 0..4), // communities
            any::<bool>(),                                    // spoof first AS?
            any::<bool>(),                                    // blackhole tag?
            any::<bool>(),                                    // Stellar signal?
            any::<bool>(),                                    // withdraw instead?
            any::<bool>(),                                    // v4 outside own /8?
        ),
    )
        .prop_map(
            |(
                (peer, family, mut octets, len, host, len6),
                (comms, spoof, blackhole, signal, withdraw, foreign),
            )| {
                let asn = 64500 + peer;
                if !foreign {
                    octets[0] = 100 + peer as u8;
                }
                let v4 = Prefix::V4(Ipv4Prefix::new(Ipv4Address(octets), len).unwrap());
                let mut v6_octets = v6_net(peer).octets();
                v6_octets[5..].copy_from_slice(&host);
                let v6 = Prefix::V6(Ipv6Prefix::new(Ipv6Address(v6_octets), len6).unwrap());
                let u = if withdraw {
                    let mut u = UpdateMessage::default();
                    if !matches!(family, Family::V6) {
                        u.withdrawn.push(Nlri::plain(v4));
                    }
                    if !matches!(family, Family::V4) {
                        u.attrs.push(PathAttribute::MpUnreach {
                            afi: Afi::Ipv6,
                            safi: Safi::Unicast,
                            nlri: vec![Nlri::plain(v6)],
                        });
                    }
                    u
                } else {
                    let first = if spoof { asn + 1 } else { asn };
                    let mut u = UpdateMessage::announce(
                        v4,
                        Ipv4Address::new(80, 81, 192, peer as u8 + 1),
                        PathAttribute::AsPath(AsPath::sequence([first])),
                    );
                    if matches!(family, Family::V6) {
                        u.attrs.retain(|a| !matches!(a, PathAttribute::NextHop(_)));
                        u.nlri.clear();
                    }
                    if !matches!(family, Family::V4) {
                        u.attrs.push(PathAttribute::MpReach {
                            afi: Afi::Ipv6,
                            safi: Safi::Unicast,
                            next_hop: IpAddress::V6(Ipv6Address::from_groups([
                                0x2001,
                                0x7f8,
                                0,
                                1,
                                0,
                                0,
                                0,
                                peer as u16 + 1,
                            ])),
                            nlri: vec![Nlri::plain(v6)],
                        });
                    }
                    let mut cs: Vec<Community> = comms.into_iter().map(Community).collect();
                    if blackhole {
                        cs.push(Community::new(6695, 666));
                    }
                    if !cs.is_empty() {
                        u.add_communities(&cs);
                    }
                    if signal {
                        u.add_extended_communities(&[ExtendedCommunity::TwoOctetAs {
                            subtype: 0xbb,
                            asn: 6695,
                            local: 0x0200_007b,
                            transitive: true,
                        }]);
                    }
                    u
                };
                (peer, u)
            },
        )
}

/// A community: arbitrary, or an action community naming a member or
/// the IXP, or the blackhole tag.
fn arb_community() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        (0u16..8).prop_map(|k| Community::new(0, 64500 + k).0),
        (0u16..8).prop_map(|k| Community::new(IXP, 64500 + k).0),
        Just(Community::new(0, IXP).0),
        Just(Community::new(IXP, 666).0),
    ]
}

/// The documented export scope, written out independently of the route
/// server: `0:<peer>` blocks that peer; `0:<ixp>` blocks everyone but the
/// `<ixp>:<peer>` whitelist, on which the blackhole tag `<ixp>:666` never
/// counts; otherwise everyone.
fn admitted(communities: &[Community], target: Asn) -> bool {
    let Ok(t) = u16::try_from(target.0) else {
        return !communities.contains(&Community::new(0, IXP));
    };
    if t != IXP && communities.contains(&Community::new(0, t)) {
        return false;
    }
    !communities.contains(&Community::new(0, IXP))
        || (t != 666 && communities.contains(&Community::new(IXP, t)))
}

/// The one NLRI an export carries, and whether it is a withdrawal.
fn exported_nlri(group: &Export) -> (Prefix, bool) {
    let withdrawn = group.message.withdrawals().next();
    let announced = group.message.announcements().next().map(|(n, _)| n);
    match (withdrawn, announced) {
        (Some(w), None) => (w.prefix, true),
        (None, Some(a)) => (a.prefix, false),
        _ => panic!("export carries not exactly one NLRI: {group:?}"),
    }
}

/// Every NLRI `u` announces or withdraws, each with whether it sits in
/// its family's place: IPv4 in the classic fields, IPv6 in
/// MP_REACH/MP_UNREACH.
fn placements(u: &UpdateMessage) -> Vec<(Nlri, bool)> {
    let classic = u.withdrawn.iter().chain(&u.nlri).map(|n| (*n, true));
    let mp = u.attrs.iter().flat_map(|a| match a {
        PathAttribute::MpReach { nlri, .. } | PathAttribute::MpUnreach { nlri, .. } => {
            nlri.as_slice()
        }
        _ => &[],
    });
    let mp = mp.map(|n| (*n, false));
    classic
        .chain(mp)
        .map(|(n, classic)| (n, classic == matches!(n.prefix, Prefix::V4(_))))
        .collect()
}

/// `u` carries exactly one NLRI, in its family's place, tagged with a
/// path id iff `tagged`.
fn one_placed_nlri(u: &UpdateMessage, tagged: bool) -> bool {
    matches!(placements(u)[..], [(n, true)] if n.path_id.is_some() == tagged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn outputs_are_wire_clean_under_arbitrary_inputs(
        updates in proptest::collection::vec(arb_update(), 1..24),
    ) {
        let mut rs = server();
        let plain = DecodeCtx { add_path: false };
        let add_path = DecodeCtx { add_path: true };
        let members: Vec<Asn> = (0..8u32).map(|a| Asn(64500 + a)).collect();
        // The routes the server holds, by (announcing member, prefix).
        let mut held: BTreeSet<(Asn, Prefix)> = BTreeSet::new();
        for (t, (peer, u)) in updates.into_iter().enumerate() {
            let sender = Asn(64500 + peer);
            let out = rs.handle_update(sender, &u, t as u64);
            // The groups the model expects: withdrawals that removed a
            // route, then accepted announcements, in UPDATE order.
            let others = members.iter().copied().filter(|m| *m != sender);
            let mut want = Vec::new();
            for w in u.withdrawals() {
                if held.remove(&(sender, w.prefix)) {
                    want.push((w.prefix, true, others.clone().collect::<Vec<_>>()));
                }
            }
            for (n, _) in u.announcements() {
                if out.rejections.iter().all(|(p, _)| *p != n.prefix) {
                    held.insert((sender, n.prefix));
                    let admits = |m: &Asn| admitted(u.communities(), *m);
                    want.push((n.prefix, false, others.clone().filter(admits).collect()));
                }
            }
            let got: Vec<_> = out
                .exports
                .iter()
                .map(|group| {
                    let (prefix, withdrawal) = exported_nlri(group);
                    (prefix, withdrawal, group.targets.clone())
                })
                .collect();
            // Ascending and unique follows from the comparison: the model
            // lists members in ascending order, the sender left out.
            prop_assert_eq!(got, want);
            for Export { message: export, .. } in &out.exports {
                // Exports must encode on a plain eBGP session.
                let wire = Message::Update(export.clone()).encode(plain);
                prop_assert!(wire.is_ok(), "export not encodable: {export:?}");
                prop_assert!(one_placed_nlri(export, false), "export: {export:?}");
                // Action communities must be stripped.
                for c in export.communities() {
                    prop_assert!(
                        c.asn() != 0,
                        "action community {c} leaked in export"
                    );
                }
            }
            for feed in &out.controller_updates {
                // The controller feed must encode under ADD-PATH, one
                // path-id-tagged entry per message.
                let wire = Message::Update(feed.clone()).encode(add_path);
                prop_assert!(wire.is_ok(), "feed not encodable: {feed:?}");
                prop_assert!(one_placed_nlri(feed, true), "feed: {feed:?}");
            }
        }
        // So must the controller resync, and tearing every peer down.
        for feed in rs.controller_resync() {
            prop_assert!(one_placed_nlri(&feed, true), "resync: {feed:?}");
        }
        for a in 0..8u32 {
            let sender = Asn(64500 + a);
            let out = rs.peer_down(sender);
            // One group per flushed route, to every other member.
            let flushed: Vec<Prefix> = held
                .iter()
                .filter(|(owner, _)| *owner == sender)
                .map(|(_, prefix)| *prefix)
                .collect();
            held.retain(|(owner, _)| *owner != sender);
            let others: Vec<Asn> = members.iter().copied().filter(|m| *m != sender).collect();
            prop_assert_eq!(out.exports.len(), flushed.len());
            for group in &out.exports {
                let (prefix, withdrawal) = exported_nlri(group);
                prop_assert!(withdrawal && flushed.contains(&prefix));
                prop_assert_eq!(&group.targets, &others);
            }
            for Export { message: export, .. } in &out.exports {
                prop_assert!(Message::Update(export.clone()).encode(plain).is_ok());
                prop_assert!(one_placed_nlri(export, false), "export: {export:?}");
            }
            for feed in &out.controller_updates {
                prop_assert!(Message::Update(feed.clone()).encode(add_path).is_ok());
                prop_assert!(one_placed_nlri(feed, true), "feed: {feed:?}");
            }
        }
    }
}
