//! Golden route-server digests: the pinned reference for everything the
//! signaling front door does with a member's UPDATE.
//!
//! Each episode drives a fresh [`RouteServer`] through its public entries
//! only — unicast and FlowSpec UPDATEs, FlowSpec wire bytes, session-down
//! flushes — and is hashed (FNV-1a) over the `Debug` rendering of every
//! [`RouteServerOutput`] as its members receive it (each update group
//! expanded to one `(target, message)` pair per member, see
//! [`AsReceived`]) and every
//! [`FlowSpecOutput`](stellar_routeserver::FlowSpecOutput) it produced,
//! then over the route-refresh view of every peer, the controller resync
//! replay, the looking glass for the prefixes it touched and the observed
//! import counters. A mismatch means the route server changed behaviour —
//! re-pin only with an argument why.

use std::fmt::{self, Debug};
use stellar_bgp::attr::{AsPath, PathAttribute};
use stellar_bgp::community::Community;
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::{corrupt_wire, Component, FlowSpec, NumericOp};
use stellar_bgp::nlri::Nlri;
use stellar_bgp::types::{Afi, Asn, Origin, Safi};
use stellar_bgp::update::UpdateMessage;
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::prefix::Prefix;
use stellar_routeserver::irr::IrrDb;
use stellar_routeserver::looking_glass;
use stellar_routeserver::policy::ImportPolicy;
use stellar_routeserver::rpki::RpkiTable;
use stellar_routeserver::server::{RouteServer, RouteServerConfig};
use stellar_routeserver::RouteServerOutput;

const IXP: u16 = 6695;
const A: Asn = Asn(64500);
const B: Asn = Asn(64501);
const C: Asn = Asn(64502);
const D: Asn = Asn(64503);

/// FNV-1a over raw bytes.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One episode: a route server with four members, the running digest and
/// the prefixes whose looking-glass view ends the digest.
struct Run {
    rs: RouteServer,
    h: Fnv,
    touched: Vec<Prefix>,
}

impl Run {
    fn new() -> Self {
        let mut irr = IrrDb::new();
        irr.register(p("100.10.0.0/16"), A);
        irr.register(p("2001:db8:100::/48"), A);
        irr.register(p("100.11.0.0/16"), B);
        irr.register(p("100.12.0.0/16"), C);
        let mut rs = RouteServer::new(
            RouteServerConfig::l_ixp(),
            ImportPolicy::new(irr, RpkiTable::new()),
        );
        for (i, asn) in [A, B, C, D].into_iter().enumerate() {
            rs.add_peer(asn, Ipv4Address::new(80, 81, 192, i as u8 + 1));
        }
        Run {
            rs,
            h: Fnv(0xcbf2_9ce4_8422_2325),
            touched: Vec::new(),
        }
    }

    fn hash(&mut self, value: &impl Debug) {
        self.h.bytes(format!("{value:?}").as_bytes());
    }

    fn touch(&mut self, prefix: Prefix) {
        if !self.touched.contains(&prefix) {
            self.touched.push(prefix);
        }
    }

    fn update(&mut self, peer: Asn, u: &UpdateMessage, now_us: u64) {
        let out = self.rs.handle_update(peer, u, now_us);
        self.hash_output(&out);
    }

    fn hash_output(&mut self, out: &RouteServerOutput) {
        self.hash(&AsReceived(out));
    }

    fn flowspec(&mut self, peer: Asn, u: &UpdateMessage) {
        let out = self.rs.handle_flowspec_update(peer, u);
        self.hash(&out);
    }

    fn wire(&mut self, peer: Asn, bytes: &[u8], actions: &[ExtendedCommunity]) {
        let out = self
            .rs
            .handle_flowspec_wire(peer, Afi::Ipv4, bytes, actions);
        self.hash(&out);
    }

    fn peer_down(&mut self, peer: Asn) {
        let out = self.rs.peer_down(peer);
        self.hash_output(&out);
    }

    /// Hashes what the episode left behind and returns the digest.
    fn digest(mut self) -> u64 {
        for peer in self.rs.peer_asns() {
            let view = self.rs.refresh_exports(peer);
            self.hash(&view);
        }
        let replay = self.rs.controller_resync();
        self.hash(&replay);
        for prefix in std::mem::take(&mut self.touched) {
            let views = looking_glass::query(&self.rs, prefix);
            self.h
                .bytes(looking_glass::render(prefix, &views).as_bytes());
        }
        let mut reg = stellar_obs::MetricsRegistry::new();
        self.rs.observe(&mut reg);
        self.hash(&reg);
        self.h.0
    }
}

/// A route-server output rendered as its members receive it: one
/// `(target, message)` pair per member of each update group, in group
/// order, next to the controller feed, the rejections and the flushed
/// FlowSpec rules. This is the text the derived `Debug` printed while
/// exports were one pair per member, so the digests pinned then hold.
struct AsReceived<'a>(&'a RouteServerOutput);

impl Debug for AsReceived<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let out = self.0;
        let exports: Vec<(Asn, &UpdateMessage)> = out
            .exports
            .iter()
            .flat_map(|group| group.targets.iter().map(move |t| (*t, &group.message)))
            .collect();
        f.debug_struct("RouteServerOutput")
            .field("exports", &exports)
            .field("controller_updates", &out.controller_updates)
            .field("rejections", &out.rejections)
            .field("flowspec_withdrawn", &out.flowspec_withdrawn)
            .finish()
    }
}

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// A Stellar signal: drop UDP from source `port` (kind 2, action 0).
fn drop_udp_src(port: u16) -> ExtendedCommunity {
    ExtendedCommunity::TwoOctetAs {
        subtype: 0xbb,
        asn: IXP,
        local: 0x0200_0000 | u32::from(port),
        transitive: true,
    }
}

/// `peer`'s announcement of an IPv4 `prefix` with `communities` and
/// `signals`.
fn announce(
    peer: Asn,
    prefix: &str,
    communities: &[Community],
    signals: &[ExtendedCommunity],
) -> UpdateMessage {
    let mut u = UpdateMessage::announce(
        p(prefix),
        Ipv4Address::new(80, 81, 192, 10),
        PathAttribute::AsPath(AsPath::sequence([peer.0])),
    );
    if !communities.is_empty() {
        u.add_communities(communities);
    }
    if !signals.is_empty() {
        u.add_extended_communities(signals);
    }
    u
}

/// The MP_REACH_NLRI carrying an IPv6 `prefix`, as a member sends it.
fn mp_reach(prefix: &str) -> PathAttribute {
    PathAttribute::MpReach {
        afi: Afi::Ipv6,
        safi: Safi::Unicast,
        next_hop: IpAddress::V6("2001:7f8:0:1::a".parse().unwrap()),
        nlri: vec![Nlri::plain(p(prefix))],
    }
}

/// `peer`'s announcement of an IPv6 `prefix` over MP-BGP.
fn announce_v6(
    peer: Asn,
    prefix: &str,
    communities: &[Community],
    signals: &[ExtendedCommunity],
) -> UpdateMessage {
    let mut u = UpdateMessage {
        attrs: vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(AsPath::sequence([peer.0])),
            mp_reach(prefix),
        ],
        ..Default::default()
    };
    if !communities.is_empty() {
        u.add_communities(communities);
    }
    if !signals.is_empty() {
        u.add_extended_communities(signals);
    }
    u
}

fn udp_src_flow(dst: &str, port: u64) -> FlowSpec {
    FlowSpec::new(
        Afi::Ipv4,
        vec![
            Component::DstPrefix(p(dst)),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(vec![NumericOp::equals(port)]),
        ],
    )
    .unwrap()
}

fn flowspec_announce(peer: Asn, flow: FlowSpec, actions: &[ExtendedCommunity]) -> UpdateMessage {
    let mut u = UpdateMessage {
        attrs: vec![
            PathAttribute::AsPath(AsPath::sequence([peer.0])),
            PathAttribute::MpReachFlowSpec {
                afi: flow.afi,
                nlri: vec![flow],
            },
        ],
        ..Default::default()
    };
    if !actions.is_empty() {
        u.add_extended_communities(actions);
    }
    u
}

fn flowspec_withdraw(flow: FlowSpec) -> UpdateMessage {
    UpdateMessage {
        attrs: vec![PathAttribute::MpUnreachFlowSpec {
            afi: flow.afi,
            nlri: vec![flow],
        }],
        ..Default::default()
    }
}

fn drop_rate(peer: Asn) -> ExtendedCommunity {
    ExtendedCommunity::traffic_rate(peer.0 as u16, 0.0)
}

/// A v4 Stellar signal and a blackhole-tagged host route next to a plain
/// /24; then the signal is withdrawn.
fn v4_signal_blackhole() -> u64 {
    let mut run = Run::new();
    run.update(A, &announce(A, "100.10.0.0/24", &[], &[]), 0);
    run.update(
        A,
        &announce(A, "100.10.10.10/32", &[], &[drop_udp_src(123)]),
        1,
    );
    run.update(
        A,
        &announce(A, "100.10.10.11/32", &[Community::new(IXP, 666)], &[]),
        2,
    );
    run.update(A, &UpdateMessage::withdraw(p("100.10.10.10/32")), 3);
    for prefix in ["100.10.0.0/24", "100.10.10.10/32", "100.10.10.11/32"] {
        run.touch(p(prefix));
    }
    run.digest()
}

/// Action communities: one peer blocked; announce to none but a
/// whitelisted peer; a blackhole announced to none but one peer.
fn action_scoping() -> u64 {
    let mut run = Run::new();
    run.update(
        A,
        &announce(A, "100.10.1.0/24", &[Community::new(0, C.0 as u16)], &[]),
        0,
    );
    run.update(
        A,
        &announce(
            A,
            "100.10.2.0/24",
            &[Community::new(0, IXP), Community::new(IXP, D.0 as u16)],
            &[],
        ),
        1,
    );
    run.update(
        A,
        &announce(
            A,
            "100.10.3.3/32",
            &[
                Community::BLACKHOLE,
                Community::new(0, IXP),
                Community::new(IXP, B.0 as u16),
            ],
            &[],
        ),
        2,
    );
    for prefix in ["100.10.1.0/24", "100.10.2.0/24", "100.10.3.3/32"] {
        run.touch(p(prefix));
    }
    run.digest()
}

/// A v6 /128 signal, a v6 /128 blackhole (next hop rewritten to the
/// IXP's v6 blackhole) and a plain v6 /48; then the signal is withdrawn.
fn v6_signal_blackhole() -> u64 {
    let mut run = Run::new();
    run.update(A, &announce_v6(A, "2001:db8:100::/48", &[], &[]), 0);
    run.update(
        A,
        &announce_v6(A, "2001:db8:100::10/128", &[], &[drop_udp_src(123)]),
        1,
    );
    run.update(
        A,
        &announce_v6(A, "2001:db8:100::11/128", &[Community::BLACKHOLE], &[]),
        2,
    );
    run.update(A, &UpdateMessage::withdraw(p("2001:db8:100::10/128")), 3);
    for prefix in [
        "2001:db8:100::/48",
        "2001:db8:100::10/128",
        "2001:db8:100::11/128",
    ] {
        run.touch(p(prefix));
    }
    run.digest()
}

/// One UPDATE announcing a v4 /32 in the classic field and a v6 /128 in
/// MP_REACH under one signal; a route refresh and resync while both
/// stand; then one UPDATE withdrawing both.
fn mixed_family() -> u64 {
    let mut run = Run::new();
    let mut mixed = announce(A, "100.10.10.10/32", &[], &[drop_udp_src(123)]);
    mixed.attrs.push(mp_reach("2001:db8:100::10/128"));
    run.update(A, &mixed, 0);
    let view = run.rs.refresh_exports(B);
    run.hash(&view);
    let replay = run.rs.controller_resync();
    run.hash(&replay);
    let mut withdraw = UpdateMessage::withdraw(p("100.10.10.10/32"));
    withdraw.attrs = UpdateMessage::withdraw(p("2001:db8:100::10/128")).attrs;
    run.update(A, &withdraw, 1);
    run.touch(p("100.10.10.10/32"));
    run.touch(p("2001:db8:100::10/128"));
    run.digest()
}

/// Bogon, path spoof, hijack, too-specific and max-prefix refusals, next
/// to the announcements that got in.
fn refusals() -> u64 {
    let mut run = Run::new();
    run.update(A, &announce(A, "10.0.0.0/8", &[], &[]), 0);
    run.update(A, &announce(B, "100.10.0.0/24", &[], &[]), 1);
    run.update(B, &announce(B, "100.10.0.0/24", &[], &[]), 2);
    run.update(A, &announce(A, "100.10.10.10/32", &[], &[]), 3);
    run.rs.policy_mut().max_prefixes_per_peer = Some(2);
    for (i, prefix) in ["100.10.4.0/24", "100.10.5.0/24", "100.10.6.0/24"]
        .into_iter()
        .enumerate()
    {
        run.update(A, &announce(A, prefix, &[], &[]), 4 + i as u64);
    }
    for prefix in ["10.0.0.0/8", "100.10.0.0/24", "100.10.6.0/24"] {
        run.touch(p(prefix));
    }
    run.digest()
}

/// One prefix from two members under distinct path ids and diverging
/// signals; then one of them withdraws.
fn two_members_one_prefix() -> u64 {
    let mut run = Run::new();
    run.rs.policy_mut().irr.register(p("100.10.10.0/24"), B);
    run.update(
        A,
        &announce(A, "100.10.10.10/32", &[], &[drop_udp_src(123)]),
        0,
    );
    run.update(
        B,
        &announce(B, "100.10.10.10/32", &[], &[drop_udp_src(53)]),
        1,
    );
    let replay = run.rs.controller_resync();
    run.hash(&replay);
    run.update(A, &UpdateMessage::withdraw(p("100.10.10.10/32")), 2);
    run.touch(p("100.10.10.10/32"));
    run.digest()
}

/// A withdrawal repeated, and one of a prefix never announced: neither
/// exports, feeds or counts anything.
fn duplicate_withdrawal() -> u64 {
    let mut run = Run::new();
    run.update(A, &announce(A, "100.10.0.0/24", &[], &[]), 0);
    for t in 1..3 {
        run.update(A, &UpdateMessage::withdraw(p("100.10.0.0/24")), t);
    }
    run.update(B, &UpdateMessage::withdraw(p("100.11.0.0/24")), 3);
    run.touch(p("100.10.0.0/24"));
    run.digest()
}

/// A session going down while it holds v4 and v6 unicast routes and a
/// FlowSpec rule; the other members' routes stay.
fn peer_down() -> u64 {
    let mut run = Run::new();
    run.update(A, &announce(A, "100.10.0.0/24", &[], &[]), 0);
    run.update(
        A,
        &announce(A, "100.10.10.10/32", &[], &[drop_udp_src(123)]),
        1,
    );
    run.update(
        A,
        &announce_v6(A, "2001:db8:100::10/128", &[Community::BLACKHOLE], &[]),
        2,
    );
    run.update(B, &announce(B, "100.11.0.0/24", &[], &[]), 3);
    run.flowspec(
        A,
        &flowspec_announce(A, udp_src_flow("100.10.10.10/32", 389), &[drop_rate(A)]),
    );
    run.peer_down(A);
    run.peer_down(A);
    for prefix in ["100.10.0.0/24", "2001:db8:100::10/128", "100.11.0.0/24"] {
        run.touch(p(prefix));
    }
    run.digest()
}

/// FlowSpec announce, re-announce with another action, a non-owner's
/// refusal, withdraw (twice), then wire bytes: intact, and corrupted.
fn flowspec() -> u64 {
    let mut run = Run::new();
    let flow = udp_src_flow("100.10.10.10/32", 123);
    run.flowspec(A, &flowspec_announce(A, flow.clone(), &[drop_rate(A)]));
    let shape = ExtendedCommunity::traffic_rate(A.0 as u16, 1_000_000.0);
    run.flowspec(A, &flowspec_announce(A, flow.clone(), &[shape]));
    run.flowspec(
        B,
        &flowspec_announce(B, udp_src_flow("100.10.10.11/32", 53), &[drop_rate(B)]),
    );
    run.flowspec(A, &flowspec_withdraw(flow.clone()));
    run.flowspec(A, &flowspec_withdraw(flow.clone()));
    let mut wire = flow.to_wire().unwrap();
    wire.extend(udp_src_flow("100.10.10.12/32", 19).to_wire().unwrap());
    run.wire(A, &wire, &[drop_rate(A)]);
    for salt in [0u64, 1, 7] {
        run.wire(A, &corrupt_wire(&wire, salt), &[drop_rate(A)]);
    }
    let held = format!("{:?}", run.rs.flowspec_routes());
    run.h.bytes(held.as_bytes());
    run.digest()
}

type Episode = (&'static str, fn() -> u64, u64);

/// Computed while the route server still decided NLRI placement itself,
/// before `bgp::update` did it for every caller. Only the mixed-family
/// episode was re-pinned since.
const GOLDEN: [Episode; 9] = [
    (
        "v4_signal_blackhole",
        v4_signal_blackhole,
        0xcef7_d5c8_1ebe_79e0,
    ),
    ("action_scoping", action_scoping, 0x602e_c7b2_8bb5_7583),
    (
        "v6_signal_blackhole",
        v6_signal_blackhole,
        0x955b_3442_5c40_7498,
    ),
    // Re-pinned by the mixed-family feed fix: the v4 path's feed message
    // no longer carries the v6 prefix's MP_REACH, and the v6 one no
    // longer the classic NEXT_HOP. Before: 0x1e6c_35a7_9f6b_ff5c.
    ("mixed_family", mixed_family, 0x204d_b8a1_e6fc_4f1c),
    ("refusals", refusals, 0xb0be_b4b5_9438_721c),
    (
        "two_members_one_prefix",
        two_members_one_prefix,
        0x8e10_c7e0_e8e2_75dc,
    ),
    (
        "duplicate_withdrawal",
        duplicate_withdrawal,
        0x5c5f_5eec_08d2_11c2,
    ),
    ("peer_down", peer_down, 0x49d3_4e60_b11c_85b4),
    ("flowspec", flowspec, 0xcdbb_e1c6_feda_f751),
];

#[test]
fn golden_route_server_digests() {
    let mut failed = Vec::new();
    for (name, run, want) in GOLDEN {
        let got = run();
        if got != want {
            failed.push(format!("episode {name}: digest {got:#018x}"));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
