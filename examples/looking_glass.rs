//! Route-server operations demo: routing hygiene and the looking glass.
//!
//! Shows the import policy rejecting a hijack, accepting a blackhole
//! /32, rewriting its next hop, and what a member sees in the looking
//! glass while all this happens.
//!
//! ```text
//! cargo run --example looking_glass
//! ```

use stellar::bgp::attr::{AsPath, PathAttribute};
use stellar::bgp::community::Community;
use stellar::bgp::types::Asn;
use stellar::bgp::update::UpdateMessage;
use stellar::net::addr::Ipv4Address;
use stellar::routeserver::irr::IrrDb;
use stellar::routeserver::looking_glass;
use stellar::routeserver::policy::ImportPolicy;
use stellar::routeserver::rpki::{Roa, RpkiTable};
use stellar::routeserver::server::{RouteServer, RouteServerConfig, RouteServerOutput};

fn announce(prefix: &str, asn: u32, next_hop: [u8; 4]) -> UpdateMessage {
    UpdateMessage::announce(
        prefix.parse().unwrap(),
        Ipv4Address(next_hop),
        PathAttribute::AsPath(AsPath::sequence([asn])),
    )
}

/// How many members an output's update groups reach.
fn members_reached(out: &RouteServerOutput) -> usize {
    out.exports.iter().map(|group| group.targets.len()).sum()
}

fn main() {
    // The IXP's validation databases.
    let mut irr = IrrDb::new();
    irr.register("100.10.10.0/24".parse().unwrap(), Asn(64500));
    let mut rpki = RpkiTable::new();
    rpki.add(Roa {
        prefix: "100.10.10.0/24".parse().unwrap(),
        max_len: 32,
        asn: Asn(64500),
    });
    let mut rs = RouteServer::new(RouteServerConfig::l_ixp(), ImportPolicy::new(irr, rpki));
    rs.add_peer(Asn(64500), Ipv4Address::new(80, 81, 192, 1));
    rs.add_peer(Asn(64501), Ipv4Address::new(80, 81, 192, 2));
    rs.add_peer(Asn(64502), Ipv4Address::new(80, 81, 192, 3));

    // A legitimate announcement.
    let out = rs.handle_update(
        Asn(64500),
        &announce("100.10.10.0/24", 64500, [80, 81, 192, 1]),
        0,
    );
    println!(
        "AS64500 announces 100.10.10.0/24: exported to {} peers, {} rejections",
        members_reached(&out),
        out.rejections.len()
    );

    // A hijack attempt: AS64501 announcing someone else's prefix.
    let out = rs.handle_update(
        Asn(64501),
        &announce("100.10.10.0/24", 64501, [80, 81, 192, 2]),
        1,
    );
    println!(
        "AS64501 hijack attempt: {} exports, rejected: {:?}",
        members_reached(&out),
        out.rejections.first().map(|(_, r)| r.describe())
    );

    // The victim blackholes its attacked /32 (classic RTBH).
    let mut bh = announce("100.10.10.10/32", 64500, [80, 81, 192, 1]);
    bh.add_communities(&[Community::BLACKHOLE]);
    let out = rs.handle_update(Asn(64500), &bh, 2);
    println!(
        "AS64500 blackholes 100.10.10.10/32: exported to {} peers with next hop {}",
        members_reached(&out),
        out.exports[0].message.next_hop().unwrap()
    );

    // What the looking glass shows.
    println!();
    for prefix in ["100.10.10.0/24", "100.10.10.10/32"] {
        let views = looking_glass::query(&rs, prefix.parse().unwrap());
        print!("{}", looking_glass::render(prefix.parse().unwrap(), &views));
    }
    println!(
        "\nimport stats: {} accepted, rejected: {:?}",
        rs.stats().accepted,
        rs.stats().rejected
    );
}
