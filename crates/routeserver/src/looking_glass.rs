//! Looking glass: the member-facing debugging view (§4.3: "members can
//! rely on looking glasses for debugging").

use crate::server::RouteServer;
use stellar_bgp::attr::AsSegment;
use stellar_bgp::community::Community;
use stellar_bgp::types::Asn;
use stellar_net::addr::Ipv4Address;
use stellar_net::prefix::Prefix;

/// One row of a looking-glass query.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteView {
    /// The announcing member.
    pub peer: Asn,
    /// The AS path as a list of ASNs (sequences flattened).
    pub as_path: Vec<u32>,
    /// Next hop.
    pub next_hop: Option<Ipv4Address>,
    /// Communities on the route.
    pub communities: Vec<Community>,
    /// True if the route carries a blackhole community.
    pub blackholed: bool,
}

/// Queries the route server for every path it holds for `prefix`.
pub fn query(rs: &RouteServer, prefix: Prefix) -> Vec<RouteView> {
    let ixp = rs.config().ixp_asn;
    rs.routes_for(prefix)
        .map(|r| {
            let communities = r.communities().to_vec();
            let blackholed = communities.iter().any(|c| c.is_blackhole(ixp));
            let segments = r.as_path().map_or(&[][..], |p| p.segments.as_slice());
            let as_path = segments
                .iter()
                .flat_map(|s| match s {
                    AsSegment::Sequence(v) | AsSegment::Set(v) => v.iter().map(|a| a.0),
                })
                .collect();
            RouteView {
                peer: r.peer.asn,
                as_path,
                next_hop: r.next_hop(),
                communities,
                blackholed,
            }
        })
        .collect()
}

/// Renders a looking-glass answer as text (what a member would see).
pub fn render(prefix: Prefix, views: &[RouteView]) -> String {
    let mut out = format!("BGP routing table entry for {prefix}\n");
    if views.is_empty() {
        out.push_str("  (no paths)\n");
    }
    for v in views {
        let path: Vec<String> = v.as_path.iter().map(u32::to_string).collect();
        out.push_str(&format!(
            "  from {} path [{}] next-hop {}{}\n",
            v.peer,
            path.join(" "),
            v.next_hop
                .map(|h| h.to_string())
                .unwrap_or_else(|| "-".to_string()),
            if v.blackholed { " [BLACKHOLED]" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irr::IrrDb;
    use crate::policy::ImportPolicy;
    use crate::rpki::RpkiTable;
    use crate::server::RouteServerConfig;
    use stellar_bgp::attr::{AsPath, PathAttribute};
    use stellar_bgp::update::UpdateMessage;

    fn setup() -> RouteServer {
        let mut irr = IrrDb::new();
        irr.register("100.10.10.0/24".parse().unwrap(), Asn(64500));
        let mut rs = RouteServer::new(
            RouteServerConfig::l_ixp(),
            ImportPolicy::new(irr, RpkiTable::new()),
        );
        rs.add_peer(Asn(64500), Ipv4Address::new(80, 81, 192, 1));
        rs.add_peer(Asn(64501), Ipv4Address::new(80, 81, 192, 2));
        rs
    }

    #[test]
    fn query_reflects_blackhole_state() {
        let mut rs = setup();
        let mut u = UpdateMessage::announce(
            "100.10.10.10/32".parse().unwrap(),
            Ipv4Address::new(80, 81, 192, 10),
            PathAttribute::AsPath(AsPath::sequence([64500])),
        );
        u.add_communities(&[Community::new(6695, 666)]);
        rs.handle_update(Asn(64500), &u, 0);

        let views = query(&rs, "100.10.10.10/32".parse().unwrap());
        assert_eq!(views.len(), 1);
        assert!(views[0].blackholed);
        assert_eq!(views[0].peer, Asn(64500));
        assert_eq!(views[0].as_path, vec![64500]);

        let text = render("100.10.10.10/32".parse().unwrap(), &views);
        assert!(text.contains("[BLACKHOLED]"));
        assert!(text.contains("AS64500"));
    }

    #[test]
    fn empty_query_renders_no_paths() {
        let rs = setup();
        let views = query(&rs, "100.10.10.0/24".parse().unwrap());
        assert!(views.is_empty());
        let text = render("100.10.10.0/24".parse().unwrap(), &views);
        assert!(text.contains("(no paths)"));
    }
}
