//! The per-peer Adj-RIB-In (RFC 4271 §3.2): one route per (prefix,
//! ADD-PATH id), edited by key. The route server keeps one per member
//! session; re-exports and the controller resync are built from it.

use crate::attr::{AsPath, PathAttribute};
use crate::community::Community;
use crate::nlri::Nlri;
use crate::types::Asn;
use crate::update;
use std::collections::BTreeMap;
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::prefix::Prefix;

/// Identifies the peer a route was learned from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId {
    /// Peer AS number.
    pub asn: Asn,
    /// Peer BGP identifier.
    pub bgp_id: Ipv4Address,
}

/// A route: one path for one prefix from one peer.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// The prefix (+ optional ADD-PATH id).
    pub nlri: Nlri,
    /// Path attributes as received.
    pub attrs: Vec<PathAttribute>,
    /// The peer this came from.
    pub peer: PeerId,
    /// Receive timestamp (µs of simulation time).
    pub received_us: u64,
}

impl Route {
    /// The AS_PATH, if present.
    pub fn as_path(&self) -> Option<&AsPath> {
        update::as_path(&self.attrs)
    }

    /// NEXT_HOP if present.
    pub fn next_hop(&self) -> Option<Ipv4Address> {
        update::next_hop(&self.attrs)
    }

    /// The next hop of the MP_REACH_NLRI the route arrived in, if any.
    pub fn mp_next_hop(&self) -> Option<IpAddress> {
        update::mp_next_hop(&self.attrs)
    }

    /// Standard communities.
    pub fn communities(&self) -> &[Community] {
        update::communities(&self.attrs)
    }
}

/// Per-peer Adj-RIB-In, keyed by (prefix, ADD-PATH id).
#[derive(Debug, Default)]
pub struct AdjRibIn {
    routes: BTreeMap<(Prefix, Option<u32>), Route>,
}

impl AdjRibIn {
    /// Creates an empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `route` under its NLRI, returning the route it replaces (an
    /// implicit withdraw).
    pub fn insert(&mut self, route: Route) -> Option<Route> {
        self.routes
            .insert((route.nlri.prefix, route.nlri.path_id), route)
    }

    /// Removes the route stored under `nlri`, if any.
    pub fn remove(&mut self, nlri: Nlri) -> Option<Route> {
        self.routes.remove(&(nlri.prefix, nlri.path_id))
    }

    /// Removes every route from the RIB, in key order (session down ⇒
    /// implicit withdrawal of all the peer's routes and, in Stellar, of
    /// all its blackholing rules).
    pub fn flush(&mut self) -> Vec<Route> {
        std::mem::take(&mut self.routes).into_values().collect()
    }

    /// All routes, ordered by key.
    pub fn routes(&self) -> impl Iterator<Item = &Route> {
        self.routes.values()
    }

    /// All routes for a given prefix (any path id).
    pub fn routes_for(&self, prefix: Prefix) -> impl Iterator<Item = &Route> {
        self.routes
            .range((prefix, None)..=(prefix, Some(u32::MAX)))
            .map(|(_, r)| r)
    }

    /// Number of paths held.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no routes are held.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(asn: u32, id: u8) -> PeerId {
        PeerId {
            asn: Asn(asn),
            bgp_id: Ipv4Address::new(10, 0, 0, id),
        }
    }

    fn route(nlri: Nlri, asns: &[u32]) -> Route {
        Route {
            nlri,
            attrs: vec![PathAttribute::AsPath(AsPath::sequence(
                asns.iter().copied(),
            ))],
            peer: peer(asns[0], 1),
            received_us: 0,
        }
    }

    fn plain(prefix: &str) -> Nlri {
        Nlri::plain(prefix.parse().unwrap())
    }

    #[test]
    fn insert_and_remove_by_key() {
        let mut rib = AdjRibIn::new();
        let n = plain("100.10.10.0/24");
        assert!(rib.insert(route(n, &[64500])).is_none());
        assert_eq!(rib.len(), 1);
        // Re-announcing replaces the stored path (implicit withdraw).
        let old = rib.insert(route(n, &[64500, 64501])).unwrap();
        assert_eq!(old.as_path().unwrap().path_len(), 1);
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.remove(n).unwrap().as_path().unwrap().path_len(), 2);
        assert!(rib.is_empty());
        // Withdrawing a non-existent route changes nothing.
        assert!(rib.remove(plain("1.0.0.0/8")).is_none());
        assert!(rib.remove(Nlri::with_path_id(n.prefix, 1)).is_none());
    }

    #[test]
    fn add_path_keeps_parallel_paths() {
        let mut rib = AdjRibIn::new();
        let prefix = "100.10.10.10/32".parse().unwrap();
        rib.insert(route(Nlri::with_path_id(prefix, 1), &[64500]));
        rib.insert(route(Nlri::with_path_id(prefix, 2), &[64501]));
        assert_eq!(rib.len(), 2);
        assert_eq!(rib.routes_for(prefix).count(), 2);
        rib.remove(Nlri::with_path_id(prefix, 1));
        let left: Vec<_> = rib.routes_for(prefix).map(|r| r.nlri.path_id).collect();
        assert_eq!(left, vec![Some(2)]);
    }

    #[test]
    fn flush_empties_and_returns_routes() {
        let mut rib = AdjRibIn::new();
        rib.insert(route(plain("2.0.0.0/8"), &[64500]));
        rib.insert(route(plain("1.0.0.0/8"), &[64500]));
        let flushed = rib.flush();
        let order: Vec<_> = flushed.iter().map(|r| r.nlri).collect();
        assert_eq!(order, vec![plain("1.0.0.0/8"), plain("2.0.0.0/8")]);
        assert!(rib.is_empty());
    }

    #[test]
    fn route_attribute_accessors_default_sanely() {
        let mut r = Route {
            nlri: plain("1.0.0.0/8"),
            attrs: vec![],
            peer: peer(64500, 1),
            received_us: 0,
        };
        assert!(r.as_path().is_none());
        assert!(r.next_hop().is_none());
        assert!(r.mp_next_hop().is_none());
        assert!(r.communities().is_empty());
        r.attrs = vec![
            PathAttribute::NextHop(Ipv4Address::new(80, 81, 192, 1)),
            PathAttribute::Communities(vec![Community::BLACKHOLE]),
        ];
        assert_eq!(r.next_hop(), Some(Ipv4Address::new(80, 81, 192, 1)));
        assert_eq!(r.communities(), &[Community::BLACKHOLE]);
    }
}
