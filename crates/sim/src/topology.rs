//! IXP topology assembly: members, route server, edge fabric.

use crate::fabric::{Fabric, PopId};
use crate::honoring::HonoringModel;
use std::collections::BTreeMap;
use stellar_bgp::attr::{AsPath, PathAttribute};
use stellar_bgp::types::Asn;
use stellar_bgp::update::UpdateMessage;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::switch::PortId;
use stellar_net::addr::Ipv4Address;
use stellar_net::mac::MacAddr;
use stellar_net::prefix::{Ipv4Prefix, Prefix};
use stellar_routeserver::irr::IrrDb;
use stellar_routeserver::policy::ImportPolicy;
use stellar_routeserver::rpki::RpkiTable;
use stellar_routeserver::server::{RouteServer, RouteServerConfig};

/// Specification of one IXP member for topology building.
#[derive(Debug, Clone)]
pub struct MemberSpec {
    /// The member's AS number.
    pub asn: u32,
    /// Port capacity in bits/second.
    pub capacity_bps: u64,
    /// Prefixes the member owns (registered in the IRR automatically).
    pub prefixes: Vec<Prefix>,
}

impl MemberSpec {
    /// A member with a single /24 derived from its index and a 10 Gbps
    /// port — the bulk population for large topologies. Prefixes are
    /// drawn from 131–190/8, clear of every bogon range (100.64/10 CGN,
    /// RFC 1918, multicast) and of the scenarios' victim space in 100/8.
    pub fn generic(asn: u32, index: u32) -> Self {
        let a = 131 + (index / 200) % 60;
        let b = index % 200;
        let prefix = Ipv4Prefix::new(Ipv4Address::new(a as u8, b as u8, 0, 0), 24)
            .expect("generated prefix is valid");
        MemberSpec {
            asn,
            capacity_bps: 10_000_000_000,
            prefixes: vec![Prefix::V4(prefix)],
        }
    }
}

/// Runtime info about one member.
#[derive(Debug, Clone)]
pub struct MemberInfo {
    /// The member's router MAC on the peering LAN.
    pub mac: MacAddr,
    /// The ER port the member connects to.
    pub port: PortId,
    /// The member's router IP on the peering LAN (BGP next hop).
    pub peering_ip: Ipv4Address,
    /// Owned prefixes.
    pub prefixes: Vec<Prefix>,
}

/// An assembled IXP.
pub struct IxpTopology {
    /// The switching platform: a fabric of one or more edge routers.
    pub fabric: Fabric,
    /// The route server.
    pub route_server: RouteServer,
    /// Members by ASN.
    pub members: BTreeMap<Asn, MemberInfo>,
    /// RTBH compliance model.
    pub honoring: HonoringModel,
}

impl IxpTopology {
    /// Builds a single-PoP IXP: one port per member, a route server with
    /// every member's prefixes IRR-registered, and the paper's honoring
    /// model.
    pub fn build(specs: &[MemberSpec], hib: HardwareInfoBase) -> Self {
        Self::build_with_pops(specs, hib, 1)
    }

    /// Builds an IXP across `pops` PoPs. Member `i` lands on PoP
    /// `i % pops`, so every PoP carries an even share of the membership;
    /// with `pops == 1` this is exactly the single-router topology.
    pub fn build_with_pops(specs: &[MemberSpec], hib: HardwareInfoBase, pops: usize) -> Self {
        let pops = pops.max(1);
        let mut fabric = Fabric::new(hib, pops);
        let rs_config = RouteServerConfig::l_ixp();
        let mut irr = IrrDb::new();
        let mut members = BTreeMap::new();
        for (i, spec) in specs.iter().enumerate() {
            let asn = Asn(spec.asn);
            let mac = MacAddr::for_member(spec.asn, 1);
            let port = PortId(i as u32 + 1);
            let peering_ip = Ipv4Address::new(80, 81, (192 + i / 250) as u8, (i % 250 + 1) as u8);
            fabric.add_port(
                PopId((i % pops) as u16),
                port,
                MemberPort::new(spec.asn, mac, spec.capacity_bps),
            );
            for p in &spec.prefixes {
                irr.register(*p, asn);
            }
            members.insert(
                asn,
                MemberInfo {
                    mac,
                    port,
                    peering_ip,
                    prefixes: spec.prefixes.clone(),
                },
            );
        }
        let mut route_server =
            RouteServer::new(rs_config, ImportPolicy::new(irr, RpkiTable::new()));
        for (asn, info) in &members {
            route_server.add_peer(*asn, info.peering_ip);
        }
        IxpTopology {
            fabric,
            route_server,
            members,
            honoring: HonoringModel::paper(),
        }
    }

    /// The member owning `asn`.
    pub fn member(&self, asn: Asn) -> Option<&MemberInfo> {
        self.members.get(&asn)
    }

    /// Builds the standard announcement a member sends the route server
    /// for one of its prefixes. IPv6 prefixes are announced via
    /// MP_REACH_NLRI (RFC 4760).
    pub fn announcement(&self, asn: Asn, prefix: Prefix) -> UpdateMessage {
        let info = self.members.get(&asn).expect("member exists");
        match prefix {
            Prefix::V4(_) => UpdateMessage::announce(
                prefix,
                info.peering_ip,
                PathAttribute::AsPath(AsPath::sequence([asn.0])),
            ),
            Prefix::V6(_) => {
                // Synthesize a stable v6 peering address from the v4 one.
                let o = info.peering_ip.octets();
                let nh: stellar_net::addr::Ipv6Address =
                    format!("2001:7f8:0:1::{:x}:{:x}", u16::from(o[2]), u16::from(o[3]))
                        .parse()
                        .expect("synthesized address parses");
                UpdateMessage {
                    withdrawn: vec![],
                    attrs: vec![
                        stellar_bgp::attr::PathAttribute::Origin(stellar_bgp::types::Origin::Igp),
                        PathAttribute::AsPath(AsPath::sequence([asn.0])),
                        stellar_bgp::attr::PathAttribute::MpReach {
                            afi: stellar_bgp::types::Afi::Ipv6,
                            safi: stellar_bgp::types::Safi::Unicast,
                            next_hop: stellar_net::addr::IpAddress::V6(nh),
                            nlri: vec![stellar_bgp::nlri::Nlri::plain(prefix)],
                        },
                    ],
                    nlri: vec![],
                }
            }
        }
    }

    /// Announces every member's prefixes to the route server (topology
    /// bring-up). Returns the number of accepted announcements.
    pub fn announce_all(&mut self, now_us: u64) -> usize {
        let mut accepted = 0;
        let announcements: Vec<(Asn, UpdateMessage)> = self
            .members
            .iter()
            .flat_map(|(asn, info)| {
                info.prefixes
                    .iter()
                    .map(|p| (*asn, self.announcement(*asn, *p)))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (asn, u) in announcements {
            let out = self.route_server.handle_update(asn, &u, now_us);
            if out.rejections.is_empty() {
                accepted += 1;
            }
        }
        accepted
    }

    /// Members (other than `except`) that honor RTBH signals.
    pub fn honoring_members(&self, except: Asn) -> Vec<Asn> {
        self.members
            .keys()
            .filter(|a| **a != except && self.honoring.honors(**a))
            .copied()
            .collect()
    }
}

/// Builds `n` generic member specs with ASNs starting at `base_asn`.
pub fn generic_members(base_asn: u32, n: usize) -> Vec<MemberSpec> {
    (0..n)
        .map(|i| MemberSpec::generic(base_asn + i as u32, i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_wires_members_ports_and_ribs() {
        let specs = generic_members(64500, 10);
        let mut ixp = IxpTopology::build(&specs, HardwareInfoBase::lab_switch());
        assert_eq!(ixp.members.len(), 10);
        // Every member has a port and the MAC maps back to it.
        for (asn, info) in &ixp.members {
            assert_eq!(ixp.fabric.port_of_mac(info.mac), Some(info.port));
            assert_eq!(ixp.fabric.port(info.port).unwrap().member_asn, asn.0);
        }
        let accepted = ixp.announce_all(0);
        assert_eq!(accepted, 10);
        assert_eq!(ixp.route_server.stats().accepted, 10);
    }

    #[test]
    fn announcements_validate_against_auto_registered_irr() {
        let specs = generic_members(64500, 3);
        let mut ixp = IxpTopology::build(&specs, HardwareInfoBase::lab_switch());
        let prefix = ixp.members[&Asn(64500)].prefixes[0];
        let u = ixp.announcement(Asn(64500), prefix);
        let out = ixp.route_server.handle_update(Asn(64500), &u, 0);
        assert!(out.rejections.is_empty());
        // Exports go to the other two members.
        assert_eq!(out.exports.len(), 2);
        // A hijack of the same prefix from another member is rejected.
        let hijack = ixp.announcement(Asn(64501), prefix);
        let out = ixp.route_server.handle_update(Asn(64501), &hijack, 0);
        assert_eq!(out.rejections.len(), 1);
    }

    #[test]
    fn build_with_pops_round_robins_members() {
        let specs = generic_members(64500, 10);
        let ixp = IxpTopology::build_with_pops(&specs, HardwareInfoBase::lab_switch(), 4);
        assert_eq!(ixp.fabric.num_pops(), 4);
        // ASNs ascend with the build index, so the BTreeMap walk
        // reproduces the round-robin order.
        for (i, info) in ixp.members.values().enumerate() {
            assert_eq!(
                ixp.fabric.pop_of_port(info.port),
                Some(PopId((i % 4) as u16))
            );
        }
        // Each of the 4 PoPs carries 2-3 of the 10 members.
        for r in ixp.fabric.routers() {
            let n = r.ports().count();
            assert!((2..=3).contains(&n));
        }
    }

    #[test]
    fn generic_prefixes_are_distinct() {
        let specs = generic_members(64500, 100);
        let mut seen = std::collections::BTreeSet::new();
        for s in &specs {
            for p in &s.prefixes {
                assert!(seen.insert(*p), "duplicate prefix {p}");
            }
        }
    }

    #[test]
    fn honoring_members_excludes_victim() {
        let specs = generic_members(64500, 50);
        let ixp = IxpTopology::build(&specs, HardwareInfoBase::lab_switch());
        let honoring = ixp.honoring_members(Asn(64500));
        assert!(!honoring.contains(&Asn(64500)));
        // With the paper model ~30% of 49 non-victims honor.
        assert!(!honoring.is_empty());
        assert!(honoring.len() < 49);
    }
}
