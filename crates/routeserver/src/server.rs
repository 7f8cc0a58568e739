//! The route server: multilateral peering with import policy, action
//! communities, RTBH next-hop rewriting, and the southbound ADD-PATH feed
//! to Stellar's blackholing controller (§4.3).
//!
//! "Notably, as opposed to RTBH, the route server does not reflect
//! \[Stellar\] signals back to the other members" — the server forwards
//! *everything* to the controller (tagging each peer's path with a
//! distinct ADD-PATH id to bypass best-path selection) while exporting to
//! members only what the action communities allow. Every UPDATE is read
//! and built through `stellar_bgp::update`, which alone decides where an
//! NLRI rides (RFC 4760): each export and each controller-feed message
//! carries exactly one NLRI, in its family's place.
//!
//! Exports are update groups: the message for one NLRI is built once and
//! handed to the ascending list of members that receive it, so a signal
//! costs O(members) `Asn`s, not O(members) UPDATE copies.

use crate::control::ExportScope;
use crate::flowspec::{
    action_communities, validate_flowspec, AcceptedFlowSpec, FlowSpecOutput, FlowSpecStats,
};
use crate::policy::{ImportPolicy, RejectReason};
use crate::stamps::OwnerStamps;
use std::collections::{BTreeMap, HashMap};
use stellar_bgp::attr::{AsPath, PathAttribute};
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::FlowSpec;
use stellar_bgp::nlri::Nlri;
use stellar_bgp::rib::{AdjRibIn, PeerId, Route};
use stellar_bgp::types::{Afi, Asn};
use stellar_bgp::update::{self, UpdateMessage};
use stellar_net::addr::{IpAddress, Ipv4Address, Ipv6Address};
use stellar_net::prefix::Prefix;

/// Static route-server configuration.
#[derive(Debug, Clone)]
pub struct RouteServerConfig {
    /// The IXP's AS number (also the blackhole community namespace).
    pub ixp_asn: Asn,
    /// The route server's BGP identifier.
    pub bgp_id: Ipv4Address,
    /// The next hop installed on blackhole-tagged exports — traffic sent
    /// there lands on the IXP's null interface (§2.2).
    pub blackhole_next_hop: Ipv4Address,
    /// The IPv6 blackholing next hop (for MP-BGP blackhole exports).
    pub blackhole_next_hop_v6: Ipv6Address,
}

impl RouteServerConfig {
    /// A configuration resembling L-IXP's.
    pub fn l_ixp() -> Self {
        RouteServerConfig {
            ixp_asn: Asn(6695),
            bgp_id: Ipv4Address::new(80, 81, 192, 157),
            blackhole_next_hop: Ipv4Address::new(80, 81, 193, 253),
            // 2001:7f8:0:1::dead
            blackhole_next_hop_v6: Ipv6Address::from_groups([0x2001, 0x7f8, 0, 1, 0, 0, 0, 0xdead]),
        }
    }
}

/// One update group: an export built once and the members it goes to.
/// Every target receives `message` byte for byte.
#[derive(Debug)]
pub struct Export {
    /// The receiving members, ascending; never the sender.
    pub targets: Vec<Asn>,
    /// The UPDATE each target receives.
    pub message: UpdateMessage,
}

/// What handling one member UPDATE produced.
#[derive(Debug, Default)]
pub struct RouteServerOutput {
    /// The exports to members: one group per accepted NLRI and per
    /// removed route, in processing order.
    pub exports: Vec<Export>,
    /// The southbound feed: ADD-PATH-tagged updates for the blackholing
    /// controller.
    pub controller_updates: Vec<UpdateMessage>,
    /// Announcements refused by the import policy.
    pub rejections: Vec<(Prefix, RejectReason)>,
    /// FlowSpec rules flushed by a session-down event (the only unicast
    /// code path that also touches the FlowSpec RIB; explicit FlowSpec
    /// traffic goes through [`RouteServer::handle_flowspec_update`]).
    pub flowspec_withdrawn: Vec<(Asn, FlowSpec)>,
}

/// Import statistics (exposed via the looking glass).
#[derive(Debug, Default, Clone)]
pub struct ImportStats {
    /// Announcement NLRI entries received from members (accepted or not).
    pub announced: u64,
    /// Withdrawals that actually removed a route (explicit withdrawals
    /// plus session-down flushes; duplicate withdrawals do not count).
    pub withdrawn: u64,
    /// Accepted announcements.
    pub accepted: u64,
    /// Rejected announcements by reason.
    pub rejected: BTreeMap<&'static str, u64>,
}

impl ImportStats {
    /// Publishes the import counters. Rejection reasons land under
    /// `routeserver.rejected.<reason>`.
    pub fn observe(&self, reg: &mut stellar_obs::MetricsRegistry) {
        reg.counter_set("routeserver.announced", self.announced);
        reg.counter_set("routeserver.withdrawn", self.withdrawn);
        reg.counter_set("routeserver.accepted", self.accepted);
        let total_rejected: u64 = self.rejected.values().sum();
        reg.counter_set("routeserver.rejected", total_rejected);
        for (reason, n) in &self.rejected {
            reg.counter_set(&format!("routeserver.rejected.{reason}"), *n);
        }
    }
}

struct PeerState {
    rib: AdjRibIn,
    bgp_id: Ipv4Address,
}

/// The route server.
pub struct RouteServer {
    config: RouteServerConfig,
    policy: ImportPolicy,
    peers: BTreeMap<Asn, PeerState>,
    /// Stable ADD-PATH id per (announcing peer, prefix) for the
    /// controller feed.
    path_ids: HashMap<(Asn, Prefix), u32>,
    next_path_id: u32,
    stats: ImportStats,
    /// Accepted FlowSpec rules by owner, then canonical NLRI bytes:
    /// re-announcing the same NLRI replaces the stored actions, as BGP
    /// implicit-withdraw semantics require. One owner's rules are one
    /// inner map, so a probe borrows its key and a session-down flush
    /// takes the map whole; an owner without rules has no entry.
    flowspec_rib: BTreeMap<Asn, BTreeMap<Vec<u8>, AcceptedFlowSpec>>,
    /// Touched by every edit of `flowspec_rib`, under the owner edited.
    flowspec_stamps: OwnerStamps,
    flowspec_stats: FlowSpecStats,
}

impl RouteServer {
    /// Creates a route server.
    pub fn new(config: RouteServerConfig, policy: ImportPolicy) -> Self {
        RouteServer {
            config,
            policy,
            peers: BTreeMap::new(),
            path_ids: HashMap::new(),
            next_path_id: 1,
            stats: ImportStats::default(),
            flowspec_rib: BTreeMap::new(),
            flowspec_stamps: OwnerStamps::default(),
            flowspec_stats: FlowSpecStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RouteServerConfig {
        &self.config
    }

    /// Import statistics.
    pub fn stats(&self) -> &ImportStats {
        &self.stats
    }

    /// FlowSpec import statistics.
    pub fn flowspec_stats(&self) -> &FlowSpecStats {
        &self.flowspec_stats
    }

    /// Publishes the import counters into a metrics registry.
    pub fn observe(&self, reg: &mut stellar_obs::MetricsRegistry) {
        self.stats.observe(reg);
        self.flowspec_stats.observe(reg);
    }

    /// Mutable access to the import policy (IRR/RPKI updates).
    pub fn policy_mut(&mut self) -> &mut ImportPolicy {
        &mut self.policy
    }

    /// Registers a member session (multi-lateral peering, §2.1).
    pub fn add_peer(&mut self, asn: Asn, bgp_id: Ipv4Address) {
        self.peers.insert(
            asn,
            PeerState {
                rib: AdjRibIn::new(),
                bgp_id,
            },
        );
    }

    /// The registered peers.
    pub fn peer_asns(&self) -> Vec<Asn> {
        self.peers.keys().copied().collect()
    }

    /// All routes currently held for a prefix, across peers (looking
    /// glass support).
    pub fn routes_for(&self, prefix: Prefix) -> impl Iterator<Item = &Route> {
        self.peers
            .values()
            .flat_map(move |p| p.rib.routes_for(prefix))
    }

    /// Handles an UPDATE received from `peer`. Returns exports,
    /// controller feed, and rejections.
    pub fn handle_update(
        &mut self,
        peer: Asn,
        update: &UpdateMessage,
        now_us: u64,
    ) -> RouteServerOutput {
        let mut out = RouteServerOutput::default();
        let Some(state) = self.peers.get_mut(&peer) else {
            return out; // unknown peer: drop silently (session layer
                        // should have prevented this)
        };
        let peer_id = PeerId {
            asn: peer,
            bgp_id: state.bgp_id,
        };
        // The peer's Adj-RIB-In is edited while the other peers are
        // walked for exports: held here, put back before returning.
        let mut rib = std::mem::take(&mut state.rib);

        // Withdrawals first (RFC 4271 processing order). One that removes
        // nothing propagates nothing.
        for w in update.withdrawals() {
            if rib.remove(w).is_some() {
                self.propagate_withdrawal(peer, w.prefix, &mut out);
            }
        }

        // Announcements.
        let path = update.as_path();
        let first_as = path.and_then(AsPath::first_as);
        let origin_as = path.and_then(AsPath::origin_as);
        let communities = update.communities();
        let scope = ExportScope::parse(communities, self.config.ixp_asn);
        // Any extended community in the IXP's own namespace marks the
        // update as an IXP service signal (a Stellar blackholing rule):
        // the /32 acceptance exception applies (§4.3).
        let ixp_service_signal = update.extended_communities().iter().any(|ec| {
            matches!(
                ec,
                ExtendedCommunity::TwoOctetAs { asn, .. } if u32::from(*asn) == self.config.ixp_asn.0
            )
        });
        for (n, mp_next_hop) in update.announcements() {
            self.stats.announced += 1;
            // Max-prefix: counted against the peer's current Adj-RIB-In.
            let verdict = match self.policy.max_prefixes_per_peer {
                Some(limit) if rib.len() >= limit => Err(RejectReason::MaxPrefixExceeded),
                _ => self.policy.validate(
                    peer,
                    first_as,
                    origin_as,
                    &n.prefix,
                    communities,
                    ixp_service_signal,
                    self.config.ixp_asn,
                ),
            };
            if let Err(reason) = verdict {
                *self.stats.rejected.entry(reason.describe()).or_insert(0) += 1;
                out.rejections.push((n.prefix, reason));
                continue;
            }
            self.stats.accepted += 1;
            rib.insert(Route {
                nlri: n,
                attrs: update.attrs.clone(),
                peer: peer_id,
                received_us: now_us,
            });

            // Exports to the other members: one update group.
            out.exports.push(Export {
                targets: self.targets(peer, |target| scope.admits(target)),
                message: self.build_export(&update.attrs, n.prefix, mp_next_hop),
            });

            // Controller feed: every accepted path, ADD-PATH tagged.
            let pid = *self.path_ids.entry((peer, n.prefix)).or_insert_with(|| {
                let id = self.next_path_id;
                self.next_path_id += 1;
                id
            });
            out.controller_updates
                .push(controller_feed(&update.attrs, n.prefix, mp_next_hop, pid));
        }
        if let Some(state) = self.peers.get_mut(&peer) {
            state.rib = rib;
        }
        out
    }

    /// Handles a FlowSpec UPDATE received from `peer` (SAFI 133 riding in
    /// MP_REACH/MP_UNREACH, RFC 8955): validates each NLRI with the
    /// RFC 9117 procedure and updates the FlowSpec RIB. Accepted rules
    /// are returned for the southbound feed to the blackholing
    /// controller; like Stellar signals they are *not* reflected to the
    /// other members.
    pub fn handle_flowspec_update(&mut self, peer: Asn, update: &UpdateMessage) -> FlowSpecOutput {
        let mut out = FlowSpecOutput::default();
        if !self.peers.contains_key(&peer) {
            return out; // unknown peer: drop silently (session layer
                        // should have prevented this)
        }

        // Withdrawals first (RFC 4271 processing order). Duplicate
        // withdrawals remove nothing and count nothing.
        for flow in update.flowspec_withdrawals() {
            let Ok(key) = flow.to_wire() else {
                continue;
            };
            let Some(held) = self.flowspec_rib.get_mut(&peer) else {
                continue;
            };
            if let Some(removed) = held.remove(&key) {
                if held.is_empty() {
                    self.flowspec_rib.remove(&peer);
                }
                self.flowspec_stamps.touch(peer);
                self.flowspec_stats.withdrawn += 1;
                out.withdrawn.push((peer, removed.flow));
            }
        }

        // Announcements.
        let path = update.as_path();
        let first_as = path.and_then(AsPath::first_as);
        let origin_as = path.and_then(AsPath::origin_as);
        let actions = action_communities(update.extended_communities());
        for flow in update.flowspec_announcements() {
            self.flowspec_stats.announced += 1;
            if let Err(reason) = validate_flowspec(&self.policy, peer, first_as, origin_as, flow) {
                *self
                    .flowspec_stats
                    .rejected
                    .entry(reason.describe())
                    .or_insert(0) += 1;
                out.rejections.push((flow.clone(), reason));
                continue;
            }
            // A decoded NLRI always fits the wire-length bound again;
            // guard rather than panic for hand-built oversize flows.
            let Ok(key) = flow.to_wire() else {
                continue;
            };
            self.flowspec_stats.accepted += 1;
            let accepted = AcceptedFlowSpec {
                owner: peer,
                flow: flow.clone(),
                actions: actions.clone(),
            };
            // Re-announcement of the same NLRI is an implicit
            // withdraw: the stored actions are replaced.
            let held = self.flowspec_rib.entry(peer).or_default();
            held.insert(key, accepted.clone());
            self.flowspec_stamps.touch(peer);
            out.accepted.push(accepted);
        }
        out
    }

    /// The FlowSpec rules currently accepted, in (owner, canonical NLRI)
    /// order (looking glass support, and the controller's resync source
    /// after an iBGP session flap).
    pub fn flowspec_routes(&self) -> Vec<&AcceptedFlowSpec> {
        self.flowspec_rib
            .values()
            .flat_map(BTreeMap::values)
            .collect()
    }

    /// True when `owner`'s FlowSpec rule with this canonical wire key is
    /// in the RIB (the watchdog's RIB↔plane consistency probe).
    pub fn flowspec_contains(&self, owner: Asn, wire: &[u8]) -> bool {
        self.flowspec_rib
            .get(&owner)
            .is_some_and(|held| held.contains_key(wire))
    }

    /// The FlowSpec RIB's version: bumped by every announcement,
    /// withdrawal and session-down flush that edited it. Unchanged
    /// version, unchanged RIB.
    pub fn flowspec_version(&self) -> u64 {
        self.flowspec_stamps.version()
    }

    /// The [`flowspec_version`](Self::flowspec_version) at which
    /// `owner`'s FlowSpec rules last changed (0: never).
    pub fn flowspec_owner_revision(&self, owner: Asn) -> u64 {
        self.flowspec_stamps.revision(owner)
    }

    /// Handles FlowSpec NLRI exactly as received on the wire: decodes
    /// `nlri_bytes` (RFC 8955 length-prefixed NLRIs) and, only if the
    /// *whole* run decodes, runs each NLRI's UPDATE through the normal
    /// [`RouteServer::handle_flowspec_update`] path. Corrupted or
    /// truncated bytes are counted under `malformed` and refused without
    /// touching the `(peer, wire-bytes)` RIB — a damaged announcement
    /// must not poison state keyed on the bytes it failed to carry.
    pub fn handle_flowspec_wire(
        &mut self,
        peer: Asn,
        afi: Afi,
        nlri_bytes: &[u8],
        actions: &[ExtendedCommunity],
    ) -> FlowSpecOutput {
        let Ok(flows) = FlowSpec::decode_many(afi, nlri_bytes) else {
            self.flowspec_stats.malformed += 1;
            return FlowSpecOutput::default();
        };
        let mut out = FlowSpecOutput::default();
        for flow in flows {
            let update = UpdateMessage::announce_flowspec(peer, flow, actions);
            let one = self.handle_flowspec_update(peer, &update);
            out.accepted.extend(one.accepted);
            out.rejections.extend(one.rejections);
        }
        out
    }

    /// Handles a ROUTE-REFRESH from `target` (RFC 2918): rebuilds the
    /// member's entire view — every other peer's routes, subject to the
    /// same action-community scoping and blackhole next-hop rewriting as
    /// the original exports. This is how a member that flushed its RIB
    /// (or fat-fingered its import filters, §2.4) resynchronizes without
    /// bouncing the session.
    pub fn refresh_exports(&self, target: Asn) -> Vec<UpdateMessage> {
        if !self.peers.contains_key(&target) {
            return Vec::new();
        }
        let others = self.peers.iter().filter(|(asn, _)| **asn != target);
        others
            .flat_map(|(_, state)| state.rib.routes())
            .filter(|route| {
                ExportScope::parse(route.communities(), self.config.ixp_asn).admits(target)
            })
            .map(|route| self.build_export(&route.attrs, route.nlri.prefix, route.mp_next_hop()))
            .collect()
    }

    /// Rebuilds the blackholing controller's southbound view after the
    /// controller's iBGP session comes back from a flap: replays every
    /// route currently held in the Adj-RIBs-In as an ADD-PATH-tagged
    /// controller-feed message, each with its stable path id. The routes
    /// (and their blackholing communities) live in the route server, so
    /// a controller that flushed its state on session loss re-derives
    /// its full desired rule set from this replay.
    pub fn controller_resync(&self) -> Vec<UpdateMessage> {
        let routes = self
            .peers
            .iter()
            .flat_map(|(asn, state)| state.rib.routes().map(move |route| (*asn, route)));
        routes
            .filter_map(|(asn, route)| {
                let prefix = route.nlri.prefix;
                let pid = self.path_ids.get(&(asn, prefix))?;
                Some(controller_feed(
                    &route.attrs,
                    prefix,
                    route.mp_next_hop(),
                    *pid,
                ))
            })
            .collect()
    }

    /// Handles a member session going down: flushes its routes and emits
    /// the implicit withdrawals (to members and to the controller).
    pub fn peer_down(&mut self, peer: Asn) -> RouteServerOutput {
        let mut out = RouteServerOutput::default();
        let Some(state) = self.peers.get_mut(&peer) else {
            return out;
        };
        for route in state.rib.flush() {
            self.propagate_withdrawal(peer, route.nlri.prefix, &mut out);
        }
        // A downed session takes its FlowSpec rules with it.
        if let Some(held) = self.flowspec_rib.remove(&peer) {
            self.flowspec_stamps.touch(peer);
            for removed in held.into_values() {
                self.flowspec_stats.withdrawn += 1;
                out.flowspec_withdrawn.push((peer, removed.flow));
            }
        }
        out
    }

    /// Propagates the removal of `peer`'s route for `prefix`: withdrawn
    /// towards every other member, and towards the controller under the
    /// path's id, which is freed.
    fn propagate_withdrawal(&mut self, peer: Asn, prefix: Prefix, out: &mut RouteServerOutput) {
        self.stats.withdrawn += 1;
        out.exports.push(Export {
            targets: self.targets(peer, |_| true),
            message: UpdateMessage::withdraw(prefix),
        });
        if let Some(pid) = self.path_ids.remove(&(peer, prefix)) {
            let path = Nlri::with_path_id(prefix, pid);
            out.controller_updates
                .push(UpdateMessage::withdraw_nlri(path));
        }
    }

    /// The members other than `sender` that `admits` accepts, ascending.
    /// Sized for every peer up front, so a group costs one allocation
    /// whatever the membership.
    fn targets(&self, sender: Asn, admits: impl Fn(Asn) -> bool) -> Vec<Asn> {
        let mut targets = Vec::with_capacity(self.peers.len());
        targets.extend(
            self.peers
                .keys()
                .copied()
                .filter(|t| *t != sender && admits(*t)),
        );
        targets
    }

    /// Builds the member-facing export of one route: action communities
    /// stripped, next hop rewritten to the blackhole IP (v4 or v6) for
    /// blackhole-tagged routes.
    fn build_export(
        &self,
        attrs: &[PathAttribute],
        prefix: Prefix,
        mp_next_hop: Option<IpAddress>,
    ) -> UpdateMessage {
        let ixp = self.config.ixp_asn;
        let is_blackhole = update::communities(attrs)
            .iter()
            .any(|c| c.is_blackhole(ixp));
        let mp_next_hop = if is_blackhole {
            Some(IpAddress::V6(self.config.blackhole_next_hop_v6))
        } else {
            mp_next_hop
        };
        let mut export =
            UpdateMessage::announce_nlri(attrs.iter().cloned(), Nlri::plain(prefix), mp_next_hop);
        for a in &mut export.attrs {
            if let PathAttribute::Communities(cs) = a {
                // Strip action communities; keep blackhole and
                // informational ones.
                cs.retain(|c| {
                    let action = c.asn() == 0 || (c.asn() == ixp.0 as u16 && c.value() != 666);
                    !action || c.is_blackhole(ixp)
                });
            }
        }
        if is_blackhole && matches!(prefix, Prefix::V4(_)) {
            export.set_next_hop(self.config.blackhole_next_hop);
        }
        export
    }
}

/// The controller-feed message for one accepted path: its original
/// attributes (the controller needs the extended communities and true
/// next hop), the path ADD-PATH tagged in its family's place.
fn controller_feed(
    attrs: &[PathAttribute],
    prefix: Prefix,
    mp_next_hop: Option<IpAddress>,
    pid: u32,
) -> UpdateMessage {
    let path = Nlri::with_path_id(prefix, pid);
    UpdateMessage::announce_nlri(attrs.iter().cloned(), path, mp_next_hop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irr::IrrDb;
    use crate::rpki::RpkiTable;
    use stellar_bgp::community::Community;
    use stellar_bgp::types::Safi;

    fn server_with_peers(peers: &[u32]) -> RouteServer {
        let mut irr = IrrDb::new();
        for &p in peers {
            irr.register(format!("100.{}.0.0/16", p % 200).parse().unwrap(), Asn(p));
        }
        irr.register("100.10.10.0/24".parse().unwrap(), Asn(64500));
        let policy = ImportPolicy::new(irr, RpkiTable::new());
        let mut rs = RouteServer::new(RouteServerConfig::l_ixp(), policy);
        for (i, &p) in peers.iter().enumerate() {
            rs.add_peer(Asn(p), Ipv4Address::new(80, 81, 192, i as u8 + 1));
        }
        rs
    }

    fn announce(prefix: &str, asn: u32, communities: &[Community]) -> UpdateMessage {
        let mut u = UpdateMessage::announce(
            prefix.parse().unwrap(),
            Ipv4Address::new(80, 81, 192, 10),
            PathAttribute::AsPath(AsPath::sequence([asn])),
        );
        if !communities.is_empty() {
            u.add_communities(communities);
        }
        u
    }

    #[test]
    fn accepted_route_is_exported_to_all_other_peers() {
        let mut rs = server_with_peers(&[64500, 64501, 64502]);
        let out = rs.handle_update(Asn(64500), &announce("100.10.10.0/24", 64500, &[]), 0);
        assert!(out.rejections.is_empty());
        // One update group, built once, for both other peers.
        assert_eq!(out.exports.len(), 1);
        assert_eq!(out.exports[0].targets, vec![Asn(64501), Asn(64502)]);
        // And the controller sees it with a path id.
        assert_eq!(out.controller_updates.len(), 1);
        assert!(out.controller_updates[0].nlri[0].path_id.is_some());
        assert_eq!(rs.stats().accepted, 1);
    }

    #[test]
    fn hijack_is_rejected_and_not_exported() {
        let mut rs = server_with_peers(&[64500, 64501]);
        let out = rs.handle_update(Asn(64501), &announce("100.10.10.0/24", 64501, &[]), 0);
        assert!(out.exports.is_empty());
        assert!(out.controller_updates.is_empty());
        assert_eq!(out.rejections.len(), 1);
        assert_eq!(out.rejections[0].1, RejectReason::IrrMismatch);
    }

    #[test]
    fn blackhole_route_gets_next_hop_rewritten() {
        let mut rs = server_with_peers(&[64500, 64501]);
        let out = rs.handle_update(
            Asn(64500),
            &announce("100.10.10.10/32", 64500, &[Community::new(6695, 666)]),
            0,
        );
        assert_eq!(out.exports.len(), 1);
        assert_eq!(out.exports[0].targets, vec![Asn(64501)]);
        assert_eq!(
            out.exports[0].message.next_hop(),
            Some(RouteServerConfig::l_ixp().blackhole_next_hop)
        );
        // The controller still sees the member's true next hop.
        assert_eq!(
            out.controller_updates[0].next_hop(),
            Some(Ipv4Address::new(80, 81, 192, 10))
        );
    }

    #[test]
    fn plain_host_route_is_rejected_as_too_specific() {
        let mut rs = server_with_peers(&[64500, 64501]);
        let out = rs.handle_update(Asn(64500), &announce("100.10.10.10/32", 64500, &[]), 0);
        assert_eq!(out.rejections[0].1, RejectReason::TooSpecific);
    }

    #[test]
    fn action_communities_limit_export_scope() {
        let mut rs = server_with_peers(&[64500, 64501, 64502, 64503]);
        // Don't announce to 64502.
        let out = rs.handle_update(
            Asn(64500),
            &announce("100.10.10.0/24", 64500, &[Community::new(0, 64502)]),
            0,
        );
        assert_eq!(out.exports.len(), 1);
        assert_eq!(out.exports[0].targets, vec![Asn(64501), Asn(64503)]);
        // Action communities are stripped from the export.
        let export = &out.exports[0].message;
        assert!(export.communities().iter().all(|c| c.asn() != 0));
    }

    #[test]
    fn whitelist_mode_exports_only_to_listed_peers() {
        let mut rs = server_with_peers(&[64500, 64501, 64502]);
        let out = rs.handle_update(
            Asn(64500),
            &announce(
                "100.10.10.0/24",
                64500,
                &[Community::new(0, 6695), Community::new(6695, 64502)],
            ),
            0,
        );
        assert_eq!(out.exports.len(), 1);
        assert_eq!(out.exports[0].targets, vec![Asn(64502)]);
        // The controller is fed regardless of export scope.
        assert_eq!(out.controller_updates.len(), 1);
    }

    #[test]
    fn withdrawal_propagates_and_frees_path_id() {
        let mut rs = server_with_peers(&[64500, 64501]);
        let out = rs.handle_update(Asn(64500), &announce("100.10.10.0/24", 64500, &[]), 0);
        let pid = out.controller_updates[0].nlri[0].path_id.unwrap();
        let out = rs.handle_update(
            Asn(64500),
            &UpdateMessage::withdraw("100.10.10.0/24".parse().unwrap()),
            1,
        );
        assert_eq!(out.exports.len(), 1);
        assert_eq!(out.exports[0].targets, vec![Asn(64501)]);
        assert!(out.exports[0].message.nlri.is_empty());
        assert_eq!(out.controller_updates[0].withdrawn[0].path_id, Some(pid));
        // A second withdrawal is a no-op.
        let out = rs.handle_update(
            Asn(64500),
            &UpdateMessage::withdraw("100.10.10.0/24".parse().unwrap()),
            2,
        );
        assert!(out.exports.is_empty());
        assert!(out.controller_updates.is_empty());
    }

    #[test]
    fn same_prefix_from_two_members_gets_distinct_path_ids() {
        let mut rs = server_with_peers(&[64500, 64501]);
        rs.policy_mut()
            .irr
            .register("100.10.10.0/24".parse().unwrap(), Asn(64501));
        let o1 = rs.handle_update(Asn(64500), &announce("100.10.10.0/24", 64500, &[]), 0);
        let o2 = rs.handle_update(Asn(64501), &announce("100.10.10.0/24", 64501, &[]), 0);
        let p1 = o1.controller_updates[0].nlri[0].path_id.unwrap();
        let p2 = o2.controller_updates[0].nlri[0].path_id.unwrap();
        assert_ne!(p1, p2, "ADD-PATH must distinguish the two members' paths");
    }

    #[test]
    fn controller_resync_replays_rib_with_stable_path_ids() {
        let mut rs = server_with_peers(&[64500, 64501]);
        rs.handle_update(Asn(64500), &announce("100.10.10.0/24", 64500, &[]), 0);
        let out = rs.handle_update(
            Asn(64500),
            &announce("100.10.10.10/32", 64500, &[Community::new(6695, 666)]),
            1,
        );
        let pid = out.controller_updates[0].nlri[0].path_id.unwrap();
        let replay = rs.controller_resync();
        assert_eq!(replay.len(), 2);
        // The blackhole-tagged path reappears with the same path id and
        // its original attributes (communities intact).
        let host = replay
            .iter()
            .find(|u| u.nlri[0].prefix == "100.10.10.10/32".parse().unwrap())
            .unwrap();
        assert_eq!(host.nlri[0].path_id, Some(pid));
        assert!(!host.communities().is_empty());
        // An empty server replays nothing.
        let empty = server_with_peers(&[64500]);
        assert!(empty.controller_resync().is_empty());
    }

    #[test]
    fn peer_down_withdraws_everything() {
        let mut rs = server_with_peers(&[64500, 64501, 64502]);
        rs.handle_update(Asn(64500), &announce("100.10.10.0/24", 64500, &[]), 0);
        rs.handle_update(
            Asn(64500),
            &announce("100.10.10.10/32", 64500, &[Community::BLACKHOLE]),
            1,
        );
        let out = rs.peer_down(Asn(64500));
        // Two prefixes withdrawn, each in one group towards the two other
        // peers.
        assert_eq!(out.exports.len(), 2);
        for group in &out.exports {
            assert_eq!(group.targets, vec![Asn(64501), Asn(64502)]);
            assert_eq!(group.message.withdrawals().count(), 1);
        }
        assert_eq!(out.controller_updates.len(), 2);
        assert!(out
            .controller_updates
            .iter()
            .all(|u| u.withdrawn.len() == 1 && u.withdrawn[0].path_id.is_some()));
    }

    #[test]
    fn mixed_family_update_feeds_one_nlri_per_message() {
        let mut rs = server_with_peers(&[64500, 64501]);
        let v6: Prefix = "2001:db8:100::10/128".parse().unwrap();
        rs.policy_mut().irr.register(v6, Asn(64500));
        // One UPDATE: the v4 /32 in the classic field, the v6 /128 in
        // MP_REACH, one drop_udp_src(123) signal for both.
        let mut u = announce("100.10.10.10/32", 64500, &[]);
        u.attrs.push(PathAttribute::MpReach {
            afi: Afi::Ipv6,
            safi: Safi::Unicast,
            next_hop: IpAddress::V6("2001:7f8:0:1::a".parse().unwrap()),
            nlri: vec![Nlri::plain(v6)],
        });
        u.add_extended_communities(&[ExtendedCommunity::TwoOctetAs {
            subtype: 0xbb,
            asn: 6695,
            local: 0x0200_007b,
            transitive: true,
        }]);
        let out = rs.handle_update(Asn(64500), &u, 0);
        assert!(out.rejections.is_empty(), "{:?}", out.rejections);
        assert_eq!(out.controller_updates.len(), 2);
        for feed in &out.controller_updates {
            let announced: Vec<_> = feed.announcements().collect();
            assert!(
                matches!(announced[..], [(n, _)] if n.path_id.is_some()),
                "{feed:?}"
            );
        }
    }

    #[test]
    fn four_byte_and_as666_peers_follow_the_scope() {
        // 130036 = 65536 + 64500 shares AS64500's low 16 bits; AS666
        // shares its number with the blackhole tag's value.
        let mut rs = server_with_peers(&[666, 64500, 64501, 130_036]);
        let targets = |rs: &mut RouteServer, prefix: &str, communities: &[Community]| {
            let out = rs.handle_update(Asn(64500), &announce(prefix, 64500, communities), 0);
            assert!(out.rejections.is_empty(), "{:?}", out.rejections);
            out.exports[0].targets.clone()
        };
        // 0:64500 names AS64500 only, not the 4-byte peer.
        let got = targets(&mut rs, "100.10.10.0/24", &[Community::new(0, 64500)]);
        assert_eq!(got, vec![Asn(666), Asn(64501), Asn(130_036)]);
        // A blackhole announced to AS64501 only: the blackhole tag
        // 6695:666 whitelists nobody, a 4-byte peer follows block-all.
        let scoped = [
            Community::new(6695, 666),
            Community::new(0, 6695),
            Community::new(6695, 64501),
        ];
        let got = targets(&mut rs, "100.10.10.10/32", &scoped);
        assert_eq!(got, vec![Asn(64501)]);
    }

    #[test]
    fn unknown_peer_is_ignored() {
        let mut rs = server_with_peers(&[64500]);
        let out = rs.handle_update(Asn(9999), &announce("100.10.10.0/24", 9999, &[]), 0);
        assert!(out.exports.is_empty() && out.rejections.is_empty());
    }
}

#[cfg(test)]
mod flowspec_tests {
    use super::*;
    use crate::flowspec::FlowSpecRejectReason;
    use crate::irr::IrrDb;
    use crate::rpki::RpkiTable;
    use stellar_bgp::flowspec::{Component, NumericOp};

    fn server() -> RouteServer {
        let mut irr = IrrDb::new();
        irr.register("100.10.10.0/24".parse().unwrap(), Asn(64500));
        let policy = ImportPolicy::new(irr, RpkiTable::new());
        let mut rs = RouteServer::new(RouteServerConfig::l_ixp(), policy);
        rs.add_peer(Asn(64500), Ipv4Address::new(80, 81, 192, 1));
        rs.add_peer(Asn(64501), Ipv4Address::new(80, 81, 192, 2));
        rs
    }

    fn victim_flow() -> FlowSpec {
        FlowSpec::new(
            Afi::Ipv4,
            vec![
                Component::DstPrefix("100.10.10.10/32".parse().unwrap()),
                Component::IpProtocol(vec![NumericOp::equals(17)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn owner_flowspec_is_accepted_and_installed() {
        let mut rs = server();
        let drop_rate = ExtendedCommunity::traffic_rate(64500, 0.0);
        let out = rs.handle_flowspec_update(
            Asn(64500),
            &UpdateMessage::announce_flowspec(Asn(64500), victim_flow(), &[drop_rate]),
        );
        assert!(out.rejections.is_empty());
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(out.accepted[0].owner, Asn(64500));
        assert_eq!(out.accepted[0].actions, vec![drop_rate]);
        assert_eq!(rs.flowspec_routes().len(), 1);
        assert_eq!(rs.flowspec_stats().accepted, 1);
    }

    #[test]
    fn non_owner_flowspec_is_rejected() {
        let mut rs = server();
        let out = rs.handle_flowspec_update(
            Asn(64501),
            &UpdateMessage::announce_flowspec(Asn(64501), victim_flow(), &[]),
        );
        assert!(out.accepted.is_empty());
        assert_eq!(out.rejections.len(), 1);
        assert_eq!(
            out.rejections[0].1,
            FlowSpecRejectReason::OriginatorMismatch
        );
        assert!(rs.flowspec_routes().is_empty());
        assert_eq!(
            rs.flowspec_stats().rejected.get("originator-mismatch"),
            Some(&1)
        );
    }

    #[test]
    fn reannouncement_replaces_actions_in_place() {
        let mut rs = server();
        let shape = ExtendedCommunity::traffic_rate(64500, 1_000_000.0);
        rs.handle_flowspec_update(
            Asn(64500),
            &UpdateMessage::announce_flowspec(Asn(64500), victim_flow(), &[shape]),
        );
        let drop_rate = ExtendedCommunity::traffic_rate(64500, 0.0);
        rs.handle_flowspec_update(
            Asn(64500),
            &UpdateMessage::announce_flowspec(Asn(64500), victim_flow(), &[drop_rate]),
        );
        // One rule, carrying the latest actions (implicit withdraw).
        let routes = rs.flowspec_routes();
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].actions, vec![drop_rate]);
        assert_eq!(rs.flowspec_stats().announced, 2);
    }

    #[test]
    fn withdrawal_removes_the_rule_once() {
        let mut rs = server();
        rs.handle_flowspec_update(
            Asn(64500),
            &UpdateMessage::announce_flowspec(Asn(64500), victim_flow(), &[]),
        );
        let out =
            rs.handle_flowspec_update(Asn(64500), &UpdateMessage::withdraw_flowspec(victim_flow()));
        assert_eq!(out.withdrawn.len(), 1);
        assert!(rs.flowspec_routes().is_empty());
        // A duplicate withdrawal removes (and counts) nothing.
        let out =
            rs.handle_flowspec_update(Asn(64500), &UpdateMessage::withdraw_flowspec(victim_flow()));
        assert!(out.withdrawn.is_empty());
        assert_eq!(rs.flowspec_stats().withdrawn, 1);
    }

    #[test]
    fn peer_down_flushes_flowspec_rules() {
        let mut rs = server();
        rs.handle_flowspec_update(
            Asn(64500),
            &UpdateMessage::announce_flowspec(Asn(64500), victim_flow(), &[]),
        );
        let out = rs.peer_down(Asn(64500));
        assert_eq!(out.flowspec_withdrawn.len(), 1);
        assert_eq!(out.flowspec_withdrawn[0].0, Asn(64500));
        assert!(rs.flowspec_routes().is_empty());
        assert_eq!(rs.flowspec_stats().withdrawn, 1);
    }

    #[test]
    fn unknown_peer_flowspec_is_ignored() {
        let mut rs = server();
        let out = rs.handle_flowspec_update(
            Asn(9999),
            &UpdateMessage::announce_flowspec(Asn(9999), victim_flow(), &[]),
        );
        assert!(out.accepted.is_empty() && out.rejections.is_empty());
        assert_eq!(rs.flowspec_stats().announced, 0);
    }

    #[test]
    fn corrupted_wire_is_refused_without_poisoning_the_rib() {
        let mut rs = server();
        let wire = victim_flow().to_wire().unwrap();
        // The intact wire installs the rule.
        let out = rs.handle_flowspec_wire(Asn(64500), Afi::Ipv4, &wire, &[]);
        assert_eq!(out.accepted.len(), 1);
        assert!(rs.flowspec_contains(Asn(64500), &wire));
        // Damaged variants are refused before touching the RIB: same
        // rule count, same stored entry, only `malformed` advances.
        for salt in [0u64, 1, 7, 42] {
            let bad = stellar_bgp::flowspec::corrupt_wire(&wire, salt);
            let out = rs.handle_flowspec_wire(Asn(64500), Afi::Ipv4, &bad, &[]);
            assert!(out.accepted.is_empty() && out.rejections.is_empty());
            assert!(!rs.flowspec_contains(Asn(64500), &bad));
        }
        assert_eq!(rs.flowspec_stats().malformed, 4);
        assert_eq!(rs.flowspec_routes().len(), 1);
        assert_eq!(
            rs.flowspec_stats().announced,
            1,
            "damage never reached validation"
        );
    }

    #[test]
    fn every_rib_edit_stamps_the_owner_it_edited_and_nothing_else() {
        let mut rs = server();
        const OWNER: Asn = Asn(64500);
        const OTHER: Asn = Asn(64501);
        assert_eq!(rs.flowspec_version(), 0);
        let mut version = 0;
        // The edit moved the version and OWNER's revision with it.
        let mut stamped = |rs: &RouteServer| {
            let moved = rs.flowspec_version() > version;
            version = rs.flowspec_version();
            assert_eq!(rs.flowspec_owner_revision(OTHER), 0, "nobody touched it");
            moved && rs.flowspec_owner_revision(OWNER) == version
        };
        let shape = ExtendedCommunity::traffic_rate(64500, 1_000_000.0);
        rs.handle_flowspec_update(
            OWNER,
            &UpdateMessage::announce_flowspec(Asn(64500), victim_flow(), &[]),
        );
        assert!(stamped(&rs), "announcement");
        rs.handle_flowspec_update(
            OWNER,
            &UpdateMessage::announce_flowspec(Asn(64500), victim_flow(), &[shape]),
        );
        assert!(stamped(&rs), "implicit withdraw");
        rs.handle_flowspec_update(OWNER, &UpdateMessage::withdraw_flowspec(victim_flow()));
        assert!(stamped(&rs), "withdrawal");
        rs.handle_flowspec_update(
            OWNER,
            &UpdateMessage::announce_flowspec(Asn(64500), victim_flow(), &[]),
        );
        assert!(stamped(&rs), "announcement");
        rs.peer_down(OWNER);
        assert!(stamped(&rs), "session-down flush");
        // What edits nothing stamps nothing: a duplicate withdrawal, a
        // refused announcement, a flush of a peer holding no rule.
        rs.handle_flowspec_update(OWNER, &UpdateMessage::withdraw_flowspec(victim_flow()));
        rs.handle_flowspec_update(
            OTHER,
            &UpdateMessage::announce_flowspec(Asn(64501), victim_flow(), &[]),
        );
        rs.peer_down(OTHER);
        assert!(!stamped(&rs));
    }

    #[test]
    fn valid_wire_path_matches_the_update_path() {
        let mut rs = server();
        let drop_rate = ExtendedCommunity::traffic_rate(64500, 0.0);
        let wire = victim_flow().to_wire().unwrap();
        let out = rs.handle_flowspec_wire(Asn(64500), Afi::Ipv4, &wire, &[drop_rate]);
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(out.accepted[0].actions, vec![drop_rate]);
        assert_eq!(rs.flowspec_stats().accepted, 1);
    }

    #[test]
    fn observe_publishes_flowspec_counters() {
        let mut rs = server();
        rs.handle_flowspec_update(
            Asn(64500),
            &UpdateMessage::announce_flowspec(Asn(64500), victim_flow(), &[]),
        );
        rs.handle_flowspec_update(
            Asn(64501),
            &UpdateMessage::announce_flowspec(Asn(64501), victim_flow(), &[]),
        );
        let mut reg = stellar_obs::MetricsRegistry::new();
        rs.observe(&mut reg);
        assert_eq!(reg.counter("routeserver.flowspec.announced"), 2);
        assert_eq!(reg.counter("routeserver.flowspec.accepted"), 1);
        assert_eq!(
            reg.counter("routeserver.flowspec.rejected.originator-mismatch"),
            1
        );
    }
}

#[cfg(test)]
mod max_prefix_tests {
    use super::*;
    use crate::irr::IrrDb;
    use crate::policy::{ImportPolicy, RejectReason};
    use crate::rpki::RpkiTable;

    #[test]
    fn max_prefix_limit_rejects_flooding_peer() {
        let mut irr = IrrDb::new();
        // The peer legitimately owns a /16 it could deaggregate.
        irr.register("100.10.0.0/16".parse().unwrap(), Asn(64500));
        let mut policy = ImportPolicy::new(irr, RpkiTable::new());
        policy.max_prefixes_per_peer = Some(3);
        let mut rs = RouteServer::new(RouteServerConfig::l_ixp(), policy);
        rs.add_peer(Asn(64500), Ipv4Address::new(80, 81, 192, 1));
        rs.add_peer(Asn(64501), Ipv4Address::new(80, 81, 192, 2));
        let mut accepted = 0;
        let mut rejected = 0;
        for i in 0..6u8 {
            let u = UpdateMessage::announce(
                format!("100.10.{i}.0/24").parse().unwrap(),
                Ipv4Address::new(80, 81, 192, 1),
                PathAttribute::AsPath(AsPath::sequence([64500])),
            );
            let out = rs.handle_update(Asn(64500), &u, u64::from(i));
            if out.rejections.is_empty() {
                accepted += 1;
            } else {
                assert_eq!(out.rejections[0].1, RejectReason::MaxPrefixExceeded);
                rejected += 1;
            }
        }
        assert_eq!(accepted, 3);
        assert_eq!(rejected, 3);
        // Withdrawing frees budget again.
        let out = rs.handle_update(
            Asn(64500),
            &UpdateMessage::withdraw("100.10.0.0/24".parse().unwrap()),
            10,
        );
        assert!(!out.exports.is_empty());
        let u = UpdateMessage::announce(
            "100.10.5.0/24".parse().unwrap(),
            Ipv4Address::new(80, 81, 192, 1),
            PathAttribute::AsPath(AsPath::sequence([64500])),
        );
        let out = rs.handle_update(Asn(64500), &u, 11);
        assert!(out.rejections.is_empty());
    }
}
