//! UPDATE message (RFC 4271 §4.3), and the one place that knows where an
//! NLRI rides in it.
//!
//! RFC 4760 puts an IPv4 unicast NLRI in the classic withdrawn-routes and
//! NLRI fields, an IPv6 one in MP_UNREACH_NLRI / MP_REACH_NLRI, and a
//! FlowSpec rule (SAFI 133, RFC 8955) in MP_UNREACH/MP_REACH under its own
//! AFI. Readers take every NLRI of a message through
//! [`UpdateMessage::withdrawals`] and [`UpdateMessage::announcements`]
//! (FlowSpec: [`UpdateMessage::flowspec_withdrawals`] and
//! [`UpdateMessage::flowspec_announcements`]); writers build one-NLRI
//! messages through [`UpdateMessage::announce_nlri`] and
//! [`UpdateMessage::withdraw_nlri`] (FlowSpec:
//! [`UpdateMessage::announce_flowspec`] and
//! [`UpdateMessage::withdraw_flowspec`]).

use crate::attr::{AsPath, PathAttribute};
use crate::community::Community;
use crate::error::{BgpError, BgpResult};
use crate::extcommunity::ExtendedCommunity;
use crate::flowspec::FlowSpec;
use crate::nlri::{self, Nlri};
use crate::types::{Afi, Asn, Origin, Safi};
use bytes::{BufMut, BytesMut};
use stellar_net::addr::{IpAddress, Ipv4Address, Ipv6Address};
use stellar_net::prefix::Prefix;

/// An UPDATE message: withdrawals, path attributes, and announcements.
/// IPv4 unicast uses the classic fields; IPv6 rides in MP_REACH/MP_UNREACH
/// attributes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdateMessage {
    /// Withdrawn IPv4 routes.
    pub withdrawn: Vec<Nlri>,
    /// Path attributes.
    pub attrs: Vec<PathAttribute>,
    /// Announced IPv4 routes.
    pub nlri: Vec<Nlri>,
}

/// The AS_PATH in `attrs`, if any. This and the four lookups below are
/// the one attribute lookup [`UpdateMessage`] and [`crate::rib::Route`]
/// share; each answers the first attribute of its kind.
pub fn as_path(attrs: &[PathAttribute]) -> Option<&AsPath> {
    attrs.iter().find_map(|a| match a {
        PathAttribute::AsPath(p) => Some(p),
        _ => None,
    })
}

/// The standard communities in `attrs` (empty if none).
pub fn communities(attrs: &[PathAttribute]) -> &[Community] {
    let found = attrs.iter().find_map(|a| match a {
        PathAttribute::Communities(cs) => Some(cs.as_slice()),
        _ => None,
    });
    found.unwrap_or(&[])
}

/// The extended communities in `attrs` (empty if none).
pub fn extended_communities(attrs: &[PathAttribute]) -> &[ExtendedCommunity] {
    let found = attrs.iter().find_map(|a| match a {
        PathAttribute::ExtendedCommunities(cs) => Some(cs.as_slice()),
        _ => None,
    });
    found.unwrap_or(&[])
}

/// The NEXT_HOP in `attrs`, if any.
pub fn next_hop(attrs: &[PathAttribute]) -> Option<Ipv4Address> {
    attrs.iter().find_map(|a| match a {
        PathAttribute::NextHop(h) => Some(*h),
        _ => None,
    })
}

/// The next hop of the MP_REACH_NLRI in `attrs`, if any.
pub fn mp_next_hop(attrs: &[PathAttribute]) -> Option<IpAddress> {
    attrs.iter().find_map(|a| match a {
        PathAttribute::MpReach { next_hop, .. } => Some(*next_hop),
        _ => None,
    })
}

impl UpdateMessage {
    /// An announcement of `prefix` with the minimal mandatory attributes,
    /// placed like [`UpdateMessage::announce_nlri`] places it (an IPv6
    /// prefix gets the unspecified MP next hop).
    pub fn announce(prefix: Prefix, next_hop: Ipv4Address, origin_as_path: PathAttribute) -> Self {
        let attrs = [
            PathAttribute::Origin(Origin::Igp),
            origin_as_path,
            PathAttribute::NextHop(next_hop),
        ];
        Self::announce_nlri(attrs, Nlri::plain(prefix), None)
    }

    /// Announces the one NLRI `nlri` with `attrs`, placed by family (RFC
    /// 4760): every MP_REACH/MP_UNREACH among `attrs` is dropped; an IPv4
    /// NLRI rides in the classic field, an IPv6 one in an MP_REACH_NLRI
    /// with `mp_next_hop` (the unspecified address if `None`) and without
    /// the classic NEXT_HOP, which is IPv4's (RFC 4760 §3).
    pub fn announce_nlri(
        attrs: impl IntoIterator<Item = PathAttribute>,
        nlri: Nlri,
        mp_next_hop: Option<IpAddress>,
    ) -> Self {
        let v6 = matches!(nlri.prefix, Prefix::V6(_));
        let attrs = attrs.into_iter();
        // Room for the MP_REACH, or for the one attribute a caller adds.
        let mut placed = Vec::with_capacity(attrs.size_hint().0 + 1);
        placed.extend(attrs.filter(|a| {
            let ipv4_next_hop = matches!(a, PathAttribute::NextHop(_));
            !(is_multiprotocol(a) || (v6 && ipv4_next_hop))
        }));
        if !v6 {
            return UpdateMessage {
                attrs: placed,
                nlri: vec![nlri],
                ..Default::default()
            };
        }
        placed.push(PathAttribute::MpReach {
            afi: Afi::Ipv6,
            safi: Safi::Unicast,
            next_hop: mp_next_hop.unwrap_or(IpAddress::V6(Ipv6Address::UNSPECIFIED)),
            nlri: vec![nlri],
        });
        UpdateMessage {
            attrs: placed,
            ..Default::default()
        }
    }

    /// Withdraws the one NLRI `nlri`, placed by family: in the classic
    /// field for IPv4, in MP_UNREACH_NLRI for IPv6 (RFC 4760).
    pub fn withdraw_nlri(nlri: Nlri) -> Self {
        match nlri.prefix {
            Prefix::V4(_) => UpdateMessage {
                withdrawn: vec![nlri],
                ..Default::default()
            },
            Prefix::V6(_) => UpdateMessage {
                attrs: vec![PathAttribute::MpUnreach {
                    afi: Afi::Ipv6,
                    safi: Safi::Unicast,
                    nlri: vec![nlri],
                }],
                ..Default::default()
            },
        }
    }

    /// A withdrawal of `prefix` without a path id.
    pub fn withdraw(prefix: Prefix) -> Self {
        Self::withdraw_nlri(Nlri::plain(prefix))
    }

    /// `origin`'s announcement of one FlowSpec rule: MP_REACH_NLRI under
    /// SAFI 133 and the rule's AFI (RFC 8955 §5), its `actions` as
    /// extended communities.
    pub fn announce_flowspec(origin: Asn, flow: FlowSpec, actions: &[ExtendedCommunity]) -> Self {
        let mut attrs = Vec::with_capacity(3);
        attrs.push(PathAttribute::AsPath(AsPath::sequence([origin.0])));
        attrs.push(PathAttribute::MpReachFlowSpec {
            afi: flow.afi,
            nlri: vec![flow],
        });
        if !actions.is_empty() {
            attrs.push(PathAttribute::ExtendedCommunities(actions.to_vec()));
        }
        UpdateMessage {
            attrs,
            ..Default::default()
        }
    }

    /// The withdrawal of one FlowSpec rule: MP_UNREACH_NLRI under SAFI 133
    /// and the rule's AFI.
    pub fn withdraw_flowspec(flow: FlowSpec) -> Self {
        UpdateMessage {
            attrs: vec![PathAttribute::MpUnreachFlowSpec {
                afi: flow.afi,
                nlri: vec![flow],
            }],
            ..Default::default()
        }
    }

    /// Every unicast NLRI this UPDATE withdraws: the classic field's,
    /// then each MP_UNREACH_NLRI's.
    pub fn withdrawals(&self) -> impl Iterator<Item = Nlri> + '_ {
        let mp = self.attrs.iter().flat_map(|a| match a {
            PathAttribute::MpUnreach { nlri, .. } => nlri.as_slice(),
            _ => &[],
        });
        self.withdrawn.iter().chain(mp).copied()
    }

    /// Every unicast NLRI this UPDATE announces, each with the next hop
    /// of the MP_REACH_NLRI that carried it: the classic field's first
    /// (`None`: their next hop is NEXT_HOP), then each MP_REACH_NLRI's.
    pub fn announcements(&self) -> impl Iterator<Item = (Nlri, Option<IpAddress>)> + '_ {
        let mp = self.attrs.iter().flat_map(|a| {
            let (next_hop, nlri) = match a {
                PathAttribute::MpReach { next_hop, nlri, .. } => (Some(*next_hop), nlri.as_slice()),
                _ => (None, &[][..]),
            };
            nlri.iter().map(move |n| (*n, next_hop))
        });
        self.nlri.iter().map(|n| (*n, None)).chain(mp)
    }

    /// Every FlowSpec rule this UPDATE withdraws.
    pub fn flowspec_withdrawals(&self) -> impl Iterator<Item = &FlowSpec> {
        self.attrs.iter().flat_map(|a| match a {
            PathAttribute::MpUnreachFlowSpec { nlri, .. } => nlri.as_slice(),
            _ => &[],
        })
    }

    /// Every FlowSpec rule this UPDATE announces.
    pub fn flowspec_announcements(&self) -> impl Iterator<Item = &FlowSpec> {
        self.attrs.iter().flat_map(|a| match a {
            PathAttribute::MpReachFlowSpec { nlri, .. } => nlri.as_slice(),
            _ => &[],
        })
    }

    /// The AS_PATH carried, if any.
    pub fn as_path(&self) -> Option<&AsPath> {
        as_path(&self.attrs)
    }

    /// The standard communities carried, if any.
    pub fn communities(&self) -> &[Community] {
        communities(&self.attrs)
    }

    /// The extended communities carried, if any.
    pub fn extended_communities(&self) -> &[ExtendedCommunity] {
        extended_communities(&self.attrs)
    }

    /// The NEXT_HOP attribute, if present.
    pub fn next_hop(&self) -> Option<Ipv4Address> {
        next_hop(&self.attrs)
    }

    /// Replaces (or inserts) the NEXT_HOP attribute — how RTBH rewrites
    /// announcements to the blackholing next hop (§2.2).
    pub fn set_next_hop(&mut self, h: Ipv4Address) {
        for a in self.attrs.iter_mut() {
            if let PathAttribute::NextHop(nh) = a {
                *nh = h;
                return;
            }
        }
        self.attrs.push(PathAttribute::NextHop(h));
    }

    /// Appends communities, merging with an existing attribute.
    pub fn add_communities(&mut self, cs: &[Community]) {
        for a in self.attrs.iter_mut() {
            if let PathAttribute::Communities(existing) = a {
                existing.extend_from_slice(cs);
                return;
            }
        }
        self.attrs.push(PathAttribute::Communities(cs.to_vec()));
    }

    /// Appends extended communities, merging with an existing attribute.
    pub fn add_extended_communities(&mut self, cs: &[ExtendedCommunity]) {
        for a in self.attrs.iter_mut() {
            if let PathAttribute::ExtendedCommunities(existing) = a {
                existing.extend_from_slice(cs);
                return;
            }
        }
        self.attrs
            .push(PathAttribute::ExtendedCommunities(cs.to_vec()));
    }

    /// True if the message announces nothing and withdraws nothing (an
    /// End-of-RIB marker).
    pub fn is_end_of_rib(&self) -> bool {
        self.withdrawn.is_empty() && self.attrs.is_empty() && self.nlri.is_empty()
    }

    /// Encodes the message body. `add_path` must match the session state.
    pub fn encode<B: BufMut>(&self, add_path: bool, buf: &mut B) -> BgpResult<()> {
        let mut withdrawn = BytesMut::new();
        nlri::encode_v4(&self.withdrawn, add_path, &mut withdrawn)?;
        buf.put_u16(withdrawn.len() as u16);
        buf.put_slice(&withdrawn);
        let mut attrs = BytesMut::new();
        for a in &self.attrs {
            a.encode(add_path, &mut attrs)?;
        }
        buf.put_u16(attrs.len() as u16);
        buf.put_slice(&attrs);
        nlri::encode_v4(&self.nlri, add_path, buf)?;
        Ok(())
    }

    /// Decodes a message body.
    pub fn decode(buf: &[u8], add_path: bool) -> BgpResult<UpdateMessage> {
        if buf.len() < 4 {
            return Err(BgpError::Truncated { what: "update" });
        }
        let wlen = u16::from_be_bytes([buf[0], buf[1]]) as usize;
        if buf.len() < 2 + wlen + 2 {
            return Err(BgpError::update(1, "withdrawn length overruns message"));
        }
        let withdrawn = nlri::decode_v4(&buf[2..2 + wlen], add_path)?;
        let aoff = 2 + wlen;
        let alen = u16::from_be_bytes([buf[aoff], buf[aoff + 1]]) as usize;
        if buf.len() < aoff + 2 + alen {
            return Err(BgpError::update(1, "attribute length overruns message"));
        }
        let mut attrs = Vec::new();
        let mut rest = &buf[aoff + 2..aoff + 2 + alen];
        while !rest.is_empty() {
            let (a, used) = PathAttribute::decode(rest, add_path)?;
            attrs.push(a);
            rest = &rest[used..];
        }
        let nlri = nlri::decode_v4(&buf[aoff + 2 + alen..], add_path)?;
        // RFC 4271 §6.3: announcements must carry the mandatory attributes.
        if !nlri.is_empty() {
            for required in [1u8, 2, 3] {
                if !attrs.iter().any(|a| a.type_code() == required) {
                    return Err(BgpError::update(3, "missing well-known attribute"));
                }
            }
        }
        Ok(UpdateMessage {
            withdrawn,
            attrs,
            nlri,
        })
    }
}

/// MP_REACH_NLRI or MP_UNREACH_NLRI of any SAFI: what a one-NLRI message
/// never inherits, since its own placement decides it.
fn is_multiprotocol(a: &PathAttribute) -> bool {
    matches!(a.type_code(), 14 | 15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowspec::Component;

    fn announce() -> UpdateMessage {
        let mut u = UpdateMessage::announce(
            "100.10.10.10/32".parse().unwrap(),
            Ipv4Address::new(80, 81, 192, 10),
            PathAttribute::AsPath(AsPath::sequence([64500])),
        );
        u.add_communities(&[Community::BLACKHOLE]);
        u
    }

    #[test]
    fn round_trip_announce() {
        let u = announce();
        let mut buf = BytesMut::new();
        u.encode(false, &mut buf).unwrap();
        let d = UpdateMessage::decode(&buf, false).unwrap();
        assert_eq!(d, u);
        assert_eq!(d.communities(), &[Community::BLACKHOLE]);
        assert_eq!(d.next_hop(), Some(Ipv4Address::new(80, 81, 192, 10)));
    }

    #[test]
    fn round_trip_withdraw_and_eor() {
        let u = UpdateMessage::withdraw("100.10.10.10/32".parse().unwrap());
        let mut buf = BytesMut::new();
        u.encode(false, &mut buf).unwrap();
        let d = UpdateMessage::decode(&buf, false).unwrap();
        assert_eq!(d, u);
        assert!(!d.is_end_of_rib());
        // IPv6 withdraws through MP_UNREACH_NLRI, never the IPv4 field.
        let v6 = UpdateMessage::withdraw("2001:db8::10/128".parse().unwrap());
        assert!(v6.withdrawn.is_empty());
        assert!(matches!(
            &v6.attrs[..],
            [PathAttribute::MpUnreach { afi: Afi::Ipv6, .. }]
        ));

        let eor = UpdateMessage::default();
        let mut buf = BytesMut::new();
        eor.encode(false, &mut buf).unwrap();
        assert_eq!(buf.len(), 4);
        assert!(UpdateMessage::decode(&buf, false).unwrap().is_end_of_rib());
    }

    #[test]
    fn next_hop_rewrite() {
        let mut u = announce();
        u.set_next_hop(Ipv4Address::new(80, 81, 193, 253)); // blackhole IP
        assert_eq!(u.next_hop(), Some(Ipv4Address::new(80, 81, 193, 253)));
        // Only one NEXT_HOP attribute remains.
        let n = u
            .attrs
            .iter()
            .filter(|a| matches!(a, PathAttribute::NextHop(_)))
            .count();
        assert_eq!(n, 1);
    }

    #[test]
    fn add_communities_merges() {
        let mut u = announce();
        u.add_communities(&[Community::new(6695, 666)]);
        assert_eq!(u.communities().len(), 2);
        let n = u
            .attrs
            .iter()
            .filter(|a| matches!(a, PathAttribute::Communities(_)))
            .count();
        assert_eq!(n, 1);
    }

    #[test]
    fn add_extended_communities_merges() {
        let mut u = announce();
        let ec = ExtendedCommunity::TwoOctetAs {
            subtype: 0xbb,
            asn: 6695,
            local: 1,
            transitive: true,
        };
        u.add_extended_communities(&[ec]);
        u.add_extended_communities(&[ec]);
        assert_eq!(u.extended_communities().len(), 2);
    }

    #[test]
    fn missing_mandatory_attributes_rejected() {
        // Announcement without NEXT_HOP.
        let mut u = announce();
        u.attrs.retain(|a| a.type_code() != 3);
        let mut buf = BytesMut::new();
        u.encode(false, &mut buf).unwrap();
        assert!(matches!(
            UpdateMessage::decode(&buf, false),
            Err(BgpError::Malformed { .. })
        ));
    }

    #[test]
    fn add_path_round_trip() {
        let mut u = announce();
        u.nlri = vec![
            Nlri::with_path_id("100.10.10.10/32".parse().unwrap(), 1),
            Nlri::with_path_id("100.10.10.10/32".parse().unwrap(), 2),
        ];
        let mut buf = BytesMut::new();
        u.encode(true, &mut buf).unwrap();
        let d = UpdateMessage::decode(&buf, true).unwrap();
        assert_eq!(d.nlri.len(), 2);
        assert_eq!(d, u);
    }

    #[test]
    fn bogus_lengths_rejected() {
        assert!(UpdateMessage::decode(&[0, 50, 0, 0], false).is_err());
        assert!(UpdateMessage::decode(&[0, 0, 0, 50], false).is_err());
        assert!(UpdateMessage::decode(&[0], false).is_err());
    }

    /// A mixed-family UPDATE: a v4 /32 in the classic field, a v6 /128 in
    /// MP_REACH, both tagged BLACKHOLE.
    fn mixed() -> (UpdateMessage, Prefix, IpAddress) {
        let v6: Prefix = "2001:db8::10/128".parse().unwrap();
        let hop = IpAddress::V6("2001:db8::ffff".parse().unwrap());
        let mut u = announce();
        u.attrs.push(PathAttribute::MpReach {
            afi: Afi::Ipv6,
            safi: Safi::Unicast,
            next_hop: hop,
            nlri: vec![Nlri::plain(v6)],
        });
        (u, v6, hop)
    }

    #[test]
    fn reading_side_walks_both_places_in_order() {
        let (u, v6, hop) = mixed();
        let v4 = u.nlri[0];
        let read: Vec<_> = u.announcements().collect();
        assert_eq!(read, vec![(v4, None), (Nlri::plain(v6), Some(hop))]);
        assert_eq!(u.as_path().and_then(AsPath::origin_as), Some(Asn(64500)));
        let mut w = UpdateMessage::withdraw(v4.prefix);
        w.attrs = UpdateMessage::withdraw(v6).attrs;
        let read: Vec<_> = w.withdrawals().collect();
        assert_eq!(read, vec![v4, Nlri::plain(v6)]);
        assert_eq!(w.announcements().count(), 0);
    }

    #[test]
    fn one_nlri_messages_are_placed_by_family() {
        let (u, v6, hop) = mixed();
        let v4 = Nlri::with_path_id(u.nlri[0].prefix, 7);
        let v6 = Nlri::with_path_id(v6, 8);
        // IPv4: the classic field, no MP attribute, NEXT_HOP kept.
        let placed_v4 = UpdateMessage::announce_nlri(u.attrs.clone(), v4, Some(hop));
        assert_eq!(placed_v4.nlri, vec![v4]);
        assert!(placed_v4.attrs.iter().all(|a| !is_multiprotocol(a)));
        assert_eq!(placed_v4.next_hop(), u.next_hop());
        assert_eq!(placed_v4.communities(), &[Community::BLACKHOLE]);
        // IPv6: one MP_REACH with the given next hop, no NEXT_HOP.
        let placed_v6 = UpdateMessage::announce_nlri(u.attrs.clone(), v6, Some(hop));
        assert!(placed_v6.nlri.is_empty() && placed_v6.next_hop().is_none());
        let read: Vec<_> = placed_v6.announcements().collect();
        assert_eq!(read, vec![(v6, Some(hop))]);
        let bare = UpdateMessage::announce_nlri(u.attrs, v6, None);
        let unspecified = IpAddress::V6(Ipv6Address::UNSPECIFIED);
        assert_eq!(mp_next_hop(&bare.attrs), Some(unspecified));
        // Both survive an ADD-PATH round trip.
        for placed in [placed_v4, placed_v6] {
            let mut buf = BytesMut::new();
            placed.encode(true, &mut buf).unwrap();
            assert_eq!(UpdateMessage::decode(&buf, true).unwrap(), placed);
        }
        // Withdrawals: one entry each, path id kept.
        for n in [v4, v6] {
            let w = UpdateMessage::withdraw_nlri(n);
            assert_eq!(w.withdrawals().collect::<Vec<_>>(), vec![n]);
            assert_eq!(w.withdrawn.len(), usize::from(n == v4));
        }
    }

    #[test]
    fn flowspec_messages_ride_under_the_rules_afi() {
        let v6 = FlowSpec::new(
            Afi::Ipv6,
            vec![Component::DstPrefix("2001:db8::10/128".parse().unwrap())],
        )
        .unwrap();
        let drop = ExtendedCommunity::traffic_rate(64500, 0.0);
        let u = UpdateMessage::announce_flowspec(Asn(64500), v6.clone(), &[drop]);
        assert!(matches!(
            &u.attrs[1],
            PathAttribute::MpReachFlowSpec { afi: Afi::Ipv6, .. }
        ));
        assert_eq!(u.flowspec_announcements().collect::<Vec<_>>(), vec![&v6]);
        assert_eq!(u.extended_communities(), &[drop]);
        assert_eq!(u.flowspec_withdrawals().count(), 0);
        let w = UpdateMessage::withdraw_flowspec(v6.clone());
        assert_eq!(w.flowspec_withdrawals().collect::<Vec<_>>(), vec![&v6]);
        for m in [u, w] {
            let mut buf = BytesMut::new();
            m.encode(false, &mut buf).unwrap();
            assert_eq!(UpdateMessage::decode(&buf, false).unwrap(), m);
        }
        // No action, no EXTENDED_COMMUNITIES attribute.
        let bare = UpdateMessage::announce_flowspec(Asn(64500), v6, &[]);
        assert_eq!(bare.attrs.len(), 2);
    }
}
