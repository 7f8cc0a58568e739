//! UPDATE message (RFC 4271 §4.3).

use crate::attr::PathAttribute;
use crate::community::Community;
use crate::error::{BgpError, BgpResult};
use crate::extcommunity::ExtendedCommunity;
use crate::nlri::{self, Nlri};
use crate::types::{Afi, Origin, Safi};
use bytes::{BufMut, BytesMut};
use stellar_net::addr::Ipv4Address;
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

impl UpdateMessage {
    /// An announcement of `prefix` with the minimal mandatory attributes.
    pub fn announce(prefix: Prefix, next_hop: Ipv4Address, origin_as_path: PathAttribute) -> Self {
        UpdateMessage {
            withdrawn: vec![],
            attrs: vec![
                PathAttribute::Origin(Origin::Igp),
                origin_as_path,
                PathAttribute::NextHop(next_hop),
            ],
            nlri: vec![Nlri::plain(prefix)],
        }
    }

    /// A withdrawal of `prefix`: in the classic field for IPv4, in
    /// MP_UNREACH_NLRI for IPv6 (RFC 4760).
    pub fn withdraw(prefix: Prefix) -> Self {
        let nlri = vec![Nlri::plain(prefix)];
        match prefix {
            Prefix::V4(_) => UpdateMessage {
                withdrawn: nlri,
                ..Default::default()
            },
            Prefix::V6(_) => UpdateMessage {
                attrs: vec![PathAttribute::MpUnreach {
                    afi: Afi::Ipv6,
                    safi: Safi::Unicast,
                    nlri,
                }],
                ..Default::default()
            },
        }
    }

    /// The standard communities carried, if any.
    pub fn communities(&self) -> &[Community] {
        self.attrs
            .iter()
            .find_map(|a| match a {
                PathAttribute::Communities(cs) => Some(cs.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// The extended communities carried, if any.
    pub fn extended_communities(&self) -> &[ExtendedCommunity] {
        self.attrs
            .iter()
            .find_map(|a| match a {
                PathAttribute::ExtendedCommunities(cs) => Some(cs.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// The NEXT_HOP attribute, if present.
    pub fn next_hop(&self) -> Option<Ipv4Address> {
        self.attrs.iter().find_map(|a| match a {
            PathAttribute::NextHop(h) => Some(*h),
            _ => None,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AsPath;

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
}
