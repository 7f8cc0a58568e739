//! CIDR prefixes for IPv4 and IPv6.
//!
//! Prefixes are the unit of BGP announcements and of blackholing signals:
//! RTBH and Stellar both announce a host prefix (`/32` or `/128`) for the IP
//! under attack. The route-server policy layer reasons about containment
//! ("is this more specific than an IRR-registered prefix?") and about the
//! `/24`-or-shorter convention that makes RTBH need special acceptance rules.

use crate::addr::{IpAddress, Ipv4Address, Ipv6Address};
use crate::error::{NetError, NetResult};
use core::fmt;
use core::str::FromStr;

/// An IPv4 CIDR prefix. The address is stored canonicalized (host bits zero).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Prefix {
    addr: Ipv4Address,
    len: u8,
}

impl Ipv4Prefix {
    /// Creates a prefix, canonicalizing host bits to zero.
    ///
    /// Fails if `len > 32`.
    pub fn new(addr: Ipv4Address, len: u8) -> NetResult<Self> {
        if len > 32 {
            return Err(NetError::BadPrefixLen { len, max: 32 });
        }
        let masked = addr.to_u32() & mask_v4(len);
        Ok(Ipv4Prefix {
            addr: Ipv4Address::from_u32(masked),
            len,
        })
    }

    /// A host prefix (`/32`) for a single address.
    pub fn host(addr: Ipv4Address) -> Self {
        Ipv4Prefix { addr, len: 32 }
    }

    /// Network address (host bits zero).
    pub fn addr(&self) -> Ipv4Address {
        self.addr
    }

    /// Prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // a mask length, not a container
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for the zero-length default route.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// True if the prefix covers exactly one host.
    pub fn is_host(&self) -> bool {
        self.len == 32
    }

    /// Number of addresses covered (saturating at `u64::MAX` never needed
    /// for v4: max is 2^32).
    pub fn num_addresses(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Address) -> bool {
        addr.to_u32() & mask_v4(self.len) == self.addr.to_u32()
    }

    /// True if `other` is fully covered by (or equal to) `self`.
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// True if `self` is strictly more specific than `other` while being
    /// contained in it — the relation that makes RTBH `/32`s "more specific"
    /// announcements requiring acceptance exceptions.
    pub fn is_more_specific_than(&self, other: &Ipv4Prefix) -> bool {
        self.len > other.len && other.contains(self.addr)
    }

    /// True if the two prefixes share any address.
    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The immediate parent (one bit shorter), or `None` at `/0`.
    pub fn parent(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv4Prefix::new(self.addr, self.len - 1).expect("len-1 <= 32"))
        }
    }

    /// The `i`-th host address within the prefix (wrapping within the
    /// prefix size); handy for synthesizing attack target/reflector pools.
    pub fn nth_host(&self, i: u64) -> Ipv4Address {
        let span = self.num_addresses();
        Ipv4Address::from_u32(self.addr.to_u32().wrapping_add((i % span) as u32))
    }
}

fn mask_v4(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> NetResult<Self> {
        let (a, l) = s
            .split_once('/')
            .ok_or(NetError::Parse { what: "prefix" })?;
        let addr: Ipv4Address = a.parse()?;
        let len: u8 = l.parse().map_err(|_| NetError::Parse { what: "prefix" })?;
        Ipv4Prefix::new(addr, len)
    }
}

/// An IPv6 CIDR prefix, canonicalized like [`Ipv4Prefix`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv6Prefix {
    addr: Ipv6Address,
    len: u8,
}

impl Ipv6Prefix {
    /// Creates a prefix, canonicalizing host bits to zero.
    pub fn new(addr: Ipv6Address, len: u8) -> NetResult<Self> {
        if len > 128 {
            return Err(NetError::BadPrefixLen { len, max: 128 });
        }
        let mut o = addr.octets();
        let full = (len / 8) as usize;
        let rem = len % 8;
        if full < 16 {
            if rem > 0 {
                o[full] &= 0xffu8 << (8 - rem);
                for b in o.iter_mut().skip(full + 1) {
                    *b = 0;
                }
            } else {
                for b in o.iter_mut().skip(full) {
                    *b = 0;
                }
            }
        }
        Ok(Ipv6Prefix {
            addr: Ipv6Address(o),
            len,
        })
    }

    /// A host prefix (`/128`).
    pub fn host(addr: Ipv6Address) -> Self {
        Ipv6Prefix { addr, len: 128 }
    }

    /// Network address.
    pub fn addr(&self) -> Ipv6Address {
        self.addr
    }

    /// Prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // a mask length, not a container
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for `/0`.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// True for a single-host prefix.
    pub fn is_host(&self) -> bool {
        self.len == 128
    }

    /// True if `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv6Address) -> bool {
        let canon = Ipv6Prefix::new(addr, self.len).expect("len validated");
        canon.addr == self.addr
    }

    /// True if `other` is fully covered by (or equal to) `self`.
    pub fn covers(&self, other: &Ipv6Prefix) -> bool {
        other.len >= self.len && self.contains(other.addr)
    }

    /// Strictly-more-specific containment, as for IPv4.
    pub fn is_more_specific_than(&self, other: &Ipv6Prefix) -> bool {
        self.len > other.len && other.contains(self.addr)
    }
}

impl fmt::Display for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Ipv6Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ipv6Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> NetResult<Self> {
        let (a, l) = s
            .split_once('/')
            .ok_or(NetError::Parse { what: "prefix" })?;
        let addr: Ipv6Address = a.parse()?;
        let len: u8 = l.parse().map_err(|_| NetError::Parse { what: "prefix" })?;
        Ipv6Prefix::new(addr, len)
    }
}

/// A prefix of either address family.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Prefix {
    /// IPv4 variant.
    V4(Ipv4Prefix),
    /// IPv6 variant.
    V6(Ipv6Prefix),
}

impl Prefix {
    /// The least prefix in the derived order: the IPv4 default route
    /// `0.0.0.0/0`.
    pub const MIN: Prefix = Prefix::V4(Ipv4Prefix {
        addr: Ipv4Address::UNSPECIFIED,
        len: 0,
    });

    /// A host prefix for `addr` (`/32` or `/128`).
    pub fn host(addr: IpAddress) -> Self {
        match addr {
            IpAddress::V4(a) => Prefix::V4(Ipv4Prefix::host(a)),
            IpAddress::V6(a) => Prefix::V6(Ipv6Prefix::host(a)),
        }
    }

    /// Prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // a mask length, not a container
    pub fn len(&self) -> u8 {
        match self {
            Prefix::V4(p) => p.len(),
            Prefix::V6(p) => p.len(),
        }
    }

    /// True if this covers a single host.
    pub fn is_host(&self) -> bool {
        match self {
            Prefix::V4(p) => p.is_host(),
            Prefix::V6(p) => p.is_host(),
        }
    }

    /// True for IPv4 prefixes.
    pub fn is_v4(&self) -> bool {
        matches!(self, Prefix::V4(_))
    }

    /// The network address.
    pub fn network(&self) -> IpAddress {
        match self {
            Prefix::V4(p) => IpAddress::V4(p.addr()),
            Prefix::V6(p) => IpAddress::V6(p.addr()),
        }
    }

    /// True if `addr` falls inside this prefix (families must match).
    pub fn contains(&self, addr: IpAddress) -> bool {
        match (self, addr) {
            (Prefix::V4(p), IpAddress::V4(a)) => p.contains(a),
            (Prefix::V6(p), IpAddress::V6(a)) => p.contains(a),
            _ => false,
        }
    }

    /// True if `other` is fully covered by `self` (same family).
    pub fn covers(&self, other: &Prefix) -> bool {
        match (self, other) {
            (Prefix::V4(a), Prefix::V4(b)) => a.covers(b),
            (Prefix::V6(a), Prefix::V6(b)) => a.covers(b),
            _ => false,
        }
    }

    /// Every prefix that covers (or equals) `self`, shortest first: the
    /// `/0` of its family, then one per length down to `self` itself.
    pub fn covering(self) -> impl Iterator<Item = Prefix> {
        (0..=self.len()).filter_map(move |len| match self {
            Prefix::V4(p) => Ipv4Prefix::new(p.addr(), len).ok().map(Prefix::V4),
            Prefix::V6(p) => Ipv6Prefix::new(p.addr(), len).ok().map(Prefix::V6),
        })
    }

    /// True if this announcement is "more specific than /24" (IPv4) or
    /// "more specific than /48" (IPv6) — the announcements that default BGP
    /// filters drop, which is exactly why RTBH compliance is poor (§2.4).
    pub fn needs_blackhole_exception(&self) -> bool {
        match self {
            Prefix::V4(p) => p.len() > 24,
            Prefix::V6(p) => p.len() > 48,
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prefix::V4(p) => p.fmt(f),
            Prefix::V6(p) => p.fmt(f),
        }
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Ipv4Prefix> for Prefix {
    fn from(p: Ipv4Prefix) -> Self {
        Prefix::V4(p)
    }
}

impl From<Ipv6Prefix> for Prefix {
    fn from(p: Ipv6Prefix) -> Self {
        Prefix::V6(p)
    }
}

impl FromStr for Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> NetResult<Self> {
        if s.contains(':') {
            Ok(Prefix::V6(s.parse()?))
        } else {
            Ok(Prefix::V4(s.parse()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes_host_bits() {
        let p = Ipv4Prefix::new(Ipv4Address::new(100, 10, 10, 10), 24).unwrap();
        assert_eq!(p.to_string(), "100.10.10.0/24");
        assert_eq!(p, p4("100.10.10.0/24"));
    }

    #[test]
    fn min_sorts_before_every_prefix() {
        assert_eq!(Prefix::MIN, "0.0.0.0/0".parse::<Prefix>().unwrap());
        for p in [
            "0.0.0.0/1",
            "0.0.0.0/32",
            "255.255.255.255/32",
            "::/0",
            "2001:db8::/32",
        ] {
            assert!(Prefix::MIN < p.parse::<Prefix>().unwrap(), "{p}");
        }
    }

    #[test]
    fn rejects_overlong_lengths() {
        assert!(Ipv4Prefix::new(Ipv4Address::UNSPECIFIED, 33).is_err());
        assert!(Ipv6Prefix::new(Ipv6Address::UNSPECIFIED, 129).is_err());
    }

    #[test]
    fn containment_and_specificity() {
        let net = p4("100.10.10.0/24");
        let host = p4("100.10.10.10/32");
        assert!(net.contains(Ipv4Address::new(100, 10, 10, 10)));
        assert!(!net.contains(Ipv4Address::new(100, 10, 11, 10)));
        assert!(net.covers(&host));
        assert!(!host.covers(&net));
        assert!(host.is_more_specific_than(&net));
        assert!(!net.is_more_specific_than(&host));
        assert!(net.overlaps(&host) && host.overlaps(&net));
        assert!(!p4("10.0.0.0/8").overlaps(&p4("11.0.0.0/8")));
    }

    #[test]
    fn default_route_contains_everything() {
        let d = p4("0.0.0.0/0");
        assert!(d.is_default());
        assert!(d.contains(Ipv4Address::new(255, 255, 255, 255)));
        assert!(d.contains(Ipv4Address::UNSPECIFIED));
        assert_eq!(d.num_addresses(), 1u64 << 32);
    }

    #[test]
    fn parent_walks_up() {
        let host = p4("100.10.10.10/32");
        let parent = host.parent().unwrap();
        assert_eq!(parent, p4("100.10.10.10/31"));
        assert!(p4("0.0.0.0/0").parent().is_none());
    }

    #[test]
    fn nth_host_wraps_within_prefix() {
        let net = p4("192.0.2.0/30");
        assert_eq!(net.nth_host(0), Ipv4Address::new(192, 0, 2, 0));
        assert_eq!(net.nth_host(3), Ipv4Address::new(192, 0, 2, 3));
        assert_eq!(net.nth_host(4), Ipv4Address::new(192, 0, 2, 0));
    }

    #[test]
    fn v6_prefix_canonicalization_and_containment() {
        let p: Ipv6Prefix = "2001:db8::/32".parse().unwrap();
        assert!(p.contains("2001:db8::1".parse().unwrap()));
        assert!(!p.contains("2001:db9::1".parse().unwrap()));
        let host = Ipv6Prefix::host("2001:db8::1".parse().unwrap());
        assert!(host.is_more_specific_than(&p));
        // Non-byte-aligned length.
        let p: Ipv6Prefix = "2001:db8:8000::/33".parse().unwrap();
        assert!(p.contains("2001:db8:8000::1".parse().unwrap()));
        assert!(!p.contains("2001:db8:0::1".parse().unwrap()));
    }

    #[test]
    fn covering_lists_every_ancestor_shortest_first() {
        let host: Prefix = "100.10.10.10/32".parse().unwrap();
        let covering: Vec<Prefix> = host.covering().collect();
        assert_eq!(covering.len(), 33);
        assert_eq!(covering[0], "0.0.0.0/0".parse().unwrap());
        assert_eq!(covering[24], "100.10.10.0/24".parse().unwrap());
        assert_eq!(covering[32], host);
        assert!(covering.iter().all(|c| c.covers(&host)));
        let v6: Prefix = "2001:db8::/33".parse().unwrap();
        assert_eq!(v6.covering().count(), 34);
        assert!(v6.covering().all(|c| c.covers(&v6)));
    }

    #[test]
    fn mixed_family_prefix_behaviour() {
        let v4: Prefix = "100.10.10.10/32".parse().unwrap();
        let v6: Prefix = "2001:db8::1/128".parse().unwrap();
        assert!(v4.is_host() && v6.is_host());
        assert!(v4.needs_blackhole_exception());
        assert!(v6.needs_blackhole_exception());
        assert!(!"100.10.10.0/24"
            .parse::<Prefix>()
            .unwrap()
            .needs_blackhole_exception());
        assert!(!v4.covers(&v6));
        assert!(!v4.contains(IpAddress::V6(Ipv6Address::UNSPECIFIED)));
    }
}
