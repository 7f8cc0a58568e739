//! L2–L4 match specifications: the "blackholing rules" of §3.2, matched
//! in hardware against packet headers.
//!
//! This is the match *language*; the lookup over many specs lives in
//! [`crate::classifier`].

use core::fmt;
use stellar_net::addr::IpAddress;
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::packet::Packet;
use stellar_net::prefix::Prefix;
use stellar_net::proto::IpProtocol;

/// True for the two protocols whose keys carry ICMP type/code.
pub fn is_icmp(proto: IpProtocol) -> bool {
    proto == IpProtocol::ICMP || proto == IpProtocol::ICMPV6
}

/// A transport-port match: exact or an inclusive range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortMatch {
    /// Exactly this port.
    Exact(u16),
    /// Any port in `lo..=hi`.
    Range(u16, u16),
}

impl PortMatch {
    /// True if `port` satisfies the match.
    pub fn matches(&self, port: u16) -> bool {
        match self {
            PortMatch::Exact(p) => port == *p,
            PortMatch::Range(lo, hi) => (*lo..=*hi).contains(&port),
        }
    }
}

impl fmt::Display for PortMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortMatch::Exact(p) => write!(f, "{p}"),
            PortMatch::Range(lo, hi) => write!(f, "{lo}-{hi}"),
        }
    }
}

/// An inclusive numeric range match over a header field (`lo..=hi`).
///
/// Lowered from FlowSpec numeric operator sequences (packet length, DSCP,
/// ICMP type/code, flow label); a range with `lo > hi` is unsatisfiable
/// and refused at audit admission (see [`crate::analyze::spec_is_empty`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeMatch<T> {
    /// Inclusive lower bound.
    pub lo: T,
    /// Inclusive upper bound.
    pub hi: T,
}

impl<T: Copy + PartialOrd> RangeMatch<T> {
    /// Range covering exactly `lo..=hi`.
    pub fn new(lo: T, hi: T) -> Self {
        RangeMatch { lo, hi }
    }

    /// Range covering exactly `v`.
    pub fn exact(v: T) -> Self {
        RangeMatch { lo: v, hi: v }
    }

    /// True if `v` falls in the range.
    pub fn matches(&self, v: T) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// True if the range contains no values (`lo > hi`).
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }
}

impl<T: fmt::Display + PartialEq> fmt::Display for RangeMatch<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{}-{}", self.lo, self.hi)
        }
    }
}

/// A bitmask match over a flag byte: matches `x` iff `x & mask == value`.
///
/// This is the "cube" form FlowSpec bitmask operator sequences (TCP flags,
/// fragment bits) lower to: each cube pins the bits in `mask` to `value`
/// and wildcards the rest. A cube with `value & !mask != 0` demands a bit
/// outside its own mask and is unsatisfiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitsMatch {
    /// Bits that are constrained.
    pub mask: u8,
    /// Required value of the constrained bits (subset of `mask` when
    /// satisfiable).
    pub value: u8,
}

impl BitsMatch {
    /// Cube pinning the bits of `mask` to `value`.
    pub fn new(mask: u8, value: u8) -> Self {
        BitsMatch { mask, value }
    }

    /// Cube requiring all bits of `bits` to be set.
    pub fn all_of(bits: u8) -> Self {
        BitsMatch {
            mask: bits,
            value: bits,
        }
    }

    /// Cube requiring all bits of `bits` to be clear.
    pub fn none_of(bits: u8) -> Self {
        BitsMatch {
            mask: bits,
            value: 0,
        }
    }

    /// True if `x` satisfies the cube.
    pub fn matches(&self, x: u8) -> bool {
        x & self.mask == self.value
    }

    /// True if some value satisfies the cube (value is confined to mask).
    pub fn is_satisfiable(&self) -> bool {
        self.value & !self.mask == 0
    }
}

impl fmt::Display for BitsMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}/{:#04x}", self.value, self.mask)
    }
}

/// The match half of a blackholing rule: any combination of L2–L4 header
/// fields (§3.2: "MAC and IP address (IPv4 and IPv6), transport protocol,
/// or TCP/UDP port"). `None` fields are wildcards.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct MatchSpec {
    /// Source member-router MAC (per-source filtering / RTBH policy
    /// control).
    pub src_mac: Option<MacAddr>,
    /// Destination member-router MAC.
    pub dst_mac: Option<MacAddr>,
    /// Source IP prefix.
    pub src_ip: Option<Prefix>,
    /// Destination IP prefix (the victim, typically a /32).
    pub dst_ip: Option<Prefix>,
    /// Transport protocol.
    pub protocol: Option<IpProtocol>,
    /// Source transport port (what amplification responses are identified
    /// by, e.g. UDP source 123).
    pub src_port: Option<PortMatch>,
    /// Destination transport port.
    pub dst_port: Option<PortMatch>,
    /// TCP flag cube (RFC 8955 type 9). Only TCP traffic can satisfy
    /// this criterion — a non-TCP key never matches.
    pub tcp_flags: Option<BitsMatch>,
    /// Total IP packet length range (type 10). Applies to every key.
    pub packet_len: Option<RangeMatch<u16>>,
    /// DSCP range over 0..=63 (type 11). Applies to every key.
    pub dscp: Option<RangeMatch<u8>>,
    /// Fragment-bit cube over [`stellar_net::flow::frag`] bits (type 12).
    /// Applies to every key (an unfragmented key has all bits clear).
    pub fragment: Option<BitsMatch>,
    /// ICMP message type range (type 7). Only ICMP/ICMPv6 traffic can
    /// satisfy this criterion.
    pub icmp_type: Option<RangeMatch<u8>>,
    /// ICMP message code range (type 8). Only ICMP/ICMPv6 traffic can
    /// satisfy this criterion.
    pub icmp_code: Option<RangeMatch<u8>>,
    /// IPv6 flow label range over 0..=0xF_FFFF (type 13, RFC 8956). Only
    /// IPv6 destinations can satisfy this criterion.
    pub flow_label: Option<RangeMatch<u32>>,
}

impl MatchSpec {
    /// A spec matching all traffic towards `dst` (what RTBH does).
    pub fn to_destination(dst: Prefix) -> Self {
        MatchSpec {
            dst_ip: Some(dst),
            ..Default::default()
        }
    }

    /// A spec matching `proto` traffic from source port `src_port`
    /// towards `dst` — the paper's running example (UDP source 123 → the
    /// attacked /32).
    pub fn proto_src_port_to(dst: Prefix, proto: IpProtocol, src_port: u16) -> Self {
        MatchSpec {
            dst_ip: Some(dst),
            protocol: Some(proto),
            src_port: Some(PortMatch::Exact(src_port)),
            ..Default::default()
        }
    }

    /// True if the flow key satisfies every non-wildcard field.
    pub fn matches(&self, key: &FlowKey) -> bool {
        if let Some(m) = self.src_mac {
            if key.src_mac != m {
                return false;
            }
        }
        if let Some(m) = self.dst_mac {
            if key.dst_mac != m {
                return false;
            }
        }
        if let Some(p) = &self.src_ip {
            if !p.contains(key.src_ip) {
                return false;
            }
        }
        if let Some(p) = &self.dst_ip {
            if !p.contains(key.dst_ip) {
                return false;
            }
        }
        if let Some(proto) = self.protocol {
            if key.protocol != proto {
                return false;
            }
        }
        if let Some(pm) = &self.src_port {
            if !key.protocol.has_ports() || !pm.matches(key.src_port) {
                return false;
            }
        }
        if let Some(pm) = &self.dst_port {
            if !key.protocol.has_ports() || !pm.matches(key.dst_port) {
                return false;
            }
        }
        if let Some(bm) = &self.tcp_flags {
            if key.protocol != IpProtocol::TCP || !bm.matches(key.tcp_flags) {
                return false;
            }
        }
        if let Some(r) = &self.packet_len {
            if !r.matches(key.packet_len) {
                return false;
            }
        }
        if let Some(r) = &self.dscp {
            if !r.matches(key.dscp) {
                return false;
            }
        }
        if let Some(bm) = &self.fragment {
            if !bm.matches(key.fragment) {
                return false;
            }
        }
        if let Some(r) = &self.icmp_type {
            if !is_icmp(key.protocol) || !r.matches(key.icmp_type) {
                return false;
            }
        }
        if let Some(r) = &self.icmp_code {
            if !is_icmp(key.protocol) || !r.matches(key.icmp_code) {
                return false;
            }
        }
        if let Some(r) = &self.flow_label {
            if !matches!(key.dst_ip, IpAddress::V6(_)) || !r.matches(key.flow_label) {
                return false;
            }
        }
        true
    }

    /// Per-packet path: parses nothing, reuses the packet's flow key so the
    /// two classification paths agree by construction of `FlowKey`.
    pub fn matches_packet(&self, packet: &Packet) -> bool {
        self.matches(&packet.flow_key())
    }

    /// Number of MAC (L2) filter criteria this spec consumes in hardware.
    pub fn mac_criteria(&self) -> usize {
        usize::from(self.src_mac.is_some()) + usize::from(self.dst_mac.is_some())
    }

    /// Number of L3–L4 filter criteria this spec consumes in hardware.
    pub fn l34_criteria(&self) -> usize {
        usize::from(self.src_ip.is_some())
            + usize::from(self.dst_ip.is_some())
            + usize::from(self.protocol.is_some())
            + usize::from(self.src_port.is_some())
            + usize::from(self.dst_port.is_some())
            + usize::from(self.tcp_flags.is_some())
            + usize::from(self.packet_len.is_some())
            + usize::from(self.dscp.is_some())
            + usize::from(self.fragment.is_some())
            + usize::from(self.icmp_type.is_some())
            + usize::from(self.icmp_code.is_some())
            + usize::from(self.flow_label.is_some())
    }

    /// True if every field is a wildcard (matches everything).
    pub fn is_match_all(&self) -> bool {
        self.mac_criteria() + self.l34_criteria() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::ports;

    fn key(src_port: u16, proto: IpProtocol) -> FlowKey {
        FlowKey {
            src_mac: MacAddr::for_member(64500, 1),
            dst_mac: MacAddr::for_member(64501, 1),
            src_ip: IpAddress::V4(Ipv4Address::new(203, 0, 113, 7)),
            dst_ip: IpAddress::V4(Ipv4Address::new(100, 10, 10, 10)),
            protocol: proto,
            src_port,
            dst_port: 44444,
            ..FlowKey::default()
        }
    }

    #[test]
    fn wildcard_spec_matches_everything() {
        let spec = MatchSpec::default();
        assert!(spec.is_match_all());
        assert!(spec.matches(&key(123, IpProtocol::UDP)));
        assert!(spec.matches(&key(0, IpProtocol::ICMP)));
    }

    #[test]
    fn destination_spec_matches_only_victim() {
        let spec = MatchSpec::to_destination("100.10.10.10/32".parse().unwrap());
        assert!(spec.matches(&key(123, IpProtocol::UDP)));
        let mut other = key(123, IpProtocol::UDP);
        other.dst_ip = IpAddress::V4(Ipv4Address::new(100, 10, 10, 11));
        assert!(!spec.matches(&other));
        assert_eq!(spec.l34_criteria(), 1);
        assert_eq!(spec.mac_criteria(), 0);
    }

    #[test]
    fn ntp_rule_matches_only_ntp_source() {
        let spec = MatchSpec::proto_src_port_to(
            "100.10.10.10/32".parse().unwrap(),
            IpProtocol::UDP,
            ports::NTP,
        );
        assert!(spec.matches(&key(ports::NTP, IpProtocol::UDP)));
        assert!(!spec.matches(&key(ports::DNS, IpProtocol::UDP)));
        // Same port number but TCP: no match.
        assert!(!spec.matches(&key(ports::NTP, IpProtocol::TCP)));
        assert_eq!(spec.l34_criteria(), 3);
    }

    #[test]
    fn port_match_on_portless_protocol_never_matches() {
        let spec = MatchSpec {
            src_port: Some(PortMatch::Exact(0)),
            ..Default::default()
        };
        // An ICMP flow key has src_port 0, but port criteria must not
        // apply to portless protocols.
        assert!(!spec.matches(&key(0, IpProtocol::ICMP)));
        assert!(spec.matches(&key(0, IpProtocol::UDP)));
    }

    #[test]
    fn port_ranges() {
        let pm = PortMatch::Range(8000, 8100);
        assert!(pm.matches(8000) && pm.matches(8100) && pm.matches(8080));
        assert!(!pm.matches(7999) && !pm.matches(8101));
        assert_eq!(pm.to_string(), "8000-8100");
        assert_eq!(PortMatch::Exact(123).to_string(), "123");
    }

    #[test]
    fn mac_criteria_counting() {
        let spec = MatchSpec {
            src_mac: Some(MacAddr::for_member(64500, 1)),
            dst_mac: Some(MacAddr::for_member(64501, 1)),
            dst_ip: Some("100.10.10.10/32".parse().unwrap()),
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(123)),
            ..Default::default()
        };
        assert_eq!(spec.mac_criteria(), 2);
        assert_eq!(spec.l34_criteria(), 3);
        assert!(!spec.is_match_all());
    }

    #[test]
    fn packet_and_flow_paths_agree() {
        let p = Packet::udp_v4(
            MacAddr::for_member(64500, 1),
            MacAddr::for_member(64501, 1),
            Ipv4Address::new(203, 0, 113, 7),
            Ipv4Address::new(100, 10, 10, 10),
            ports::NTP,
            44444,
            vec![0; 64],
        );
        let spec = MatchSpec::proto_src_port_to(
            "100.10.10.10/32".parse().unwrap(),
            IpProtocol::UDP,
            ports::NTP,
        );
        assert_eq!(spec.matches_packet(&p), spec.matches(&p.flow_key()));
        assert!(spec.matches_packet(&p));
    }

    #[test]
    fn tcp_flags_require_tcp() {
        use stellar_net::tcp::TcpFlags;
        let spec = MatchSpec {
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::SYN)),
            ..Default::default()
        };
        let mut k = key(80, IpProtocol::TCP);
        k.tcp_flags = TcpFlags::SYN | TcpFlags::ACK;
        assert!(spec.matches(&k));
        k.tcp_flags = TcpFlags::ACK;
        assert!(!spec.matches(&k));
        // A UDP key with the same flag byte never satisfies a TCP-flags
        // criterion.
        let mut u = key(80, IpProtocol::UDP);
        u.tcp_flags = TcpFlags::SYN;
        assert!(!spec.matches(&u));
    }

    #[test]
    fn packet_len_dscp_fragment_apply_to_all_protocols() {
        use stellar_net::flow::frag;
        let spec = MatchSpec {
            packet_len: Some(RangeMatch::new(64, 128)),
            dscp: Some(RangeMatch::exact(46)),
            fragment: Some(BitsMatch::none_of(frag::IS_FRAGMENT)),
            ..Default::default()
        };
        let mut k = key(0, IpProtocol::ICMP);
        k.packet_len = 100;
        k.dscp = 46;
        assert!(spec.matches(&k));
        k.packet_len = 129;
        assert!(!spec.matches(&k));
        k.packet_len = 100;
        k.fragment = frag::IS_FRAGMENT | frag::FIRST_FRAGMENT;
        assert!(!spec.matches(&k));
    }

    #[test]
    fn icmp_criteria_require_icmp_protocol() {
        let spec = MatchSpec {
            icmp_type: Some(RangeMatch::exact(8)),
            icmp_code: Some(RangeMatch::exact(0)),
            ..Default::default()
        };
        let mut k = key(0, IpProtocol::ICMP);
        k.icmp_type = 8;
        assert!(spec.matches(&k));
        k.icmp_type = 3;
        assert!(!spec.matches(&k));
        // ICMPv6 keys satisfy ICMP criteria too.
        let mut k6 = key(0, IpProtocol::ICMPV6);
        k6.icmp_type = 8;
        assert!(spec.matches(&k6));
        // A UDP key with icmp_type 8 in the (zeroed) field does not.
        let mut u = key(53, IpProtocol::UDP);
        u.icmp_type = 8;
        assert!(!spec.matches(&u));
    }

    #[test]
    fn flow_label_requires_v6_destination() {
        use stellar_net::addr::Ipv6Address;
        let spec = MatchSpec {
            flow_label: Some(RangeMatch::new(0x1000, 0x1fff)),
            ..Default::default()
        };
        let mut k = key(0, IpProtocol::UDP);
        k.flow_label = 0x1500;
        assert!(!spec.matches(&k)); // v4 destination
        k.dst_ip = IpAddress::V6(Ipv6Address::from_groups([0x2001, 0xdb8, 0, 0, 0, 0, 0, 1]));
        assert!(spec.matches(&k));
        k.flow_label = 0x2000;
        assert!(!spec.matches(&k));
    }

    #[test]
    fn bits_match_satisfiability() {
        assert!(BitsMatch::new(0x06, 0x02).is_satisfiable());
        assert!(!BitsMatch::new(0x06, 0x08).is_satisfiable());
        assert!(RangeMatch::new(10u16, 5u16).is_empty());
        assert!(!RangeMatch::new(5u16, 10u16).is_empty());
    }

    #[test]
    fn new_criteria_count_toward_l34() {
        let spec = MatchSpec {
            tcp_flags: Some(BitsMatch::all_of(0x02)),
            packet_len: Some(RangeMatch::new(0, 100)),
            dscp: Some(RangeMatch::exact(0)),
            fragment: Some(BitsMatch::none_of(0x0f)),
            icmp_type: Some(RangeMatch::exact(8)),
            icmp_code: Some(RangeMatch::exact(0)),
            flow_label: Some(RangeMatch::new(0, 1)),
            ..Default::default()
        };
        assert_eq!(spec.l34_criteria(), 7);
        assert!(!spec.is_match_all());
    }

    #[test]
    fn src_mac_scoping() {
        let spec = MatchSpec {
            src_mac: Some(MacAddr::for_member(64500, 1)),
            ..Default::default()
        };
        assert!(spec.matches(&key(123, IpProtocol::UDP)));
        let mut other = key(123, IpProtocol::UDP);
        other.src_mac = MacAddr::for_member(64502, 1);
        assert!(!spec.matches(&other));
    }
}
