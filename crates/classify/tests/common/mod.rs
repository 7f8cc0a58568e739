//! Shrunken key universes and their brute-force enumeration, shared by the
//! property tests of `verify`, `set` and `analyze`.
//!
//! The enumeration is the oracle the algebra is checked against, so it
//! shares nothing with `classify::set`: the gates are the predicates
//! `MatchSpec::matches` itself uses.

#![allow(dead_code)] // each test binary uses its own part

use stellar_classify::spec::is_icmp;
use stellar_classify::verify::Domain;
use stellar_net::addr::{IpAddress, Ipv4Address, Ipv6Address};
use stellar_net::flow::{frag, FlowKey};
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;

pub const UDP: u8 = 17;
pub const TCP: u8 = 6;

pub fn mac() -> MacAddr {
    MacAddr::for_member(64500, 1)
}

pub fn mac_num(m: MacAddr) -> u128 {
    let mut b = [0u8; 16];
    b[10..].copy_from_slice(&m.0);
    u128::from_be_bytes(b)
}

pub fn num_mac(n: u128) -> MacAddr {
    let mut m = [0u8; 6];
    m.copy_from_slice(&n.to_be_bytes()[10..]);
    MacAddr(m)
}

fn num_ip(v4: bool, n: u128) -> IpAddress {
    if v4 {
        IpAddress::V4(Ipv4Address((n as u32).to_be_bytes()))
    } else {
        IpAddress::V6(Ipv6Address(n.to_be_bytes()))
    }
}

/// The shrunken universe: one MAC pair, 4 v4 addresses per side
/// (10.0.0.0–3 src, 10.0.1.0–3 dst), UDP + TCP, ports 0..=3, one
/// varying TCP-flag bit (SYN), everything else pinned.
pub fn tiny() -> Domain {
    let m = mac_num(mac());
    Domain {
        src_macs: vec![(m, m)],
        dst_macs: vec![(m, m)],
        src_ip_v4: vec![(0x0A00_0000, 0x0A00_0003)],
        dst_ip_v4: vec![(0x0A00_0100, 0x0A00_0103)],
        src_ip_v6: vec![],
        dst_ip_v6: vec![],
        protocols: vec![TCP, UDP],
        ports: vec![(0, 3)],
        packet_len: vec![(100, 100)],
        dscp: vec![(0, 0)],
        tcp_flags_mask: 0x02,
        fragment_mask: 0,
        icmp_type: vec![(0, 0)],
        icmp_code: vec![(0, 0)],
        flow_label: vec![(0, 0)],
    }
}

/// First v6 address of [`gated`]'s pools (`2001::`); the second is one up.
pub const V6_BASE: u128 = 0x2001 << 112;

/// A universe with every gate on both sides: both families, the five
/// protocols that tell the gates apart (ICMP, TCP, UDP, GRE, ICMPv6), two
/// source MACs (numbers 1 and 2), and two or more values on every other
/// field, so that a criterion can be a strict part of each.
pub fn gated() -> Domain {
    Domain {
        src_macs: vec![(1, 2)],
        dst_macs: vec![(1, 1)],
        src_ip_v4: vec![(0x0A00_0000, 0x0A00_0003)],
        dst_ip_v4: vec![(0x0A00_0100, 0x0A00_0101)],
        src_ip_v6: vec![(V6_BASE, V6_BASE + 1)],
        dst_ip_v6: vec![(V6_BASE, V6_BASE + 1)],
        protocols: vec![1, TCP, UDP, 47, 58],
        ports: vec![(0, 2)],
        packet_len: vec![(100, 101)],
        dscp: vec![(0, 1)],
        tcp_flags_mask: 0x02,
        fragment_mask: 0x01,
        icmp_type: vec![(0, 1)],
        icmp_code: vec![(0, 1)],
        flow_label: vec![(0, 1)],
    }
}

fn values(ivs: &[(u128, u128)]) -> Vec<u128> {
    ivs.iter().flat_map(|&(lo, hi)| lo..=hi).collect()
}

fn subsets(mask: u8) -> Vec<u128> {
    (0..=255u8)
        .filter(|x| x & !mask == 0)
        .map(u128::from)
        .collect()
}

/// Every canonical key of `dom`, in deterministic order: one family per
/// key, a field whose gate is off for the key's protocol or family pinned
/// to 0, flag bytes ranging only over the domain mask's bits.
pub fn enumerate_keys(dom: &Domain) -> Vec<FlowKey> {
    type Dim = (fn(&mut FlowKey, bool, u128), Vec<u128>);
    let mut keys = Vec::new();
    for v4 in [true, false] {
        let (src, dst) = if v4 {
            (&dom.src_ip_v4, &dom.dst_ip_v4)
        } else {
            (&dom.src_ip_v6, &dom.dst_ip_v6)
        };
        for &p in &dom.protocols {
            let proto = IpProtocol(p);
            let gate = |open: bool, vals: Vec<u128>| if open { vals } else { vec![0] };
            let dims: [Dim; 13] = [
                (|k, _, v| k.src_mac = num_mac(v), values(&dom.src_macs)),
                (|k, _, v| k.dst_mac = num_mac(v), values(&dom.dst_macs)),
                (|k, v4, v| k.src_ip = num_ip(v4, v), values(src)),
                (|k, v4, v| k.dst_ip = num_ip(v4, v), values(dst)),
                (
                    |k, _, v| k.src_port = v as u16,
                    gate(proto.has_ports(), values(&dom.ports)),
                ),
                (
                    |k, _, v| k.dst_port = v as u16,
                    gate(proto.has_ports(), values(&dom.ports)),
                ),
                (
                    |k, _, v| k.tcp_flags = v as u8,
                    gate(proto == IpProtocol::TCP, subsets(dom.tcp_flags_mask)),
                ),
                (|k, _, v| k.packet_len = v as u16, values(&dom.packet_len)),
                (|k, _, v| k.dscp = v as u8, values(&dom.dscp)),
                (|k, _, v| k.fragment = v as u8, subsets(dom.fragment_mask)),
                (
                    |k, _, v| k.icmp_type = v as u8,
                    gate(is_icmp(proto), values(&dom.icmp_type)),
                ),
                (
                    |k, _, v| k.icmp_code = v as u8,
                    gate(is_icmp(proto), values(&dom.icmp_code)),
                ),
                (
                    |k, _, v| k.flow_label = v as u32,
                    gate(!v4, values(&dom.flow_label)),
                ),
            ];
            let mut batch = vec![FlowKey {
                protocol: proto,
                ..FlowKey::default()
            }];
            for (set, vals) in dims {
                batch = batch
                    .into_iter()
                    .flat_map(|k| {
                        vals.iter().map(move |&v| {
                            let mut k = k;
                            set(&mut k, v4, v);
                            k
                        })
                    })
                    .collect();
            }
            keys.extend(batch);
        }
    }
    keys
}

/// True if a packet could produce this key: one family, in-width DSCP,
/// flow label and fragment bits, gated-off fields zero.
pub fn is_canonical(k: &FlowKey) -> bool {
    let v4 = matches!(k.dst_ip, IpAddress::V4(_));
    v4 == matches!(k.src_ip, IpAddress::V4(_))
        && k.dscp < 64
        && k.flow_label <= 0xF_FFFF
        && k.fragment & !frag::DOMAIN == 0
        && (k.protocol.has_ports() || (k.src_port, k.dst_port) == (0, 0))
        && (k.protocol == IpProtocol::TCP || k.tcp_flags == 0)
        && (is_icmp(k.protocol) || (k.icmp_type, k.icmp_code) == (0, 0))
        && (!v4 || k.flow_label == 0)
}
