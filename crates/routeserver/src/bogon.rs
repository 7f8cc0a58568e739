//! Bogon filtering: prefixes that must never appear in inter-domain
//! routing (\[28\] in the paper).
//!
//! The documentation TEST-NET ranges (192.0.2.0/24 etc.) are deliberately
//! *not* listed: the emulation uses them as synthetic public address
//! space, exactly because no real network owns them.

use stellar_net::addr::{Ipv4Address, Ipv6Address};
use stellar_net::prefix::{Ipv4Prefix, Ipv6Prefix, Prefix};

/// The filtered IPv4 bogon ranges: network and length.
const BOGONS_V4: [(Ipv4Address, u8); 9] = [
    (Ipv4Address::new(0, 0, 0, 0), 8),      // "this" network
    (Ipv4Address::new(10, 0, 0, 0), 8),     // RFC 1918
    (Ipv4Address::new(100, 64, 0, 0), 10),  // CGN shared space
    (Ipv4Address::new(127, 0, 0, 0), 8),    // loopback
    (Ipv4Address::new(169, 254, 0, 0), 16), // link local
    (Ipv4Address::new(172, 16, 0, 0), 12),  // RFC 1918
    (Ipv4Address::new(192, 168, 0, 0), 16), // RFC 1918
    (Ipv4Address::new(224, 0, 0, 0), 4),    // multicast
    (Ipv4Address::new(240, 0, 0, 0), 4),    // reserved
];

/// The filtered IPv6 bogon ranges (a pragmatic subset): first group and
/// length — none is longer than 16 bits.
const BOGONS_V6: [(u16, u8); 4] = [
    (0x0000, 8),  // ::/8
    (0xfc00, 7),  // unique local
    (0xfe80, 10), // link local
    (0xff00, 8),  // multicast
];

/// True if `prefix` falls inside (or equals) a bogon range.
pub fn is_bogon(prefix: &Prefix) -> bool {
    match prefix {
        Prefix::V4(p) => BOGONS_V4
            .iter()
            .any(|&(net, len)| Ipv4Prefix::new(net, len).is_ok_and(|b| b.covers(p))),
        Prefix::V6(p) => BOGONS_V6.iter().any(|&(group, len)| {
            let net = Ipv6Address::from_groups([group, 0, 0, 0, 0, 0, 0, 0]);
            Ipv6Prefix::new(net, len).is_ok_and(|b| b.covers(p))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn private_space_is_bogon() {
        assert!(is_bogon(&p("10.1.2.0/24")));
        assert!(is_bogon(&p("192.168.0.0/16")));
        assert!(is_bogon(&p("172.20.0.0/16")));
        assert!(is_bogon(&p("127.0.0.1/32")));
        assert!(is_bogon(&p("224.1.2.3/32")));
        assert!(is_bogon(&p("100.64.1.0/24")));
    }

    #[test]
    fn public_space_is_not_bogon() {
        assert!(!is_bogon(&p("100.10.10.0/24"))); // 100.0.0.0/10 side of 100/8
        assert!(!is_bogon(&p("8.8.8.0/24")));
        assert!(!is_bogon(&p("203.0.113.0/24"))); // TEST-NET-3: synthetic public
        assert!(!is_bogon(&p("172.32.0.0/16"))); // just outside RFC1918
    }

    #[test]
    fn covering_a_bogon_is_not_itself_bogon() {
        // A /6 containing 10/8 is not inside any bogon range.
        assert!(!is_bogon(&p("8.0.0.0/6")));
    }

    #[test]
    fn v6_bogons() {
        assert!(is_bogon(&p("fe80::/64")));
        assert!(is_bogon(&p("fc00::1/128")));
        assert!(is_bogon(&p("ff02::/16")));
        assert!(!is_bogon(&p("2001:db8::/32")));
    }
}
