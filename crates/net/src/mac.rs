//! IEEE 802 MAC addresses.

use crate::error::{NetError, NetResult};
use core::fmt;
use core::hash::{BuildHasherDefault, Hash, Hasher};
use core::str::FromStr;
use std::collections::HashMap;

/// A 48-bit IEEE 802 MAC address.
///
/// MAC addresses identify member router ports on the IXP peering LAN; the
/// dataplane's L2 filter rules (used by RTBH policy control and Stellar's
/// per-source filtering) match on them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

/// One `u64` word per address, so a MAC-keyed lookup costs one round of
/// [`MacHasher`].
impl Hash for MacAddr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let o = self.0;
        state.write_u64(u64::from_le_bytes([
            o[0], o[1], o[2], o[3], o[4], o[5], 0, 0,
        ]));
    }
}

/// The hasher of every MAC-keyed map ([`MacMap`]): each written word is
/// folded into the state by one 64×64→128-bit multiply whose halves are
/// XORed together, so every input bit reaches the low bits that pick a
/// bucket and the high bits that tag it.
///
/// It is unkeyed, which is safe for how these maps are used: only
/// configured member ports are ever inserted, never a MAC read off the
/// wire. An attacker picks the MACs of offered traffic, and those only
/// probe. A probe walks at most the collision chains the configured keys
/// already form, so no offer stream can lengthen them — the flooding that
/// a keyed hash such as std's SipHash defends against needs inserts.
#[derive(Debug, Clone, Copy, Default)]
pub struct MacHasher(u64);

/// π's fractional bits: odd, and dense in both halves.
const MAC_HASH_K: u64 = 0x243f_6a88_85a3_08d3;

impl Hasher for MacHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.0 ^ n) * u128::from(MAC_HASH_K);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by member MAC, hashed by [`MacHasher`].
pub type MacMap<V> = HashMap<MacAddr, V, BuildHasherDefault<MacHasher>>;

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, used as "unspecified".
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds an address from raw octets.
    pub const fn new(o: [u8; 6]) -> Self {
        MacAddr(o)
    }

    /// Returns the raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// True for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True if the group bit (I/G, least-significant bit of the first
    /// octet) is set, i.e. the address is multicast or broadcast.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True if the address is unicast (group bit clear).
    pub fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }

    /// True if the locally-administered bit (U/L) is set.
    pub fn is_local(&self) -> bool {
        self.0[0] & 0x02 != 0
    }

    /// Deterministically derives a locally-administered unicast MAC for the
    /// router of IXP member `asn` on port `port`. Used when synthesizing
    /// topologies so that every member has a stable, recognizable MAC.
    pub fn for_member(asn: u32, port: u16) -> Self {
        let a = asn.to_be_bytes();
        let p = port.to_be_bytes();
        // 0x02 => locally administered, unicast.
        MacAddr([0x02, a[1], a[2], a[3], p[0], p[1]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for MacAddr {
    type Err = NetError;

    fn from_str(s: &str) -> NetResult<Self> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for o in octets.iter_mut() {
            let part = parts.next().ok_or(NetError::Parse { what: "mac" })?;
            if part.len() != 2 {
                return Err(NetError::Parse { what: "mac" });
            }
            *o = u8::from_str_radix(part, 16).map_err(|_| NetError::Parse { what: "mac" })?;
        }
        if parts.next().is_some() {
            return Err(NetError::Parse { what: "mac" });
        }
        Ok(MacAddr(octets))
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(o: [u8; 6]) -> Self {
        MacAddr(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_fromstr() {
        let m = MacAddr([0x02, 0x1a, 0x2b, 0x3c, 0x4d, 0x5e]);
        let s = m.to_string();
        assert_eq!(s, "02:1a:2b:3c:4d:5e");
        assert_eq!(s.parse::<MacAddr>().unwrap(), m);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("02:1a:2b:3c:4d".parse::<MacAddr>().is_err());
        assert!("02:1a:2b:3c:4d:5e:6f".parse::<MacAddr>().is_err());
        assert!("02:1a:2b:3c:4d:zz".parse::<MacAddr>().is_err());
        assert!("021a:2b:3c:4d:5e".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_and_multicast_classification() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        let multicast = MacAddr([0x01, 0, 0x5e, 0, 0, 1]);
        assert!(multicast.is_multicast());
        assert!(!multicast.is_broadcast());
        let unicast = MacAddr([0x02, 0, 0, 0, 0, 1]);
        assert!(unicast.is_unicast());
        assert!(unicast.is_local());
    }

    #[test]
    fn member_macs_are_stable_unicast_and_distinct() {
        let a = MacAddr::for_member(64500, 1);
        let b = MacAddr::for_member(64500, 2);
        let c = MacAddr::for_member(64501, 1);
        assert_eq!(a, MacAddr::for_member(64500, 1));
        assert!(a.is_unicast() && a.is_local());
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    fn mac_hash(mac: MacAddr) -> u64 {
        let mut h = MacHasher::default();
        mac.hash(&mut h);
        h.finish()
    }

    /// `tick_sparse_fabric`'s key shape: 10^5 member MACs that differ
    /// only in their ASN bytes. Every hash is distinct, and the low 17
    /// bits (the bucket index of a table that size) spread evenly: no
    /// bucket holds more than a uniform hash's worst case at this load.
    #[test]
    fn member_macs_hash_distinct_and_spread_over_low_bits() {
        const KEYS: u32 = 100_000;
        const BITS: u32 = 17;
        let hashes: Vec<u64> = (0..KEYS)
            .map(|i| mac_hash(MacAddr::for_member(64_500 + i, 1)))
            .collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), KEYS as usize);
        let mut buckets = vec![0u32; 1 << BITS];
        for h in &hashes {
            buckets[(h & ((1 << BITS) - 1)) as usize] += 1;
        }
        let max = buckets.iter().copied().max().unwrap_or(0);
        assert!(max <= 8, "a low-bit bucket holds {max} of {KEYS} keys");
        let used = buckets.iter().filter(|&&n| n > 0).count();
        // A uniform hash fills 1 - e^(-100000/131072) ≈ 53 % of them.
        assert!(used * 100 >= (1 << BITS) * 50, "only {used} buckets used");
    }

    #[test]
    fn mac_map_finds_what_was_inserted() {
        let mut m: MacMap<u32> = MacMap::default();
        for i in 0..1_000u32 {
            m.insert(MacAddr::for_member(64_500 + i, (i % 3) as u16), i);
        }
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.get(&MacAddr::for_member(64_507, 1)), Some(&7));
        assert_eq!(m.get(&MacAddr::for_member(64_507, 2)), None);
    }
}
