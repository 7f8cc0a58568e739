//! Route-server action communities: the per-peer announcement control
//! members attach to their announcements (§2.2 "selective advertisements
//! to certain peers or advertisements to all/none").
//!
//! The conventional encoding at large European IXPs:
//!
//! - `0:<ixp-asn>`   — announce to **no** peer (then whitelist),
//! - `<ixp-asn>:<peer-asn>` — **do** announce to that peer,
//! - `0:<peer-asn>`  — do **not** announce to that peer,
//! - no action community — announce to all.
//!
//! Fig. 3(b) classifies blackholing announcements by the scope these
//! communities express: "All", "All−k" (all except k peers), or an
//! explicit whitelist of k peers.

use stellar_bgp::community::Community;
use stellar_bgp::types::Asn;

/// The export scope one announcement's action communities express, read
/// in one pass over its community list: the same parse answers which
/// members receive the export ([`ExportScope::admits`]) and Fig. 3(b)'s
/// label ([`ExportScope::classify`]).
///
/// A classic community names a 16-bit ASN only, so a peer with a 4-byte
/// ASN follows block-all or the default and nothing else; the blackhole
/// tag `<ixp-asn>:666` is never a whitelist entry.
#[derive(Debug, Default)]
pub struct ExportScope {
    /// `0:<ixp-asn>` is present: announce to the whitelist only.
    block_all: bool,
    /// The `<ixp-asn>:<peer-asn>` values, one per community.
    allowed: Vec<u16>,
    /// The `0:<peer-asn>` values, one per community.
    blocked: Vec<u16>,
}

impl ExportScope {
    /// Parses `communities` under `ixp_asn`, the route server's AS (it
    /// must fit 16 bits for the classic encoding).
    pub fn parse(communities: &[Community], ixp_asn: Asn) -> Self {
        let ixp16 = ixp_asn.0 as u16;
        let mut scope = ExportScope::default();
        for c in communities {
            match (c.asn(), c.value()) {
                (0, value) if value == ixp16 => scope.block_all = true,
                (0, value) => scope.blocked.push(value),
                (asn, value) if asn == ixp16 && value != 666 => scope.allowed.push(value),
                _ => {}
            }
        }
        scope
    }

    /// Whether the export goes to `target`. An explicit block beats
    /// everything; under block-all only whitelisted peers receive it.
    pub fn admits(&self, target: Asn) -> bool {
        let Ok(target16) = u16::try_from(target.0) else {
            return !self.block_all;
        };
        if self.blocked.contains(&target16) {
            return false;
        }
        !self.block_all || self.allowed.contains(&target16)
    }

    /// Classifies the scope the way Fig. 3(b) does.
    pub fn classify(&self) -> PolicyScope {
        if self.block_all {
            PolicyScope::Only(self.allowed.len())
        } else if self.blocked.is_empty() {
            PolicyScope::All
        } else {
            PolicyScope::AllExcept(self.blocked.len())
        }
    }
}

/// The export scope a community set expresses over a peer population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyScope {
    /// Announce to every peer.
    All,
    /// Announce to all but `n` peers.
    AllExcept(usize),
    /// Announce only to `n` explicitly whitelisted peers.
    Only(usize),
}

impl PolicyScope {
    /// The label used on Fig. 3(b)'s x-axis.
    pub fn label(&self) -> String {
        match self {
            PolicyScope::All => "All".to_string(),
            PolicyScope::AllExcept(n) => format!("All-{n}"),
            PolicyScope::Only(n) => format!("{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IXP: Asn = Asn(6695);

    fn scope(communities: &[Community]) -> ExportScope {
        ExportScope::parse(communities, IXP)
    }

    #[test]
    fn default_is_announce_to_all() {
        assert!(scope(&[]).admits(Asn(64500)));
        assert!(scope(&[Community::BLACKHOLE]).admits(Asn(64500)));
        assert_eq!(scope(&[]).classify(), PolicyScope::All);
    }

    #[test]
    fn block_one_peer() {
        let s = scope(&[Community::new(0, 64500)]);
        assert!(!s.admits(Asn(64500)));
        assert!(s.admits(Asn(64501)));
        assert_eq!(s.classify(), PolicyScope::AllExcept(1));
        assert_eq!(s.classify().label(), "All-1");
    }

    #[test]
    fn announce_to_none_with_whitelist() {
        let s = scope(&[
            Community::new(0, 6695),     // block all
            Community::new(6695, 64500), // allow 64500
            Community::new(6695, 64501), // allow 64501
        ]);
        assert!(s.admits(Asn(64500)));
        assert!(s.admits(Asn(64501)));
        assert!(!s.admits(Asn(64502)));
        assert_eq!(s.classify(), PolicyScope::Only(2));
        assert_eq!(s.classify().label(), "2");
    }

    #[test]
    fn explicit_block_beats_everything() {
        let s = scope(&[
            Community::new(0, 6695),
            Community::new(6695, 64500),
            Community::new(0, 64500),
        ]);
        assert!(!s.admits(Asn(64500)));
    }

    #[test]
    fn blackhole_community_does_not_affect_scope() {
        // IXP:666 is the blackhole tag, not a whitelist entry.
        assert_eq!(
            scope(&[Community::new(6695, 666)]).classify(),
            PolicyScope::All
        );
        let s = scope(&[
            Community::new(0, 6695),
            Community::new(6695, 666),
            Community::new(6695, 64500),
        ]);
        assert_eq!(s.classify(), PolicyScope::Only(1));
        // Nor does it let the export through to a peer whose ASN is 666.
        assert!(s.admits(Asn(64500)));
        assert!(!s.admits(Asn(666)));
    }

    #[test]
    fn four_byte_peers_follow_block_all_or_the_default() {
        // 130036 = 65536 + 64500: its low 16 bits are 64500, but no
        // classic community can name it.
        let four_byte = Asn(130_036);
        let s = scope(&[Community::new(0, 64500)]);
        assert!(!s.admits(Asn(64500)));
        assert!(s.admits(four_byte), "0:64500 blocks AS64500 only");
        let s = scope(&[Community::new(0, 6695), Community::new(6695, 64500)]);
        assert!(s.admits(Asn(64500)));
        assert!(!s.admits(four_byte), "6695:64500 whitelists AS64500 only");
        assert!(scope(&[]).admits(four_byte));
    }

    #[test]
    fn multiple_excludes_classify_as_all_minus_k() {
        let cs: Vec<Community> = (0..5).map(|i| Community::new(0, 64500 + i)).collect();
        assert_eq!(scope(&cs).classify(), PolicyScope::AllExcept(5));
        assert_eq!(scope(&cs).classify().label(), "All-5");
    }
}
