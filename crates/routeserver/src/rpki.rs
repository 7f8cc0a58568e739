//! RPKI origin validation (RFC 6811): Route Origin Authorizations and the
//! three-valued validation outcome.

use std::collections::BTreeMap;
use stellar_bgp::types::Asn;
use stellar_net::prefix::Prefix;

/// A Route Origin Authorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Roa {
    /// The authorized prefix.
    pub prefix: Prefix,
    /// Maximum announced length covered by this ROA.
    pub max_len: u8,
    /// The authorized origin AS.
    pub asn: Asn,
}

/// RFC 6811 validation states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpkiStatus {
    /// A ROA covers the announcement and authorizes the origin.
    Valid,
    /// A ROA covers the announcement but none authorizes it.
    Invalid,
    /// No ROA covers the announcement.
    NotFound,
}

/// A validated ROA table.
#[derive(Debug, Default, Clone)]
pub struct RpkiTable {
    roas: BTreeMap<Prefix, Vec<Roa>>,
}

impl RpkiTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a ROA.
    pub fn add(&mut self, roa: Roa) {
        self.roas.entry(roa.prefix).or_default().push(roa);
    }

    /// Validates an announcement of `prefix` by `origin`. The ROAs that
    /// cover it are looked up by covering prefix: at most 33 (v4) or 129
    /// (v6) probes, whatever the size of the table.
    pub fn validate(&self, prefix: &Prefix, origin: Asn) -> RpkiStatus {
        let mut covered = false;
        for roas in prefix.covering().filter_map(|c| self.roas.get(&c)) {
            covered = true;
            if roas
                .iter()
                .any(|roa| roa.asn == origin && prefix.len() <= roa.max_len)
            {
                return RpkiStatus::Valid;
            }
        }
        if covered {
            RpkiStatus::Invalid
        } else {
            RpkiStatus::NotFound
        }
    }

    /// Number of ROAs.
    pub fn len(&self) -> usize {
        self.roas.values().map(Vec::len).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.roas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn valid_invalid_notfound() {
        let mut t = RpkiTable::new();
        t.add(Roa {
            prefix: p("100.10.10.0/24"),
            max_len: 32,
            asn: Asn(64500),
        });
        assert_eq!(
            t.validate(&p("100.10.10.0/24"), Asn(64500)),
            RpkiStatus::Valid
        );
        // max_len 32 covers the blackhole /32.
        assert_eq!(
            t.validate(&p("100.10.10.10/32"), Asn(64500)),
            RpkiStatus::Valid
        );
        // Wrong origin: covered but unauthorized.
        assert_eq!(
            t.validate(&p("100.10.10.0/24"), Asn(666)),
            RpkiStatus::Invalid
        );
        // No ROA at all.
        assert_eq!(
            t.validate(&p("9.9.9.0/24"), Asn(64500)),
            RpkiStatus::NotFound
        );
    }

    #[test]
    fn max_len_is_enforced() {
        let mut t = RpkiTable::new();
        t.add(Roa {
            prefix: p("100.10.0.0/16"),
            max_len: 24,
            asn: Asn(64500),
        });
        assert_eq!(
            t.validate(&p("100.10.10.0/24"), Asn(64500)),
            RpkiStatus::Valid
        );
        // A /32 exceeds max_len 24: Invalid even for the right origin —
        // why RTBH deployments need ROAs with max_len 32 (or none).
        assert_eq!(
            t.validate(&p("100.10.10.10/32"), Asn(64500)),
            RpkiStatus::Invalid
        );
    }

    #[test]
    fn multiple_roas_any_valid_wins() {
        let mut t = RpkiTable::new();
        t.add(Roa {
            prefix: p("100.10.10.0/24"),
            max_len: 32,
            asn: Asn(1),
        });
        t.add(Roa {
            prefix: p("100.10.10.0/24"),
            max_len: 32,
            asn: Asn(2),
        });
        assert_eq!(t.validate(&p("100.10.10.0/24"), Asn(2)), RpkiStatus::Valid);
        assert_eq!(t.len(), 2);
    }
}
