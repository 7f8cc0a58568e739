//! A minimal Internet Routing Registry (IRR) database: route objects
//! binding prefixes to the AS numbers allowed to originate them.
//!
//! "Typically, the IXPs require the members to register the ownership of
//! their prefixes in Internet Routing Registries (IRR), and check before
//! they accept announcements of prefixes at the route server" (§2.2 fn. 3).

use std::collections::{BTreeMap, BTreeSet};
use stellar_bgp::types::Asn;
use stellar_net::prefix::Prefix;

/// An IRR database of route objects.
#[derive(Debug, Default, Clone)]
pub struct IrrDb {
    // prefix -> set of origin ASNs with a route object for it.
    objects: BTreeMap<Prefix, BTreeSet<Asn>>,
}

impl IrrDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a route object `prefix` → `origin`.
    pub fn register(&mut self, prefix: Prefix, origin: Asn) {
        self.objects.entry(prefix).or_default().insert(origin);
    }

    /// Removes a route object. Returns true if it existed.
    pub fn deregister(&mut self, prefix: Prefix, origin: Asn) -> bool {
        if let Some(set) = self.objects.get_mut(&prefix) {
            let removed = set.remove(&origin);
            if set.is_empty() {
                self.objects.remove(&prefix);
            }
            removed
        } else {
            false
        }
    }

    /// True if `origin` may announce `prefix`: there is a route object for
    /// the exact prefix or for any covering aggregate ("this does not
    /// interfere with prefix delegations", §4.3) — so a /32 blackhole
    /// announcement validates against the owner's registered /24.
    /// Looked up by covering prefix: at most 33 (v4) or 129 (v6) probes,
    /// whatever the size of the database.
    pub fn validates(&self, prefix: &Prefix, origin: Asn) -> bool {
        prefix
            .covering()
            .filter_map(|covering| self.objects.get(&covering))
            .any(|origins| origins.contains(&origin))
    }

    /// Number of route objects (prefix, origin) pairs.
    pub fn len(&self) -> usize {
        self.objects.values().map(|s| s.len()).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn exact_and_covering_validation() {
        let mut irr = IrrDb::new();
        irr.register(p("100.10.10.0/24"), Asn(64500));
        assert!(irr.validates(&p("100.10.10.0/24"), Asn(64500)));
        // The /32 blackhole announcement validates via the covering /24.
        assert!(irr.validates(&p("100.10.10.10/32"), Asn(64500)));
        // A different origin does not validate.
        assert!(!irr.validates(&p("100.10.10.10/32"), Asn(64501)));
        // A shorter (covering) announcement does not validate via a
        // longer registered object.
        assert!(!irr.validates(&p("100.10.0.0/16"), Asn(64500)));
        // Unrelated prefix.
        assert!(!irr.validates(&p("9.9.9.0/24"), Asn(64500)));
    }

    #[test]
    fn multiple_origins_per_prefix() {
        let mut irr = IrrDb::new();
        irr.register(p("100.10.10.0/24"), Asn(64500));
        irr.register(p("100.10.10.0/24"), Asn(64501));
        assert!(irr.validates(&p("100.10.10.0/24"), Asn(64500)));
        assert!(irr.validates(&p("100.10.10.0/24"), Asn(64501)));
        assert_eq!(irr.len(), 2);
    }

    #[test]
    fn deregistration() {
        let mut irr = IrrDb::new();
        irr.register(p("100.10.10.0/24"), Asn(64500));
        assert!(irr.deregister(p("100.10.10.0/24"), Asn(64500)));
        assert!(!irr.deregister(p("100.10.10.0/24"), Asn(64500)));
        assert!(irr.is_empty());
        assert!(!irr.validates(&p("100.10.10.0/24"), Asn(64500)));
    }

    #[test]
    fn v6_objects() {
        let mut irr = IrrDb::new();
        irr.register(p("2001:db8::/32"), Asn(64500));
        assert!(irr.validates(&p("2001:db8::1/128"), Asn(64500)));
        assert!(!irr.validates(&p("2001:db9::/32"), Asn(64500)));
    }
}
