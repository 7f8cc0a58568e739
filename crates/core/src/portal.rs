//! The customer self-service portal (§4.3): "This community encodes a
//! reference to a specific blackholing rule ... predefined by the IXP or
//! by the IXP member via a customer portal. Currently, the IXP offers a
//! shared set of predefined blackholing rules for common attack patterns
//! but custom blackholing rules can be defined as well."

use crate::rule::RuleAction;
use crate::signal::{MatchKind, StellarSignal};
use std::collections::HashMap;
use stellar_bgp::types::Asn;
use stellar_net::amplification::AmpProtocol;

/// Catalog ids below this value are IXP-shared; custom per-member rules
/// get ids from here upwards.
pub const CUSTOM_ID_BASE: u16 = 1000;

/// The rule catalog: IXP-predefined entries plus per-member custom sets.
#[derive(Debug, Clone)]
pub struct CustomerPortal {
    #[allow(dead_code)]
    ixp_asn: Asn,
    predefined: HashMap<u16, Vec<StellarSignal>>,
    custom: HashMap<(Asn, u16), Vec<StellarSignal>>,
    next_custom: HashMap<Asn, u16>,
}

impl CustomerPortal {
    /// The standard catalog: one drop rule per known amplification
    /// protocol (catalog id = small index), plus a combined
    /// "all amplification ports" entry at id 100.
    pub fn with_standard_catalog(ixp_asn: Asn) -> Self {
        let mut predefined = HashMap::new();
        for (i, proto) in stellar_net::amplification::ALL.iter().enumerate() {
            predefined.insert(
                (i + 1) as u16,
                vec![StellarSignal::drop_udp_src(proto.port())],
            );
        }
        predefined.insert(
            100,
            stellar_net::amplification::ALL
                .iter()
                .map(|p| StellarSignal::drop_udp_src(p.port()))
                .collect(),
        );
        CustomerPortal {
            ixp_asn,
            predefined,
            custom: HashMap::new(),
            next_custom: HashMap::new(),
        }
    }

    /// The catalog id of the predefined drop rule for `proto`: one past
    /// the protocol's position in
    /// [`stellar_net::amplification::ALL`], as
    /// [`Self::with_standard_catalog`] numbers them.
    pub fn predefined_id(proto: AmpProtocol) -> u16 {
        match proto {
            AmpProtocol::Ntp => 1,
            AmpProtocol::Ldap => 2,
            AmpProtocol::Memcached => 3,
            AmpProtocol::Dns => 4,
            AmpProtocol::Chargen => 5,
            AmpProtocol::Ssdp => 6,
        }
    }

    /// Defines a custom rule set for a member; returns its catalog id.
    pub fn define_custom(&mut self, member: Asn, signals: Vec<StellarSignal>) -> u16 {
        let next = self.next_custom.entry(member).or_insert(CUSTOM_ID_BASE);
        let id = *next;
        *next += 1;
        self.custom.insert((member, id), signals);
        id
    }

    /// Deletes a custom rule set. Returns true if it existed.
    pub fn delete_custom(&mut self, member: Asn, id: u16) -> bool {
        self.custom.remove(&(member, id)).is_some()
    }

    /// Resolves a catalog reference for `member`: shared entries first,
    /// then the member's custom ones. Unknown ids resolve to nothing
    /// (the signal is ignored rather than guessed at).
    pub fn resolve(&self, member: Asn, id: u16) -> Vec<StellarSignal> {
        if let Some(sigs) = self.predefined.get(&id) {
            return sigs.clone();
        }
        self.custom.get(&(member, id)).cloned().unwrap_or_default()
    }

    /// The signal a member sends to invoke catalog entry `id`.
    pub fn reference_signal(id: u16) -> StellarSignal {
        StellarSignal {
            kind: MatchKind::Predefined,
            port: id,
            action: RuleAction::Drop, // action is taken from the catalog
        }
    }

    /// Number of predefined entries.
    pub fn predefined_count(&self) -> usize {
        self.predefined.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IXP: Asn = Asn(6695);

    #[test]
    fn standard_catalog_covers_amplification_protocols() {
        let portal = CustomerPortal::with_standard_catalog(IXP);
        assert_eq!(portal.predefined_count(), 7); // 6 protocols + combined
        let ntp_id = CustomerPortal::predefined_id(AmpProtocol::Ntp);
        let sigs = portal.resolve(Asn(1), ntp_id);
        assert_eq!(sigs, vec![StellarSignal::drop_udp_src(123)]);
        let all = portal.resolve(Asn(1), 100);
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn predefined_ids_follow_the_catalog_order() {
        let portal = CustomerPortal::with_standard_catalog(IXP);
        for (at, proto) in stellar_net::amplification::ALL.into_iter().enumerate() {
            let id = CustomerPortal::predefined_id(proto);
            assert_eq!(usize::from(id), at + 1, "{proto:?}");
            let signals = portal.resolve(Asn(1), id);
            assert_eq!(signals, vec![StellarSignal::drop_udp_src(proto.port())]);
        }
    }

    #[test]
    fn custom_rules_are_member_scoped() {
        let mut portal = CustomerPortal::with_standard_catalog(IXP);
        let a = Asn(64500);
        let b = Asn(64501);
        let id = portal.define_custom(a, vec![StellarSignal::drop_udp_src(4444)]);
        assert!(id >= CUSTOM_ID_BASE);
        assert_eq!(portal.resolve(a, id).len(), 1);
        // Another member cannot reference it.
        assert!(portal.resolve(b, id).is_empty());
        assert!(portal.delete_custom(a, id));
        assert!(portal.resolve(a, id).is_empty());
        assert!(!portal.delete_custom(a, id));
    }

    #[test]
    fn custom_ids_increment_per_member() {
        let mut portal = CustomerPortal::with_standard_catalog(IXP);
        let a = Asn(64500);
        let id1 = portal.define_custom(a, vec![]);
        let id2 = portal.define_custom(a, vec![]);
        assert_eq!(id2, id1 + 1);
        // Ids are per-member: a fresh member starts at the base again.
        let id3 = portal.define_custom(Asn(64501), vec![]);
        assert_eq!(id3, CUSTOM_ID_BASE);
    }

    #[test]
    fn unknown_ids_resolve_to_nothing() {
        let portal = CustomerPortal::with_standard_catalog(IXP);
        assert!(portal.resolve(Asn(1), 999).is_empty());
    }
}
