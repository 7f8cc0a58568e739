//! The QoS network manager (§4.4 "Option 1", §4.5): compiles abstract
//! changes into vendor QoS policies on the victim's **egress** member
//! port. Egress placement means "an update from one IXP member only
//! causes changes to the port configuration of exactly this IXP member" —
//! causality is maintained and only one port is touched per change.

use crate::controller::AbstractChange;
use crate::manager::{AdmissionError, NetworkManager};
use std::collections::{BTreeSet, HashMap};
use stellar_bgp::types::Asn;
use stellar_dataplane::switch::{InstallError, PortId};
use stellar_dataplane::tcam::TcamVerdict;
use stellar_sim::fabric::Fabric;

/// The QoS-policy compilation backend.
#[derive(Debug, Default)]
pub struct QosNetworkManager {
    owner_ports: HashMap<Asn, PortId>,
    /// `owner_ports` read the other way: one range per port.
    port_owners: BTreeSet<(PortId, Asn)>,
    rule_ports: HashMap<u64, PortId>,
    /// Edits to `owner_ports` so far.
    owner_map_version: u64,
    /// [`Fabric::rule_version`] as this manager's own last `apply` left
    /// it, for as long as nobody else edited the fabric in between:
    /// while the fabric still reads this, `rule_ports` is what the
    /// hardware holds.
    fabric_version: u64,
}

impl QosNetworkManager {
    /// Creates a manager knowing each member's egress port.
    pub fn new(owner_ports: HashMap<Asn, PortId>) -> Self {
        let port_owners = owner_ports.iter().map(|(owner, port)| (*port, *owner));
        QosNetworkManager {
            port_owners: port_owners.collect::<BTreeSet<_>>(),
            owner_ports,
            ..Default::default()
        }
    }

    /// Registers a member → port mapping.
    pub fn register_owner(&mut self, owner: Asn, port: PortId) {
        if let Some(previous) = self.owner_ports.insert(owner, port) {
            self.port_owners.remove(&(previous, owner));
        }
        self.port_owners.insert((port, owner));
        self.owner_map_version += 1;
    }

    /// The members whose egress port is `port`, ascending.
    pub fn owners_of(&self, port: PortId) -> impl Iterator<Item = Asn> + '_ {
        self.port_owners
            .range((port, Asn(0))..=(port, Asn(u32::MAX)))
            .map(|(_, owner)| *owner)
    }

    /// The version of the member → port map: bumped by every
    /// [`register_owner`](Self::register_owner), so an unchanged version
    /// means every owner's rules still belong on the same port.
    pub fn owner_map_version(&self) -> u64 {
        self.owner_map_version
    }

    /// The port a rule was installed on.
    pub fn port_of_rule(&self, rule_id: u64) -> Option<PortId> {
        self.rule_ports.get(&rule_id).copied()
    }

    /// The egress port registered for a member — the per-PoP audit path
    /// uses this to resolve which PoP's TCAM a pending rule would charge.
    pub fn owner_port(&self, owner: Asn) -> Option<PortId> {
        self.owner_ports.get(&owner).copied()
    }

    /// Forgets rules whose hardware entries vanished out from under the
    /// manager — a fabric restart wipes every port policy on every PoP
    /// while this bookkeeping survives, and until the two are squared the
    /// manager would refuse re-adds as duplicates and mis-route removals.
    /// Returns the forgotten rule ids, sorted. The reconciler calls this
    /// before diffing desired against installed state. Nothing can have
    /// vanished while the fabric's rule state is as this manager left
    /// it: only an edit by someone else (restart, `flush_port`,
    /// `port_mut`, `router_mut`, an injected fault) costs the walk.
    pub fn prune_vanished(&mut self, fabric: &Fabric) -> Vec<u64> {
        let version = fabric.rule_version();
        if version == self.fabric_version {
            return Vec::new();
        }
        self.fabric_version = version;
        let mut gone: Vec<u64> = self
            .rule_ports
            .iter()
            .filter(|(id, port)| fabric.port(**port).is_none_or(|p| !p.policy.contains(**id)))
            .map(|(id, _)| *id)
            .collect();
        gone.sort_unstable();
        for id in &gone {
            self.rule_ports.remove(id);
        }
        gone
    }

    /// Compiles one change onto the owner's egress port and books it.
    fn apply_change(
        &mut self,
        fabric: &mut Fabric,
        change: &AbstractChange,
        now_us: u64,
    ) -> Result<(), AdmissionError> {
        match change {
            AbstractChange::AddRule(rule) => {
                let port = *self
                    .owner_ports
                    .get(&rule.owner)
                    .ok_or(AdmissionError::UnknownOwner)?;
                match fabric.install_rule(port, rule.to_filter_rule(), now_us) {
                    Ok(()) => {
                        self.rule_ports.insert(rule.id, port);
                        Ok(())
                    }
                    Err(InstallError::NoSuchPort) => Err(AdmissionError::UnknownOwner),
                    Err(InstallError::PerPortLimit) => Err(AdmissionError::PerPortLimit),
                    Err(InstallError::Tcam(verdict)) => Err(match verdict {
                        TcamVerdict::F2 => AdmissionError::TcamMacExhausted,
                        // F1 — and a (never-constructed) Ok-as-error,
                        // which degrades to the same retryable verdict.
                        _ => AdmissionError::TcamL34Exhausted,
                    }),
                }
            }
            AbstractChange::RemoveRule { rule_id, .. } => {
                let port = self
                    .rule_ports
                    .remove(rule_id)
                    .ok_or(AdmissionError::NoSuchRule)?;
                if fabric.remove_rule(port, *rule_id, now_us) {
                    Ok(())
                } else {
                    Err(AdmissionError::NoSuchRule)
                }
            }
        }
    }
}

impl NetworkManager for QosNetworkManager {
    type Fabric = Fabric;

    fn apply(
        &mut self,
        fabric: &mut Fabric,
        change: &AbstractChange,
        now_us: u64,
    ) -> Result<(), AdmissionError> {
        // Our own edit moves the remembered version along with the
        // fabric's; after anybody else's it stays behind until
        // `prune_vanished` has looked.
        let in_step = fabric.rule_version() == self.fabric_version;
        let result = self.apply_change(fabric, change, now_us);
        if in_step {
            self.fabric_version = fabric.rule_version();
        }
        result
    }

    fn installed_rules(&self) -> usize {
        self.rule_ports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::BlackholingRule;
    use crate::signal::StellarSignal;
    use stellar_dataplane::hardware::HardwareInfoBase;
    use stellar_dataplane::port::MemberPort;
    use stellar_net::mac::MacAddr;

    fn setup() -> (Fabric, QosNetworkManager) {
        let mut fabric = Fabric::single(HardwareInfoBase::lab_switch());
        fabric.add_port(
            stellar_sim::fabric::PopId(0),
            PortId(1),
            MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000),
        );
        let mut mgr = QosNetworkManager::default();
        mgr.register_owner(Asn(64500), PortId(1));
        (fabric, mgr)
    }

    fn rule(id: u64, owner: u32) -> AbstractChange {
        AbstractChange::AddRule(BlackholingRule::from_signal(
            id,
            Asn(owner),
            "100.10.10.10/32".parse().unwrap(),
            StellarSignal::drop_udp_src(123),
        ))
    }

    #[test]
    fn add_then_remove_round_trips() {
        let (mut fabric, mut mgr) = setup();
        mgr.apply(&mut fabric, &rule(1, 64500), 0).unwrap();
        assert_eq!(mgr.installed_rules(), 1);
        assert_eq!(fabric.total_rules(), 1);
        assert_eq!(mgr.port_of_rule(1), Some(PortId(1)));
        mgr.apply(
            &mut fabric,
            &AbstractChange::RemoveRule {
                rule_id: 1,
                owner: Asn(64500),
            },
            1,
        )
        .unwrap();
        assert_eq!(mgr.installed_rules(), 0);
        assert_eq!(fabric.total_rules(), 0);
    }

    #[test]
    fn only_the_owner_map_moves_its_version() {
        let (mut fabric, mut mgr) = setup();
        let registered = mgr.owner_map_version();
        mgr.apply(&mut fabric, &rule(1, 64500), 0).unwrap();
        assert_eq!(mgr.owner_map_version(), registered);
        mgr.register_owner(Asn(64501), PortId(1));
        assert!(mgr.owner_map_version() > registered);
    }

    #[test]
    fn owners_of_reads_the_owner_map_the_other_way() {
        let (_, mut mgr) = setup();
        mgr.register_owner(Asn(64502), PortId(1));
        mgr.register_owner(Asn(64501), PortId(2));
        let owners =
            |mgr: &QosNetworkManager, port| mgr.owners_of(PortId(port)).collect::<Vec<_>>();
        assert_eq!(owners(&mgr, 1), [Asn(64500), Asn(64502)]);
        assert_eq!(owners(&mgr, 2), [Asn(64501)]);
        assert_eq!(owners(&mgr, 3), []);
        // A member moving ports leaves the old one.
        mgr.register_owner(Asn(64502), PortId(2));
        assert_eq!(owners(&mgr, 1), [Asn(64500)]);
        assert_eq!(owners(&mgr, 2), [Asn(64501), Asn(64502)]);
        let built = QosNetworkManager::new(HashMap::from([(Asn(64500), PortId(7))]));
        assert_eq!(owners(&built, 7), [Asn(64500)]);
    }

    #[test]
    fn unknown_owner_is_refused() {
        let (mut fabric, mut mgr) = setup();
        assert_eq!(
            mgr.apply(&mut fabric, &rule(1, 9999), 0),
            Err(AdmissionError::UnknownOwner)
        );
        assert_eq!(fabric.total_rules(), 0);
    }

    #[test]
    fn removing_unknown_rule_is_refused() {
        let (mut fabric, mut mgr) = setup();
        assert_eq!(
            mgr.apply(
                &mut fabric,
                &AbstractChange::RemoveRule {
                    rule_id: 42,
                    owner: Asn(64500)
                },
                0
            ),
            Err(AdmissionError::NoSuchRule)
        );
    }

    #[test]
    fn prune_vanished_squares_bookkeeping_after_restart() {
        let (mut fabric, mut mgr) = setup();
        mgr.apply(&mut fabric, &rule(1, 64500), 0).unwrap();
        mgr.apply(&mut fabric, &rule(2, 64500), 0).unwrap();
        // Nothing vanished yet.
        assert!(mgr.prune_vanished(&fabric).is_empty());
        fabric.restart(1);
        assert_eq!(mgr.installed_rules(), 2); // stale bookkeeping
        assert_eq!(mgr.prune_vanished(&fabric), vec![1, 2]);
        assert_eq!(mgr.installed_rules(), 0);
        // Re-adding the same ids now succeeds.
        mgr.apply(&mut fabric, &rule(1, 64500), 2).unwrap();
        assert_eq!(fabric.total_rules(), 1);
    }

    #[test]
    fn per_port_limit_maps_to_admission_error() {
        let (mut fabric, mut mgr) = setup(); // lab: 8 rules/port
        for i in 0..8 {
            let ch = AbstractChange::AddRule(BlackholingRule::from_signal(
                i,
                Asn(64500),
                "100.10.10.10/32".parse().unwrap(),
                StellarSignal::drop_udp_src(i as u16),
            ));
            mgr.apply(&mut fabric, &ch, 0).unwrap();
        }
        assert_eq!(
            mgr.apply(&mut fabric, &rule(99, 64500), 0),
            Err(AdmissionError::PerPortLimit)
        );
        // Fabric untouched by the refused change.
        assert_eq!(fabric.total_rules(), 8);
        assert_eq!(mgr.installed_rules(), 8);
    }
}
