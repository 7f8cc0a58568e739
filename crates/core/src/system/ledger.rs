//! The watchdog's periodic obligations as functions over a read-only
//! view of the system, with the [`ProofLedger`] as their only state: the
//! RIB ↔ plane check, the installed-vs-desired rule-id diff and the three
//! quiet-state obligations (convergence, orphan rules, placement
//! soundness).
//!
//! Every state owner they read stamps its own edits — the fabric's rule
//! tables, both desired-state planes, the route server's FlowSpec RIB,
//! the manager's owner → port map — so a pass compares stamps first and
//! examines only what moved. A full pass is the same code over an empty
//! ledger; debug builds run both and compare (see
//! [`StellarSystem::watchdog_check`]).

use super::StellarSystem;
use crate::audit::to_audit_rule;
use crate::proof::{self, PlacementCheck, DEFAULT_VERIFY_BUDGET};
use crate::watchdog::Invariant;
use std::collections::{BTreeMap, HashMap, HashSet};
use stellar_bgp::types::Asn;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::switch::{EdgeRouter, PortId};

/// The change stamps of the four state owners the quiet-state
/// obligations read: the fabric's rule-state version, both signaling
/// planes' desired-state versions and the manager's owner → port map
/// version. Each owner bumps its own stamp inside its own mutators, so
/// equal stamps mean equal state however the state was reached; reading
/// all four is O(PoPs).
type Stamps = [u64; 4];

/// What a port was examined under: its policy's generation, the owner →
/// port map version and the revisions of the owners registered on it,
/// summed over those owners and both signaling planes. The map version
/// pins which owners those are and every revision only grows, so the sum
/// moves when any one of them does.
type PortStamp = (u64, u64, u64);

/// What earlier passes proved, keyed by the stamps they proved it under,
/// so a later pass re-examines only what changed. Only positive verdicts
/// are kept — a port that mismatched or blew its budget, an owner with a
/// key the RIB lacks, is re-examined, and counted, on every pass — and
/// any recorded violation, reconcile repair or injected fault empties
/// the ledger outright. The maps are point-lookup only: a port or owner
/// that left the state keeps a verdict nobody asks for.
#[derive(Debug, Default)]
pub(super) struct ProofLedger {
    /// The stamps at the last pass that discharged convergence,
    /// orphan-freedom and placement with nothing in flight and nothing
    /// unverified: while they stand, all three still hold.
    pub(super) clean_at: Option<Stamps>,
    /// Ports last seen holding exactly the rule ids their owners desire,
    /// and under which stamp.
    pub(super) ids: HashMap<PortId, PortStamp>,
    /// Ports last proven equal to their intent, and under which stamp.
    pub(super) proven: HashMap<PortId, PortStamp>,
    /// The `(plane version, RIB version)` of the last RIB ↔ plane check
    /// that found every key.
    rib_plane_at: Option<(u64, u64)>,
    /// Owners whose every plane key was last found in the RIB, and under
    /// which `(plane revision, RIB revision)`.
    rib_plane: HashMap<Asn, (u64, u64)>,
}

/// The installed-vs-desired rule-id diff: what convergence, the orphan
/// scan and reconciliation all ask.
#[derive(Debug, Default, PartialEq, Eq)]
pub(super) struct IdDiff {
    /// Desired rule ids absent from hardware, ascending.
    pub(super) missing: Vec<u64>,
    /// Hardware rules `(port, id)` absent from desired state, in
    /// ascending port and then evaluation order.
    pub(super) extra: Vec<(PortId, u64)>,
    /// Answered port by port ([`StellarSystem::clean_ports`]): empty,
    /// and every port addressed by intent holds rules.
    by_port: bool,
}

impl IdDiff {
    /// Hardware holds exactly the desired rule ids.
    pub(super) fn is_empty(&self) -> bool {
        self.missing.is_empty() && self.extra.is_empty()
    }
}

/// What the RIB ↔ plane check found in one pass.
#[derive(Debug, Default)]
pub(super) struct RibPlaneCheck {
    pub(super) found: Vec<(Invariant, String)>,
    /// Plane keys looked up in the RIB.
    pub(super) probed: usize,
}

/// What the quiet-state obligations found in one pass.
#[derive(Debug, Default)]
pub(super) struct QuietPass {
    pub(super) found: Vec<(Invariant, String)>,
    /// All three answered from the ledger: nothing was examined.
    pub(super) unchanged: bool,
    /// The placement proof, when the pass reached it.
    pub(super) placement: Option<PlacementCheck>,
}

/// A port whose id verdict is absent or stale, once per owner registered
/// on it.
type StalePort<'a> = (Asn, PortId, &'a MemberPort, PortStamp);

impl StellarSystem {
    fn stamps(&self) -> Stamps {
        [
            self.ixp.fabric.rule_version(),
            self.controller.version(),
            self.flowspec.version(),
            self.manager.owner_map_version(),
        ]
    }

    /// The ports holding at least one rule, PoP by PoP (ascending within
    /// a PoP only): [`stellar_sim::fabric::Fabric::occupied_ports`]
    /// without its merge, for walks that do not care about the order.
    fn occupied(&self) -> impl Iterator<Item = (PortId, &MemberPort)> {
        let routers = self.ixp.fabric.routers();
        routers.iter().flat_map(EdgeRouter::occupied_ports)
    }

    /// Both planes' revisions of one owner (each only grows, so the sum
    /// moves with either).
    fn owner_revision(&self, owner: Asn) -> u64 {
        self.controller.owner_revision(owner) + self.flowspec.owner_revision(owner)
    }

    fn port_stamp(&self, id: PortId, port: &MemberPort) -> PortStamp {
        let owners = self.manager.owners_of(id);
        (
            port.policy.generation(),
            self.manager.owner_map_version(),
            owners.map(|owner| self.owner_revision(owner)).sum(),
        )
    }

    /// RIB ↔ plane consistency: every lowered FlowSpec key must still be
    /// backed by a route-server RIB entry. (The reverse — RIB entry not
    /// lowered — is legitimate: lowering or audit refused it.) Skipped
    /// whole while neither side's version moved; otherwise only the
    /// owners either side stamped since their keys were last found have
    /// them looked up again.
    pub(super) fn check_rib_plane(&self, ledger: &mut ProofLedger) -> RibPlaneCheck {
        let mut check = RibPlaneCheck::default();
        let rib = &self.ixp.route_server;
        let versions = (self.flowspec.version(), rib.flowspec_version());
        if ledger.rib_plane_at == Some(versions) {
            return check;
        }
        ledger.rib_plane_at = None;
        for owner in self.flowspec.owners() {
            let revisions = (
                self.flowspec.owner_revision(owner),
                rib.flowspec_owner_revision(owner),
            );
            if ledger.rib_plane.get(&owner) == Some(&revisions) {
                continue;
            }
            let found = check.found.len();
            for wire in self.flowspec.keys_of(owner) {
                check.probed += 1;
                if !rib.flowspec_contains(owner, wire) {
                    check.found.push((
                        Invariant::RibPlaneConsistency,
                        format!("plane key owner={} absent from rib", owner.0),
                    ));
                }
            }
            if check.found.len() == found {
                ledger.rib_plane.insert(owner, revisions);
            } else {
                ledger.rib_plane.remove(&owner);
            }
        }
        if check.found.is_empty() {
            ledger.rib_plane_at = Some(versions);
        }
        check
    }

    /// Whether every port holding rules holds exactly the rule ids of the
    /// owners registered on it, and hardware holds as many rules as are
    /// desired. Every desired id has one owner and every owner one port,
    /// so the occupied ports then account for as many desired ids as
    /// hardware holds rules — all of them: no desired id is left for an
    /// empty port or an unregistered owner, and the [`IdDiff`] is empty
    /// by construction. `None` says nothing either way.
    ///
    /// A port is taken at `ledger`'s word while its stamp stands; the
    /// others are compared id by id (no rule is built) and returned for
    /// the caller to record, so this reads verdicts and never writes.
    fn clean_ports(&self, ledger: &ProofLedger) -> Option<Vec<StalePort<'_>>> {
        let desired = self.controller.rule_count() + self.flowspec.rule_count();
        if self.ixp.fabric.total_rules() != desired {
            return None;
        }
        let mut stale: Vec<StalePort> = Vec::new();
        // Rules held by the stale ports.
        let mut held = 0;
        for (id, port) in self.occupied() {
            let stamp = self.port_stamp(id, port);
            if ledger.ids.get(&id) != Some(&stamp) {
                let owners = self.manager.owners_of(id);
                stale.extend(owners.map(|owner| (owner, id, port, stamp)));
                held += port.policy.rule_count();
            }
        }
        if held == 0 {
            return Some(stale);
        }
        // The stale ports' desired ids, gathered in one pass over desired
        // state however many they are; as many as those ports hold, or
        // one of them is not clean.
        stale.sort_unstable_by_key(|(owner, ..)| *owner);
        let port_of = |owner: Asn| {
            let at = stale.binary_search_by_key(&owner, |(owner, ..)| *owner);
            at.ok().map(|at| stale[at].1)
        };
        let mut want: Vec<(PortId, u64)> = Vec::with_capacity(held);
        let signaled = self
            .controller
            .desired_ids_of(|owner| port_of(owner).is_some());
        let lowered = stale.iter().flat_map(|(owner, ..)| {
            let rules = self.flowspec.desired_rules_of(*owner);
            rules.map(|rule| (*owner, rule.id))
        });
        for (owner, rule_id) in signaled.chain(lowered) {
            if want.len() == held {
                return None;
            }
            want.push((port_of(owner)?, rule_id));
        }
        if want.len() != held {
            return None;
        }
        want.sort_unstable();
        let clean = stale.iter().all(|(_, id, port, _)| {
            let mut rules = port.policy.rules().iter();
            rules.all(|rule| want.binary_search(&(*id, rule.id)).is_ok())
        });
        clean.then_some(stale)
    }

    /// Hardware holds exactly the desired rule ids, read off `ledger`
    /// (see [`Self::clean_ports`]) or, failing that, off the full diff.
    pub(super) fn ids_agree(&self, ledger: &ProofLedger) -> bool {
        let by_port = self.clean_ports(ledger).is_some();
        debug_assert!(
            !by_port || self.walk_ids().is_empty(),
            "ports clean, ids diverged"
        );
        by_port || self.walk_ids().is_empty()
    }

    /// Diffs the hardware's rule ids against desired state: port by port
    /// over `ledger` while that shows them equal, and only for a state
    /// that really diverged by [`Self::walk_ids`], whose exact lists the
    /// repairs are made from.
    pub(super) fn id_diff(&self, ledger: &mut ProofLedger) -> IdDiff {
        let Some(verified) = self.clean_ports(ledger) else {
            return self.walk_ids();
        };
        for (_, id, _, stamp) in verified {
            ledger.ids.insert(id, stamp);
        }
        // Debug builds check the construction against the full diff.
        debug_assert_eq!(
            self.walk_ids(),
            IdDiff::default(),
            "ports clean, ids diverged"
        );
        IdDiff {
            by_port: true,
            ..IdDiff::default()
        }
    }

    /// Diffs the hardware's rule ids against desired state in one walk
    /// of the occupied ports and both planes.
    fn walk_ids(&self) -> IdDiff {
        let fabric = &self.ixp.fabric;
        let desired = self.controller.rule_count() + self.flowspec.rule_count();
        // Sized for the converged case, where it holds the desired ids.
        let mut installed: HashSet<u64> = HashSet::with_capacity(desired);
        let occupied = fabric.occupied_ports();
        installed.extend(occupied.flat_map(|(_, port)| port.policy.rules().iter().map(|r| r.id)));
        let mut missing: Vec<u64> = self
            .desired_ids()
            .filter(|id| !installed.contains(id))
            .collect();
        missing.sort_unstable();
        // Desired ids are unique: as many distinct installed ids, none
        // of them missing, leaves no room for an extra one.
        let extra = if missing.is_empty() && installed.len() == desired {
            Vec::new()
        } else {
            let desired: HashSet<u64> = self.desired_ids().collect();
            fabric
                .occupied_ports()
                .flat_map(|(id, port)| port.policy.rules().iter().map(move |r| (id, r.id)))
                .filter(|(_, id)| !desired.contains(id))
                .collect()
        };
        IdDiff {
            missing,
            extra,
            by_port: false,
        }
    }

    /// The three quiet-state obligations — convergence, orphan rules and
    /// obligation (c), placement soundness — over `ledger`: skipped
    /// whole while the stamps of the last clean pass stand, otherwise
    /// evaluated from one [`IdDiff`] with only the stale ports re-proven.
    /// Reads live state, writes only `ledger`.
    pub(super) fn quiet_obligations(&self, ledger: &mut ProofLedger) -> QuietPass {
        let mut pass = QuietPass::default();
        let idle = self.nothing_in_flight();
        let stamps = self.stamps();
        if idle && ledger.clean_at == Some(stamps) {
            pass.unchanged = true;
            return pass;
        }
        ledger.clean_at = None;
        // Convergence: past the grace bound, desired must equal
        // installed with nothing in flight.
        let diff = self.id_diff(ledger);
        let converged = idle && diff.is_empty();
        if !converged {
            pass.found.push((
                Invariant::Convergence,
                format!(
                    "backlog={} parked={} pending_validation={}",
                    self.queue.backlog(),
                    self.parked.len(),
                    self.pending_validation.len()
                ),
            ));
        }
        // Orphan rules: nothing in hardware without a desired-state
        // owner or an in-flight removal.
        if !diff.extra.is_empty() {
            let in_flight = self.in_flight_ids();
            for (_, id) in &diff.extra {
                if !in_flight.contains(id) {
                    pass.found.push((
                        Invariant::OrphanRule,
                        format!("rule_id={id} has no desired-state owner"),
                    ));
                }
            }
        }
        // Obligation (c), placement soundness: once converged, every
        // occupied port's installed table must be semantically equal to
        // its owner's desired table over that port's traffic — proven
        // exactly, per port, with witness-backed differences. (While
        // changes are in flight the tables legitimately diverge;
        // convergence is the precondition of the equation.)
        if converged {
            let placement = self.prove_placement(ledger, diff.by_port);
            for m in &placement.mismatches {
                pass.found.push((
                    Invariant::PlacementSound,
                    format!(
                        "port={} installed={} desired={} differing_keys={}",
                        m.port.0, m.region.outcome_a, m.region.outcome_b, m.differing_keys
                    ),
                ));
            }
            if placement.unplaced > 0 {
                pass.found.push((
                    Invariant::PlacementSound,
                    format!("unplaced_desired_rules={}", placement.unplaced),
                ));
            }
            if placement.is_sound() && placement.unverified == 0 {
                ledger.clean_at = Some(stamps);
            }
            pass.placement = Some(placement);
        }
        pass
    }

    /// [`proof::check_placement`] over `ledger`: the same per-port proof,
    /// run only on the ports whose stamp differs from the one they were
    /// last proven equal under. Over an empty ledger that is every port
    /// holding rules or addressed by intent — the full proof.
    /// `occupied_only`: the id diff was answered port by port, so intent
    /// addresses no port but those holding rules.
    fn prove_placement(&self, ledger: &mut ProofLedger, occupied_only: bool) -> PlacementCheck {
        let mut check = PlacementCheck::default();
        let fabric = &self.ixp.fabric;
        let mut stale: Vec<(PortId, &MemberPort, PortStamp)> = Vec::new();
        let mut examine = |id: PortId, port| {
            let stamp = self.port_stamp(id, port);
            if ledger.proven.get(&id) != Some(&stamp) {
                stale.push((id, port, stamp));
            }
        };
        self.occupied().for_each(|(id, port)| examine(id, port));
        if !occupied_only {
            let mut owners = self.controller.desired_owners();
            owners.extend(self.flowspec.owners());
            for owner in owners {
                let id = self.manager.owner_port(owner);
                match id.and_then(|id| Some((id, fabric.port(id)?))) {
                    Some((_, port)) if port.policy.rule_count() > 0 => {}
                    Some((id, port)) => examine(id, port),
                    // Intent that resolves to no live port is as unsound
                    // as a missing rule on a live one.
                    None => check.unplaced += self.desired_of(&[owner]).len(),
                }
            }
        }
        // Proven, and reported, in port order.
        stale.sort_unstable_by_key(|(id, ..)| *id);
        stale.dedup_by_key(|(id, ..)| *id);
        // The stale ports' intent, gathered in one pass over desired
        // state however many they are.
        let owners = stale
            .iter()
            .flat_map(|(id, ..)| self.manager.owners_of(*id));
        let mut owners: Vec<Asn> = owners.collect();
        owners.sort_unstable();
        let mut want: BTreeMap<PortId, Vec<stellar_classify::AuditRule>> = BTreeMap::new();
        for rule in self.desired_of(&owners) {
            if let Some(port) = self.manager.owner_port(rule.owner) {
                want.entry(port).or_default().push(to_audit_rule(&rule));
            }
        }
        for (id, port, stamp) in stale {
            let want = want.get(&id).map_or(&[][..], Vec::as_slice);
            if check.book(proof::prove_port(id, port, want, DEFAULT_VERIFY_BUDGET)) {
                ledger.proven.insert(id, stamp);
            } else {
                ledger.proven.remove(&id);
            }
        }
        check
    }
}
