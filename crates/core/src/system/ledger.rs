//! Watch and repair. A watchdog pass is one `&self` evaluation of the
//! invariant catalogue whose only mutable input is the [`ProofLedger`]:
//! ledger conservation, the RIB ↔ plane check, the installed-vs-desired
//! rule-id diff with the three quiet-state obligations it answers
//! (convergence, orphan rules, placement soundness) and dead-letter
//! drainage. Reconciliation queues its repairs from the same id diff.
//!
//! Every state owner they read stamps its own edits — the fabric's rule
//! tables, both desired-state planes, the route server's FlowSpec RIB,
//! the manager's owner → port map — so a pass compares stamps first and
//! examines only what moved. A full pass is the same evaluation over an
//! empty ledger; debug builds run both and compare (see
//! [`StellarSystem::watchdog_check`]).

use super::{ReconcileReport, StellarSystem};
use crate::audit::to_audit_rule;
use crate::controller::AbstractChange;
use crate::faults::RecoveryEvent;
use crate::manager::NetworkManager;
use crate::proof::{self, PlacementCheck, DEFAULT_VERIFY_BUDGET};
use crate::watchdog::Invariant;
use std::collections::{BTreeMap, HashMap, HashSet};
use stellar_bgp::types::Asn;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::switch::{EdgeRouter, PortId};

/// How far past its release time a parked change may sit before the
/// watchdog calls the requeue machinery stalled. Must exceed the pump
/// cadence of every driver (they pump at 250 ms or faster).
const PARKED_OVERDUE_SLACK_US: u64 = 2_000_000;

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
    /// The fabric's `(rule version, installs, removals)` at the last pass
    /// whose books matched the rules the hardware holds: while they
    /// stand, so does the count.
    conserved_at: Option<(u64, u64, u64)>,
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

/// What a watchdog pass, or the quiet-state obligations within it,
/// found.
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
            self.controller.table().version(),
            self.flowspec.table().version(),
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

    fn port_stamp(&self, id: PortId, port: &MemberPort) -> PortStamp {
        let owners = self.manager.owners_of(id);
        (
            port.policy.generation(),
            self.manager.owner_map_version(),
            owners.map(|owner| self.owner_revision(owner)).sum(),
        )
    }

    /// One watchdog pass: evaluates the invariant catalogue against live
    /// state and records every violation (flight recorder event with a
    /// deterministic label, `watchdog.violations.*` counters, bounded
    /// in-memory record). `pump` runs this on the configured cadence;
    /// call it directly for a final end-of-run check. Returns how many
    /// violations this pass found.
    pub fn watchdog_check(&mut self, now_us: u64) -> usize {
        self.watchdog.begin_check(now_us);
        let quiet = self.watchdog.quiet(now_us);
        let mut ledger = std::mem::take(&mut self.ledger);
        let pass = self.watch(&mut ledger, quiet, now_us);
        if cfg!(debug_assertions) {
            let full = self.watch(&mut ProofLedger::default(), quiet, now_us);
            assert_eq!(pass.found, full.found, "incremental pass diverged");
        }
        self.ledger = ledger;
        let reg = &mut self.obs.registry;
        if pass.unchanged {
            reg.counter_inc("watchdog.checks_unchanged");
        }
        if let Some(placement) = &pass.placement {
            reg.counter_add(
                "verify.placement.ports_checked",
                placement.ports_checked as u64,
            );
            if placement.unverified > 0 {
                reg.counter_add("verify.placement.unverified", placement.unverified as u64);
            }
        }
        let count = pass.found.len();
        for (invariant, detail) in pass.found {
            self.record_violation(now_us, invariant, detail);
        }
        count
    }

    /// The invariant catalogue over live state, in report order: ledger
    /// conservation, RIB ↔ plane consistency, the quiet-state
    /// obligations (convergence, orphan rules, placement soundness; only
    /// when `quiet`) and dead-letter drainage. The periodic obligations
    /// are answered from `ledger` as far as the state owners' stamps say
    /// nothing changed.
    fn watch(&self, ledger: &mut ProofLedger, quiet: bool, now_us: u64) -> QuietPass {
        let mut found: Vec<(Invariant, String)> = Vec::new();
        // Ledger conservation: installs − removals must equal what the
        // hardware holds, at all times (the managers and the fabric keep
        // double-entry books). Counting what it holds walks the occupied
        // ports; while no rule table and no book has moved since a pass
        // where the two matched, they still do.
        let fabric = &self.ixp.fabric;
        let (installs, removals) = fabric.rule_ledger();
        let books = (fabric.rule_version(), installs, removals);
        let booked = installs.checked_sub(removals);
        let total = match booked {
            Some(held) if ledger.conserved_at == Some(books) => held,
            _ => fabric.total_rules() as u64,
        };
        if booked == Some(total) {
            ledger.conserved_at = Some(books);
        } else {
            found.push((
                Invariant::LedgerConservation,
                format!("installs={installs} removals={removals} hardware={total}"),
            ));
        }
        if quiet && self.manager.installed_rules() as u64 != total {
            found.push((
                Invariant::LedgerConservation,
                format!(
                    "manager={} hardware={total}",
                    self.manager.installed_rules()
                ),
            ));
        }
        if quiet && total == 0 {
            for (pop, r) in self.ixp.fabric.routers().iter().enumerate() {
                let tcam = r.tcam();
                if tcam.l34_used() != 0 || tcam.mac_used() != 0 {
                    found.push((
                        Invariant::LedgerConservation,
                        format!(
                            "pop={pop} empty table but tcam l34={} mac={}",
                            tcam.l34_used(),
                            tcam.mac_used()
                        ),
                    ));
                }
            }
        }
        found.extend(self.check_rib_plane(ledger).found);
        let pass = quiet.then(|| self.quiet_obligations(ledger));
        let pass = pass.unwrap_or_default();
        found.extend(pass.found);
        // Dead-letter drainage: a parked requeue sitting past its release
        // time (plus pump-cadence slack) means the release machinery
        // stalled.
        for p in &self.parked {
            if now_us > p.release_at_us.saturating_add(PARKED_OVERDUE_SLACK_US) {
                found.push((
                    Invariant::DeadLetterDrain,
                    format!("rule_id={} parked past release", p.qc.change.rule_id()),
                ));
            }
        }
        QuietPass { found, ..pass }
    }

    /// Records one invariant violation: bounded in-memory record,
    /// `watchdog.violations.*` counters, flight-recorder event. Whatever
    /// broke, nothing the proof ledger holds is trusted past it.
    pub(super) fn record_violation(&mut self, now_us: u64, invariant: Invariant, detail: String) {
        let v = self.watchdog.record(now_us, invariant, detail);
        self.obs.registry.counter_inc("watchdog.violations");
        self.obs
            .registry
            .counter_inc(&format!("watchdog.violations.{}", invariant.label()));
        self.obs.event(
            now_us,
            "watchdog.violation",
            vec![
                ("invariant".to_string(), invariant.label().to_string()),
                ("detail".to_string(), v.detail),
            ],
        );
        self.ledger = ProofLedger::default();
    }

    /// RIB ↔ plane consistency: every lowered FlowSpec key must still be
    /// backed by a route-server RIB entry. (The reverse — RIB entry not
    /// lowered — is legitimate: lowering or audit refused it.) Skipped
    /// whole while neither side's version moved; otherwise only the
    /// owners either side stamped since their keys were last found have
    /// them looked up again.
    pub(super) fn check_rib_plane(&self, ledger: &mut ProofLedger) -> RibPlaneCheck {
        let mut check = RibPlaneCheck::default();
        let (rib, plane) = (&self.ixp.route_server, self.flowspec.table());
        let versions = (plane.version(), rib.flowspec_version());
        if ledger.rib_plane_at == Some(versions) {
            return check;
        }
        ledger.rib_plane_at = None;
        for owner in plane.owners() {
            let revisions = (plane.revision(owner), rib.flowspec_owner_revision(owner));
            if ledger.rib_plane.get(&owner) == Some(&revisions) {
                continue;
            }
            let found = check.found.len();
            for (wire, _) in plane.sources_of(owner) {
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
        if self.ixp.fabric.total_rules() != self.desired_count(None) {
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
        // The stale ports' desired ids, read off both planes' by-owner
        // views of their owners; as many as those ports hold, or
        // one of them is not clean.
        stale.sort_unstable_by_key(|(owner, ..)| *owner);
        let port_of = |owner: Asn| {
            let at = stale.binary_search_by_key(&owner, |(owner, ..)| *owner);
            at.ok().map(|at| stale[at].1)
        };
        let mut want: Vec<(PortId, u64)> = Vec::with_capacity(held);
        let owners = stale.iter().map(|(owner, ..)| *owner);
        for (owner, rule_id) in self.desired_ids_of(owners) {
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
        let desired = self.desired_count(None);
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

    /// Reconciliation: diffs the controller's desired rule set against
    /// what is actually installed in hardware and queues repairs —
    /// re-adds for desired rules that vanished (edge-router restart),
    /// removals for hardware rules no longer desired. Changes already in
    /// flight in the queue are not repaired twice. Run this periodically;
    /// it is idempotent once the system has converged.
    pub fn reconcile(&mut self, now_us: u64) -> ReconcileReport {
        self.poll_faults(now_us);
        let mut report = ReconcileReport {
            pruned: self.manager.prune_vanished(&self.ixp.fabric).len(),
            ..Default::default()
        };
        let mut ledger = std::mem::take(&mut self.ledger);
        let diff = self.id_diff(&mut ledger);
        self.ledger = ledger;
        if !diff.is_empty() {
            // Work already on its way is not repaired twice.
            let in_flight = self.in_flight_ids();
            // Desired but missing from hardware: re-queue the install.
            if !diff.missing.is_empty() {
                for rule in self.desired_table() {
                    if diff.missing.binary_search(&rule.id).is_ok() && !in_flight.contains(&rule.id)
                    {
                        self.queue.enqueue(AbstractChange::AddRule(rule), now_us);
                        report.adds += 1;
                    }
                }
            }
            // Installed but not desired: queue the removal, in rule-id
            // order (owner looked up from the port the rule sits on).
            let extra: BTreeMap<u64, PortId> =
                diff.extra.iter().map(|&(port, id)| (id, port)).collect();
            for (rule_id, port_id) in extra {
                if in_flight.contains(&rule_id) {
                    continue;
                }
                let owner = self
                    .ixp
                    .fabric
                    .port(port_id)
                    .map(|p| Asn(p.member_asn))
                    .unwrap_or(Asn(0));
                self.queue
                    .enqueue(AbstractChange::RemoveRule { rule_id, owner }, now_us);
                report.removes += 1;
            }
        }
        let reg = &mut self.obs.registry;
        reg.counter_inc("core.reconcile.passes");
        reg.counter_add("core.reconcile.adds", report.adds as u64);
        reg.counter_add("core.reconcile.removes", report.removes as u64);
        reg.counter_add("core.reconcile.pruned", report.pruned as u64);
        if !report.is_clean() {
            self.watchdog.note_activity(now_us);
            self.ledger = ProofLedger::default();
            self.log.push(RecoveryEvent::RepairsQueued {
                at_us: now_us,
                adds: report.adds,
                removes: report.removes,
                pruned: report.pruned,
            });
            // The divergence window opens at the first dirty pass (span
            // starts are first-wins, so repeat dirty passes keep the
            // original open time) and closes at the next clean pass.
            self.obs.span_start("reconcile_repair", 0, now_us);
        } else {
            self.obs.span_end("reconcile_repair", 0, now_us);
        }
        report
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
            for owner in self.desired_owners() {
                let id = self.manager.owner_port(owner);
                match id.and_then(|id| Some((id, fabric.port(id)?))) {
                    Some((_, port)) if port.policy.rule_count() > 0 => {}
                    Some((id, port)) => examine(id, port),
                    // Intent that resolves to no live port is as unsound
                    // as a missing rule on a live one.
                    None => check.unplaced += self.desired_count(Some(owner)),
                }
            }
        }
        // Proven, and reported, in port order.
        stale.sort_unstable_by_key(|(id, ..)| *id);
        stale.dedup_by_key(|(id, ..)| *id);
        // The stale ports' intent: their owners' slice of desired state.
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
