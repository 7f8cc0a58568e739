//! The blackholing controller (§4.3/§4.4): a passive iBGP listener behind
//! the route server that turns signaled blackholing rules into abstract
//! configuration changes.
//!
//! "The blackholing controller implements a BGP parser and a BGP
//! processor. ... the controller calculates differences between RIB
//! snapshots. Essentially, these differences represent a set of abstract,
//! i.e., still hardware-independent, configuration changes."
//!
//! The controller is fed ADD-PATH-tagged updates so it can "honor the
//! same prefix from different member ASes with diverging blackholing
//! rules".

use crate::portal::CustomerPortal;
use crate::rule::BlackholingRule;
use crate::signal::StellarSignal;
use std::collections::{BTreeSet, HashMap};
use stellar_bgp::attr::PathAttribute;
use stellar_bgp::types::Asn;
use stellar_bgp::update::UpdateMessage;
use stellar_net::prefix::Prefix;
use stellar_routeserver::OwnerStamps;

/// A hardware-independent configuration change (§4.4).
#[derive(Debug, Clone, PartialEq)]
pub enum AbstractChange {
    /// Install a blackholing rule.
    AddRule(BlackholingRule),
    /// Remove a previously installed rule.
    RemoveRule {
        /// The rule to remove.
        rule_id: u64,
        /// The owner whose egress port holds it.
        owner: Asn,
    },
}

impl AbstractChange {
    /// The id of the rule this change installs or removes.
    pub fn rule_id(&self) -> u64 {
        match self {
            AbstractChange::AddRule(r) => r.id,
            AbstractChange::RemoveRule { rule_id, .. } => *rule_id,
        }
    }

    /// The member whose egress port the change lands on.
    pub fn owner(&self) -> Asn {
        match self {
            AbstractChange::AddRule(r) => r.owner,
            AbstractChange::RemoveRule { owner, .. } => *owner,
        }
    }
}

/// What [`BlackholingController::degrade_rule`] did with a rule that
/// persistently failed TCAM admission.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradeOutcome {
    /// The rule was replaced by a coarser one carrying the same id;
    /// install this instead.
    Degraded(BlackholingRule),
    /// The coarser signal already exists on the path under another rule
    /// id: the failing rule was dropped from desired state — its traffic
    /// is covered by the surviving rule.
    Merged,
    /// Already at the bottom of the ladder (drop-all would not fit);
    /// the rule was dropped from desired state.
    Exhausted,
    /// The rule id is not in desired state (already withdrawn).
    Unknown,
}

/// One announced path's blackholing state.
#[derive(Debug, Default)]
struct PathRules {
    owner: Option<Asn>,
    /// Signal → installed rule id.
    rules: HashMap<StellarSignal, u64>,
}

impl PathRules {
    /// Who the path's rules answer to; a path without an origin AS
    /// answers to `Asn(0)`.
    fn owner(&self) -> Asn {
        self.owner.unwrap_or(Asn(0))
    }

    /// The ids of the path's rules, in no particular order.
    fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.rules.values().copied()
    }

    /// The path's rules as the managers want them, for `prefix`.
    fn desired(&self, prefix: Prefix) -> impl Iterator<Item = BlackholingRule> + '_ {
        let owner = self.owner();
        self.rules
            .iter()
            .map(move |(signal, id)| BlackholingRule::from_signal(*id, owner, prefix, *signal))
    }
}

/// The blackholing controller.
pub struct BlackholingController {
    ixp_asn: Asn,
    portal: CustomerPortal,
    paths: HashMap<(Prefix, Option<u32>), PathRules>,
    next_rule_id: u64,
    stamps: OwnerStamps,
}

impl BlackholingController {
    /// Creates a controller with the IXP's standard rule catalog.
    pub fn new(ixp_asn: Asn) -> Self {
        BlackholingController {
            ixp_asn,
            portal: CustomerPortal::with_standard_catalog(ixp_asn),
            paths: HashMap::new(),
            next_rule_id: 1,
            stamps: OwnerStamps::default(),
        }
    }

    /// Mutable access to the rule catalog (the customer portal).
    pub fn portal_mut(&mut self) -> &mut CustomerPortal {
        &mut self.portal
    }

    /// Read access to the catalog.
    pub fn portal(&self) -> &CustomerPortal {
        &self.portal
    }

    /// Total rules the controller believes are installed.
    pub fn rule_count(&self) -> usize {
        self.paths.values().map(|p| p.rules.len()).sum()
    }

    /// The desired-state version: bumped by every `process_update`,
    /// `rule_refused`, `degrade_rule` and `session_down` that changed a
    /// desired rule. Unchanged version, unchanged desired state.
    pub fn version(&self) -> u64 {
        self.stamps.version()
    }

    /// The [`version`](Self::version) at which `owner`'s desired rules
    /// last changed (0: never).
    pub fn owner_revision(&self, owner: Asn) -> u64 {
        self.stamps.revision(owner)
    }

    /// Processes one update from the route server's southbound feed and
    /// returns the abstract configuration changes it implies.
    pub fn process_update(&mut self, update: &UpdateMessage) -> Vec<AbstractChange> {
        let mut changes = Vec::new();
        // Withdrawals: every rule attached to the path goes away —
        // including the implicit-withdraw-on-session-failure case, where
        // the route server withdraws on the member's behalf (§4.2.1).
        // IPv6 withdrawals arrive in MP_UNREACH_NLRI.
        let mut withdrawals = update.withdrawn.clone();
        for a in &update.attrs {
            if let PathAttribute::MpUnreach { nlri, .. } = a {
                withdrawals.extend(nlri.iter().copied());
            }
        }
        for w in &withdrawals {
            let key = (w.prefix, w.path_id);
            if let Some(path) = self.paths.remove(&key) {
                let owner = path.owner.unwrap_or(Asn(0));
                // Sorted by rule id so emission order is deterministic
                // (rule maps are hash maps with per-instance seeds).
                let mut ids: Vec<u64> = path.rules.into_values().collect();
                ids.sort_unstable();
                for rule_id in ids {
                    changes.push(AbstractChange::RemoveRule { rule_id, owner });
                }
            }
        }
        // Announcements: diff desired signals against installed rules.
        let owner = update.attrs.iter().find_map(|a| match a {
            PathAttribute::AsPath(p) => p.origin_as(),
            _ => None,
        });
        let ecs = update.extended_communities();
        // IPv6 announcements arrive in MP_REACH_NLRI.
        let mut announcements = update.nlri.clone();
        for a in &update.attrs {
            if let PathAttribute::MpReach { nlri, .. } = a {
                announcements.extend(nlri.iter().copied());
            }
        }
        for n in &announcements {
            let key = (n.prefix, n.path_id);
            let Some(owner) = owner else {
                // No origin AS: cannot attribute rules; treat as plain
                // route (and drop any stale rules for the path).
                if let Some(path) = self.paths.remove(&key) {
                    let o = path.owner.unwrap_or(Asn(0));
                    let mut ids: Vec<u64> = path.rules.into_values().collect();
                    ids.sort_unstable();
                    for rule_id in ids {
                        changes.push(AbstractChange::RemoveRule { rule_id, owner: o });
                    }
                }
                continue;
            };
            let desired = StellarSignal::extract(ecs, self.ixp_asn, &self.portal, owner);
            let path = self.paths.entry(key).or_default();
            if let Some(previous) = path.owner.replace(owner) {
                if previous != owner {
                    // The path's surviving rules change hands without a
                    // change being emitted for them.
                    self.stamps.touch(previous);
                    self.stamps.touch(owner);
                }
            }
            // Removals: installed but no longer desired, in rule-id
            // order (deterministic across runs).
            let mut stale: Vec<(u64, StellarSignal)> = path
                .rules
                .iter()
                .filter(|(s, _)| !desired.contains(s))
                .map(|(s, id)| (*id, *s))
                .collect();
            stale.sort_unstable_by_key(|(id, _)| *id);
            for (rule_id, s) in stale {
                path.rules.remove(&s);
                changes.push(AbstractChange::RemoveRule { rule_id, owner });
            }
            // Additions: desired but not installed.
            for s in desired {
                if path.rules.contains_key(&s) {
                    continue;
                }
                let id = self.next_rule_id;
                self.next_rule_id += 1;
                path.rules.insert(s, id);
                changes.push(AbstractChange::AddRule(BlackholingRule::from_signal(
                    id, owner, n.prefix, s,
                )));
            }
            if path.rules.is_empty() && path.owner.is_some() {
                // Plain route with no rules: no need to track it.
                self.paths.remove(&key);
            }
        }
        for change in &changes {
            self.stamps.touch(change.owner());
        }
        changes
    }

    /// A snapshot of every rule the controller currently wants installed,
    /// sorted by rule id. This is the desired-state side of the
    /// reconciliation diff.
    pub fn desired_rules(&self) -> Vec<BlackholingRule> {
        let mut out: Vec<BlackholingRule> = self
            .paths
            .iter()
            .flat_map(|((prefix, _), path)| path.desired(*prefix))
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// The announced paths answering to an owner `owned` accepts: one
    /// filtering pass over the paths however many owners are asked for,
    /// no by-owner index to keep in step. Paths without an origin AS
    /// answer to `Asn(0)`, as they do in the full snapshot.
    fn paths_of<'a>(
        &'a self,
        owned: impl Fn(Asn) -> bool + 'a,
    ) -> impl Iterator<Item = (Prefix, &'a PathRules)> + 'a {
        self.paths
            .iter()
            .filter(move |(_, path)| owned(path.owner()))
            .map(|((prefix, _), path)| (*prefix, path))
    }

    /// The rules the `owners` (sorted ascending) currently want
    /// installed, in no particular order: [`Self::desired_rules`]
    /// restricted to those owners without building anyone else's rules.
    pub(crate) fn desired_rules_of<'a>(
        &'a self,
        owners: &'a [Asn],
    ) -> impl Iterator<Item = BlackholingRule> + 'a {
        self.paths_of(|owner| owners.binary_search(&owner).is_ok())
            .flat_map(|(prefix, path)| path.desired(prefix))
    }

    /// The ids of the rules wanted by the owners `owned` accepts, each
    /// with its owner, in no particular order — for callers that compare
    /// ids and would throw the rules of [`Self::desired_rules_of`] away.
    pub(crate) fn desired_ids_of<'a>(
        &'a self,
        owned: impl Fn(Asn) -> bool + 'a,
    ) -> impl Iterator<Item = (Asn, u64)> + 'a {
        self.paths_of(owned)
            .flat_map(|(_, path)| path.ids().map(|id| (path.owner(), id)))
    }

    /// The owners with at least one desired rule.
    pub(crate) fn desired_owners(&self) -> BTreeSet<Asn> {
        let owners = self.paths.values().map(PathRules::owner);
        owners.collect::<BTreeSet<Asn>>()
    }

    /// The ids of every rule the controller wants installed, in no
    /// particular order — for callers that compare ids and would throw
    /// the rules of [`Self::desired_rules`] away.
    pub(crate) fn desired_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.paths.values().flat_map(PathRules::ids)
    }

    /// Admission control permanently refused `rule_id`: drop it from
    /// desired state so `rule_count()` and telemetry reflect what is
    /// actually in hardware, and the reconciler does not keep trying to
    /// repair an uninstallable rule. Returns whether the id was known.
    pub fn rule_refused(&mut self, rule_id: u64) -> bool {
        let mut found = false;
        self.paths.retain(|_, path| {
            let owner = path.owner();
            path.rules.retain(|_, id| {
                let hit = *id == rule_id;
                if hit {
                    found = true;
                    self.stamps.touch(owner);
                }
                !hit
            });
            !path.rules.is_empty()
        });
        found
    }

    /// Steps `rule_id` one rung down the degradation ladder
    /// ([`StellarSignal::degrade`]), keeping the same rule id so
    /// telemetry references stay valid. Desired state is updated in
    /// place; the caller installs the returned coarser rule.
    pub fn degrade_rule(&mut self, rule_id: u64) -> DegradeOutcome {
        let key = self
            .paths
            .iter()
            .find_map(|(k, path)| path.rules.values().any(|id| *id == rule_id).then_some(*k));
        let Some(key) = key else {
            return DegradeOutcome::Unknown;
        };
        let Some(path) = self.paths.get_mut(&key) else {
            return DegradeOutcome::Unknown;
        };
        let Some(signal) = path
            .rules
            .iter()
            .find(|(_, id)| **id == rule_id)
            .map(|(s, _)| *s)
        else {
            return DegradeOutcome::Unknown;
        };
        let owner = path.owner.unwrap_or(Asn(0));
        path.rules.remove(&signal);
        self.stamps.touch(owner);
        let outcome = match signal.degrade() {
            None => DegradeOutcome::Exhausted,
            Some(next) if path.rules.contains_key(&next) => DegradeOutcome::Merged,
            Some(next) => {
                path.rules.insert(next, rule_id);
                DegradeOutcome::Degraded(BlackholingRule::from_signal(rule_id, owner, key.0, next))
            }
        };
        if self.paths.get(&key).is_some_and(|p| p.rules.is_empty()) {
            self.paths.remove(&key);
        }
        outcome
    }

    /// The iBGP session to the route server died: fall back to plain
    /// forwarding by removing every rule (availability first, §4.1.2).
    pub fn session_down(&mut self) -> Vec<AbstractChange> {
        let mut changes = Vec::new();
        for (_, path) in self.paths.drain() {
            let owner = path.owner.unwrap_or(Asn(0));
            for (_, rule_id) in path.rules {
                changes.push(AbstractChange::RemoveRule { rule_id, owner });
            }
        }
        changes.sort_by_key(AbstractChange::rule_id);
        // Every tracked path holds a rule, so this reaches every owner —
        // in rule-id order, not the drain's.
        for change in &changes {
            self.stamps.touch(change.owner());
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{RuleAction, RuleMatcher};
    use stellar_bgp::attr::AsPath;
    use stellar_bgp::nlri::Nlri;
    use stellar_net::addr::Ipv4Address;

    const IXP: Asn = Asn(6695);
    const OWNER: Asn = Asn(64500);

    fn victim() -> Prefix {
        "100.10.10.10/32".parse().unwrap()
    }

    fn update_with_signals(signals: &[StellarSignal], path_id: u32) -> UpdateMessage {
        let mut u = UpdateMessage::announce(
            victim(),
            Ipv4Address::new(80, 81, 192, 10),
            PathAttribute::AsPath(AsPath::sequence([OWNER.0])),
        );
        u.nlri = vec![Nlri::with_path_id(victim(), path_id)];
        let ecs: Vec<_> = signals.iter().map(|s| s.encode(IXP)).collect();
        if !ecs.is_empty() {
            u.add_extended_communities(&ecs);
        }
        u
    }

    #[test]
    fn new_signal_produces_add_rule() {
        let mut c = BlackholingController::new(IXP);
        let changes =
            c.process_update(&update_with_signals(&[StellarSignal::drop_udp_src(123)], 1));
        assert_eq!(changes.len(), 1);
        match &changes[0] {
            AbstractChange::AddRule(r) => {
                assert_eq!(r.owner, OWNER);
                assert_eq!(r.victim, victim());
                assert_eq!(r.signal(), Some(StellarSignal::drop_udp_src(123)));
            }
            other => panic!("expected add, got {other:?}"),
        }
        assert_eq!(c.rule_count(), 1);
        // Re-announcing the same state is idempotent.
        let changes =
            c.process_update(&update_with_signals(&[StellarSignal::drop_udp_src(123)], 1));
        assert!(changes.is_empty());
    }

    #[test]
    fn signal_change_swaps_rules() {
        let mut c = BlackholingController::new(IXP);
        c.process_update(&update_with_signals(
            &[StellarSignal::shape_udp_src(123, 200)],
            1,
        ));
        // Member escalates from shaping to dropping (the Fig. 10c story).
        let changes =
            c.process_update(&update_with_signals(&[StellarSignal::drop_udp_src(123)], 1));
        assert_eq!(changes.len(), 2);
        assert!(matches!(changes[0], AbstractChange::RemoveRule { .. }));
        match &changes[1] {
            AbstractChange::AddRule(r) => assert_eq!(r.action(), RuleAction::Drop),
            other => panic!("expected add, got {other:?}"),
        }
        assert_eq!(c.rule_count(), 1);
    }

    #[test]
    fn withdrawal_removes_all_rules_for_the_path() {
        let mut c = BlackholingController::new(IXP);
        c.process_update(&update_with_signals(
            &[
                StellarSignal::drop_udp_src(123),
                StellarSignal::drop_udp_src(53),
            ],
            1,
        ));
        assert_eq!(c.rule_count(), 2);
        let w = UpdateMessage {
            withdrawn: vec![Nlri::with_path_id(victim(), 1)],
            ..Default::default()
        };
        let changes = c.process_update(&w);
        assert_eq!(changes.len(), 2);
        assert!(changes
            .iter()
            .all(|ch| matches!(ch, AbstractChange::RemoveRule { owner, .. } if *owner == OWNER)));
        assert_eq!(c.rule_count(), 0);
    }

    #[test]
    fn reannounce_without_signals_clears_rules() {
        let mut c = BlackholingController::new(IXP);
        c.process_update(&update_with_signals(&[StellarSignal::drop_udp_src(123)], 1));
        let changes = c.process_update(&update_with_signals(&[], 1));
        assert_eq!(changes.len(), 1);
        assert!(matches!(changes[0], AbstractChange::RemoveRule { .. }));
        assert_eq!(c.rule_count(), 0);
    }

    #[test]
    fn distinct_paths_hold_distinct_rules() {
        let mut c = BlackholingController::new(IXP);
        c.process_update(&update_with_signals(&[StellarSignal::drop_udp_src(123)], 1));
        c.process_update(&update_with_signals(&[StellarSignal::drop_udp_src(53)], 2));
        assert_eq!(c.rule_count(), 2);
        // Withdrawing path 1 leaves path 2 intact.
        let w = UpdateMessage {
            withdrawn: vec![Nlri::with_path_id(victim(), 1)],
            ..Default::default()
        };
        c.process_update(&w);
        assert_eq!(c.rule_count(), 1);
    }

    #[test]
    fn session_down_flushes_everything() {
        let mut c = BlackholingController::new(IXP);
        c.process_update(&update_with_signals(&[StellarSignal::drop_udp_src(123)], 1));
        c.process_update(&update_with_signals(&[StellarSignal::drop_udp_src(53)], 2));
        let changes = c.session_down();
        assert_eq!(changes.len(), 2);
        assert_eq!(c.rule_count(), 0);
        assert!(c.session_down().is_empty());
    }

    #[test]
    fn predefined_reference_resolves_through_portal() {
        let mut c = BlackholingController::new(IXP);
        let id = crate::portal::CustomerPortal::predefined_id(
            stellar_net::amplification::AmpProtocol::Ntp,
        );
        let reference = crate::portal::CustomerPortal::reference_signal(id);
        let changes = c.process_update(&update_with_signals(&[reference], 1));
        assert_eq!(changes.len(), 1);
        match &changes[0] {
            AbstractChange::AddRule(r) => {
                assert_eq!(r.signal(), Some(StellarSignal::drop_udp_src(123)));
            }
            other => panic!("expected add, got {other:?}"),
        }
    }

    #[test]
    fn refused_rule_leaves_desired_state() {
        let mut c = BlackholingController::new(IXP);
        c.process_update(&update_with_signals(
            &[
                StellarSignal::drop_udp_src(123),
                StellarSignal::drop_udp_src(53),
            ],
            1,
        ));
        assert_eq!(c.rule_count(), 2);
        let refused = c.desired_rules()[0].id;
        assert!(c.rule_refused(refused));
        assert_eq!(c.rule_count(), 1);
        assert!(c.desired_rules().iter().all(|r| r.id != refused));
        // Unknown ids are reported as such.
        assert!(!c.rule_refused(refused));
    }

    #[test]
    fn owner_view_is_the_full_snapshot_filtered() {
        let mut c = BlackholingController::new(IXP);
        // Adjacent ASNs, the largest ASN, two paths for one owner, and a
        // path with no origin AS (answers to Asn(0)).
        for (path_id, owner, ports) in [
            (1u32, Some(OWNER), &[123u16, 53][..]),
            (2, Some(Asn(OWNER.0 + 1)), &[123][..]),
            (3, Some(Asn(u32::MAX)), &[19, 389][..]),
            (4, Some(OWNER), &[11211][..]),
            (5, None, &[161][..]),
        ] {
            let mut path = PathRules {
                owner,
                ..Default::default()
            };
            for port in ports {
                path.rules
                    .insert(StellarSignal::drop_udp_src(*port), c.next_rule_id);
                c.next_rule_id += 1;
            }
            c.paths.insert((victim(), Some(path_id)), path);
        }
        let all = c.desired_rules();
        assert_eq!(all.len(), 7);
        for (owner, rules) in [
            (OWNER, 3),
            (Asn(OWNER.0 + 1), 1),
            (Asn(u32::MAX), 2),
            (Asn(0), 1),
            (Asn(OWNER.0 - 1), 0),
            (Asn(OWNER.0 + 2), 0),
        ] {
            let mut view: Vec<_> = c.desired_rules_of(&[owner]).collect();
            view.sort_by_key(|r| r.id);
            let filtered: Vec<_> = all.iter().filter(|r| r.owner == owner).cloned().collect();
            assert_eq!(view, filtered, "{owner:?}");
            assert_eq!(view.len(), rules, "{owner:?}");
        }
        let mut ids: Vec<u64> = c.desired_ids().collect();
        ids.sort_unstable();
        assert_eq!(ids, all.iter().map(|r| r.id).collect::<Vec<_>>());
        assert_eq!(ids.len(), c.rule_count());
    }

    #[test]
    fn degrade_rule_walks_the_ladder_in_place() {
        let mut c = BlackholingController::new(IXP);
        c.process_update(&update_with_signals(&[StellarSignal::drop_udp_src(123)], 1));
        let id = c.desired_rules()[0].id;
        // 3 criteria → 2: widen to all-UDP, same id.
        match c.degrade_rule(id) {
            DegradeOutcome::Degraded(r) => {
                assert_eq!(r.id, id);
                assert!(
                    matches!(r.matcher, RuleMatcher::Signal(s) if s.kind == crate::signal::MatchKind::AllUdp)
                );
                assert_eq!(r.victim, victim());
                assert_eq!(r.owner, OWNER);
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(c.rule_count(), 1);
        // 2 → 1: RTBH-style drop-all.
        match c.degrade_rule(id) {
            DegradeOutcome::Degraded(r) => assert_eq!(r.signal(), Some(StellarSignal::drop_all())),
            other => panic!("expected Degraded, got {other:?}"),
        }
        // Bottom of the ladder: the rule leaves desired state.
        assert_eq!(c.degrade_rule(id), DegradeOutcome::Exhausted);
        assert_eq!(c.rule_count(), 0);
        assert_eq!(c.degrade_rule(id), DegradeOutcome::Unknown);
    }

    #[test]
    fn degrade_merges_into_existing_coarser_rule() {
        let mut c = BlackholingController::new(IXP);
        c.process_update(&update_with_signals(
            &[
                StellarSignal::drop_udp_src(123),
                StellarSignal {
                    kind: crate::signal::MatchKind::AllUdp,
                    port: 0,
                    action: RuleAction::Drop,
                },
            ],
            1,
        ));
        let fine = c
            .desired_rules()
            .into_iter()
            .find(|r| r.signal() == Some(StellarSignal::drop_udp_src(123)))
            .unwrap();
        assert_eq!(c.degrade_rule(fine.id), DegradeOutcome::Merged);
        assert_eq!(c.rule_count(), 1);
    }

    #[test]
    fn every_mutator_stamps_the_owners_it_changed_and_nothing_else() {
        let mut c = BlackholingController::new(IXP);
        let other = Asn(OWNER.0 + 1);
        let ntp = [StellarSignal::drop_udp_src(123)];
        assert_eq!((c.version(), c.owner_revision(OWNER)), (0, 0));
        let mut version = 0;
        // Did the last call move the plane, and was it OWNER's change?
        let mut moved = |c: &BlackholingController| {
            let moved = c.version() > version;
            version = c.version();
            assert_eq!(c.owner_revision(other), 0, "nobody touched {other:?}");
            moved && c.owner_revision(OWNER) == version
        };
        c.process_update(&update_with_signals(&ntp, 1));
        assert!(moved(&c));
        // Re-announcing the same state changes nothing.
        c.process_update(&update_with_signals(&ntp, 1));
        assert!(!moved(&c));
        let id = c.desired_rules()[0].id;
        assert!(!c.rule_refused(id + 1));
        assert_eq!(c.degrade_rule(id + 1), DegradeOutcome::Unknown);
        assert!(!moved(&c));
        assert!(matches!(c.degrade_rule(id), DegradeOutcome::Degraded(_)));
        assert!(moved(&c));
        assert!(c.rule_refused(id));
        assert!(moved(&c));
        assert!(c.session_down().is_empty());
        assert!(!moved(&c));
        c.process_update(&update_with_signals(&ntp, 1));
        assert!(moved(&c));
        assert_eq!(c.session_down().len(), 1);
        assert!(moved(&c));
    }

    #[test]
    fn a_path_changing_hands_stamps_both_owners() {
        let mut c = BlackholingController::new(IXP);
        let other = Asn(OWNER.0 + 1);
        let ntp = [StellarSignal::drop_udp_src(123)];
        c.process_update(&update_with_signals(&ntp, 1));
        let before = c.version();
        // Same path, same signals, another origin AS: no change is
        // emitted, but the rule now answers to someone else.
        let mut u = update_with_signals(&ntp, 1);
        u.attrs.retain(|a| !matches!(a, PathAttribute::AsPath(_)));
        u.attrs
            .push(PathAttribute::AsPath(AsPath::sequence([other.0])));
        assert!(c.process_update(&u).is_empty());
        assert_eq!(c.desired_rules()[0].owner, other);
        assert!(c.owner_revision(OWNER) > before);
        assert!(c.owner_revision(other) > before);
    }

    #[test]
    fn update_without_origin_as_is_inert() {
        let mut c = BlackholingController::new(IXP);
        let mut u = update_with_signals(&[StellarSignal::drop_udp_src(123)], 1);
        u.attrs.retain(|a| !matches!(a, PathAttribute::AsPath(_)));
        u.attrs.push(PathAttribute::AsPath(AsPath::empty()));
        let changes = c.process_update(&u);
        assert!(changes.is_empty());
        assert_eq!(c.rule_count(), 0);
    }
}
