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

use crate::audit::SpecOf;
use crate::desired::{Entry, Payload, Source, Table};
use crate::portal::CustomerPortal;
use crate::rule::{BlackholingRule, RuleAction};
use crate::signal::StellarSignal;
use std::collections::HashMap;
use stellar_bgp::attr::AsPath;
use stellar_bgp::types::Asn;
use stellar_bgp::update::UpdateMessage;
use stellar_net::prefix::Prefix;

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

/// Where a path is announced: its prefix and ADD-PATH id.
type PathKey = (Prefix, Option<u32>);

impl Source for PathKey {
    const LEAST: Self = (Prefix::MIN, None);
}

/// A path's rule keeps its signal; the path's prefix scopes it.
impl Payload<PathKey> for StellarSignal {
    fn spec<'a>(&'a self, (prefix, _): &PathKey) -> SpecOf<'a> {
        SpecOf::Signal(*self, *prefix)
    }

    fn action(&self) -> RuleAction {
        self.action
    }

    fn rule(&self, id: u64, owner: Asn, (prefix, _): &PathKey) -> BlackholingRule {
        BlackholingRule::from_signal(id, owner, *prefix, *self)
    }
}

/// The blackholing controller.
pub struct BlackholingController {
    ixp_asn: Asn,
    portal: CustomerPortal,
    /// Each path's rules, under the origin AS of its last announcement
    /// (a path without one holds no rule).
    table: Table<PathKey, StellarSignal>,
    /// The owner of every path in `table`, for withdrawals, which name
    /// the path only. It may also name the last owner of a path whose
    /// rules were all refused or degraded away; withdrawing that path
    /// then removes nothing.
    owners: HashMap<PathKey, Asn>,
}

impl BlackholingController {
    /// Creates a controller with the IXP's standard rule catalog.
    pub fn new(ixp_asn: Asn) -> Self {
        BlackholingController {
            ixp_asn,
            portal: CustomerPortal::with_standard_catalog(ixp_asn),
            table: Table::new(1),
            owners: HashMap::new(),
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
        self.table.count()
    }

    /// The desired signal rules, by owner and path.
    pub(crate) fn table(&self) -> &Table<PathKey, StellarSignal> {
        &self.table
    }

    /// Processes one update from the route server's southbound feed and
    /// returns the abstract configuration changes it implies.
    pub fn process_update(&mut self, update: &UpdateMessage) -> Vec<AbstractChange> {
        let mut changes = Vec::new();
        // Withdrawals: every rule attached to the path goes away —
        // including the implicit-withdraw-on-session-failure case, where
        // the route server withdraws on the member's behalf (§4.2.1).
        for w in update.withdrawals() {
            self.drop_path((w.prefix, w.path_id), &mut changes);
        }
        // Announcements: diff desired signals against installed rules.
        let owner = update.as_path().and_then(AsPath::origin_as);
        let ecs = update.extended_communities();
        for (n, _) in update.announcements() {
            let key = (n.prefix, n.path_id);
            let Some(owner) = owner else {
                // No origin AS: cannot attribute rules; treat as plain
                // route (and drop any stale rules for the path).
                self.drop_path(key, &mut changes);
                continue;
            };
            let desired = StellarSignal::extract(ecs, self.ixp_asn, &self.portal, owner);
            if let Some(previous) = self.owners.insert(key, owner) {
                // The path's surviving rules change hands without a
                // change being emitted for them.
                self.table.rehome(key, previous, owner);
            }
            let rules = self.table.replace(owner, key, desired, &mut changes);
            if rules.is_empty() {
                // Plain route with no rules: no need to track it.
                self.owners.remove(&key);
            }
        }
        changes
    }

    /// Forgets the path under `key`, queuing the removal of its rules in
    /// rule-id order.
    fn drop_path(&mut self, key: PathKey, changes: &mut Vec<AbstractChange>) {
        if let Some(owner) = self.owners.remove(&key) {
            self.table.replace(owner, key, Vec::new(), changes);
        }
    }

    /// A snapshot of every rule the controller currently wants installed,
    /// sorted by rule id. This is the desired-state side of the
    /// reconciliation diff.
    pub fn desired_rules(&self) -> Vec<BlackholingRule> {
        self.table.rules()
    }

    /// Admission control permanently refused `rule_id`: drop it from
    /// desired state so `rule_count()` and telemetry reflect what is
    /// actually in hardware, and the reconciler does not keep trying to
    /// repair an uninstallable rule. Returns whether the id was known.
    pub fn rule_refused(&mut self, rule_id: u64) -> bool {
        self.table.rewrite(rule_id, |_, _| None).is_some()
    }

    /// Steps `rule_id` one rung down the degradation ladder
    /// ([`StellarSignal::degrade`]), keeping the same rule id so
    /// telemetry references stay valid. Desired state is updated in
    /// place; the caller installs the returned coarser rule.
    pub fn degrade_rule(&mut self, rule_id: u64) -> DegradeOutcome {
        // A coarser signal the path already holds takes over the traffic.
        let step = |signal: &StellarSignal, path: &[Entry<StellarSignal>]| {
            signal
                .degrade()
                .filter(|next| path.iter().all(|e| e.rule != *next))
        };
        match self.table.rewrite(rule_id, step) {
            None => DegradeOutcome::Unknown,
            Some((_, Some(coarser))) => DegradeOutcome::Degraded(coarser),
            Some((signal, None)) if signal.degrade().is_none() => DegradeOutcome::Exhausted,
            Some(_) => DegradeOutcome::Merged,
        }
    }

    /// The iBGP session to the route server died: fall back to plain
    /// forwarding by removing every rule (availability first, §4.1.2).
    pub fn session_down(&mut self) -> Vec<AbstractChange> {
        self.owners.clear();
        self.table.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{RuleAction, RuleMatcher};
    use proptest::prelude::*;
    use stellar_bgp::attr::PathAttribute;
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
    fn owner_view_is_the_full_snapshot_filtered() {
        let mut c = BlackholingController::new(IXP);
        // Adjacent ASNs, the largest ASN, two paths for one owner, and a
        // path with no origin AS (holds no rule).
        for (slot, owner, ports) in [
            (0, Some(OWNER), &[123u16, 53][..]),
            (1, Some(Asn(OWNER.0 + 1)), &[123][..]),
            (2, Some(Asn(u32::MAX)), &[19, 389][..]),
            (3, Some(OWNER), &[11211][..]),
            (4, None, &[161][..]),
        ] {
            let signals: Vec<_> = ports
                .iter()
                .map(|p| StellarSignal::drop_udp_src(*p))
                .collect();
            c.process_update(&announce(owner, slot, &signals));
        }
        let all = c.desired_rules();
        assert_eq!(all.len(), 6);
        for (owner, rules) in [
            (OWNER, 3),
            (Asn(OWNER.0 + 1), 1),
            (Asn(u32::MAX), 2),
            (Asn(0), 0),
            (Asn(OWNER.0 - 1), 0),
            (Asn(OWNER.0 + 2), 0),
        ] {
            let mut view: Vec<_> = c.table().rules_of(owner).collect();
            view.sort_by_key(|r| r.id);
            let filtered: Vec<_> = all.iter().filter(|r| r.owner == owner).cloned().collect();
            assert_eq!(view, filtered, "{owner:?}");
            assert_eq!(view.len(), rules, "{owner:?}");
        }
        let t = c.table();
        let mut ids: Vec<u64> = t.owners().flat_map(|o| t.ids_of(o)).collect();
        ids.sort_unstable();
        assert_eq!(ids, all.iter().map(|r| r.id).collect::<Vec<_>>());
        assert_eq!(ids.len(), c.rule_count());
    }

    #[test]
    fn every_mutator_stamps_the_owners_it_changed_and_nothing_else() {
        let mut c = BlackholingController::new(IXP);
        let other = Asn(OWNER.0 + 1);
        let ntp = [StellarSignal::drop_udp_src(123)];
        assert_eq!((c.table().version(), c.table().revision(OWNER)), (0, 0));
        let mut version = 0;
        // Did the last call move the plane, and was it OWNER's change?
        let mut moved = |c: &BlackholingController| {
            let moved = c.table().version() > version;
            version = c.table().version();
            assert_eq!(c.table().revision(other), 0, "nobody touched {other:?}");
            moved && c.table().revision(OWNER) == version
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
        let before = c.table().version();
        // Same path, same signals, another origin AS: no change is
        // emitted, but the rule now answers to someone else.
        let mut u = update_with_signals(&ntp, 1);
        u.attrs.retain(|a| !matches!(a, PathAttribute::AsPath(_)));
        u.attrs
            .push(PathAttribute::AsPath(AsPath::sequence([other.0])));
        assert!(c.process_update(&u).is_empty());
        assert_eq!(c.desired_rules()[0].owner, other);
        assert!(c.table().revision(OWNER) > before);
        assert!(c.table().revision(other) > before);
    }

    /// One step of the random episodes below. Owners
    /// are indexes into `[None, 64500, 64501, 64502]` (`None`: no origin
    /// AS), slots into three prefixes × two path ids, picks into the
    /// desired rules by id (an unknown id when there is none).
    #[derive(Debug, Clone)]
    enum Op {
        /// Announce the [`signals`] of `bits` (none: a plain route) on
        /// `slot`.
        Announce {
            owner: usize,
            slot: usize,
            bits: u8,
        },
        /// Re-announce the path on `slot` with its signals unchanged, by
        /// another origin AS.
        Rehome {
            slot: usize,
            owner: usize,
        },
        Withdraw {
            slot: usize,
        },
        Refuse {
            pick: usize,
        },
        Degrade {
            pick: usize,
        },
        SessionDown,
    }

    /// Signals on every rung of the degradation ladder, so that a
    /// degradation can merge or exhaust one: each bit of `bits` picks one.
    fn signals(bits: u8) -> Vec<StellarSignal> {
        let all_udp = StellarSignal {
            kind: crate::signal::MatchKind::AllUdp,
            port: 0,
            action: RuleAction::Drop,
        };
        let ladder = [
            StellarSignal::drop_udp_src(53),
            StellarSignal::drop_udp_src(123),
            all_udp,
            StellarSignal::drop_all(),
        ];
        let picked = ladder.into_iter().enumerate();
        picked
            .filter(|(i, _)| bits >> i & 1 == 1)
            .map(|(_, s)| s)
            .collect()
    }

    fn asn(owner: usize) -> Option<Asn> {
        [None, Some(OWNER), Some(Asn(64501)), Some(Asn(64502))][owner % 4]
    }

    fn slot_key(slot: usize) -> PathKey {
        let prefix = ["100.10.10.10/32", "100.10.10.11/32", "100.10.11.10/32"][slot % 3];
        (prefix.parse().unwrap(), Some((slot / 3) as u32))
    }

    fn announce(owner: Option<Asn>, slot: usize, signals: &[StellarSignal]) -> UpdateMessage {
        let (prefix, path_id) = slot_key(slot);
        let as_path = owner.map_or_else(AsPath::empty, |o| AsPath::sequence([o.0]));
        let mut u = UpdateMessage::announce(
            prefix,
            Ipv4Address::new(80, 81, 192, 10),
            PathAttribute::AsPath(as_path),
        );
        u.nlri = vec![Nlri { prefix, path_id }];
        let ecs: Vec<_> = signals.iter().map(|s| s.encode(IXP)).collect();
        if !ecs.is_empty() {
            u.add_extended_communities(&ecs);
        }
        u
    }

    /// The owner and signals of the path on `slot`, if it holds rules.
    fn held(c: &BlackholingController, slot: usize) -> Option<(Asn, Vec<StellarSignal>)> {
        let key = slot_key(slot);
        let owner = *c.owners.get(&key)?;
        let (_, rules) = c.table.sources_of(owner).find(|(k, _)| **k == key)?;
        Some((owner, rules.iter().map(|e| e.rule).collect()))
    }

    /// Who re-announces a path held by `current` under [`Op::Rehome`]:
    /// another of owners 1..=3 (an origin AS).
    fn rehomed(current: Option<Asn>, owner: usize) -> Option<Asn> {
        let mut others = (0..3).map(|o| asn(1 + (owner + o) % 3));
        others.find(|o| *o != current).flatten()
    }

    fn apply(c: &mut BlackholingController, op: &Op) {
        let pick = |c: &BlackholingController, pick: usize| {
            let ids: Vec<u64> = c.desired_rules().iter().map(|r| r.id).collect();
            ids.get(pick % ids.len().max(1))
                .copied()
                .unwrap_or(pick as u64)
        };
        match *op {
            Op::Announce { owner, slot, bits } => {
                c.process_update(&announce(asn(owner), slot, &signals(bits)));
            }
            Op::Rehome { slot, owner } => {
                let (current, signals) = held(c, slot).unzip();
                c.process_update(&announce(
                    rehomed(current, owner),
                    slot,
                    &signals.unwrap_or_default(),
                ));
            }
            Op::Withdraw { slot } => {
                let (prefix, path_id) = slot_key(slot);
                c.process_update(&UpdateMessage {
                    withdrawn: vec![Nlri { prefix, path_id }],
                    ..Default::default()
                });
            }
            Op::Refuse { pick: p } => {
                let id = pick(c, p);
                c.rule_refused(id);
            }
            Op::Degrade { pick: p } => {
                let id = pick(c, p);
                c.degrade_rule(id);
            }
            Op::SessionDown => {
                c.session_down();
            }
        }
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let announce = (0usize..4, 0usize..6, any::<u8>())
            .prop_map(|(owner, slot, bits)| Op::Announce { owner, slot, bits })
            .boxed();
        prop_oneof![
            announce.clone(),
            announce,
            (0usize..6, 0usize..4).prop_map(|(slot, owner)| Op::Rehome { slot, owner }),
            (0usize..6).prop_map(|slot| Op::Withdraw { slot }),
            any::<usize>().prop_map(|pick| Op::Refuse { pick }),
            any::<usize>().prop_map(|pick| Op::Degrade { pick }),
            Just(Op::SessionDown),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// After every step of a random episode, every path's rules are
        /// filed under the origin AS of its last announcement, and the
        /// path map names that owner; withdrawing every path then leaves
        /// no rule behind.
        #[test]
        fn paths_answer_to_their_last_origin(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let mut c = BlackholingController::new(IXP);
            let mut origin: HashMap<PathKey, Asn> = HashMap::new();
            for op in &ops {
                match *op {
                    Op::Announce { owner, slot, .. } => match asn(owner) {
                        Some(owner) => origin.insert(slot_key(slot), owner),
                        None => origin.remove(&slot_key(slot)),
                    },
                    Op::Rehome { slot, owner } => match held(&c, slot) {
                        Some((current, _)) => origin.insert(slot_key(slot), rehomed(Some(current), owner).unwrap_or(current)),
                        None => origin.remove(&slot_key(slot)),
                    },
                    Op::Withdraw { slot } => origin.remove(&slot_key(slot)),
                    Op::SessionDown => {
                        origin.clear();
                        None
                    }
                    Op::Refuse { .. } | Op::Degrade { .. } => None,
                };
                apply(&mut c, op);
                for owner in c.table.owners() {
                    for (key, _) in c.table.sources_of(owner) {
                        prop_assert_eq!(origin.get(key), Some(&owner), "{:?} after {:?}", key, op);
                        prop_assert_eq!(c.owners.get(key), Some(&owner), "{:?} after {:?}", key, op);
                    }
                }
            }
            for slot in 0..6 {
                apply(&mut c, &Op::Withdraw { slot });
            }
            prop_assert_eq!(c.rule_count(), 0);
        }

        /// After every step of a random episode, each owner's view of
        /// the controller's table — its rules, its ids, whether it is a
        /// desired owner — equals the full snapshot filtered by owner.
        #[test]
        fn owner_views_are_the_filter_over_all_paths(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let mut c = BlackholingController::new(IXP);
            let asked: Vec<Asn> = (0..4).map(|o| asn(o).unwrap_or(Asn(0))).collect();
            for op in &ops {
                apply(&mut c, op);
                let all = c.desired_rules();
                let t = c.table();
                for owner in &asked {
                    let mut view: Vec<_> = t.rules_of(*owner).collect();
                    view.sort_by_key(|r| r.id);
                    let filtered: Vec<_> = all.iter().filter(|r| r.owner == *owner).cloned().collect();
                    let mut ids: Vec<_> = t.ids_of(*owner).collect();
                    ids.sort_unstable();
                    let want: Vec<_> = filtered.iter().map(|r| r.id).collect();
                    prop_assert_eq!(view, filtered, "{:?} after {:?}", owner, op);
                    prop_assert_eq!(ids, want, "{:?} after {:?}", owner, op);
                }
                let mut every: Vec<_> = asked.iter().flat_map(|o| t.rules_of(*o)).collect();
                every.sort_by_key(|r| r.id);
                prop_assert_eq!(&every, &all, "all owners after {:?}", op);
                let mut owners: Vec<Asn> = all.iter().map(|r| r.owner).collect();
                owners.sort_unstable();
                owners.dedup();
                prop_assert_eq!(t.owners().collect::<Vec<_>>(), owners, "owners after {:?}", op);
            }
        }

        /// After every step of a random episode, every rule's cached
        /// region is the region of its spec (the signal scoped to the
        /// path's prefix), and the kept rule count is the number of
        /// desired rules.
        #[test]
        fn cached_regions_are_their_rules_regions(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let mut c = BlackholingController::new(IXP);
            for op in &ops {
                apply(&mut c, op);
                let t = c.table();
                for rule in t.owners().flat_map(|o| t.standing_of(o)) {
                    prop_assert!(rule.region_is_current(), "rule {} after {:?}", rule.id, op);
                }
                prop_assert_eq!(c.rule_count(), c.desired_rules().len(), "after {:?}", op);
            }
        }
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
