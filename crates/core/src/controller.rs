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

use crate::audit::{SpecOf, Standing};
use crate::portal::CustomerPortal;
use crate::rule::BlackholingRule;
use crate::signal::StellarSignal;
use std::collections::{BTreeSet, HashMap};
use stellar_bgp::attr::AsPath;
use stellar_bgp::types::Asn;
use stellar_bgp::update::UpdateMessage;
use stellar_classify::set::Region;
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

/// One signal rule of a path: the signal, its rule id, and the region
/// of the signal scoped to the path's prefix — built when the rule
/// enters desired state (or changes signal), and read by every audit
/// of its owner from then on.
#[derive(Debug)]
struct SignalRule {
    signal: StellarSignal,
    id: u64,
    region: Region<'static>,
}

impl SignalRule {
    fn new(signal: StellarSignal, id: u64, prefix: Prefix) -> Self {
        SignalRule {
            signal,
            id,
            region: Region::owned(&signal.to_match_spec(prefix)),
        }
    }
}

/// One announced path's blackholing state.
#[derive(Debug, Default)]
struct PathRules {
    owner: Option<Asn>,
    /// The path's rules, one per signal, in no particular order.
    rules: Vec<SignalRule>,
}

impl PathRules {
    /// Who the path's rules answer to; a path without an origin AS
    /// answers to `Asn(0)`.
    fn owner(&self) -> Asn {
        self.owner.unwrap_or(Asn(0))
    }

    /// The ids of the path's rules, in no particular order.
    fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.rules.iter().map(|r| r.id)
    }

    fn holds(&self, signal: StellarSignal) -> bool {
        self.rules.iter().any(|r| r.signal == signal)
    }

    /// The path's rules as the managers want them, for `prefix`.
    fn desired(&self, prefix: Prefix) -> impl Iterator<Item = BlackholingRule> + '_ {
        let owner = self.owner();
        self.rules
            .iter()
            .map(move |r| BlackholingRule::from_signal(r.id, owner, prefix, r.signal))
    }

    /// The path's rules as the audit reads them, in place, for `prefix`.
    fn standing(&self, prefix: Prefix) -> impl Iterator<Item = Standing<'_>> + '_ {
        self.rules.iter().map(move |r| Standing {
            id: r.id,
            action: r.signal.action,
            region: &r.region,
            spec: SpecOf::Signal(r.signal, prefix),
        })
    }
}

/// Where a path is announced: its prefix and ADD-PATH id.
type PathKey = (Prefix, Option<u32>);

/// The tracked paths of each owner, so that one owner's view costs that
/// owner's paths. Exact: every tracked path under the owner its rules
/// answer to, no other entry, no owner without a path.
#[derive(Debug, Default)]
struct ByOwner(HashMap<Asn, Vec<PathKey>>);

impl ByOwner {
    /// Moves `key` from `from`'s paths to `to`'s (`None`: not tracked on
    /// that side) — the one place the index changes.
    fn refile(&mut self, key: PathKey, from: Option<Asn>, to: Option<Asn>) {
        if from == to {
            return;
        }
        if let Some(from) = from {
            if let Some(keys) = self.0.get_mut(&from) {
                if let Some(at) = keys.iter().position(|k| *k == key) {
                    keys.swap_remove(at);
                }
                if keys.is_empty() {
                    self.0.remove(&from);
                }
            }
        }
        if let Some(to) = to {
            self.0.entry(to).or_default().push(key);
        }
    }

    /// The paths `owner` answers for, in no particular order.
    fn paths(&self, owner: Asn) -> &[PathKey] {
        self.0.get(&owner).map_or(&[], Vec::as_slice)
    }
}

/// The blackholing controller.
pub struct BlackholingController {
    ixp_asn: Asn,
    portal: CustomerPortal,
    paths: HashMap<PathKey, PathRules>,
    by_owner: ByOwner,
    /// Rules over all paths, kept by every mutator that adds or drops
    /// one.
    rules: usize,
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
            by_owner: ByOwner::default(),
            rules: 0,
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

    /// Total rules the controller believes are installed: a count kept
    /// by the mutators, which debug builds check against the sum over
    /// every path.
    pub fn rule_count(&self) -> usize {
        debug_assert_eq!(
            self.rules,
            self.paths.values().map(|p| p.rules.len()).sum::<usize>(),
            "rule count diverged"
        );
        self.rules
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
            let path = self.paths.entry(key).or_default();
            // Tracked paths hold rules: one without is new here.
            let filed = (!path.rules.is_empty()).then(|| path.owner());
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
            let mut stale: Vec<u64> = Vec::new();
            path.rules.retain(|r| {
                let keep = desired.contains(&r.signal);
                if !keep {
                    stale.push(r.id);
                }
                keep
            });
            self.rules -= stale.len();
            stale.sort_unstable();
            for rule_id in stale {
                changes.push(AbstractChange::RemoveRule { rule_id, owner });
            }
            // Additions: desired but not installed (a new path's rules
            // are sized to what it is asked for).
            if path.rules.is_empty() {
                path.rules.reserve_exact(desired.len());
            }
            for s in desired {
                if path.holds(s) {
                    continue;
                }
                let id = self.next_rule_id;
                self.next_rule_id += 1;
                path.rules.push(SignalRule::new(s, id, n.prefix));
                self.rules += 1;
                changes.push(AbstractChange::AddRule(BlackholingRule::from_signal(
                    id, owner, n.prefix, s,
                )));
            }
            let kept = (!path.rules.is_empty()).then_some(owner);
            if kept.is_none() {
                // Plain route with no rules: no need to track it.
                self.paths.remove(&key);
            }
            self.by_owner.refile(key, filed, kept);
        }
        for change in &changes {
            self.stamps.touch(change.owner());
        }
        changes
    }

    /// Forgets the path under `key`, queuing the removal of its rules in
    /// rule-id order (rule maps are hash maps with per-instance seeds).
    fn drop_path(&mut self, key: PathKey, changes: &mut Vec<AbstractChange>) {
        let Some(path) = self.paths.remove(&key) else {
            return;
        };
        let owner = path.owner();
        self.by_owner.refile(key, Some(owner), None);
        self.rules -= path.rules.len();
        let mut ids: Vec<u64> = path.ids().collect();
        ids.sort_unstable();
        let removals = ids
            .into_iter()
            .map(|rule_id| AbstractChange::RemoveRule { rule_id, owner });
        changes.extend(removals);
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

    /// Whether the by-owner index files every path exactly once, under
    /// its owner, and nothing else: each owner's view it answers is then
    /// the filter over all paths that debug builds compare it with. Paths
    /// without an origin AS answer to `Asn(0)`, as they do in the full
    /// snapshot. Allocates the same for the same paths in any order.
    fn index_is_exact(&self) -> bool {
        let mut filtered = Vec::with_capacity(self.paths.len());
        filtered.extend(self.paths.iter().map(|(key, path)| (path.owner(), *key)));
        let mut indexed = Vec::with_capacity(self.paths.len());
        for (owner, keys) in &self.by_owner.0 {
            indexed.extend(keys.iter().map(|key| (*owner, *key)));
        }
        filtered.sort_unstable();
        indexed.sort_unstable();
        filtered == indexed && self.by_owner.0.values().all(|keys| !keys.is_empty())
    }

    /// The announced paths answering to the `owners` (each named once),
    /// read off the by-owner index: the cost of those owners' paths.
    fn paths_of<'a>(
        &'a self,
        owners: impl IntoIterator<Item = Asn> + 'a,
    ) -> impl Iterator<Item = (Prefix, &'a PathRules)> + 'a {
        debug_assert!(self.index_is_exact(), "by-owner index diverged");
        let keys = owners.into_iter().flat_map(|o| self.by_owner.paths(o));
        keys.filter_map(|key| Some((key.0, self.paths.get(key)?)))
    }

    /// The rules the `owners` (each named once) currently want
    /// installed, in no particular order: [`Self::desired_rules`]
    /// restricted to those owners without building anyone else's rules.
    pub(crate) fn desired_rules_of<'a>(
        &'a self,
        owners: impl IntoIterator<Item = &'a Asn> + 'a,
    ) -> impl Iterator<Item = BlackholingRule> + 'a {
        self.paths_of(owners.into_iter().copied())
            .flat_map(|(prefix, path)| path.desired(prefix))
    }

    /// `owner`'s rules as the admission audit reads them — each with the
    /// region built when it entered desired state — in no particular
    /// order.
    pub(crate) fn standing_of(&self, owner: Asn) -> impl Iterator<Item = Standing<'_>> + '_ {
        let paths = self.paths_of([owner]);
        paths.flat_map(|(prefix, path)| path.standing(prefix))
    }

    /// Every rule with its cached region — for the checks that hold
    /// each against the region of its spec.
    #[cfg(test)]
    pub(crate) fn standing(&self) -> impl Iterator<Item = Standing<'_>> + '_ {
        let paths = self.paths.iter();
        paths.flat_map(|((prefix, _), path)| path.standing(*prefix))
    }

    /// The ids of the rules the `owners` (each named once) want, each
    /// with its owner, in no particular order — for callers that compare
    /// ids and would throw the rules of [`Self::desired_rules_of`] away.
    pub(crate) fn desired_ids_of<'a>(
        &'a self,
        owners: impl IntoIterator<Item = &'a Asn> + 'a,
    ) -> impl Iterator<Item = (Asn, u64)> + 'a {
        self.paths_of(owners.into_iter().copied())
            .flat_map(|(_, path)| path.ids().map(|id| (path.owner(), id)))
    }

    /// The owners with at least one desired rule.
    pub(crate) fn desired_owners(&self) -> BTreeSet<Asn> {
        debug_assert!(self.index_is_exact(), "by-owner index diverged");
        self.by_owner.0.keys().copied().collect()
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
        let Some((key, ..)) = self.take_rule(rule_id) else {
            return false;
        };
        self.forget_if_empty(key);
        true
    }

    /// Takes `rule_id` off the path holding it and stamps the path's
    /// owner: the path's key, the signal the rule answered, and the path,
    /// which the caller hands to [`Self::forget_if_empty`] when done.
    fn take_rule(&mut self, rule_id: u64) -> Option<(PathKey, StellarSignal, &mut PathRules)> {
        // Rule ids are unique: one path at most holds it, once.
        let mut paths = self.paths.iter_mut();
        let (key, path) = paths.find(|(_, path)| path.ids().any(|id| id == rule_id))?;
        let at = path.rules.iter().position(|r| r.id == rule_id)?;
        let signal = path.rules.swap_remove(at).signal;
        self.rules -= 1;
        self.stamps.touch(path.owner());
        Some((*key, signal, path))
    }

    /// Stops tracking the path under `key` if it holds no rule any more.
    fn forget_if_empty(&mut self, key: PathKey) {
        if self.paths.get(&key).is_some_and(|p| p.rules.is_empty()) {
            // No rule, so no removal to queue.
            self.drop_path(key, &mut Vec::new());
        }
    }

    /// Steps `rule_id` one rung down the degradation ladder
    /// ([`StellarSignal::degrade`]), keeping the same rule id so
    /// telemetry references stay valid. Desired state is updated in
    /// place; the caller installs the returned coarser rule.
    pub fn degrade_rule(&mut self, rule_id: u64) -> DegradeOutcome {
        let Some((key, signal, path)) = self.take_rule(rule_id) else {
            return DegradeOutcome::Unknown;
        };
        let owner = path.owner();
        let outcome = match signal.degrade() {
            None => DegradeOutcome::Exhausted,
            Some(next) if path.holds(next) => DegradeOutcome::Merged,
            Some(next) => {
                path.rules.push(SignalRule::new(next, rule_id, key.0));
                self.rules += 1;
                DegradeOutcome::Degraded(BlackholingRule::from_signal(rule_id, owner, key.0, next))
            }
        };
        self.forget_if_empty(key);
        outcome
    }

    /// The iBGP session to the route server died: fall back to plain
    /// forwarding by removing every rule (availability first, §4.1.2).
    pub fn session_down(&mut self) -> Vec<AbstractChange> {
        let mut changes = Vec::new();
        for (key, path) in self.paths.drain() {
            let owner = path.owner();
            self.by_owner.refile(key, Some(owner), None);
            for rule_id in path.ids() {
                changes.push(AbstractChange::RemoveRule { rule_id, owner });
            }
        }
        self.rules = 0;
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
                let signal = StellarSignal::drop_udp_src(*port);
                path.rules
                    .push(SignalRule::new(signal, c.next_rule_id, victim()));
                c.next_rule_id += 1;
                c.rules += 1;
            }
            let key = (victim(), Some(path_id));
            c.by_owner.refile(key, None, Some(path.owner()));
            c.paths.insert(key, path);
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

    /// One step of [`owner_views_are_the_filter_over_all_paths`]. Owners
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
        let prefix = ["100.10.10.10/32", "100.10.10.11/32", "2001:db8::1/128"][slot % 3];
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
                let path = c.paths.get(&slot_key(slot));
                let signals: Vec<_> =
                    path.map_or(Vec::new(), |p| p.rules.iter().map(|r| r.signal).collect());
                let current = path.map(PathRules::owner);
                // Owners 1..=3 only: a re-announcement with an origin AS.
                let mut others = (0..3).map(|o| asn(1 + (owner + o) % 3));
                let next = others.find(|o| *o != current);
                c.process_update(&announce(next.flatten(), slot, &signals));
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

        /// After every step of a random episode, each owner's indexed
        /// view — its rules, its ids, whether it is a desired owner —
        /// equals the full snapshot filtered by owner.
        #[test]
        fn owner_views_are_the_filter_over_all_paths(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let mut c = BlackholingController::new(IXP);
            let asked: Vec<Asn> = (0..5).map(|o| asn(o).unwrap_or(Asn(0))).collect();
            for op in &ops {
                apply(&mut c, op);
                let all = c.desired_rules();
                for owner in &asked {
                    let mut view: Vec<_> = c.desired_rules_of([owner]).collect();
                    view.sort_by_key(|r| r.id);
                    let filtered: Vec<_> = all.iter().filter(|r| r.owner == *owner).cloned().collect();
                    let mut ids: Vec<_> = c.desired_ids_of([owner]).collect();
                    ids.sort_unstable();
                    let want: Vec<_> = filtered.iter().map(|r| (r.owner, r.id)).collect();
                    prop_assert_eq!(view, filtered, "{:?} after {:?}", owner, op);
                    prop_assert_eq!(ids, want, "{:?} after {:?}", owner, op);
                }
                let mut every: Vec<_> = c.desired_rules_of(&asked).collect();
                every.sort_by_key(|r| r.id);
                prop_assert_eq!(&every, &all, "all owners after {:?}", op);
                let owners: BTreeSet<Asn> = all.iter().map(|r| r.owner).collect();
                prop_assert_eq!(c.desired_owners(), owners, "owners after {:?}", op);
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
                for rule in c.standing() {
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
