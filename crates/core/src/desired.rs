//! Desired state, once for both signalling planes (§4.4). A community
//! signal (§4.3) and an RFC 8955 NLRI are two encodings of one owner's
//! intent at its egress port, so the controller and the FlowSpec plane
//! each embed a [`Table`] and differ only in the payload they keep per
//! rule and in the source they file it under (an announced path, an
//! NLRI). The table keeps rule ids, per-owner change stamps (the proof
//! ledger compares them instead of tables), the rule count, and each
//! rule's canonical [`Region`], built once when the rule enters desired
//! state and read by every audit of its owner from then on.

use crate::audit::{SpecOf, Standing};
use crate::controller::AbstractChange;
use crate::rule::{BlackholingRule, RuleAction};
use std::collections::BTreeMap;
use stellar_bgp::types::Asn;
use stellar_classify::set::Region;
use stellar_routeserver::OwnerStamps;

/// What an owner's rules are filed under.
pub(crate) trait Source: Ord {
    /// Sorts before every other source: one owner's sources are the
    /// table's range from `(owner, LEAST)`.
    const LEAST: Self;
}

/// What a plane keeps per rule: enough to build it, given its source.
pub(crate) trait Payload<K>: PartialEq {
    /// Where the rule's match spec comes from.
    fn spec<'a>(&'a self, source: &K) -> SpecOf<'a>;
    /// What matching traffic gets.
    fn action(&self) -> RuleAction;
    /// The rule as the managers want it.
    fn rule(&self, id: u64, owner: Asn, source: &K) -> BlackholingRule;
}

/// One desired rule: its id (its rank — every blackholing rule compiles
/// at priority 100), the plane's payload, and the region of its spec.
#[derive(Debug)]
pub(crate) struct Entry<R> {
    pub(crate) id: u64,
    pub(crate) rule: R,
    region: Region<'static>,
}

impl<R> Entry<R> {
    fn new<K>(id: u64, rule: R, source: &K) -> Self
    where
        R: Payload<K>,
    {
        let region = Region::owned(&rule.spec(source).spec());
        Entry { id, rule, region }
    }
}

/// One plane's desired rules by `(owner, source)`. A source is filed
/// only while it holds a rule, its rules stand in id order (ids only
/// grow, and a rewrite keeps the rule's place), and every mutator that
/// changes an owner's rules stamps that owner — only those do.
#[derive(Debug)]
pub(crate) struct Table<K, R> {
    sources: BTreeMap<(Asn, K), Vec<Entry<R>>>,
    /// Kept by every mutator that adds or drops a rule.
    rules: usize,
    next_id: u64,
    stamps: OwnerStamps,
}

impl<K: Source, R: Payload<K>> Table<K, R> {
    /// An empty table whose rule ids count up from `first_id`.
    pub(crate) fn new(first_id: u64) -> Self {
        Table {
            sources: BTreeMap::new(),
            rules: 0,
            next_id: first_id,
            stamps: OwnerStamps::default(),
        }
    }

    /// Bumped by every change: unchanged version, unchanged table.
    pub(crate) fn version(&self) -> u64 {
        self.stamps.version()
    }

    /// The version at `owner`'s last change (0: never).
    pub(crate) fn revision(&self, owner: Asn) -> u64 {
        self.stamps.revision(owner)
    }

    /// The kept rule count, which debug builds check against the sum.
    pub(crate) fn count(&self) -> usize {
        let sum = || self.sources.values().map(Vec::len).sum::<usize>();
        debug_assert_eq!(self.rules, sum(), "rule count diverged");
        self.rules
    }

    /// Makes `owner`'s rules from `source` the `desired` payloads (each
    /// named once; none drops the source): queues the removal of every
    /// rule no longer desired, in id order, then the addition of every
    /// desired payload not held yet, in `desired` order under fresh ids.
    /// Returns the source's rules afterwards.
    pub(crate) fn replace(
        &mut self,
        owner: Asn,
        source: K,
        desired: Vec<R>,
        changes: &mut Vec<AbstractChange>,
    ) -> &[Entry<R>] {
        let slot = (owner, source);
        // A new source's rules are sized to what it asks for.
        let mut fresh = Vec::new();
        let rules = match self.sources.get_mut(&slot) {
            Some(rules) => rules,
            None => {
                fresh.reserve_exact(desired.len());
                &mut fresh
            }
        };
        if desired.is_empty() {
            // A withdrawal queues exactly the source's rules.
            changes.reserve_exact(rules.len());
        }
        let from = changes.len();
        rules.retain(|e| {
            let keep = desired.contains(&e.rule);
            if !keep {
                changes.push(AbstractChange::RemoveRule {
                    rule_id: e.id,
                    owner,
                });
            }
            keep
        });
        self.rules -= changes.len() - from;
        for rule in desired {
            if rules.iter().all(|e| e.rule != rule) {
                let id = self.next_id;
                changes.push(AbstractChange::AddRule(rule.rule(id, owner, &slot.1)));
                rules.push(Entry::new(id, rule, &slot.1));
                self.next_id += 1;
                self.rules += 1;
            }
        }
        if changes.len() > from {
            self.stamps.touch(owner);
        }
        if rules.is_empty() {
            self.sources.remove(&slot);
            &[]
        } else if fresh.is_empty() {
            self.sources.get(&slot).map_or(&[], Vec::as_slice)
        } else {
            self.sources.entry(slot).or_insert(fresh)
        }
    }

    /// `source`'s rules change hands from `from` to `to` as they stand —
    /// same ids, same regions, no change queued — stamping both owners.
    pub(crate) fn rehome(&mut self, source: K, from: Asn, to: Asn) {
        if from == to {
            return;
        }
        if let Some(((_, source), rules)) = self.sources.remove_entry(&(from, source)) {
            let held = self.sources.insert((to, source), rules);
            debug_assert!(held.is_none(), "a source filed under two owners");
            self.stamps.touch(from);
            self.stamps.touch(to);
        }
    }

    /// Rewrites rule `id` where it stands: `step` sees its payload and
    /// its source's rules and returns the payload to keep under the same
    /// id (its region rebuilt), or `None` to drop the rule. Returns the
    /// old payload and the rule as it now stands, if it does; `None` for
    /// an id not desired.
    pub(crate) fn rewrite(
        &mut self,
        id: u64,
        step: impl FnOnce(&R, &[Entry<R>]) -> Option<R>,
    ) -> Option<(R, Option<BlackholingRule>)> {
        let (mut step, mut done) = (Some(step), None);
        self.sources.retain(|(owner, source), rules| {
            // Ids are unique: one source holds `id`, once.
            let Some(at) = rules.iter().position(|e| e.id == id) else {
                return true;
            };
            let Some(step) = step.take() else {
                return true;
            };
            done = Some(match step(&rules[at].rule, rules) {
                Some(next) => {
                    let rule = next.rule(id, *owner, source);
                    let old = std::mem::replace(&mut rules[at], Entry::new(id, next, source));
                    (old.rule, Some(rule))
                }
                None => (rules.remove(at).rule, None),
            });
            self.stamps.touch(*owner);
            !rules.is_empty()
        });
        self.rules -= usize::from(matches!(done, Some((_, None))));
        done
    }

    /// Drops every rule, returning the removals in id order.
    pub(crate) fn flush(&mut self) -> Vec<AbstractChange> {
        let mut out = Vec::with_capacity(self.rules);
        for ((owner, _), rules) in std::mem::take(&mut self.sources) {
            out.extend(rules.iter().map(|e| AbstractChange::RemoveRule {
                rule_id: e.id,
                owner,
            }));
        }
        out.sort_unstable_by_key(AbstractChange::rule_id);
        out.iter()
            .for_each(|change| self.stamps.touch(change.owner()));
        self.rules = 0;
        out
    }

    /// Every desired rule, sorted by id.
    pub(crate) fn rules(&self) -> Vec<BlackholingRule> {
        let mut out = Vec::with_capacity(self.rules);
        out.extend(self.owners().flat_map(|owner| self.rules_of(owner)));
        out.sort_unstable_by_key(|r| r.id);
        out
    }

    /// The owners with at least one rule, ascending: one range read each.
    pub(crate) fn owners(&self) -> impl Iterator<Item = Asn> + '_ {
        let mut from = Some(Asn(0));
        std::iter::from_fn(move || {
            let ((owner, _), _) = self.sources.range((from?, K::LEAST)..).next()?;
            from = owner.0.checked_add(1).map(Asn);
            Some(*owner)
        })
    }

    /// `owner`'s sources with their rules, in source order: one range.
    pub(crate) fn sources_of(&self, owner: Asn) -> impl Iterator<Item = (&K, &[Entry<R>])> {
        let own = self.sources.range((owner, K::LEAST)..);
        let own = own.take_while(move |((o, _), _)| *o == owner);
        own.map(|((_, source), rules)| (source, rules.as_slice()))
    }

    /// The ids of `owner`'s rules, in source order.
    pub(crate) fn ids_of(&self, owner: Asn) -> impl Iterator<Item = u64> + '_ {
        self.sources_of(owner)
            .flat_map(|(_, rules)| rules.iter().map(|e| e.id))
    }

    /// `owner`'s rules as the managers want them, in source order.
    pub(crate) fn rules_of(&self, owner: Asn) -> impl Iterator<Item = BlackholingRule> + '_ {
        let sources = self.sources_of(owner);
        sources.flat_map(move |(k, rules)| rules.iter().map(move |e| e.rule.rule(e.id, owner, k)))
    }

    /// `owner`'s rules as the admission audit reads them, each with its
    /// cached region, in source order.
    pub(crate) fn standing_of(&self, owner: Asn) -> impl Iterator<Item = Standing<'_>> {
        self.sources_of(owner).flat_map(|(k, rules)| {
            rules.iter().map(move |e| Standing {
                id: e.id,
                action: e.rule.action(),
                region: &e.region,
                spec: e.rule.spec(k),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowspec::FlowRule;
    use crate::signal::{MatchKind, StellarSignal};
    use proptest::prelude::*;
    use stellar_dataplane::filter::{BitsMatch, MatchSpec, PortMatch, RangeMatch};
    use stellar_net::prefix::Prefix;
    use stellar_net::proto::IpProtocol;

    /// Adjacent ASNs and both ends of the range, so that a range read
    /// over one owner's sources that strays into a neighbour's shows.
    const OWNERS: [Asn; 4] = [Asn(0), Asn(64500), Asn(64501), Asn(u32::MAX)];

    /// One step of an episode on a table. Owners index [`OWNERS`],
    /// sources a plane's six sources, picks the desired rules by id (an
    /// unknown id when there is none).
    #[derive(Debug, Clone)]
    enum Op {
        /// Make the payloads of `bits` (none: drop the source) the
        /// source's rules.
        Replace {
            owner: usize,
            source: usize,
            bits: u8,
        },
        Remove {
            owner: usize,
            source: usize,
        },
        Rehome {
            source: usize,
            from: usize,
            to: usize,
        },
        /// Rewrite a rule to the plane's next payload (`keep`), or drop
        /// it.
        Rewrite {
            pick: usize,
            keep: bool,
        },
        Flush,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let replace = (0usize..4, 0usize..6, any::<u8>())
            .prop_map(|(owner, source, bits)| Op::Replace {
                owner,
                source,
                bits,
            })
            .boxed();
        prop_oneof![
            replace.clone(),
            replace,
            (0usize..4, 0usize..6).prop_map(|(owner, source)| Op::Remove { owner, source }),
            (0usize..6, 0usize..4, 0usize..4).prop_map(|(source, from, to)| Op::Rehome {
                source,
                from,
                to
            }),
            (any::<usize>(), any::<bool>()).prop_map(|(pick, keep)| Op::Rewrite { pick, keep }),
            Just(Op::Flush),
        ]
    }

    /// How an episode drives one plane's payload.
    struct Plane<K, R> {
        source: fn(usize) -> K,
        /// The payloads each bit of `bits` picks.
        payloads: fn(u8) -> Vec<R>,
        /// The payload a rewrite keeps a rule under, if any.
        step: fn(&R, &[Entry<R>]) -> Option<R>,
    }

    /// What `owner` holds: every source with its rules as the managers
    /// want them.
    fn snapshot<K: Source + Clone, R: Payload<K>>(
        t: &Table<K, R>,
        owner: Asn,
    ) -> Vec<(K, Vec<BlackholingRule>)> {
        let sources = t.sources_of(owner);
        let rules = |(k, rules): (&K, &[Entry<R>])| {
            let built = rules.iter().map(|e| e.rule.rule(e.id, owner, k));
            (k.clone(), built.collect())
        };
        sources.map(rules).collect()
    }

    /// Runs `ops` on a fresh table and, after every step, holds it to
    /// the filter over all its rules: each owner's views (rules, ids,
    /// standing rules, sources) are the full snapshot filtered by owner,
    /// the owners are those holding a rule, the kept count is the sum,
    /// every cached region is its rule's, an owner's stamp and the
    /// version moved iff that owner's rules did, and the changes queued
    /// are the removals in id order, then the additions.
    fn episode<K, R>(plane: &Plane<K, R>, ops: &[Op]) -> Result<(), TestCaseError>
    where
        K: Source + Clone + std::fmt::Debug,
        R: Payload<K>,
    {
        let mut t = Table::new(1);
        for op in ops {
            let before: Vec<_> = OWNERS.iter().map(|&o| snapshot(&t, o)).collect();
            let revisions: Vec<u64> = OWNERS.iter().map(|&o| t.revision(o)).collect();
            let version = t.version();
            let mut changes = Vec::new();
            match *op {
                Op::Replace {
                    owner,
                    source,
                    bits,
                } => {
                    let desired = (plane.payloads)(bits);
                    t.replace(OWNERS[owner], (plane.source)(source), desired, &mut changes);
                }
                Op::Remove { owner, source } => {
                    t.replace(
                        OWNERS[owner],
                        (plane.source)(source),
                        Vec::new(),
                        &mut changes,
                    );
                }
                Op::Rehome { source, from, to } => {
                    // One owner holds a source at a time.
                    let k = (plane.source)(source);
                    if !t.sources_of(OWNERS[to]).any(|(held, _)| *held == k) {
                        t.rehome(k, OWNERS[from], OWNERS[to]);
                    }
                }
                Op::Rewrite { pick, keep } => {
                    let ids: Vec<u64> = t.rules().iter().map(|r| r.id).collect();
                    let id = ids.get(pick % ids.len().max(1)).copied();
                    let step = |r: &R, rules: &[Entry<R>]| (plane.step)(r, rules).filter(|_| keep);
                    t.rewrite(id.unwrap_or(pick as u64), step);
                }
                Op::Flush => changes = t.flush(),
            }
            let all = t.rules();
            // A rewrite queues nothing: refusals and degradations are
            // answered by their callers.
            if !matches!(op, Op::Rewrite { .. }) {
                let held = before.iter().flatten().flat_map(|(_, rules)| rules);
                let gone = held.clone().filter(|r| all.iter().all(|a| a.id != r.id));
                let remove = |r: &BlackholingRule| AbstractChange::RemoveRule {
                    rule_id: r.id,
                    owner: r.owner,
                };
                let mut want: Vec<AbstractChange> = gone.map(remove).collect();
                want.sort_by_key(AbstractChange::rule_id);
                let new = all.iter().filter(|a| held.clone().all(|r| r.id != a.id));
                want.extend(new.cloned().map(AbstractChange::AddRule));
                prop_assert_eq!(&changes, &want, "after {:?}", op);
            }
            prop_assert_eq!(t.count(), all.len(), "after {:?}", op);
            for rule in t.owners().flat_map(|owner| t.standing_of(owner)) {
                prop_assert!(rule.region_is_current(), "rule {} after {:?}", rule.id, op);
            }
            let mut owners: Vec<Asn> = all.iter().map(|r| r.owner).collect();
            owners.sort_unstable();
            owners.dedup();
            prop_assert_eq!(t.owners().collect::<Vec<_>>(), owners, "after {:?}", op);
            let mut any_moved = false;
            for (i, &owner) in OWNERS.iter().enumerate() {
                let filtered: Vec<_> = all.iter().filter(|r| r.owner == owner).cloned().collect();
                let ids: Vec<u64> = filtered.iter().map(|r| r.id).collect();
                let sorted = |mut v: Vec<u64>| {
                    v.sort_unstable();
                    v
                };
                let mut view: Vec<_> = t.rules_of(owner).collect();
                view.sort_by_key(|r| r.id);
                prop_assert_eq!(&view, &filtered, "{:?} after {:?}", owner, op);
                prop_assert_eq!(&sorted(t.ids_of(owner).collect()), &ids);
                prop_assert_eq!(&sorted(t.standing_of(owner).map(|r| r.id).collect()), &ids);
                let moved = snapshot(&t, owner) != before[i];
                any_moved |= moved;
                let stamped = t.revision(owner) > revisions[i];
                prop_assert_eq!(stamped, moved, "{:?} after {:?}", owner, op);
            }
            prop_assert_eq!(t.version() > version, any_moved, "after {:?}", op);
        }
        Ok(())
    }

    /// Path keys over both address families (a signal's region is
    /// scoped to its path's prefix) and two ADD-PATH ids.
    fn path(i: usize) -> (Prefix, Option<u32>) {
        let prefix = ["100.10.10.10/32", "100.10.10.11/32", "2001:db8::1/128"][i % 3];
        (prefix.parse().unwrap(), Some((i / 3) as u32))
    }

    /// Signals on every rung of the degradation ladder, so that a
    /// rewrite down the ladder can merge or exhaust one.
    fn signals(bits: u8) -> Vec<StellarSignal> {
        let all_udp = StellarSignal {
            kind: MatchKind::AllUdp,
            port: 0,
            action: RuleAction::Drop,
        };
        let ladder = [
            StellarSignal::drop_udp_src(53),
            StellarSignal::drop_udp_src(123),
            StellarSignal::shape_udp_src(389, 1_000_000),
            all_udp,
            StellarSignal::drop_all(),
        ];
        let picked = ladder.into_iter().enumerate();
        picked
            .filter(|(i, _)| bits >> i & 1 == 1)
            .map(|(_, s)| s)
            .collect()
    }

    /// The controller's rewrite: one rung down, merged into a coarser
    /// signal the path already holds.
    fn degrade(signal: &StellarSignal, path: &[Entry<StellarSignal>]) -> Option<StellarSignal> {
        signal
            .degrade()
            .filter(|next| path.iter().all(|e| e.rule != *next))
    }

    /// Lowered specs with ports, a flag cube, a length range and a
    /// fragment cube, each under a drop.
    fn lowered(bits: u8) -> Vec<FlowRule> {
        let victim: Prefix = "100.10.10.10/32".parse().unwrap();
        let udp = |port| MatchSpec {
            dst_ip: Some(victim),
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(port)),
            ..Default::default()
        };
        let specs = [
            udp(53),
            udp(123),
            MatchSpec {
                dst_ip: Some(victim),
                protocol: Some(IpProtocol::TCP),
                tcp_flags: Some(BitsMatch::new(0x12, 0x02)),
                ..Default::default()
            },
            MatchSpec {
                dst_ip: Some(victim),
                packet_len: Some(RangeMatch::new(1000, 1500)),
                fragment: Some(BitsMatch::new(0x01, 0x01)),
                ..Default::default()
            },
        ];
        let picked = specs.into_iter().enumerate();
        let picked = picked.filter(|(i, _)| bits >> i & 1 == 1);
        let drop = |(_, spec)| FlowRule {
            spec,
            action: RuleAction::Drop,
            victim,
        };
        picked.map(drop).collect()
    }

    /// A rewrite to the other action, unless the NLRI already has it.
    fn reshape(rule: &FlowRule, nlri: &[Entry<FlowRule>]) -> Option<FlowRule> {
        let action = match rule.action {
            RuleAction::Drop => RuleAction::Shape {
                rate_bps: 8_000_000,
            },
            RuleAction::Shape { .. } => RuleAction::Drop,
        };
        let next = FlowRule {
            spec: rule.spec.clone(),
            action,
            ..*rule
        };
        nlri.iter().all(|e| e.rule != next).then_some(next)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The table under the controller's payload: signals scoped to
        /// their path's prefix.
        #[test]
        fn signal_table_is_the_filter_over_its_rules(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let plane = Plane { source: path, payloads: signals, step: degrade };
            episode(&plane, &ops)?;
        }

        /// The table under the FlowSpec plane's payload: lowered specs
        /// by NLRI.
        #[test]
        fn lowered_table_is_the_filter_over_its_rules(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let nlri = |i: usize| vec![0x01, i as u8];
            let plane = Plane { source: nlri, payloads: lowered, step: reshape };
            episode(&plane, &ops)?;
        }
    }
}
