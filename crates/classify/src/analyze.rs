//! Static rule-table analysis: shadowing, redundancy, conflicts and
//! reachability witnesses over [`MatchSpec`] tables — *before* anything
//! touches the dataplane.
//!
//! The dynamic path only discovers a bad rule when it fails at install
//! time (TCAM exhaustion) or, worse, never discovers it at all (a rule
//! that can never be first-match silently burns TCAM criteria forever).
//! Classic firewall policy analysis (FIREMAN and the ACL-anomaly line of
//! work) shows these properties are decidable for match languages like
//! ours, where every rule is a product of per-field sets: MAC equality,
//! IP prefixes (aligned intervals), protocol equality, port / length /
//! DSCP / ICMP-type / flow-label intervals, and TCP-flag / fragment bit
//! cubes.
//!
//! Three results per table, all deterministic (rank-ordered, no hash
//! iteration):
//!
//! - **Pairwise anomalies** — rule `R` is [`RuleFlag::Shadowed`] /
//!   [`RuleFlag::Redundant`] when a single earlier rule matches every
//!   flow `R` matches (different / same action); `R` is in
//!   [`RuleFlag::Conflict`] with an earlier rule when their match sets
//!   *cross* (overlap, neither covers the other) and one drops what the
//!   other shapes — the ambiguous split where rank, not intent, decides.
//! - **Reachability witnesses** — for every rule not pairwise covered, a
//!   concrete [`FlowKey`] that reaches it as first-match: the first key
//!   of the rule's region that [`set::first_uncovered`] finds outside
//!   every earlier rule, re-validated with [`MatchSpec::matches`]. A rule
//!   with no such key is union-covered by earlier rules and flagged
//!   [`RuleFlag::Unreachable`].
//! - **TCAM usage** — the criteria-pool footprint ([`table_usage`]) the
//!   table would consume, for pre-admission capacity accounting against
//!   the hardware pools (the paper's Fig. 9 F1/F2 modes) before install.
//!
//! A rule's verdict depends only on that rule and the better-ranked
//! rules of its table, so the analysis comes in two scopes over one
//! implementation: [`analyze`] judges every rule (`n` witness searches
//! and `n²/2` pair tests for `n` rules), [`analyze_candidates`] only the
//! named ones (`k` searches, at most `k·n` pair tests) — what a control
//! plane admitting `k` new rules into a standing table needs.
//!
//! What a rule matches is a [`Region`] of the key space [`crate::set`]
//! describes — the same sets, over the same observable keys, that
//! [`crate::verify`] counts — built once per rule per table.

use crate::classifier::{RuleEntry, RuleId};
use crate::set::{self, Domain, Region};
use crate::spec::MatchSpec;
use std::sync::OnceLock;
use stellar_net::flow::FlowKey;

/// The action a rule takes, as far as the analyzer cares: enough to
/// distinguish "same effect" (redundancy) from "opposing effect"
/// (conflict). Mirrors the dataplane's action set without depending on
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionClass {
    /// Discard matching traffic.
    Drop,
    /// Rate-limit matching traffic to `rate_bps`.
    Shape {
        /// Shaping rate in bits per second.
        rate_bps: u64,
    },
    /// Explicitly forward (bypass later rules).
    Forward,
}

impl ActionClass {
    /// True when two actions opposing each other on overlapping traffic
    /// is an anomaly worth rejecting: one side discards what the other
    /// deliberately lets through (shaped telemetry or an explicit
    /// forward).
    pub fn conflicts_with(&self, other: &ActionClass) -> bool {
        matches!(
            (self, other),
            (ActionClass::Drop, ActionClass::Shape { .. })
                | (ActionClass::Shape { .. }, ActionClass::Drop)
                | (ActionClass::Drop, ActionClass::Forward)
                | (ActionClass::Forward, ActionClass::Drop)
        )
    }
}

/// One rule as the analyzer sees it: engine identity/priority/match plus
/// the action class.
#[derive(Debug, Clone)]
pub struct AuditRule {
    /// Identity, priority and match spec.
    pub entry: RuleEntry,
    /// What the rule does to matches.
    pub action: ActionClass,
}

impl AuditRule {
    /// Creates an audit rule.
    pub fn new(entry: RuleEntry, action: ActionClass) -> Self {
        AuditRule { entry, action }
    }

    fn rank(&self) -> (u16, RuleId) {
        (self.entry.priority, self.entry.id)
    }
}

/// What the analyzer found wrong with one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleFlag {
    /// A single earlier rule matches everything this rule matches, with a
    /// different action: this rule never fires, and its author's intent
    /// is overridden.
    Shadowed {
        /// The covering earlier rule.
        by: RuleId,
    },
    /// A single earlier rule matches everything this rule matches, with
    /// the same action: this rule never fires and removing it changes
    /// nothing.
    Redundant {
        /// The covering earlier rule.
        by: RuleId,
    },
    /// An earlier rule has the *identical* match set AND the identical
    /// action: a literal duplicate. Operationally a different story from
    /// [`RuleFlag::Redundant`] (a broader rule happens to absorb this
    /// one): a duplicate is almost always a double-signal or a replay,
    /// and deleting either copy is safe.
    Duplicate {
        /// The earlier identical rule.
        of: RuleId,
    },
    /// No single earlier rule covers this one, but their union does (or
    /// the spec is self-contradictory): the witness search proved no
    /// packet can reach it as first-match.
    Unreachable,
    /// This rule's match set crosses an earlier rule's (they overlap,
    /// neither covers the other) and the actions oppose (drop vs. shape /
    /// forward): on the shared traffic, evaluation rank — not operator
    /// intent — decides the outcome.
    Conflict {
        /// The earlier rule it crosses.
        with: RuleId,
    },
    /// The witness search exhausted its budget before proving
    /// reachability either way. Never produced at default budgets for
    /// tables of realistic size; treated as reachable (not rejected).
    Unverified,
}

impl RuleFlag {
    /// True for the flags that prove the rule can never be first-match.
    pub fn is_dead(&self) -> bool {
        matches!(
            self,
            RuleFlag::Shadowed { .. }
                | RuleFlag::Redundant { .. }
                | RuleFlag::Duplicate { .. }
                | RuleFlag::Unreachable
        )
    }
}

/// One finding: a rule and what is wrong with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finding {
    /// The flagged rule.
    pub rule: RuleId,
    /// The anomaly.
    pub flag: RuleFlag,
}

/// Aggregate TCAM criteria a rule set consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcamUsage {
    /// MAC (L2) filter criteria.
    pub mac: usize,
    /// L3–L4 filter criteria.
    pub l34: usize,
}

/// The full analysis of one rule table.
#[derive(Debug, Clone, Default)]
pub struct TableAnalysis {
    /// Anomalies, ordered by the flagged rule's evaluation rank (dead
    /// flags before conflicts for the same rule).
    pub findings: Vec<Finding>,
    /// For every rule with no dead flag: a concrete flow key that reaches
    /// it as first-match, in evaluation-rank order.
    pub witnesses: Vec<(RuleId, FlowKey)>,
    /// TCAM criteria the whole table consumes.
    pub usage: TcamUsage,
}

impl TableAnalysis {
    /// The dead flag (shadowed / redundant / unreachable) for a rule, if
    /// any.
    pub fn dead_flag(&self, rule: RuleId) -> Option<RuleFlag> {
        self.findings
            .iter()
            .find(|f| f.rule == rule && f.flag.is_dead())
            .map(|f| f.flag)
    }

    /// The conflicts a rule participates in as the later (lower-ranked)
    /// side.
    pub fn conflicts_of(&self, rule: RuleId) -> Vec<RuleId> {
        self.findings
            .iter()
            .filter_map(|f| match f.flag {
                RuleFlag::Conflict { with } if f.rule == rule => Some(with),
                _ => None,
            })
            .collect()
    }

    /// The witness key for a rule, if the search produced one.
    pub fn witness(&self, rule: RuleId) -> Option<&FlowKey> {
        self.witnesses
            .iter()
            .find(|(id, _)| *id == rule)
            .map(|(_, k)| k)
    }
}

/// Default witness-search budget, in splitter nodes per rule: each node
/// of [`set::first_uncovered`]'s walk is `O(live earlier rules)` work.
/// Far above what tables of control-plane size ever need; the bound
/// exists so a pathological table degrades to [`RuleFlag::Unverified`]
/// instead of hanging the control plane.
pub const DEFAULT_WITNESS_BUDGET: usize = 100_000;

/// Analyzes a rule table with the default witness budget.
pub fn analyze(rules: &[AuditRule]) -> TableAnalysis {
    analyze_with_budget(rules, DEFAULT_WITNESS_BUDGET)
}

/// Analyzes a rule table. See the module docs for the semantics of each
/// flag. Deterministic: rules are processed in evaluation-rank order and
/// all output is rank-sorted.
///
/// Cost for a table of `n` rules: `n` coverage scans, up to `n` witness
/// searches and `n²/2` conflict tests. A caller that only needs the
/// verdict on a few rules should ask [`analyze_candidates`] instead.
pub fn analyze_with_budget(rules: &[AuditRule], budget: usize) -> TableAnalysis {
    analyze_where(rules, budget, |_| true)
}

/// [`analyze`] restricted to the rules whose id is in `ids`: exactly the
/// findings and witnesses `analyze(rules)` reports for those rules, in
/// the same order, and the same whole-table `usage`. Each candidate is
/// still judged against *every* better-ranked rule of the table —
/// candidates included — so a rule's verdict does not depend on which
/// other rules were asked about; ids absent from the table ask nothing.
///
/// Cost for `k` candidates in a table of `n` rules: `k` coverage scans,
/// up to `k` witness searches and at most `k·n` conflict tests — the
/// admission audit's per-announcement bill (see `stellar_core::audit`).
pub fn analyze_candidates(rules: &[AuditRule], ids: &[RuleId]) -> TableAnalysis {
    analyze_candidates_with_budget(rules, ids, DEFAULT_WITNESS_BUDGET)
}

/// [`analyze_candidates`] with an explicit witness budget.
pub fn analyze_candidates_with_budget(
    rules: &[AuditRule],
    ids: &[RuleId],
    budget: usize,
) -> TableAnalysis {
    analyze_where(rules, budget, |id| ids.contains(&id))
}

/// The one analysis loop: ranks the table, canonicalises every rule
/// once, then judges every position whose rule id passes `visit`.
fn analyze_where(
    rules: &[AuditRule],
    budget: usize,
    visit: impl Fn(RuleId) -> bool,
) -> TableAnalysis {
    let mut ranked: Vec<(&AuditRule, Region)> = rules
        .iter()
        .map(|r| (r, Region::of(&r.entry.spec)))
        .collect();
    ranked.sort_by_key(|(r, _)| r.rank());
    let mut out = TableAnalysis {
        usage: table_usage(rules),
        ..Default::default()
    };
    let mut scratch = set::Scratch::default();
    for (pos, (rule, _)) in ranked.iter().enumerate() {
        if visit(rule.entry.id) {
            judge(&ranked[..=pos], budget, &mut scratch, &mut out);
        }
    }
    out
}

/// The key space admission is judged over: every observable key.
fn key_space() -> &'static Domain {
    static CANONICAL: OnceLock<Domain> = OnceLock::new();
    CANONICAL.get_or_init(Domain::canonical)
}

/// Judges the last rule of `upto` against the better-ranked rules before
/// it (in rank order) and appends what it finds to `out`. The verdict
/// depends on nothing but those — no state is carried from one rule to
/// the next, which is what makes the candidate-scoped entry exact.
fn judge<'r>(
    upto: &'r [(&'r AuditRule, Region<'r>)],
    budget: usize,
    scratch: &mut set::Scratch<'r>,
    out: &mut TableAnalysis,
) {
    let Some(((rule, region), earlier)) = upto.split_last() else {
        return;
    };
    let id = rule.entry.id;
    // Pairwise coverage: the first (best-ranked) earlier rule whose
    // match set contains this rule's decides the flag.
    let dead = if let Some((e, er)) = earlier.iter().find(|(_, er)| er.covers(region)) {
        let by = e.entry.id;
        Some(if e.action != rule.action {
            RuleFlag::Shadowed { by }
        } else if region.covers(er) {
            // Mutual cover = identical match set; identical action
            // too, so this is a literal duplicate of `e`.
            RuleFlag::Duplicate { of: by }
        } else {
            RuleFlag::Redundant { by }
        })
    } else {
        // No single cover: look for a key the union of earlier rules
        // leaves to this one, and have the reference predicate confirm
        // it before it is handed out.
        let earlier_regions = earlier.iter().map(|(_, er)| er);
        match set::first_uncovered(region, earlier_regions, key_space(), budget, scratch) {
            Ok(Some(key))
                if rule.entry.spec.matches(&key)
                    && earlier.iter().all(|(e, _)| !e.entry.spec.matches(&key)) =>
            {
                out.witnesses.push((id, key));
                None
            }
            Ok(None) => Some(RuleFlag::Unreachable),
            // Out of budget, or a key the reference rejects: no proof
            // either way.
            Ok(Some(_)) | Err(set::Exhausted) => Some(RuleFlag::Unverified),
        }
    };
    if let Some(flag) = dead {
        out.findings.push(Finding { rule: id, flag });
    }
    // Crossing-overlap action conflicts, regardless of reachability:
    // even a reachable rule loses part of its traffic to the earlier
    // side of the cross.
    for (e, er) in earlier {
        if rule.action.conflicts_with(&e.action)
            && er.intersects(region)
            && !er.covers(region)
            && !region.covers(er)
        {
            out.findings.push(Finding {
                rule: id,
                flag: RuleFlag::Conflict { with: e.entry.id },
            });
        }
    }
}

/// TCAM criteria the whole table consumes (criteria pool + MAC pool), for
/// pre-admission accounting against the hardware's free pools.
pub fn table_usage(rules: &[AuditRule]) -> TcamUsage {
    rules.iter().fold(TcamUsage::default(), |mut u, r| {
        u.mac += r.entry.spec.mac_criteria();
        u.l34 += r.entry.spec.l34_criteria();
        u
    })
}

/// True if the spec can match no observable key at all: an inverted or
/// out-of-width range, an unsatisfiable bit cube, criteria on both
/// address families, or a field combination whose implied protocol sets
/// are disjoint (a port criterion on a portless protocol, TCP flags next
/// to ICMP fields, ...). See [`crate::set`] for the key space.
pub fn spec_is_empty(s: &MatchSpec) -> bool {
    Region::of(s).is_empty()
}

/// True if `a` matches every flow key `b` matches (`a ⊇ b`). Exact for
/// this match language.
pub fn spec_covers(a: &MatchSpec, b: &MatchSpec) -> bool {
    Region::of(a).covers(&Region::of(b))
}

/// True if some flow key matches both specs (their intersection is
/// non-empty). Exact for this match language.
pub fn spec_intersects(a: &MatchSpec, b: &MatchSpec) -> bool {
    Region::of(a).intersects(&Region::of(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BitsMatch, PortMatch, RangeMatch};
    use stellar_net::mac::MacAddr;
    use stellar_net::ports;
    use stellar_net::proto::IpProtocol;

    fn spec(dst: &str) -> MatchSpec {
        MatchSpec::to_destination(dst.parse().unwrap())
    }

    fn ntp(dst: &str) -> MatchSpec {
        MatchSpec::proto_src_port_to(dst.parse().unwrap(), IpProtocol::UDP, ports::NTP)
    }

    fn rule(id: RuleId, priority: u16, spec: MatchSpec, action: ActionClass) -> AuditRule {
        AuditRule::new(RuleEntry::new(id, priority, spec), action)
    }

    #[test]
    fn covers_is_reflexive_and_respects_fields() {
        let a = spec("100.10.10.0/24");
        let b = ntp("100.10.10.10/32");
        assert!(spec_covers(&a, &a));
        assert!(spec_covers(&a, &b)); // /24 wildcard-proto covers NTP /32
        assert!(!spec_covers(&b, &a));
        // A port criterion cannot cover a port-wildcard spec that admits
        // portless protocols.
        let any_port = MatchSpec {
            src_port: Some(PortMatch::Range(0, u16::MAX)),
            ..Default::default()
        };
        assert!(!spec_covers(&any_port, &MatchSpec::default()));
        // ...but covers one pinned to UDP.
        let all_udp = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            ..Default::default()
        };
        assert!(spec_covers(&any_port, &all_udp));
    }

    #[test]
    fn intersects_handles_protocol_port_coupling() {
        let udp_src = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(123)),
            ..Default::default()
        };
        let icmp = MatchSpec {
            protocol: Some(IpProtocol::ICMP),
            ..Default::default()
        };
        assert!(!spec_intersects(&udp_src, &icmp));
        let port_only = MatchSpec {
            src_port: Some(PortMatch::Range(100, 200)),
            ..Default::default()
        };
        assert!(spec_intersects(&udp_src, &port_only));
        assert!(!spec_intersects(&port_only, &icmp));
        // Disjoint port ranges.
        let other_ports = MatchSpec {
            src_port: Some(PortMatch::Range(300, 400)),
            ..Default::default()
        };
        assert!(!spec_intersects(&port_only, &other_ports));
    }

    #[test]
    fn shadowed_and_redundant_are_detected() {
        let t = analyze(&[
            rule(1, 10, spec("100.10.10.0/24"), ActionClass::Drop),
            rule(2, 10, ntp("100.10.10.10/32"), ActionClass::Drop),
            rule(
                3,
                10,
                ntp("100.10.10.11/32"),
                ActionClass::Shape { rate_bps: 1 },
            ),
        ]);
        assert_eq!(t.dead_flag(2), Some(RuleFlag::Redundant { by: 1 }));
        assert_eq!(t.dead_flag(3), Some(RuleFlag::Shadowed { by: 1 }));
        assert!(t.dead_flag(1).is_none());
        assert!(t.witness(1).is_some());
    }

    #[test]
    fn candidate_scope_reports_the_whole_table_verdicts_for_the_named_rules() {
        let udp_src = |port| MatchSpec {
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(port)),
            ..Default::default()
        };
        let udp_dst_80 = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            dst_port: Some(PortMatch::Exact(80)),
            ..Default::default()
        };
        let shape = ActionClass::Shape { rate_bps: 1 };
        let table = [
            rule(1, 10, udp_src(123), ActionClass::Drop),
            // Candidates, ranked in the middle of the table: 2 is live,
            // 3 duplicates candidate 2, 4 crosses standing rule 1.
            rule(2, 10, udp_src(53), ActionClass::Drop),
            rule(3, 10, udp_src(53), ActionClass::Drop),
            rule(4, 10, udp_dst_80.clone(), shape),
            // Standing and worse-ranked: shadowed by candidate 4, but
            // nobody asked.
            rule(5, 20, udp_dst_80, ActionClass::Drop),
        ];
        let whole = analyze(&table);
        assert_eq!(whole.dead_flag(5), Some(RuleFlag::Shadowed { by: 4 }));
        let scoped = analyze_candidates(&table, &[4, 2, 3, 99]);
        assert_eq!(
            scoped.findings,
            vec![
                Finding {
                    rule: 3,
                    flag: RuleFlag::Duplicate { of: 2 }
                },
                Finding {
                    rule: 4,
                    flag: RuleFlag::Conflict { with: 1 }
                },
                Finding {
                    rule: 4,
                    flag: RuleFlag::Conflict { with: 2 }
                },
                Finding {
                    rule: 4,
                    flag: RuleFlag::Conflict { with: 3 }
                },
            ]
        );
        let ids: Vec<RuleId> = scoped.witnesses.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![2, 4]);
        assert_eq!(scoped.witness(4), whole.witness(4));
        assert_eq!(scoped.usage, whole.usage);
        // A budget blow-out is reported for the candidate it hit, the
        // same way the whole-table entry reports it.
        let dry = analyze_candidates_with_budget(&table, &[4], 0);
        assert_eq!(dry.findings[0].flag, RuleFlag::Unverified);
        assert_eq!(
            dry.findings,
            analyze_with_budget(&table, 0)
                .findings
                .into_iter()
                .filter(|f| f.rule == 4)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn priority_decides_rank_not_id() {
        // Rule 9 evaluates first despite the higher id.
        let t = analyze(&[
            rule(1, 50, ntp("100.10.10.10/32"), ActionClass::Drop),
            rule(9, 10, spec("100.10.10.0/24"), ActionClass::Drop),
        ]);
        assert_eq!(t.dead_flag(1), Some(RuleFlag::Redundant { by: 9 }));
        assert!(t.dead_flag(9).is_none());
    }

    #[test]
    fn union_coverage_is_flagged_unreachable() {
        // Two /25s cover the /24; no single rule does.
        let t = analyze(&[
            rule(1, 10, spec("100.10.10.0/25"), ActionClass::Drop),
            rule(2, 10, spec("100.10.10.128/25"), ActionClass::Drop),
            rule(3, 10, spec("100.10.10.0/24"), ActionClass::Drop),
        ]);
        assert!(t.dead_flag(1).is_none());
        assert!(t.dead_flag(2).is_none());
        assert_eq!(t.dead_flag(3), Some(RuleFlag::Unreachable));
        // UDP + TCP + ICMP... does NOT cover all protocols.
        let udp = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            ..Default::default()
        };
        let tcp = MatchSpec {
            protocol: Some(IpProtocol::TCP),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, udp, ActionClass::Drop),
            rule(2, 10, tcp, ActionClass::Drop),
            rule(3, 10, MatchSpec::default(), ActionClass::Drop),
        ]);
        assert!(t.dead_flag(3).is_none());
        let w = t.witness(3).unwrap();
        assert!(!w.protocol.has_ports());
    }

    #[test]
    fn crossing_drop_shape_overlap_is_a_conflict() {
        // src-port rule vs dst-port rule: crossing overlap, drop vs shape.
        let a = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(123)),
            ..Default::default()
        };
        let b = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            dst_port: Some(PortMatch::Exact(80)),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, a.clone(), ActionClass::Drop),
            rule(2, 10, b.clone(), ActionClass::Shape { rate_bps: 1 }),
        ]);
        assert_eq!(t.conflicts_of(2), vec![1]);
        assert!(t.dead_flag(2).is_none(), "conflicting rule is still live");
        // Same shape but the broader rule merely layers over a carved-out
        // exception (earlier narrower rule inside later broader): no
        // conflict.
        let narrow = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            src_port: Some(PortMatch::Exact(123)),
            ..Default::default()
        };
        let broad = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, narrow, ActionClass::Drop),
            rule(2, 10, broad, ActionClass::Shape { rate_bps: 1 }),
        ]);
        assert!(t.conflicts_of(2).is_empty());
        // Same actions never conflict.
        let t = analyze(&[
            rule(1, 10, a, ActionClass::Drop),
            rule(2, 10, b, ActionClass::Drop),
        ]);
        assert!(t.findings.is_empty());
    }

    #[test]
    fn witnesses_reach_their_rules_first_match() {
        let rules = [
            rule(1, 10, ntp("100.10.10.10/32"), ActionClass::Drop),
            rule(
                2,
                10,
                MatchSpec {
                    protocol: Some(IpProtocol::UDP),
                    dst_ip: Some("100.10.10.10/32".parse().unwrap()),
                    ..Default::default()
                },
                ActionClass::Shape { rate_bps: 1 },
            ),
            rule(3, 10, spec("100.10.10.10/32"), ActionClass::Drop),
        ];
        let t = analyze(&rules);
        assert!(t.findings.iter().all(|f| !f.flag.is_dead()));
        let engine = crate::FlowClassifier::compile(rules.iter().map(|r| r.entry.clone()));
        for (id, key) in &t.witnesses {
            assert_eq!(engine.classify(key), Some(*id), "witness for rule {id}");
        }
        assert_eq!(t.witnesses.len(), 3);
    }

    #[test]
    fn empty_spec_is_unreachable() {
        let icmp_with_port = MatchSpec {
            protocol: Some(IpProtocol::ICMP),
            src_port: Some(PortMatch::Exact(1)),
            ..Default::default()
        };
        assert!(spec_is_empty(&icmp_with_port));
        let t = analyze(&[rule(1, 10, icmp_with_port, ActionClass::Drop)]);
        assert_eq!(t.dead_flag(1), Some(RuleFlag::Unreachable));
    }

    #[test]
    fn mac_scoped_rules_find_witnesses() {
        let m1 = MacAddr::for_member(64500, 1);
        let m2 = MacAddr::for_member(64501, 1);
        let t = analyze(&[
            rule(
                1,
                10,
                MatchSpec {
                    src_mac: Some(m1),
                    ..Default::default()
                },
                ActionClass::Drop,
            ),
            rule(
                2,
                10,
                MatchSpec {
                    src_mac: Some(m2),
                    ..Default::default()
                },
                ActionClass::Drop,
            ),
            rule(3, 10, MatchSpec::default(), ActionClass::Drop),
        ]);
        assert!(t.dead_flag(3).is_none());
        let w = t.witness(3).unwrap();
        assert_ne!(w.src_mac, m1);
        assert_ne!(w.src_mac, m2);
    }

    #[test]
    fn table_usage_sums_criteria() {
        let u = table_usage(&[
            rule(1, 10, ntp("100.10.10.10/32"), ActionClass::Drop), // 3 l34
            rule(
                2,
                10,
                MatchSpec {
                    src_mac: Some(MacAddr::for_member(64500, 1)),
                    dst_ip: Some("100.10.10.10/32".parse().unwrap()),
                    ..Default::default()
                },
                ActionClass::Drop,
            ), // 1 mac + 1 l34
        ]);
        assert_eq!(u, TcamUsage { mac: 1, l34: 4 });
    }

    #[test]
    fn empty_specs_on_the_extended_fields_are_detected() {
        use stellar_net::tcp::TcpFlags;
        // Inverted numeric range.
        let inverted_len = MatchSpec {
            packet_len: Some(RangeMatch::new(1000, 64)),
            ..Default::default()
        };
        assert!(spec_is_empty(&inverted_len));
        // Cube demanding a bit outside its own mask.
        let unsat_cube = MatchSpec {
            fragment: Some(BitsMatch::new(0x02, 0x01)),
            ..Default::default()
        };
        assert!(spec_is_empty(&unsat_cube));
        // Gated criteria pinned to the wrong protocol class.
        let udp_with_flags = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::SYN)),
            ..Default::default()
        };
        assert!(spec_is_empty(&udp_with_flags));
        let tcp_with_icmp = MatchSpec {
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::SYN)),
            icmp_type: Some(RangeMatch::exact(8)),
            ..Default::default()
        };
        assert!(spec_is_empty(&tcp_with_icmp));
        let icmp_with_port = MatchSpec {
            icmp_type: Some(RangeMatch::exact(8)),
            src_port: Some(PortMatch::Exact(53)),
            ..Default::default()
        };
        assert!(spec_is_empty(&icmp_with_port));
        // Flow label needs an IPv6 destination.
        let v4_flow_label = MatchSpec {
            dst_ip: Some("100.10.10.0/24".parse().unwrap()),
            flow_label: Some(RangeMatch::exact(5)),
            ..Default::default()
        };
        assert!(spec_is_empty(&v4_flow_label));
        // The satisfiable counterparts are not empty.
        let syn = MatchSpec {
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::SYN)),
            ..Default::default()
        };
        assert!(!spec_is_empty(&syn));
    }

    #[test]
    fn covers_and_intersects_respect_the_gated_fields() {
        use stellar_net::tcp::TcpFlags;
        let syn_only = MatchSpec {
            tcp_flags: Some(BitsMatch::new(TcpFlags::SYN | TcpFlags::ACK, TcpFlags::SYN)),
            ..Default::default()
        };
        let all_tcp = MatchSpec {
            protocol: Some(IpProtocol::TCP),
            ..Default::default()
        };
        // The gate confines `syn_only` to TCP, so the protocol spec
        // covers it — but not vice versa (ACK-set keys escape the cube).
        assert!(spec_covers(&all_tcp, &syn_only));
        assert!(!spec_covers(&syn_only, &all_tcp));
        // A wider cube covers a narrower one.
        let syn_set = MatchSpec {
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::SYN)),
            ..Default::default()
        };
        assert!(spec_covers(&syn_set, &syn_only));
        assert!(!spec_covers(&syn_only, &syn_set));
        // Incompatible cubes cannot intersect; disjoint protocol classes
        // cannot either.
        let ack_set = MatchSpec {
            tcp_flags: Some(BitsMatch::all_of(TcpFlags::ACK)),
            ..Default::default()
        };
        assert!(!spec_intersects(&syn_only, &ack_set));
        assert!(spec_intersects(&syn_only, &syn_set));
        let udp = MatchSpec {
            protocol: Some(IpProtocol::UDP),
            ..Default::default()
        };
        assert!(!spec_intersects(&syn_only, &udp));
        // ICMP intervals: covering needs the gate, intersection needs
        // overlapping intervals.
        let echo = MatchSpec {
            icmp_type: Some(RangeMatch::exact(8)),
            ..Default::default()
        };
        let all_icmp = MatchSpec {
            protocol: Some(IpProtocol::ICMP),
            ..Default::default()
        };
        assert!(!spec_covers(&echo, &all_icmp)); // type 3 keys escape
        assert!(spec_intersects(&echo, &all_icmp));
        let unreach = MatchSpec {
            icmp_type: Some(RangeMatch::exact(3)),
            ..Default::default()
        };
        assert!(!spec_intersects(&echo, &unreach));
        // Ungated interval fields cover by inclusion.
        let big = MatchSpec {
            packet_len: Some(RangeMatch::new(1000, u16::MAX)),
            ..Default::default()
        };
        let bigger_only = MatchSpec {
            packet_len: Some(RangeMatch::new(1400, 1500)),
            ..Default::default()
        };
        assert!(spec_covers(&big, &bigger_only));
        assert!(!spec_covers(&bigger_only, &big));
        assert!(!spec_covers(&big, &MatchSpec::default()));
        let small = MatchSpec {
            packet_len: Some(RangeMatch::new(0, 512)),
            ..Default::default()
        };
        assert!(!spec_intersects(&big, &small));
    }

    #[test]
    fn tcp_flag_scoped_rules_find_witnesses() {
        use stellar_net::tcp::TcpFlags;
        let syn_only = MatchSpec {
            dst_ip: Some("100.10.10.10/32".parse().unwrap()),
            tcp_flags: Some(BitsMatch::new(TcpFlags::SYN | TcpFlags::ACK, TcpFlags::SYN)),
            ..Default::default()
        };
        let all_tcp = MatchSpec {
            protocol: Some(IpProtocol::TCP),
            dst_ip: Some("100.10.10.10/32".parse().unwrap()),
            ..Default::default()
        };
        let rules = [
            rule(1, 10, syn_only, ActionClass::Drop),
            rule(2, 10, all_tcp, ActionClass::Drop),
            rule(3, 10, spec("100.10.10.10/32"), ActionClass::Drop),
        ];
        let t = analyze(&rules);
        assert!(t.findings.iter().all(|f| !f.flag.is_dead()));
        // Rule 2's witness must be a TCP key outside the SYN-only cube.
        let w = t.witness(2).unwrap();
        assert_eq!(w.protocol, IpProtocol::TCP);
        assert!(!(w.tcp_flags & TcpFlags::SYN != 0 && w.tcp_flags & TcpFlags::ACK == 0));
        let engine = crate::FlowClassifier::compile(rules.iter().map(|r| r.entry.clone()));
        for (id, key) in &t.witnesses {
            assert_eq!(engine.classify(key), Some(*id), "witness for rule {id}");
        }
        assert_eq!(t.witnesses.len(), 3);
    }

    #[test]
    fn icmp_scoped_rules_find_witnesses() {
        let echo = MatchSpec {
            icmp_type: Some(RangeMatch::exact(8)),
            ..Default::default()
        };
        let all_icmp = MatchSpec {
            protocol: Some(IpProtocol::ICMP),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, echo, ActionClass::Drop),
            rule(2, 10, all_icmp, ActionClass::Drop),
        ]);
        assert!(t.dead_flag(2).is_none());
        let w = t.witness(2).unwrap();
        assert_eq!(w.protocol, IpProtocol::ICMP);
        assert_ne!(w.icmp_type, 8);
    }

    #[test]
    fn packet_length_union_coverage_is_unreachable() {
        let short = MatchSpec {
            packet_len: Some(RangeMatch::new(0, 999)),
            ..Default::default()
        };
        let long = MatchSpec {
            packet_len: Some(RangeMatch::new(1000, u16::MAX)),
            ..Default::default()
        };
        let mid = MatchSpec {
            packet_len: Some(RangeMatch::new(500, 1500)),
            ..Default::default()
        };
        // The two length bands cover every length: anything after them
        // is union-covered; a band overlapping the seam alone is not.
        let t = analyze(&[
            rule(1, 10, short.clone(), ActionClass::Drop),
            rule(2, 10, long.clone(), ActionClass::Drop),
            rule(3, 10, MatchSpec::default(), ActionClass::Drop),
        ]);
        assert_eq!(t.dead_flag(3), Some(RuleFlag::Unreachable));
        let t = analyze(&[
            rule(1, 10, short, ActionClass::Drop),
            rule(2, 10, mid, ActionClass::Drop),
        ]);
        assert!(t.dead_flag(2).is_none());
        let w = t.witness(2).unwrap();
        assert!((1000..=1500).contains(&w.packet_len));
    }

    #[test]
    fn flow_label_rules_gate_on_ipv6_destinations() {
        let labeled = MatchSpec {
            dst_ip: Some("2001:db8::/64".parse().unwrap()),
            flow_label: Some(RangeMatch::exact(5)),
            ..Default::default()
        };
        let unlabeled = MatchSpec {
            dst_ip: Some("2001:db8::/64".parse().unwrap()),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, labeled.clone(), ActionClass::Drop),
            rule(2, 10, unlabeled.clone(), ActionClass::Drop),
        ]);
        // Rule 2 escapes rule 1 by picking a different label.
        assert!(t.dead_flag(2).is_none());
        let w = t.witness(2).unwrap();
        assert_ne!(w.flow_label, 5);
        // The unlabeled spec covers the labeled one, not vice versa.
        assert!(spec_covers(&unlabeled, &labeled));
        assert!(!spec_covers(&labeled, &unlabeled));
        // An earlier label criterion can also be escaped through the
        // gate itself: a protocol-wildcard target may go v4.
        let all_label_5 = MatchSpec {
            flow_label: Some(RangeMatch::exact(5)),
            ..Default::default()
        };
        let t = analyze(&[
            rule(1, 10, all_label_5, ActionClass::Drop),
            rule(2, 10, MatchSpec::default(), ActionClass::Drop),
        ]);
        assert!(t.dead_flag(2).is_none());
    }

    /// Rules that differ only on keys no packet can produce do not
    /// differ: the admission audit and the proof side share one key
    /// space. Each fixture is a rule 1 whose extra criterion is all of
    /// its field's observable width, so it shadows a rule 2 without it.
    #[test]
    fn criteria_wider_than_the_observable_field_do_not_keep_a_rule_alive() {
        use crate::verify::{tables_equivalent, Domain, DEFAULT_VERIFY_BUDGET};
        let v4_host = "100.10.10.10/32";
        let fixtures = [
            MatchSpec {
                dscp: Some(RangeMatch::new(0, 63)),
                ..spec(v4_host)
            },
            MatchSpec {
                fragment: Some(BitsMatch::none_of(0x10)),
                ..spec(v4_host)
            },
            MatchSpec {
                flow_label: Some(RangeMatch::new(0, 0xF_FFFF)),
                ..spec("2001:db8::1/128")
            },
        ];
        for first in fixtures {
            let second = MatchSpec::to_destination(first.dst_ip.unwrap());
            let table = [
                rule(1, 10, first, ActionClass::Drop),
                rule(2, 10, second, ActionClass::Shape { rate_bps: 1 }),
            ];
            let t = analyze(&table);
            assert_eq!(t.dead_flag(2), Some(RuleFlag::Shadowed { by: 1 }));
            assert!(t.witness(2).is_none());
            let dom = Domain::canonical();
            let same = tables_equivalent(&table, &table[..1], &dom, DEFAULT_VERIFY_BUDGET);
            assert_eq!(same, Ok(true), "verify agrees rule 2 is dead");
        }
        // One family per packet: a v6 source towards a v4 destination
        // matches nothing, for analyze as for verify.
        let mixed = MatchSpec {
            src_ip: Some("2001:db8::/64".parse().unwrap()),
            ..spec(v4_host)
        };
        assert!(spec_is_empty(&mixed));
        let table = [rule(1, 10, mixed, ActionClass::Drop)];
        assert_eq!(analyze(&table).dead_flag(1), Some(RuleFlag::Unreachable));
        let dom = Domain::canonical();
        assert_eq!(
            tables_equivalent(&table, &[], &dom, DEFAULT_VERIFY_BUDGET),
            Ok(true)
        );
    }

    #[test]
    fn v6_rules_analyze_like_v4() {
        let t = analyze(&[
            rule(1, 10, spec("2001:db8::/64"), ActionClass::Drop),
            rule(2, 10, ntp("2001:db8::1/128"), ActionClass::Drop),
        ]);
        assert_eq!(t.dead_flag(2), Some(RuleFlag::Redundant { by: 1 }));
        // Across families there is no coverage.
        let t = analyze(&[
            rule(1, 10, spec("2001:db8::/64"), ActionClass::Drop),
            rule(2, 10, spec("100.10.10.10/32"), ActionClass::Drop),
        ]);
        assert!(t.findings.is_empty());
        assert_eq!(t.witnesses.len(), 2);
    }
}
