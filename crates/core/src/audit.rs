//! Control-plane batch audit: the static rule-table analyzer
//! ([`stellar_classify::analyze`]) run over every proposed configuration
//! batch *before* it reaches the queue.
//!
//! The dynamic admission path only refuses a rule when the hardware does
//! (TCAM exhaustion at install time); a rule that installs fine but can
//! never be first-match — shadowed by an earlier rule on the same egress
//! port — burns TCAM criteria forever and silently does nothing. The
//! audit moves that gate to signal time: each member port's desired rule
//! set is analyzed as one table (rules only compete within a port; egress
//! placement isolates members from each other, §4.5), newly signaled
//! rules that come back dead or crossing-conflicted are refused before
//! they are enqueued, and the surviving batch's TCAM criteria footprint
//! is accounted against the hardware's free pools so capacity pressure is
//! visible *before* the install fails (the paper's Fig. 9 F1/F2 modes).
//!
//! The audit is candidate-scoped. A rule's verdict depends only on the
//! rule itself and the better-ranked rules of its owner's table, and
//! only candidates can be refused, so the audit judges the candidates'
//! owners' tables alone, and in them the candidates alone
//! ([`stellar_classify::analyze::judge_ranked`]): for `k` candidates
//! joining an owner's `n` standing rules that is `k` coverage scans, `k`
//! witness searches and at most `k·n` conflict tests per announcement —
//! not the `n` searches and `n²/2` tests of a whole-table analysis whose
//! other `n − k` verdicts nobody reads.
//!
//! There is one verdict path, `Auditor`, over tables of `Standing`
//! rules: each a reference into the plane that holds the rule, with the
//! region built when the rule entered desired state. The announcement
//! path (`StellarSystem::audit_changes`) reads those tables in place;
//! [`audit_batch`] is an adapter for callers holding plain
//! [`BlackholingRule`]s, which builds their regions and calls the same
//! `Auditor` (rules of other owners in `desired` cost one id
//! comparison each).

use crate::rule::{BlackholingRule, RuleAction};
use crate::signal::StellarSignal;
use std::borrow::Cow;
use std::collections::BTreeMap;
use stellar_bgp::types::Asn;
use stellar_classify::analyze::{
    judge_ranked, ActionClass, AuditRule, Finding, Ranked, RuleFlag, DEFAULT_WITNESS_BUDGET,
};
use stellar_classify::set::Region;
use stellar_classify::RuleEntry;
use stellar_dataplane::filter::MatchSpec;
use stellar_dataplane::switch::PortId;
use stellar_net::flow::FlowKey;
use stellar_net::prefix::Prefix;
use stellar_sim::fabric::Fabric;

/// Why the audit refused a newly signaled rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditRejection {
    /// The rule can never be first-match on its port: covered by a single
    /// earlier rule (`by = Some(id)`) or by the union of earlier rules /
    /// a self-contradictory spec (`by = None`).
    Shadowed {
        /// The single covering rule, when one exists.
        by: Option<u64>,
    },
    /// The rule's match set crosses an earlier rule's with an opposing
    /// action (drop vs. shape): on the shared traffic, rule rank — not
    /// the member's intent — would decide the outcome.
    Conflict {
        /// The earlier rule it crosses.
        with: u64,
    },
    /// The rule's own spec is unsatisfiable — an inverted port range
    /// like `Range(2000, 1000)`, a zero-value any-bit mask, or a field
    /// combination no packet can carry. Such a rule would install,
    /// burn TCAM criteria and silently match nothing, so it is refused
    /// outright, before any shadowing analysis.
    EmptyMatch,
    /// An exact duplicate: identical match set *and* identical action
    /// as an earlier rule. Distinct from [`AuditRejection::Shadowed`] —
    /// a duplicate is an idempotent re-signal (operator retries, tool
    /// double-fires), not a conflicting intent, and telemetry counts
    /// them separately.
    Duplicate {
        /// The earlier identical rule.
        of: u64,
    },
}

/// TCAM criteria accounting for the candidates that survived the audit,
/// against the fabric's free pools at audit time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreadmitReport {
    /// MAC-pool criteria the surviving candidates need.
    pub mac_needed: usize,
    /// L3–L4 criteria-pool entries the surviving candidates need.
    pub l34_needed: usize,
    /// MAC-pool entries currently free.
    pub mac_free: usize,
    /// L3–L4 pool entries currently free.
    pub l34_free: usize,
}

impl PreadmitReport {
    /// Whether the surviving batch fits the free pools as they stand.
    /// Advisory: concurrent removals can free space and the degradation
    /// ladder handles the miss, so a tight batch is queued anyway — but
    /// the pressure is now visible before the first install refusal.
    pub fn fits(&self) -> bool {
        self.mac_needed <= self.mac_free && self.l34_needed <= self.l34_free
    }
}

/// Per-PoP TCAM accounting: the surviving candidates that resolve to
/// ports on this PoP, against *this PoP's* free pools. TCAM budgets are
/// per router, so a batch can fit the fabric-wide sums while still
/// blowing one PoP's pool — these rows are where that shows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PopPreadmit {
    /// The PoP index.
    pub pop: u16,
    /// TCAM accounting against this PoP's pools.
    pub report: PreadmitReport,
}

/// The audit verdict for one proposed batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchAudit {
    /// Refused candidate rules with the reason, in rule-id order.
    pub rejected: Vec<(u64, AuditRejection)>,
    /// Fabric-wide TCAM accounting for the candidates that survived
    /// (needs and frees summed over PoPs).
    pub preadmit: PreadmitReport,
    /// The same accounting split per PoP, ascending PoP order, one row
    /// per PoP in the fabric.
    pub per_pop: Vec<PopPreadmit>,
    /// Candidates admitted without a reachability verdict, in rule-id
    /// order: no single rule covers them, and the witness search ran
    /// out of budget before it either reached them or proved them
    /// union-covered. A blow-out proves nothing, so they are admitted —
    /// but the caller gets to say so.
    pub unverified: Vec<u64>,
}

impl BatchAudit {
    /// Whether the surviving batch fits every PoP's free pools — the
    /// real admission forecast; the fabric-wide [`PreadmitReport::fits`]
    /// is optimistic when placement is skewed.
    pub fn fits(&self) -> bool {
        self.per_pop.iter().all(|p| p.report.fits())
    }
}

impl From<RuleAction> for ActionClass {
    fn from(a: RuleAction) -> Self {
        match a {
            RuleAction::Drop => ActionClass::Drop,
            RuleAction::Shape { rate_bps } => ActionClass::Shape { rate_bps },
        }
    }
}

pub(crate) fn to_audit_rule(r: &BlackholingRule) -> AuditRule {
    // Blackholing rules all compile at priority 100 (`to_filter_rule`),
    // so evaluation rank within a port is id order.
    AuditRule::new(
        RuleEntry::new(r.id, 100, r.match_spec()),
        ActionClass::from(r.action()),
    )
}

/// Where a standing rule's spec comes from when the audit needs it — to
/// confirm a witness with the reference predicate, or to charge a
/// survivor's TCAM criteria.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SpecOf<'a> {
    /// A lowered FlowSpec rule holds its spec.
    Held(&'a MatchSpec),
    /// A signal rule's spec is its signal scoped to the path's prefix.
    Signal(StellarSignal, Prefix),
}

impl<'a> SpecOf<'a> {
    /// The match spec.
    #[inline]
    pub(crate) fn spec(self) -> Cow<'a, MatchSpec> {
        match self {
            SpecOf::Held(spec) => Cow::Borrowed(spec),
            SpecOf::Signal(signal, victim) => Cow::Owned(signal.to_match_spec(victim)),
        }
    }
}

/// One desired rule as the audit judges it, read in place from the plane
/// that holds it: its id (its rank — every blackholing rule compiles at
/// priority 100), its action, and its region — the one built when the
/// rule entered desired state, or, through [`audit_batch`], one built
/// for this audit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Standing<'a> {
    pub(crate) id: u64,
    pub(crate) action: RuleAction,
    pub(crate) region: &'a Region<'a>,
    pub(crate) spec: SpecOf<'a>,
}

impl<'a> Standing<'a> {
    /// The rule's match spec.
    pub(crate) fn spec(&self) -> Cow<'a, MatchSpec> {
        self.spec.spec()
    }

    /// Whether the cached region is still the region of the rule's spec.
    pub(crate) fn region_is_current(&self) -> bool {
        *self.region == Region::of(&self.spec())
    }
}

impl Ranked for Standing<'_> {
    fn id(&self) -> u64 {
        self.id
    }

    fn action(&self) -> ActionClass {
        self.action.into()
    }

    fn region(&self) -> &Region<'_> {
        self.region
    }

    fn matches(&self, key: &FlowKey) -> bool {
        self.spec().matches(key)
    }
}

/// Audits one proposed batch: `desired` is the desired state the
/// candidates compete in (candidates already included) — every rule of
/// the candidates' owners; rules of other owners may be present and are
/// ignored. `candidate_ids` names the rules this batch would add. Tables
/// are formed per candidate owner (one egress port per member, so rules
/// only compete within an owner) and iterated in owner order — fully
/// deterministic. Only candidates are judged and only candidates are
/// ever refused; pre-existing anomalies among installed rules are the
/// reconciler's problem, not this batch's.
///
/// `owner_port` resolves a rule owner to its egress port (the manager's
/// registration); survivors are charged against the owning PoP's TCAM
/// pools as well as the fabric-wide sums. A survivor whose owner has no
/// registered port contributes to the fabric-wide needs only — the
/// admission path will refuse it as `UnknownOwner` later.
///
/// An adapter over the verdict path the system's admission uses: it
/// builds the candidate owners' regions here, then hands each owner's
/// table to the same `Auditor` the system hands its standing regions.
pub fn audit_batch(
    fabric: &Fabric,
    owner_port: impl Fn(Asn) -> Option<PortId>,
    desired: &[BlackholingRule],
    candidate_ids: &[u64],
) -> BatchAudit {
    audit_batch_with_budget(
        fabric,
        owner_port,
        desired,
        candidate_ids,
        DEFAULT_WITNESS_BUDGET,
    )
}

/// [`audit_batch`] at an explicit witness-search budget (the tests drive
/// the blow-out path through this).
pub(crate) fn audit_batch_with_budget(
    fabric: &Fabric,
    owner_port: impl Fn(Asn) -> Option<PortId>,
    desired: &[BlackholingRule],
    candidate_ids: &[u64],
    witness_budget: usize,
) -> BatchAudit {
    // The candidates' owners' rules, each with its spec built once.
    let mut tables: BTreeMap<Asn, Vec<(&BlackholingRule, MatchSpec)>> = desired
        .iter()
        .filter(|r| candidate_ids.contains(&r.id))
        .map(|r| (r.owner, Vec::new()))
        .collect();
    for r in desired {
        if let Some(table) = tables.get_mut(&r.owner) {
            table.push((r, r.match_spec()));
        }
    }
    let mut auditor = Auditor::new(fabric, witness_budget);
    for (owner, table) in &mut tables {
        table.sort_by_key(|(r, _)| r.id);
        let regions: Vec<Region> = table.iter().map(|(_, spec)| Region::of(spec)).collect();
        let rules = table.iter().zip(&regions);
        let standing: Vec<Standing> = rules
            .map(|((r, spec), region)| Standing {
                id: r.id,
                action: r.action(),
                region,
                spec: SpecOf::Held(spec),
            })
            .collect();
        auditor.judge(owner_port(*owner), &standing, candidate_ids);
    }
    auditor.finish()
}

/// The audit's one verdict path: judges the candidates of one owner's
/// table after another and books what survives against the TCAM pools.
pub(crate) struct Auditor<'f> {
    fabric: &'f Fabric,
    witness_budget: usize,
    audit: BatchAudit,
    /// Surviving `(mac, l34)` criteria per PoP.
    pop_needs: BTreeMap<u16, (usize, usize)>,
}

impl<'f> Auditor<'f> {
    pub(crate) fn new(fabric: &'f Fabric, witness_budget: usize) -> Self {
        Auditor {
            fabric,
            witness_budget,
            audit: BatchAudit::default(),
            pop_needs: BTreeMap::new(),
        }
    }

    /// Judges the candidates in `table` — every desired rule of one owner
    /// placed on `port`, in rule-id order — against the rules ranked
    /// before them, and books each verdict.
    pub(crate) fn judge(
        &mut self,
        port: Option<PortId>,
        table: &[Standing],
        candidate_ids: &[u64],
    ) {
        let is_candidate = |id| candidate_ids.contains(&id);
        let report = judge_ranked(table, is_candidate, self.witness_budget);
        let pop = port.and_then(|p| self.fabric.pop_of_port(p));
        for rule in table.iter().filter(|r| is_candidate(r.id)) {
            let id = rule.id;
            // A self-contradictory spec is refused with its own reason:
            // "shadowed" would blame earlier rules for a candidate that
            // could never match anything on an empty port either.
            if rule.region.is_empty() {
                self.audit.rejected.push((id, AuditRejection::EmptyMatch));
                continue;
            }
            let rejection = match report.dead_flag(id) {
                Some(RuleFlag::Shadowed { by }) | Some(RuleFlag::Redundant { by }) => {
                    Some(AuditRejection::Shadowed { by: Some(by) })
                }
                Some(RuleFlag::Duplicate { of }) => Some(AuditRejection::Duplicate { of }),
                Some(RuleFlag::Unreachable) => Some(AuditRejection::Shadowed { by: None }),
                Some(_) | None => report.findings.iter().find_map(|f| match f.flag {
                    RuleFlag::Conflict { with } if f.rule == id => {
                        Some(AuditRejection::Conflict { with })
                    }
                    _ => None,
                }),
            };
            if let Some(rej) = rejection {
                self.audit.rejected.push((id, rej));
                continue;
            }
            // A budget blowout proves nothing: admit, visibly.
            let unverified = Finding {
                rule: id,
                flag: RuleFlag::Unverified,
            };
            if report.findings.contains(&unverified) {
                self.audit.unverified.push(id);
            }
            let spec = rule.spec();
            let (mac, l34) = (spec.mac_criteria(), spec.l34_criteria());
            self.audit.preadmit.mac_needed += mac;
            self.audit.preadmit.l34_needed += l34;
            if let Some(pop) = pop {
                let e = self.pop_needs.entry(pop.0).or_default();
                e.0 += mac;
                e.1 += l34;
            }
        }
    }

    /// The verdicts in rule-id order, with the free pools as they stand.
    pub(crate) fn finish(self) -> BatchAudit {
        let Auditor {
            fabric,
            mut audit,
            pop_needs,
            ..
        } = self;
        audit.rejected.sort_by_key(|(id, _)| *id);
        audit.unverified.sort_unstable();
        audit.preadmit.mac_free = fabric.mac_free_total();
        audit.preadmit.l34_free = fabric.l34_free_total();
        audit.per_pop = fabric
            .routers()
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let (mac_needed, l34_needed) =
                    pop_needs.get(&(i as u16)).copied().unwrap_or((0, 0));
                PopPreadmit {
                    pop: i as u16,
                    report: PreadmitReport {
                        mac_needed,
                        l34_needed,
                        mac_free: r.tcam().mac_free(),
                        l34_free: r.tcam().l34_free(),
                    },
                }
            })
            .collect();
        audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{MatchKind, StellarSignal};
    use stellar_dataplane::hardware::HardwareInfoBase;
    use stellar_dataplane::port::MemberPort;
    use stellar_net::mac::MacAddr;
    use stellar_net::prefix::Prefix;
    use stellar_sim::fabric::PopId;

    fn fab() -> Fabric {
        let mut f = Fabric::single(HardwareInfoBase::lab_switch());
        f.add_port(
            PopId(0),
            PortId(1),
            MemberPort::new(64500, MacAddr::for_member(64500, 1), 1_000_000_000),
        );
        f
    }

    fn owner(a: Asn) -> Option<PortId> {
        (a == Asn(64500)).then_some(PortId(1))
    }

    fn victim() -> Prefix {
        "100.10.10.10/32".parse().unwrap()
    }

    fn rule(id: u64, owner: u32, signal: StellarSignal) -> BlackholingRule {
        BlackholingRule::from_signal(id, Asn(owner), victim(), signal)
    }

    #[test]
    fn candidate_shadowed_by_installed_rule_is_rejected() {
        let desired = [
            rule(1, 64500, StellarSignal::drop_all()),
            rule(2, 64500, StellarSignal::drop_udp_src(123)),
        ];
        let audit = audit_batch(&fab(), owner, &desired, &[2]);
        assert_eq!(
            audit.rejected,
            vec![(2, AuditRejection::Shadowed { by: Some(1) })]
        );
        // The rejected rule contributes nothing to the preadmit footprint.
        assert_eq!(audit.preadmit.l34_needed, 0);
    }

    #[test]
    fn identical_match_and_action_is_rejected_as_duplicate() {
        // Same match set, same action: an idempotent re-signal, refused
        // with its own reason — not blamed as a shadow (which implies a
        // conflicting or strictly-wider earlier rule).
        let desired = [
            rule(1, 64500, StellarSignal::drop_udp_src(123)),
            rule(2, 64500, StellarSignal::drop_udp_src(123)),
        ];
        let audit = audit_batch(&fab(), owner, &desired, &[2]);
        assert_eq!(
            audit.rejected,
            vec![(2, AuditRejection::Duplicate { of: 1 })]
        );
        assert_eq!(audit.preadmit.l34_needed, 0);
    }

    #[test]
    fn crossing_drop_shape_candidate_is_rejected() {
        // Installed: drop UDP src 123 to the victim. Candidate: shape UDP
        // *dst* 53 to the same victim — the match sets cross (a packet
        // can be src 123 AND dst 53; each rule also matches packets the
        // other misses), with opposing actions.
        let shape_dns_dst = StellarSignal {
            kind: MatchKind::UdpDstPort,
            port: 53,
            action: RuleAction::Shape {
                rate_bps: 200_000_000,
            },
        };
        let desired = [
            rule(1, 64500, StellarSignal::drop_udp_src(123)),
            rule(2, 64500, shape_dns_dst),
        ];
        let audit = audit_batch(&fab(), owner, &desired, &[2]);
        assert_eq!(
            audit.rejected,
            vec![(2, AuditRejection::Conflict { with: 1 })]
        );
    }

    #[test]
    fn disjoint_candidates_pass_with_preadmit_accounting() {
        let desired = [
            rule(1, 64500, StellarSignal::drop_udp_src(123)),
            rule(2, 64500, StellarSignal::drop_udp_src(53)),
        ];
        let audit = audit_batch(&fab(), owner, &desired, &[1, 2]);
        assert!(audit.rejected.is_empty());
        // Each victim-scoped UDP-src rule costs 3 L3-L4 criteria.
        assert_eq!(audit.preadmit.l34_needed, 6);
        assert_eq!(audit.preadmit.mac_needed, 0);
        assert!(audit.preadmit.fits());
    }

    #[test]
    fn inverted_port_range_candidate_is_refused_as_empty() {
        use stellar_dataplane::filter::{MatchSpec, PortMatch};
        // Range(2000, 1000) matches no port: the rule would install and
        // silently do nothing. It must be refused with its own reason —
        // not pass, and not be blamed on a shadowing rule.
        let spec = MatchSpec {
            dst_ip: Some(victim()),
            src_port: Some(PortMatch::Range(2000, 1000)),
            ..Default::default()
        };
        let inverted =
            BlackholingRule::from_flowspec(7, Asn(64500), victim(), spec, RuleAction::Drop);
        let desired = [rule(1, 64500, StellarSignal::drop_udp_src(123)), inverted];
        let audit = audit_batch(&fab(), owner, &desired, &[7]);
        assert_eq!(audit.rejected, vec![(7, AuditRejection::EmptyMatch)]);
        assert_eq!(audit.preadmit.l34_needed, 0);
    }

    #[test]
    fn mixed_family_candidate_is_refused_as_empty() {
        use stellar_dataplane::filter::MatchSpec;
        // A v6 source towards the v4 victim: a packet has one address
        // family, so no packet matches. Same fate as the inverted range.
        let spec = MatchSpec {
            dst_ip: Some(victim()),
            src_ip: Some("2001:db8::/32".parse().unwrap()),
            ..Default::default()
        };
        let mixed = BlackholingRule::from_flowspec(7, Asn(64500), victim(), spec, RuleAction::Drop);
        let audit = audit_batch(&fab(), owner, &[mixed], &[7]);
        assert_eq!(audit.rejected, vec![(7, AuditRejection::EmptyMatch)]);
        assert_eq!(audit.preadmit.l34_needed, 0);
    }

    #[test]
    fn candidates_of_one_batch_are_judged_against_each_other() {
        // Both rules arrive in the same batch: the port-scoped drop is
        // shadowed by the drop-all it was announced with, which itself
        // passes and is the only one charged.
        let desired = [
            rule(1, 64500, StellarSignal::drop_all()),
            rule(2, 64500, StellarSignal::drop_udp_src(123)),
        ];
        let audit = audit_batch(&fab(), owner, &desired, &[2, 1]);
        assert_eq!(
            audit.rejected,
            vec![(2, AuditRejection::Shadowed { by: Some(1) })]
        );
        assert_eq!(audit.preadmit.l34_needed, 1);
        assert!(audit.unverified.is_empty());
    }

    #[test]
    fn budget_blowout_admits_the_candidate_and_names_it() {
        use stellar_classify::spec::RangeMatch;
        use stellar_dataplane::filter::MatchSpec;
        let band = |id, lo, hi| {
            let spec = MatchSpec {
                dst_ip: Some(victim()),
                packet_len: Some(RangeMatch::new(lo, hi)),
                ..Default::default()
            };
            BlackholingRule::from_flowspec(id, Asn(64500), victim(), spec, RuleAction::Drop)
        };
        // Two length bands cover every packet to the victim; no single
        // rule covers candidate 3, so its fate is the witness search's.
        let desired = [
            band(1, 0, 999),
            band(2, 1000, u16::MAX),
            rule(3, 64500, StellarSignal::drop_all()),
        ];
        // With the default budget the search proves it union-covered.
        let audit = audit_batch(&fab(), owner, &desired, &[3]);
        assert_eq!(
            audit.rejected,
            vec![(3, AuditRejection::Shadowed { by: None })]
        );
        assert!(audit.unverified.is_empty());
        // With one leaf of fuel it proves nothing: admitted and charged,
        // but no longer silently.
        let audit = audit_batch_with_budget(&fab(), owner, &desired, &[3], 1);
        assert!(audit.rejected.is_empty());
        assert_eq!(audit.unverified, vec![3]);
        assert_eq!(audit.preadmit.l34_needed, 1);
    }

    #[test]
    fn owners_are_isolated() {
        // The same overlapping pair split across two owners: no table
        // contains both, so nothing is rejected.
        let desired = [
            rule(1, 64500, StellarSignal::drop_all()),
            rule(2, 64501, StellarSignal::drop_udp_src(123)),
        ];
        let audit = audit_batch(&fab(), owner, &desired, &[2]);
        assert!(audit.rejected.is_empty());
    }

    #[test]
    fn installed_anomalies_are_not_this_batchs_problem() {
        // Rules 1 and 2 are a pre-existing redundant pair, but only
        // candidate 3 is up for audit — and it is disjoint (TCP), so the
        // batch passes untouched.
        let drop_http_tcp = StellarSignal {
            kind: MatchKind::TcpSrcPort,
            port: 80,
            action: RuleAction::Drop,
        };
        let desired = [
            rule(1, 64500, StellarSignal::drop_udp_src(123)),
            rule(2, 64500, StellarSignal::drop_udp_src(123)),
            rule(3, 64500, drop_http_tcp),
        ];
        let audit = audit_batch(&fab(), owner, &desired, &[3]);
        assert!(audit.rejected.is_empty());
        assert_eq!(audit.preadmit.l34_needed, 3);
    }

    #[test]
    fn skewed_placement_blows_one_pop_while_fabric_sums_fit() {
        let mut f = Fabric::new(HardwareInfoBase::lab_switch(), 2);
        for (pop, port, asn) in [(0u16, 1u32, 64500u32), (0, 2, 64501), (1, 3, 64502)] {
            f.add_port(
                PopId(pop),
                PortId(port),
                MemberPort::new(asn, MacAddr::for_member(asn, 1), 1_000_000_000),
            );
        }
        // Fill PoP 0: 8 rules on each of its two ports, 3 L3-L4 criteria
        // apiece — 48 of the lab switch's 64, leaving 16 free there.
        let mut id = 100;
        for (port, asn) in [(PortId(1), 64500), (PortId(2), 64501)] {
            for i in 0..8u16 {
                let r = rule(id, asn, StellarSignal::drop_udp_src(1000 + i));
                f.install_rule(port, r.to_filter_rule(), 0).unwrap();
                id += 1;
            }
        }
        assert_eq!(f.routers()[0].tcam().l34_free(), 16);
        // Six disjoint candidates, all owned by the PoP-0 member: they
        // need 18 criteria — more than PoP 0 has, less than the fabric.
        let desired: Vec<BlackholingRule> = (0..6u64)
            .map(|i| rule(i + 1, 64500, StellarSignal::drop_udp_src(i as u16 + 1)))
            .collect();
        let ids: Vec<u64> = desired.iter().map(|r| r.id).collect();
        let resolve = |a: Asn| match a.0 {
            64500 => Some(PortId(1)),
            64501 => Some(PortId(2)),
            64502 => Some(PortId(3)),
            _ => None,
        };
        let audit = audit_batch(&f, resolve, &desired, &ids);
        assert!(audit.rejected.is_empty());
        assert_eq!(audit.preadmit.l34_needed, 18);
        assert!(audit.preadmit.fits(), "fabric-wide sums say it fits");
        assert!(!audit.fits(), "but PoP 0's own pool cannot take it");
        assert_eq!(audit.per_pop.len(), 2);
        assert_eq!(audit.per_pop[0].report.l34_needed, 18);
        assert_eq!(audit.per_pop[0].report.l34_free, 16);
        assert_eq!(audit.per_pop[1].report.l34_needed, 0);
        assert_eq!(audit.per_pop[1].report.l34_free, 64);
        assert!(audit.per_pop[1].report.fits());
    }
}
