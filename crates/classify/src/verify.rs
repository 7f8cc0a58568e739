//! Exact semantic algebra over first-match rule tables.
//!
//! [`crate::analyze`] finds pathologies *within* one table (shadowing,
//! conflicts, unreachability). This module compares *two* tables: are
//! they equivalent, is one's drop set contained in the other's, and —
//! when they differ — exactly which flow keys disagree, how many, and a
//! concrete witness packet for each disagreement class. "Optimal
//! Filtering for DDoS Attacks" frames mitigation as maximizing dropped
//! attack traffic minus collateral damage; that objective is only
//! computable with an exact account of what a table drops, which is what
//! this module provides (and what every control-plane transformation —
//! degradation ladder, FlowSpec lowering, placement fan-out, future
//! aggregation — is verified against).
//!
//! # Method
//!
//! A table denotes a function `FlowKey -> Outcome` under first-match
//! (lowest `(priority, id)` wins; no match = [`Outcome::NoMatch`]). Two
//! tables are compared by recursively partitioning the flow-key space
//! one field at a time, in the order of [`crate::set`]'s field table,
//! into *atoms*: subdomains on which every live rule's criterion for
//! that field is constant. How each kind of field atomises, the gates
//! that couple fields to the protocol and family, and why counts are
//! over *canonical* keys is `set`'s to say (`set::each_atom`,
//! [`Domain`]); this module owns the recursion over two tables.
//!
//! Three prunes keep the recursion polynomial on real tables: subtrees
//! where both tables' live rule sequences are pointwise identical are
//! skipped; subtrees where both tables are already decided (first live
//! rule unconstrained on all remaining fields, or no live rules) are
//! resolved in bulk with a product-of-domains cardinality; and a node
//! budget bounds the worst case, failing loudly with
//! [`VerifyError::Budget`] instead of silently sampling.
//!
//! Every reported difference region carries a witness key that is
//! re-validated against the *original* tables with the real
//! [`MatchSpec::matches`] before being returned — the algebra is never
//! its own oracle. Cardinalities are exact in `u128`, saturating at
//! `u128::MAX` (only reachable when full IPv6 address dimensions are in
//! the domain).

use crate::analyze::{ActionClass, AuditRule};
use crate::classifier::RuleEntry;
pub use crate::set::Domain;
use crate::set::{each_atom, Cell, Ctx, Field, Region};
use crate::spec::MatchSpec;
use core::fmt;
use std::collections::BTreeMap;
use stellar_net::flow::FlowKey;

/// Default recursion-node budget for [`diff_tables`]. Each node is
/// `O(live rules)` work; real control-plane tables (tens to a few
/// thousand rules) stay far below this.
pub const DEFAULT_VERIFY_BUDGET: usize = 1_000_000;

/// What a table does with one flow key. [`ActionClass`] plus the
/// "no rule matched" outcome. The derived order is the deterministic
/// region-report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Outcome {
    /// A drop rule won.
    Drop,
    /// A shape rule won.
    Shape {
        /// Shaping rate in bits per second.
        rate_bps: u64,
    },
    /// An explicit forward rule won.
    Forward,
    /// No rule matched; default forwarding applies.
    NoMatch,
}

impl From<ActionClass> for Outcome {
    fn from(a: ActionClass) -> Self {
        match a {
            ActionClass::Drop => Outcome::Drop,
            ActionClass::Shape { rate_bps } => Outcome::Shape { rate_bps },
            ActionClass::Forward => Outcome::Forward,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Drop => write!(f, "drop"),
            Outcome::Shape { rate_bps } => write!(f, "shape({rate_bps})"),
            Outcome::Forward => write!(f, "forward"),
            Outcome::NoMatch => write!(f, "no-match"),
        }
    }
}

/// One maximal class of disagreeing flow keys: all keys in the class get
/// `outcome_a` from table A and `outcome_b` from table B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffRegion {
    /// What table A does with these keys.
    pub outcome_a: Outcome,
    /// What table B does with these keys.
    pub outcome_b: Outcome,
    /// Exact number of canonical keys in the class (saturating).
    pub keys: u128,
    /// A concrete key in the class, validated against both original
    /// tables with [`MatchSpec::matches`] first-match evaluation.
    pub witness: FlowKey,
}

/// The exact semantic difference of two tables over a [`Domain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemDiff {
    /// Disagreement classes, ordered by `(outcome_a, outcome_b)`.
    /// Empty means the tables are semantically equivalent.
    pub regions: Vec<DiffRegion>,
    /// Total number of keys on which the tables disagree (saturating).
    pub differing_keys: u128,
    /// Recursion nodes visited (work accounting; deterministic).
    pub nodes: usize,
}

impl SemDiff {
    /// True when the tables agree on every key in the domain.
    pub fn is_equivalent(&self) -> bool {
        self.regions.is_empty()
    }

    /// Keys table A drops that table B does not (over-block of A
    /// relative to B), with a witness region if any.
    pub fn drop_lost(&self) -> Option<&DiffRegion> {
        self.regions
            .iter()
            .find(|r| r.outcome_a == Outcome::Drop && r.outcome_b != Outcome::Drop)
    }

    /// Keys table B drops that table A does not, if any.
    pub fn drop_gained(&self) -> Option<&DiffRegion> {
        self.regions
            .iter()
            .find(|r| r.outcome_a != Outcome::Drop && r.outcome_b == Outcome::Drop)
    }

    /// Total keys newly dropped by B (saturating sum over regions).
    pub fn drop_gained_keys(&self) -> u128 {
        self.regions
            .iter()
            .filter(|r| r.outcome_a != Outcome::Drop && r.outcome_b == Outcome::Drop)
            .fold(0u128, |s, r| s.saturating_add(r.keys))
    }
}

/// Why a verification run could not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The recursion-node budget was exhausted: the tables are too
    /// adversarially fragmented for the given budget. No partial answer
    /// is returned — this is exact-or-nothing.
    Budget {
        /// Nodes visited when the budget tripped.
        nodes: usize,
    },
    /// Internal soundness failure: a region's witness did not evaluate
    /// to the region's outcomes under real first-match evaluation. This
    /// indicates a bug in the algebra itself and is never expected.
    WitnessMismatch {
        /// Outcomes the algebra claimed for the witness (A, B).
        expected: (Outcome, Outcome),
        /// Outcomes real evaluation produced (A, B).
        found: (Outcome, Outcome),
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Budget { nodes } => {
                write!(f, "verify budget exhausted after {nodes} nodes")
            }
            VerifyError::WitnessMismatch { expected, found } => write!(
                f,
                "witness mismatch: algebra claimed ({}, {}), evaluation found ({}, {})",
                expected.0, expected.1, found.0, found.1
            ),
        }
    }
}

/// One degradation-ladder step, verified. The ladder obligation: a step
/// may only *widen* the dropped set (never shrink it), and must not
/// change the outcome of any key the degraded rule did not already
/// cover if that key was being shaped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderReport {
    /// A region dropped before the step but not after — a drop-set
    /// shrink, violating monotonicity. `None` when monotone.
    pub shrunk: Option<DiffRegion>,
    /// A region *outside* the degraded rule's old match that was shaped
    /// before the step and changed outcome — shaped telemetry traffic
    /// the step had no business touching. `None` when untouched.
    pub shaped_touched: Option<DiffRegion>,
    /// Exact number of keys newly dropped by the step (the widening).
    pub widened_keys: u128,
    /// Recursion nodes spent across both diffs.
    pub nodes: usize,
}

impl LadderReport {
    /// True when the step satisfies the ladder obligation.
    pub fn is_monotone(&self) -> bool {
        self.shrunk.is_none() && self.shaped_touched.is_none()
    }
}

/// Computes the exact semantic difference of two first-match tables
/// over `dom`. Rules are ranked by `(priority, id)` ascending;
/// unsatisfiable specs are dropped (they can never match). `budget`
/// bounds recursion nodes; [`DEFAULT_VERIFY_BUDGET`] is ample for real
/// tables.
pub fn diff_tables(
    a: &[AuditRule],
    b: &[AuditRule],
    dom: &Domain,
    budget: usize,
) -> Result<SemDiff, VerifyError> {
    let d = Differ {
        dom,
        a: build(a),
        b: build(b),
        budget,
    };
    let mut t = Tally::default();
    let la: Vec<u32> = (0..d.a.len() as u32).collect();
    let lb: Vec<u32> = (0..d.b.len() as u32).collect();
    d.go(0, Ctx::START, FlowKey::default(), 1, &la, &lb, &mut t)?;
    let regions = t
        .regions
        .iter()
        .map(|(&(outcome_a, outcome_b), &(keys, witness))| DiffRegion {
            outcome_a,
            outcome_b,
            keys,
            witness,
        })
        .collect();
    Ok(SemDiff {
        regions,
        differing_keys: t.total,
        nodes: t.nodes,
    })
}

/// True when the two tables produce the same outcome for every key in
/// the domain.
pub fn tables_equivalent(
    a: &[AuditRule],
    b: &[AuditRule],
    dom: &Domain,
    budget: usize,
) -> Result<bool, VerifyError> {
    Ok(diff_tables(a, b, dom, budget)?.is_equivalent())
}

/// A witness region that table `a` drops but table `b` does not, if
/// any. `None` certifies `drop(a) ⊆ drop(b)` over the domain.
pub fn drop_not_contained(
    a: &[AuditRule],
    b: &[AuditRule],
    dom: &Domain,
    budget: usize,
) -> Result<Option<DiffRegion>, VerifyError> {
    Ok(diff_tables(a, b, dom, budget)?.drop_lost().copied())
}

/// Evaluates a table's first-match outcome for one key — the reference
/// semantics ([`MatchSpec::matches`], lowest `(priority, id)` wins).
pub fn eval_table(rules: &[AuditRule], key: &FlowKey) -> Outcome {
    let mut best: Option<(u16, u64, Outcome)> = None;
    for r in rules {
        if r.entry.spec.matches(key) {
            let rank = (r.entry.priority, r.entry.id, Outcome::from(r.action));
            if best.is_none_or(|(p, i, _)| (rank.0, rank.1) < (p, i)) {
                best = Some(rank);
            }
        }
    }
    best.map_or(Outcome::NoMatch, |(_, _, o)| o)
}

/// Verifies one degradation-ladder step: `before` is the table prior to
/// the step, `after` the table after, `old_spec` the degraded rule's
/// match *before* degradation. The shaped-untouched half is computed by
/// diffing the two tables each behind a top-priority `Forward` sentinel
/// carrying `old_spec` — the sentinel forces agreement on every key the
/// old rule covered, so the remaining diff is exactly the keys outside
/// it, where any previously-shaped region is a violation.
pub fn check_ladder_step(
    before: &[AuditRule],
    after: &[AuditRule],
    old_spec: &MatchSpec,
    dom: &Domain,
    budget: usize,
) -> Result<LadderReport, VerifyError> {
    let full = diff_tables(before, after, dom, budget)?;
    let shrunk = full.drop_lost().copied();
    let widened_keys = full.drop_gained_keys();
    let masked = diff_tables(
        &with_sentinel(before, old_spec),
        &with_sentinel(after, old_spec),
        dom,
        budget,
    )?;
    let shaped_touched = masked
        .regions
        .iter()
        .find(|r| matches!(r.outcome_a, Outcome::Shape { .. }))
        .copied();
    Ok(LadderReport {
        shrunk,
        shaped_touched,
        widened_keys,
        nodes: full.nodes + masked.nodes,
    })
}

/// Prepends a `Forward` rule matching `mask_spec` at strictly-first
/// rank (shifting priorities by one when 0 is occupied), restricting
/// any subsequent diff to keys outside `mask_spec`.
fn with_sentinel(rules: &[AuditRule], mask_spec: &MatchSpec) -> Vec<AuditRule> {
    let minp = rules.iter().map(|r| r.entry.priority).min().unwrap_or(1);
    let (shift, sentinel_prio) = if minp == 0 { (1, 0) } else { (0, minp - 1) };
    let mut out = Vec::with_capacity(rules.len() + 1);
    out.push(AuditRule::new(
        RuleEntry::new(u64::MAX, sentinel_prio, mask_spec.clone()),
        ActionClass::Forward,
    ));
    for r in rules {
        let mut r2 = r.clone();
        r2.entry.priority = r2.entry.priority.saturating_add(shift);
        out.push(r2);
    }
    out
}

// ---------------------------------------------------------------------
// The recursive differ.
// ---------------------------------------------------------------------

/// One rule as the differ sees it, at its rank-ordered position in the
/// table: its canonical match set, the spec the reference predicate
/// reads, and its outcome.
struct EvalRule<'t> {
    region: Region<'t>,
    spec: &'t MatchSpec,
    action: Outcome,
}

/// Rank-sorts and strips unsatisfiable rules; the resulting sequence
/// order *is* the first-match evaluation order.
fn build(rules: &[AuditRule]) -> Vec<EvalRule<'_>> {
    let mut sorted: Vec<&AuditRule> = rules.iter().collect();
    sorted.sort_by_key(|r| (r.entry.priority, r.entry.id));
    sorted
        .into_iter()
        .map(|r| EvalRule {
            region: Region::of(&r.entry.spec),
            spec: &r.entry.spec,
            action: Outcome::from(r.action),
        })
        .filter(|r| !r.region.is_empty())
        .collect()
}

/// The table's outcome on the whole remaining subdomain, if already
/// determined: no live rules (NoMatch) or a first live rule that
/// constrains no field from `idx` on and so matches everything left
/// (gate couplings are folded into its protocol set and family).
fn decided(rules: &[EvalRule], live: &[u32], idx: usize) -> Option<Outcome> {
    match live.first() {
        None => Some(Outcome::NoMatch),
        Some(&i) => {
            let r = &rules[i as usize];
            r.region.free_from(idx).then_some(r.action)
        }
    }
}

/// The regions of the `live` rules, in order.
fn regions<'t>(
    rules: &'t [EvalRule<'t>],
    live: &'t [u32],
) -> impl Iterator<Item = &'t Region<'t>> + Clone {
    live.iter().map(|&i| &rules[i as usize].region)
}

struct Differ<'d> {
    dom: &'d Domain,
    a: Vec<EvalRule<'d>>,
    b: Vec<EvalRule<'d>>,
    budget: usize,
}

/// What a diff has found so far.
#[derive(Default)]
struct Tally {
    nodes: usize,
    /// `(outcome_a, outcome_b)` -> (keys, first witness). BTreeMap for
    /// deterministic report order.
    regions: BTreeMap<(Outcome, Outcome), (u128, FlowKey)>,
    total: u128,
}

impl Differ<'_> {
    /// One node of the partition recursion: `key` is fixed on the fields
    /// before walk position `idx` and stands for `count` keys; `la` and
    /// `lb` are the rules of each table that match it so far.
    #[allow(clippy::too_many_arguments)]
    fn go(
        &self,
        idx: usize,
        ctx: Ctx,
        key: FlowKey,
        count: u128,
        la: &[u32],
        lb: &[u32],
        t: &mut Tally,
    ) -> Result<(), VerifyError> {
        t.nodes += 1;
        if t.nodes > self.budget {
            return Err(VerifyError::Budget { nodes: t.nodes });
        }
        // Identical live sequences (including both empty) agree on
        // every remaining key by construction.
        if la.len() == lb.len()
            && la.iter().zip(lb.iter()).all(|(&i, &j)| {
                let (ra, rb) = (&self.a[i as usize], &self.b[j as usize]);
                ra.action == rb.action && ra.spec == rb.spec
            })
        {
            return Ok(());
        }
        let da = decided(&self.a, la, idx);
        let db = decided(&self.b, lb, idx);
        if let (Some(oa), Some(ob)) = (da, db) {
            if oa == ob {
                return Ok(());
            }
            let keys = count.saturating_mul(self.dom.size_from(idx, ctx));
            let wit = self.dom.complete_key(key, idx, ctx);
            return self.record(oa, ob, keys, wit, t);
        }
        let Some(&f) = Field::ALL.get(idx) else {
            let oa = la
                .first()
                .map_or(Outcome::NoMatch, |&i| self.a[i as usize].action);
            let ob = lb
                .first()
                .map_or(Outcome::NoMatch, |&j| self.b[j as usize].action);
            if oa != ob {
                return self.record(oa, ob, count, key, t);
            }
            return Ok(());
        };
        // Only a field some live rule constrains can tell live rules
        // apart; on any other every atom keeps them all. (No live rule
        // constrains a gated-off field — the protocol or family split
        // already removed it — so its one atom, pinned to 0, does too.)
        let live = regions(&self.a, la).chain(regions(&self.b, lb));
        let splits = live.clone().any(|r| r.constrains(f));
        let cells: Vec<Cell> = if splits {
            live.map(|r| r.cell_or_any(f)).collect()
        } else {
            Vec::new()
        };
        each_atom(f, ctx, self.dom, cells.iter().copied(), |v, keys| {
            let keep = |live: &[u32], cells: &[Cell]| -> Vec<u32> {
                let admitted = live.iter().zip(cells).filter(|(_, c)| c.admits(v));
                admitted.map(|(&i, _)| i).collect()
            };
            let kept = splits.then(|| {
                let (ca, cb) = cells.split_at(la.len());
                (keep(la, ca), keep(lb, cb))
            });
            let (la, lb) = kept.as_ref().map_or((la, lb), |(a, b)| (a, b));
            let ctx = ctx.with(f, v);
            let mut key = key;
            f.write(&mut key, ctx, v);
            let count = count.saturating_mul(keys);
            self.go(idx + 1, ctx, key, count, la, lb, t)
        })
    }

    /// Validates a region's witness against the *original* semantics
    /// and accumulates it. The algebra never certifies a difference its
    /// own inputs cannot reproduce.
    fn record(
        &self,
        oa: Outcome,
        ob: Outcome,
        keys: u128,
        wit: FlowKey,
        t: &mut Tally,
    ) -> Result<(), VerifyError> {
        let va = eval_prepared(&self.a, &wit);
        let vb = eval_prepared(&self.b, &wit);
        if va != oa || vb != ob {
            return Err(VerifyError::WitnessMismatch {
                expected: (oa, ob),
                found: (va, vb),
            });
        }
        t.total = t.total.saturating_add(keys);
        let e = t.regions.entry((oa, ob)).or_insert((0u128, wit));
        e.0 = e.0.saturating_add(keys);
        Ok(())
    }
}

/// First-match evaluation over an already rank-sorted, satisfiable-only
/// sequence.
fn eval_prepared(rules: &[EvalRule], key: &FlowKey) -> Outcome {
    rules
        .iter()
        .find(|r| r.spec.matches(key))
        .map_or(Outcome::NoMatch, |r| r.action)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BitsMatch, PortMatch};
    use stellar_net::addr::{IpAddress, Ipv4Address};
    use stellar_net::mac::MacAddr;
    use stellar_net::prefix::{Ipv4Prefix, Prefix};
    use stellar_net::proto::IpProtocol;

    fn v4(a: u8, b: u8, c: u8, d: u8, len: u8) -> Prefix {
        match Ipv4Prefix::new(Ipv4Address([a, b, c, d]), len) {
            Ok(p) => Prefix::V4(p),
            Err(_) => Prefix::V4(Ipv4Prefix::host(Ipv4Address([a, b, c, d]))),
        }
    }

    fn rule(id: u64, prio: u16, spec: MatchSpec, action: ActionClass) -> AuditRule {
        AuditRule::new(RuleEntry::new(id, prio, spec), action)
    }

    /// A small fully-v4 domain where counts are checkable by hand:
    /// 1 src MAC x 1 dst MAC x 4 src IPs x 4 dst IPs x 2 protocols
    /// (UDP, GRE) x 4 ports each way x 1 len x 1 dscp x 1 frag value
    /// domain bit off ... etc.
    fn tiny() -> Domain {
        Domain {
            src_macs: vec![(0, 0)],
            dst_macs: vec![(0, 0)],
            src_ip_v4: vec![(0, 3)],
            dst_ip_v4: vec![(0, 3)],
            src_ip_v6: vec![],
            dst_ip_v6: vec![],
            protocols: vec![IpProtocol::UDP.0, IpProtocol::GRE.0],
            ports: vec![(0, 3)],
            packet_len: vec![(100, 100)],
            dscp: vec![(0, 0)],
            tcp_flags_mask: 0,
            fragment_mask: 0,
            icmp_type: vec![(0, 0)],
            icmp_code: vec![(0, 0)],
            flow_label: vec![(0, 0)],
        }
    }

    /// tiny(): UDP keys = 4*4*4*4 = 256, GRE keys = 4*4 = 16.
    const TINY_UDP: u128 = 256;
    const TINY_GRE: u128 = 16;

    #[test]
    fn tiny_domain_size_is_exact() {
        assert_eq!(tiny().size(), TINY_UDP + TINY_GRE);
    }

    #[test]
    fn empty_tables_are_equivalent() {
        let d = tiny();
        let diff = diff_tables(&[], &[], &d, 1000).unwrap();
        assert!(diff.is_equivalent());
        assert_eq!(diff.differing_keys, 0);
    }

    #[test]
    fn drop_all_vs_empty_counts_whole_domain() {
        let d = tiny();
        let t = vec![rule(1, 10, MatchSpec::default(), ActionClass::Drop)];
        let diff = diff_tables(&t, &[], &d, 1000).unwrap();
        assert_eq!(diff.regions.len(), 1);
        let r = &diff.regions[0];
        assert_eq!(
            (r.outcome_a, r.outcome_b),
            (Outcome::Drop, Outcome::NoMatch)
        );
        assert_eq!(r.keys, TINY_UDP + TINY_GRE);
        assert_eq!(diff.differing_keys, TINY_UDP + TINY_GRE);
    }

    #[test]
    fn single_prefix_rule_cardinality_is_exact() {
        let d = tiny();
        // dst 0.0.0.0/31 -> 2 dst IPs; everything else free.
        let spec = MatchSpec::to_destination(v4(0, 0, 0, 0, 31));
        let t = vec![rule(1, 10, spec, ActionClass::Drop)];
        let diff = diff_tables(&t, &[], &d, 10_000).unwrap();
        // UDP: 4 src * 2 dst * 4 * 4 ports = 128; GRE: 4 * 2 = 8.
        assert_eq!(diff.differing_keys, 128 + 8);
    }

    #[test]
    fn port_coupling_restricts_to_portful_protocols() {
        let d = tiny();
        // src_port 2 with no protocol: only UDP (GRE is portless).
        let spec = MatchSpec {
            src_port: Some(PortMatch::Exact(2)),
            ..Default::default()
        };
        let t = vec![rule(1, 10, spec, ActionClass::Drop)];
        let diff = diff_tables(&t, &[], &d, 10_000).unwrap();
        // 4 src * 4 dst * 1 src_port * 4 dst_port = 64 UDP keys.
        assert_eq!(diff.differing_keys, 64);
        assert_eq!(diff.regions[0].witness.protocol, IpProtocol::UDP);
    }

    #[test]
    fn reordering_disjoint_rules_is_equivalent() {
        let d = tiny();
        let s1 = MatchSpec::to_destination(v4(0, 0, 0, 0, 32));
        let s2 = MatchSpec::to_destination(v4(0, 0, 0, 1, 32));
        let a = vec![
            rule(1, 10, s1.clone(), ActionClass::Drop),
            rule(2, 20, s2.clone(), ActionClass::Forward),
        ];
        let b = vec![
            rule(1, 20, s1, ActionClass::Drop),
            rule(2, 10, s2, ActionClass::Forward),
        ];
        assert!(tables_equivalent(&a, &b, &d, 10_000).unwrap());
    }

    #[test]
    fn shadow_reorder_is_detected_with_valid_witness() {
        let d = tiny();
        let wide = MatchSpec::to_destination(v4(0, 0, 0, 0, 30)); // all 4 dsts
        let narrow = MatchSpec::to_destination(v4(0, 0, 0, 1, 32));
        // A: narrow forward first, wide drop second.
        let a = vec![
            rule(1, 10, narrow.clone(), ActionClass::Forward),
            rule(2, 20, wide.clone(), ActionClass::Drop),
        ];
        // B: wide drop first shadows the forward.
        let b = vec![
            rule(1, 20, narrow, ActionClass::Forward),
            rule(2, 10, wide, ActionClass::Drop),
        ];
        let diff = diff_tables(&a, &b, &d, 10_000).unwrap();
        assert_eq!(diff.regions.len(), 1);
        let r = &diff.regions[0];
        assert_eq!(
            (r.outcome_a, r.outcome_b),
            (Outcome::Forward, Outcome::Drop)
        );
        // dst fixed to .1: UDP 4*4*4 + GRE 4 = 68 keys.
        assert_eq!(r.keys, 68);
        assert_eq!(r.witness.dst_ip, IpAddress::V4(Ipv4Address([0, 0, 0, 1])));
        // Witness is real: validated by eval_table over the originals.
        assert_eq!(eval_table(&a, &r.witness), Outcome::Forward);
        assert_eq!(eval_table(&b, &r.witness), Outcome::Drop);
    }

    #[test]
    fn containment_direction_is_reported() {
        let d = tiny();
        let narrow = vec![rule(
            1,
            10,
            MatchSpec::to_destination(v4(0, 0, 0, 0, 32)),
            ActionClass::Drop,
        )];
        let wide = vec![rule(
            1,
            10,
            MatchSpec::to_destination(v4(0, 0, 0, 0, 30)),
            ActionClass::Drop,
        )];
        // narrow ⊆ wide: nothing narrow drops escapes wide.
        assert!(drop_not_contained(&narrow, &wide, &d, 10_000)
            .unwrap()
            .is_none());
        // wide ⊄ narrow, with a witness outside the /32.
        let w = drop_not_contained(&wide, &narrow, &d, 10_000)
            .unwrap()
            .expect("wide must exceed narrow");
        assert_eq!(eval_table(&wide, &w.witness), Outcome::Drop);
        assert_eq!(eval_table(&narrow, &w.witness), Outcome::NoMatch);
    }

    #[test]
    fn ladder_widening_is_monotone() {
        let d = tiny();
        let shape = rule(
            5,
            5,
            MatchSpec {
                dst_ip: Some(v4(0, 0, 0, 2, 32)),
                ..Default::default()
            },
            ActionClass::Shape { rate_bps: 1000 },
        );
        let old = MatchSpec::proto_src_port_to(v4(0, 0, 0, 0, 32), IpProtocol::UDP, 1);
        let new = MatchSpec::to_destination(v4(0, 0, 0, 0, 32));
        let before = vec![shape.clone(), rule(9, 10, old.clone(), ActionClass::Drop)];
        let after = vec![shape, rule(9, 10, new, ActionClass::Drop)];
        let rep = check_ladder_step(&before, &after, &old, &d, 10_000).unwrap();
        assert!(rep.is_monotone(), "widening must be monotone: {rep:?}");
        // Newly dropped: dst .0, minus the 4 old (UDP src_port 1) keys...
        // before: UDP src_port=1 dst=.0: 4 src * 4 dst_port = 16 keys.
        // after: dst=.0 everywhere: UDP 4*4*4=64 + GRE 4 = 68.
        assert_eq!(rep.widened_keys, 68 - 16);
    }

    #[test]
    fn ladder_shrink_is_flagged() {
        let d = tiny();
        let old = MatchSpec::to_destination(v4(0, 0, 0, 0, 31));
        let new = MatchSpec::to_destination(v4(0, 0, 0, 0, 32)); // narrower!
        let before = vec![rule(9, 10, old.clone(), ActionClass::Drop)];
        let after = vec![rule(9, 10, new, ActionClass::Drop)];
        let rep = check_ladder_step(&before, &after, &old, &d, 10_000).unwrap();
        assert!(rep.shrunk.is_some());
        assert!(!rep.is_monotone());
    }

    #[test]
    fn ladder_touching_shaped_traffic_is_flagged() {
        let d = tiny();
        // A shape rule on dst .2; the "degradation" of a drop rule on
        // dst .0 illegally lands on .2 too (covers the shaped key with
        // an earlier priority), turning shaped traffic into drops.
        let shape = rule(
            5,
            20,
            MatchSpec {
                dst_ip: Some(v4(0, 0, 0, 2, 32)),
                ..Default::default()
            },
            ActionClass::Shape { rate_bps: 1000 },
        );
        let old = MatchSpec::to_destination(v4(0, 0, 0, 0, 32));
        let bad_new = MatchSpec::to_destination(v4(0, 0, 0, 2, 31)); // covers .2 and .3
        let before = vec![shape.clone(), rule(9, 10, old.clone(), ActionClass::Drop)];
        let after = vec![shape, rule(9, 10, bad_new, ActionClass::Drop)];
        let rep = check_ladder_step(&before, &after, &old, &d, 10_000).unwrap();
        assert!(rep.shaped_touched.is_some(), "must flag shaped touch");
        let r = rep.shaped_touched.unwrap();
        assert!(matches!(r.outcome_a, Outcome::Shape { .. }));
        assert_eq!(r.outcome_b, Outcome::Drop);
    }

    #[test]
    fn budget_exhaustion_errors_instead_of_sampling() {
        let d = tiny();
        let t: Vec<AuditRule> = (0..8)
            .map(|i| {
                rule(
                    i,
                    10 + i as u16,
                    MatchSpec {
                        src_port: Some(PortMatch::Exact(i as u16 % 4)),
                        dst_port: Some(PortMatch::Exact((i as u16 + 1) % 4)),
                        ..Default::default()
                    },
                    ActionClass::Drop,
                )
            })
            .collect();
        assert_eq!(
            diff_tables(&t, &[], &d, 3),
            Err(VerifyError::Budget { nodes: 4 })
        );
    }

    #[test]
    fn v6_saturating_cardinality() {
        let d = Domain::canonical();
        let t = vec![rule(1, 10, MatchSpec::default(), ActionClass::Drop)];
        let diff = diff_tables(&t, &[], &d, 10_000).unwrap();
        // Full v6 address dimensions saturate the count.
        assert_eq!(diff.differing_keys, u128::MAX);
    }

    #[test]
    fn tcp_flag_cubes_atomize_exactly() {
        let mut d = tiny();
        d.protocols = vec![IpProtocol::TCP.0];
        d.tcp_flags_mask = 0x07;
        // A: drop SYN-set (bit 1). B: drop SYN-set & ACK-clear (0x12
        // mask... use bits within 0x07: mask 0x03 value 0x02).
        let a = vec![rule(
            1,
            10,
            MatchSpec {
                tcp_flags: Some(BitsMatch::new(0x02, 0x02)),
                ..Default::default()
            },
            ActionClass::Drop,
        )];
        let b = vec![rule(
            1,
            10,
            MatchSpec {
                tcp_flags: Some(BitsMatch::new(0x03, 0x02)),
                ..Default::default()
            },
            ActionClass::Drop,
        )];
        let diff = diff_tables(&a, &b, &d, 100_000).unwrap();
        // A drops flags {x1x: bit1 set} = 4 of 8 values; B drops
        // {bit1 set, bit0 clear} = 2 of 8. Difference: 2 flag values,
        // everything else free: 4 src * 4 dst * 4 sport * 4 dport * 2.
        assert_eq!(diff.differing_keys, 4 * 4 * 4 * 4 * 2);
        let r = &diff.regions[0];
        assert_eq!(
            (r.outcome_a, r.outcome_b),
            (Outcome::Drop, Outcome::NoMatch)
        );
        assert_eq!(eval_table(&a, &r.witness), Outcome::Drop);
        assert_eq!(eval_table(&b, &r.witness), Outcome::NoMatch);
    }

    #[test]
    fn unsatisfiable_cube_never_matches() {
        let d = tiny();
        // value demands a bit outside the mask: unsatisfiable, and
        // spec_is_empty strips it -> equivalent to empty.
        let t = vec![rule(
            1,
            10,
            MatchSpec {
                fragment: Some(BitsMatch {
                    mask: 0x01,
                    value: 0x03,
                }),
                ..Default::default()
            },
            ActionClass::Drop,
        )];
        assert!(tables_equivalent(&t, &[], &d, 10_000).unwrap());
    }

    #[test]
    fn dst_mac_restriction_isolates_port_traffic() {
        let d = tiny();
        let m1 = MacAddr([0; 6]);
        let spec = MatchSpec {
            dst_mac: Some(MacAddr([0, 0, 0, 0, 0, 9])),
            ..Default::default()
        };
        // A rule pinned to a MAC outside the domain: invisible.
        let t = vec![rule(1, 10, spec, ActionClass::Drop)];
        assert!(tables_equivalent(&t, &[], &d.clone().with_dst_mac(m1), 10_000).unwrap());
    }
}
