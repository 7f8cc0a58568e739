//! Rule-table audit report: runs the static analyzer
//! (`classify::analyze`) over a representative member-port rule table —
//! exercising every finding kind — and drives the control plane's batch
//! audit end-to-end, demonstrating that shadowed and conflicting signals
//! are refused at signal time with deterministic rejection counters.
//!
//! Emits `results/rule_audit.json`. Fully offline and deterministic: the
//! scenario consumes no randomness, so the payload is byte-identical
//! across seeds (the run is repeated to prove it).

use stellar_bench::output;
use stellar_bgp::types::Asn;
use stellar_classify::analyze::{analyze, ActionClass, AuditRule, RuleFlag, TableAnalysis};
use stellar_classify::{tables_equivalent, Domain, MatchSpec, RuleEntry, DEFAULT_VERIFY_BUDGET};
use stellar_core::rule::RuleAction;
use stellar_core::signal::{MatchKind, StellarSignal};
use stellar_core::system::StellarSystem;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_net::prefix::Prefix;
use stellar_net::proto::IpProtocol;
use stellar_sim::topology::{generic_members, IxpTopology, MemberSpec};

fn spec(signal: StellarSignal, victim: &str) -> MatchSpec {
    signal.to_match_spec(victim.parse().unwrap())
}

fn sig(kind: MatchKind, port: u16, action: RuleAction) -> StellarSignal {
    StellarSignal { kind, port, action }
}

const SHAPE_200M: RuleAction = RuleAction::Shape {
    rate_bps: 200_000_000,
};

/// One member port's table, crafted so every finding kind appears:
/// live rules, a shadowed rule, an exact duplicate, a redundant
/// narrower rule, a crossing conflict and a union-covered unreachable
/// rule.
fn demo_table() -> Vec<AuditRule> {
    let v = "100.10.10.10/32";
    let entries: Vec<(u64, MatchSpec, ActionClass)> = vec![
        // Live: shape all UDP toward the victim (telemetry tap).
        (
            1,
            spec(sig(MatchKind::AllUdp, 0, SHAPE_200M), v),
            ActionClass::Shape {
                rate_bps: 200_000_000,
            },
        ),
        // Shadowed by 1 (covered, opposing action): never first-match.
        (
            2,
            spec(StellarSignal::drop_udp_src(123), v),
            ActionClass::Drop,
        ),
        // Duplicate of 1 (identical match, identical action): an
        // idempotent re-signal, distinct from mere coverage.
        (
            3,
            spec(sig(MatchKind::AllUdp, 0, SHAPE_200M), v),
            ActionClass::Shape {
                rate_bps: 200_000_000,
            },
        ),
        // Redundant with 1 (strictly narrower, same action).
        (
            5,
            spec(sig(MatchKind::UdpSrcPort, 53, SHAPE_200M), v),
            ActionClass::Shape {
                rate_bps: 200_000_000,
            },
        ),
        // Live: TCP is untouched by the UDP rules.
        (
            4,
            spec(sig(MatchKind::TcpSrcPort, 80, RuleAction::Drop), v),
            ActionClass::Drop,
        ),
        // A crossing conflict on a second victim: drop UDP dst 53 vs
        // shape UDP src 389 — packets with src 389 AND dst 53 hit both,
        // and each rule matches traffic the other misses.
        (
            6,
            MatchSpec {
                protocol: Some(IpProtocol::UDP),
                dst_port: Some(stellar_classify::PortMatch::Exact(53)),
                dst_ip: Some("100.10.10.11/32".parse().unwrap()),
                ..Default::default()
            },
            ActionClass::Drop,
        ),
        (
            7,
            MatchSpec {
                protocol: Some(IpProtocol::UDP),
                src_port: Some(stellar_classify::PortMatch::Exact(389)),
                dst_ip: Some("100.10.10.11/32".parse().unwrap()),
                ..Default::default()
            },
            ActionClass::Shape {
                rate_bps: 200_000_000,
            },
        ),
        // Unreachable: the two /25s below union-cover this /24.
        (
            8,
            MatchSpec::to_destination("100.10.20.0/25".parse::<Prefix>().unwrap()),
            ActionClass::Drop,
        ),
        (
            9,
            MatchSpec::to_destination("100.10.20.128/25".parse::<Prefix>().unwrap()),
            ActionClass::Drop,
        ),
        (
            10,
            MatchSpec::to_destination("100.10.20.0/24".parse::<Prefix>().unwrap()),
            ActionClass::Drop,
        ),
    ];
    entries
        .into_iter()
        .map(|(id, spec, action)| AuditRule::new(RuleEntry::new(id, 100, spec), action))
        .collect()
}

/// Holds the analyzer's verdicts against the proof side's: over every
/// canonical key, deleting a rule from the rules ranked at or above it
/// must change nothing iff the analyzer flagged it dead, and something
/// iff it handed out a witness. (Ranked at or above: below it, a later
/// rule may pick up what the deleted one dropped — rule 10 does for 8.)
fn assert_verify_agrees(table: &[AuditRule], report: &TableAnalysis) {
    let rank = |r: &AuditRule| (r.entry.priority, r.entry.id);
    let dom = Domain::canonical();
    for rule in table {
        let id = rule.entry.id;
        let above: Vec<AuditRule> = table
            .iter()
            .filter(|r| rank(r) < rank(rule))
            .cloned()
            .collect();
        let with = [above.as_slice(), std::slice::from_ref(rule)].concat();
        let same = tables_equivalent(&with, &above, &dom, DEFAULT_VERIFY_BUDGET)
            .expect("the fixture table is far inside the verify budget");
        let dead = report.dead_flag(id).is_some();
        assert_eq!(same, dead, "analyze and verify disagree on rule {id}");
        assert_eq!(
            report.witness(id).is_some(),
            !dead,
            "rule {id}: flag xor witness"
        );
    }
}

fn flag_json(flag: &RuleFlag) -> serde_json::Value {
    match flag {
        RuleFlag::Shadowed { by } => serde_json::json!({"kind": "shadowed", "by": by}),
        RuleFlag::Redundant { by } => serde_json::json!({"kind": "redundant", "by": by}),
        RuleFlag::Duplicate { of } => serde_json::json!({"kind": "duplicate", "of": of}),
        RuleFlag::Unreachable => serde_json::json!({"kind": "unreachable"}),
        RuleFlag::Conflict { with } => serde_json::json!({"kind": "conflict", "with": with}),
        RuleFlag::Unverified => serde_json::json!({"kind": "unverified"}),
    }
}

/// Drives the control plane: a clean batch, then a shadowed add, then a
/// crossing conflict — returning the rejection counters and the metrics
/// snapshot for the determinism check.
fn control_plane_run() -> (u64, u64, serde_json::Value, String) {
    let mut specs = generic_members(64501, 9);
    specs.insert(
        0,
        MemberSpec {
            asn: 64500,
            capacity_bps: 1_000_000_000,
            prefixes: vec!["100.10.10.0/24".parse().unwrap()],
        },
    );
    let ixp = IxpTopology::build(&specs, HardwareInfoBase::lab_switch());
    let mut sys = StellarSystem::new(ixp, 100.0);
    let victim: Prefix = "100.10.10.10/32".parse().unwrap();
    let member = Asn(64500);

    // Clean batch: two disjoint port-scoped drops.
    let clean = sys.member_signal(
        member,
        victim,
        &[
            StellarSignal::drop_udp_src(123),
            StellarSignal::drop_udp_src(53),
        ],
        0,
    );
    sys.pump(0);
    // Shadowed: drop-all admits, then a port-scoped drop under it is
    // refused (it could never be first-match).
    sys.member_signal(member, victim, &[StellarSignal::drop_all()], 1_000_000);
    sys.pump(1_000_000);
    let shadowed = sys.member_signal(
        member,
        victim,
        &[StellarSignal::drop_all(), StellarSignal::drop_udp_src(19)],
        2_000_000,
    );
    // Conflict: a fresh victim path with a shape, then a crossing drop.
    let victim2: Prefix = "100.10.10.11/32".parse().unwrap();
    sys.member_signal(
        member,
        victim2,
        &[StellarSignal::shape_udp_src(123, 200)],
        3_000_000,
    );
    sys.pump(3_000_000);
    let conflicted = sys.member_signal(
        member,
        victim2,
        &[
            StellarSignal::shape_udp_src(123, 200),
            sig(MatchKind::UdpDstPort, 80, RuleAction::Drop),
        ],
        4_000_000,
    );
    sys.pump(4_000_000);
    let reg = &sys.obs.registry;
    let rejected_shadowed = reg.counter("analyze.rejected_shadowed");
    let rejected_conflict = reg.counter("analyze.rejected_conflict");
    let summary = serde_json::json!({
        "clean_batch_queued": clean.queued_changes,
        "shadowed_rejections": shadowed.audit_rejections.len(),
        "conflict_rejections": conflicted.audit_rejections.len(),
        "counters": serde_json::json!({
            "analyze.rejected_shadowed": rejected_shadowed,
            "analyze.rejected_conflict": rejected_conflict,
            "analyze.preadmit.batches": reg.counter("analyze.preadmit.batches"),
            "analyze.preadmit.l34_needed": reg.counter("analyze.preadmit.l34_needed"),
            "analyze.preadmit.would_exhaust": reg.counter("analyze.preadmit.would_exhaust"),
        }),
        "active_rules": sys.active_rules(),
        "converged": sys.is_converged(),
    });
    let snapshot = sys.obs.snapshot_json(5_000_000);
    (rejected_shadowed, rejected_conflict, summary, snapshot)
}

fn main() {
    let exp = output::start(
        "RULE AUDIT",
        "static rule-table analysis: shadowing, conflicts, TCAM pre-admission",
        output::RunOpts {
            seed: stellar_bench::SEED,
            ticks: 0,
        },
    );

    // Layer 2 standalone: the demo table through the analyzer.
    let table = demo_table();
    let report = analyze(&table);
    assert_verify_agrees(&table, &report);
    println!("table: {} rules", table.len());
    for f in &report.findings {
        println!("  rule {:>2}  {:?}", f.rule, f.flag);
    }
    println!(
        "  live rules with witnesses: {}  (TCAM usage: {} MAC + {} L3-L4 criteria)",
        report.witnesses.len(),
        report.usage.mac,
        report.usage.l34
    );
    let hib = HardwareInfoBase::production_er();
    let findings: Vec<serde_json::Value> = report
        .findings
        .iter()
        .map(|f| serde_json::json!({"rule": f.rule, "flag": flag_json(&f.flag)}))
        .collect();

    // Control plane end-to-end, twice: the payloads (and the full
    // metrics snapshots) must be byte-identical — the audit path is
    // seed-independent and deterministic.
    let (shadowed_a, conflict_a, run_a, snap_a) = control_plane_run();
    let (_, _, run_b, snap_b) = control_plane_run();
    let deterministic = serde_json::to_string(&run_a).unwrap()
        == serde_json::to_string(&run_b).unwrap()
        && snap_a == snap_b;
    println!(
        "control plane: {shadowed_a} shadowed + {conflict_a} conflict rejections, \
         deterministic = {deterministic}"
    );
    assert!(deterministic, "audit path must be deterministic");

    exp.write(
        "rule_audit",
        &serde_json::json!({
            "table_rules": table.len(),
            "findings": findings,
            "witnesses": report.witnesses.len(),
            "tcam_usage": serde_json::json!({
                "mac": report.usage.mac,
                "l34": report.usage.l34,
                "l34_pool_production": hib.l34_criteria_pool,
                "mac_pool_production": hib.mac_filter_pool,
            }),
            "control_plane": run_a,
            "deterministic": deterministic,
        }),
    );
}
