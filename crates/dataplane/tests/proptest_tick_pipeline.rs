//! Property tests for the one tick path: the worker-pool parallel mode
//! must be observationally identical to the sequential one — per-tick
//! verdicts (delivered aggregates), cumulative port/ledger counters, and
//! the exported metrics snapshot bytes — and every tick must agree with
//! a first-match oracle that reads each offer's verdict from a plain scan
//! of the port's rule list. The oracle and the golden digests pinned in
//! `stellar-sim`'s `tests/tick_golden.rs` replace the deleted allocating
//! legacy path as the differential reference.

use proptest::prelude::*;
use std::collections::BTreeMap;
use stellar_dataplane::counters::RuleCounters;
use stellar_dataplane::filter::{Action, FilterRule, MatchSpec, PortMatch};
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::switch::{EdgeRouter, OfferedAggregate, PortId};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;

const TICK_US: u64 = 1_000_000;

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        proptest::option::of(prop_oneof![Just(IpProtocol::UDP), Just(IpProtocol::TCP)]),
        proptest::option::of(any::<u16>()),
        proptest::option::of((any::<u16>(), any::<u16>())),
    )
        .prop_map(|(proto, sp, dpr)| MatchSpec {
            protocol: proto,
            src_port: sp.map(PortMatch::Exact),
            dst_port: dpr.map(|(a, b)| PortMatch::Range(a.min(b), a.max(b))),
            ..Default::default()
        })
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        Just(Action::Drop),
        Just(Action::Forward),
        (1_000_000u64..1_000_000_000).prop_map(|r| Action::Shape { rate_bps: r }),
    ]
}

/// One port's worth of generated rules: `(spec, action, priority)`.
type RuleGen = Vec<(MatchSpec, Action, u16)>;
/// One tick's offers: `(destination port index, src port, bytes, udp)`.
type OfferGen = Vec<(usize, u16, u64, bool)>;

fn arb_topology() -> impl Strategy<Value = (Vec<RuleGen>, Vec<OfferGen>)> {
    let rules = proptest::collection::vec(
        // Up to 20 rules a port, so tables land on both sides of the
        // classifier's scan/index crossover.
        proptest::collection::vec((arb_spec(), arb_action(), any::<u16>()), 0..20),
        1..5,
    );
    let ticks = proptest::collection::vec(
        proptest::collection::vec(
            (0usize..5, any::<u16>(), 1u64..50_000_000, any::<bool>()),
            0..16,
        ),
        1..4,
    );
    (rules, ticks)
}

fn build_router(port_rules: &[RuleGen]) -> EdgeRouter {
    let mut er = EdgeRouter::new(HardwareInfoBase::lab_switch());
    for (p, rules) in port_rules.iter().enumerate() {
        let asn = 64500 + p as u32;
        let pid = PortId(p as u32 + 1);
        er.add_port(
            pid,
            MemberPort::new(asn, MacAddr::for_member(asn, 1), 100_000_000),
        );
        let port = er.port_mut(pid).expect("port just added");
        for (i, (spec, action, prio)) in rules.iter().enumerate() {
            port.policy.install(FilterRule::new(
                (p * 32 + i) as u64 + 1,
                spec.clone(),
                *action,
                *prio,
            ));
        }
    }
    er
}

fn offers_for_tick(n_ports: usize, tick: &OfferGen) -> Vec<OfferedAggregate> {
    tick.iter()
        .map(|&(p, sp, bytes, udp)| {
            let p = p % n_ports;
            let asn = 64500 + p as u32;
            OfferedAggregate {
                key: FlowKey {
                    src_mac: MacAddr::for_member(65000, 1),
                    dst_mac: MacAddr::for_member(asn, 1),
                    src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, p as u8)),
                    dst_ip: IpAddress::V4(Ipv4Address::new(100, 0, p as u8, 10)),
                    protocol: if udp {
                        IpProtocol::UDP
                    } else {
                        IpProtocol::TCP
                    },
                    src_port: sp,
                    dst_port: 40000,
                    ..FlowKey::default()
                },
                bytes,
                packets: bytes / 1000 + 1,
            }
        })
        .collect()
}

/// The exported metrics snapshot, serialized — byte equality here means
/// every counter and gauge the obs layer would publish is identical.
fn obs_bytes(er: &EdgeRouter) -> String {
    let mut reg = stellar_obs::MetricsRegistry::default();
    er.observe(&mut reg);
    serde_json::to_string(&reg.to_content()).expect("serialize registry")
}

/// Every rule's counters on every port, by rule id (ids are
/// router-unique here).
fn rule_counters(er: &EdgeRouter) -> BTreeMap<u64, RuleCounters> {
    er.ports()
        .flat_map(|(_, port)| {
            port.policy.rules().iter().map(|r| {
                (
                    r.id,
                    port.policy.rule_counters(r.id).copied().unwrap_or_default(),
                )
            })
        })
        .collect()
}

/// What the first-match oracle predicts for one port's tick.
#[derive(Debug, Default)]
struct Expected {
    offered_bytes: u64,
    dropped_bytes: u64,
    dropped_packets: u64,
    /// Bytes whose first match is a shaping rule: the port's
    /// `shaped + shape_dropped`.
    shaped_bytes: u64,
    /// Bytes each rule matched, by rule id.
    matched: BTreeMap<u64, u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel ticks are observationally identical to sequential: same
    /// verdicts, same cumulative counters, same obs snapshot bytes —
    /// tick by tick, on identically built routers.
    #[test]
    fn parallel_tick_matches_sequential(topo in arb_topology()) {
        let (port_rules, ticks) = topo;
        let mut seq = build_router(&port_rules);
        seq.set_tick_workers(1);
        let mut par = build_router(&port_rules);
        par.set_tick_workers(4);
        // Defeat the adaptive cutoff: these topologies are far below the
        // default threshold, and the property under test is the parallel
        // path itself.
        par.set_parallel_min_work(0);
        let n_ports = port_rules.len();
        for (t, tick) in ticks.iter().enumerate() {
            let offers = offers_for_tick(n_ports, tick);
            let end_us = (t as u64 + 1) * TICK_US;
            let rs = seq.process_tick_in_place(&offers, end_us, TICK_US);
            let rp = par.process_tick_in_place(&offers, end_us, TICK_US);
            prop_assert_eq!(rs.len(), rp.len());
            for ((spid, s), (ppid, p)) in rs.iter().zip(rp.iter()) {
                prop_assert_eq!(spid, ppid);
                prop_assert_eq!(&s.delivered, &p.delivered);
                prop_assert_eq!(s.counters, p.counters);
            }
        }
        for ((spid, sport), (ppid, pport)) in seq.ports().zip(par.ports()) {
            prop_assert_eq!(spid, ppid);
            prop_assert_eq!(sport.counters, pport.counters);
        }
        prop_assert_eq!(seq.rule_ledger(), par.rule_ledger());
        prop_assert_eq!(obs_bytes(&seq), obs_bytes(&par));
    }

    /// Every tick against a first-match oracle: each offer's rule is
    /// `policy.rules().iter().find(|r| r.spec.matches(&key))` — the
    /// verdict source of the deleted legacy path, sharing no lookup code
    /// with the classifier. From it follow each port's dropped bytes and
    /// packets, each rule's matched bytes (all passed or discarded), and
    /// each port's `shaped + shape_dropped`; every offered byte is
    /// forwarded, dropped, shape-dropped or congestion-dropped, and every
    /// delivered aggregate carries at least one packet. Half the offers
    /// carry a handful of packets, so proportional shares round below one.
    #[test]
    fn arena_tick_matches_first_match_oracle(topo in arb_topology()) {
        let (port_rules, ticks) = topo;
        let mut er = build_router(&port_rules);
        er.set_tick_workers(1);
        let n_ports = port_rules.len();
        for (t, tick) in ticks.iter().enumerate() {
            let mut offers = offers_for_tick(n_ports, tick);
            for o in offers.iter_mut().skip(1).step_by(2) {
                o.packets = 1 + o.bytes % 3;
            }
            let mut expected: BTreeMap<PortId, Expected> = BTreeMap::new();
            for o in &offers {
                let Some(pid) = er.port_of_mac(o.key.dst_mac) else {
                    continue;
                };
                let port = er.port(pid).expect("routed to a port");
                let e = expected.entry(pid).or_default();
                e.offered_bytes += o.bytes;
                let Some(rule) = port.policy.rules().iter().find(|r| r.spec.matches(&o.key)) else {
                    continue;
                };
                *e.matched.entry(rule.id).or_default() += o.bytes;
                match rule.action {
                    Action::Drop => {
                        e.dropped_bytes += o.bytes;
                        e.dropped_packets += o.packets;
                    }
                    Action::Shape { .. } => e.shaped_bytes += o.bytes,
                    Action::Forward => {}
                }
            }
            let before = rule_counters(&er);
            let view = er.process_tick_in_place(&offers, (t as u64 + 1) * TICK_US, TICK_US);
            let touched: Vec<PortId> = view.iter().map(|(pid, _)| pid).collect();
            prop_assert_eq!(touched, expected.keys().copied().collect::<Vec<_>>());
            for (pid, r) in view.iter() {
                let (e, c) = (&expected[&pid], &r.counters);
                prop_assert_eq!(c.dropped_bytes, e.dropped_bytes);
                prop_assert_eq!(c.dropped_packets, e.dropped_packets);
                prop_assert_eq!(c.shaped_bytes + c.shape_dropped_bytes, e.shaped_bytes);
                prop_assert_eq!(
                    c.forwarded_bytes + c.dropped_bytes + c.shape_dropped_bytes
                        + c.congestion_dropped_bytes,
                    e.offered_bytes
                );
                prop_assert_eq!(r.delivered.iter().map(|d| d.1).sum::<u64>(), c.forwarded_bytes);
                prop_assert_eq!(r.delivered.iter().map(|d| d.2).sum::<u64>(), c.forwarded_packets);
                prop_assert!(r.delivered.iter().all(|&(_, bytes, packets)| bytes > 0 && packets >= 1));
            }
            let after = rule_counters(&er);
            for (id, rc) in &after {
                let was = before.get(id).copied().unwrap_or_default();
                let matched = expected
                    .values()
                    .find_map(|e| e.matched.get(id))
                    .copied()
                    .unwrap_or(0);
                prop_assert_eq!(rc.matched_bytes - was.matched_bytes, matched, "rule {}", id);
                prop_assert_eq!(
                    rc.passed_bytes + rc.discarded_bytes - was.passed_bytes - was.discarded_bytes,
                    matched,
                    "rule {}",
                    id
                );
            }
        }
    }
}
