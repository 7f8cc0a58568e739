//! Property tests for the tick pipeline's three execution paths: the
//! legacy reference (allocating, verdicts from a plain scan of each
//! port's rule list), the single-threaded arena path, and the
//! worker-pool parallel path must be observationally identical —
//! per-tick verdicts (delivered aggregates), cumulative port/ledger
//! counters, and the exported metrics snapshot bytes.

use proptest::prelude::*;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel `process_tick` is observationally identical to
    /// sequential: same verdicts, same cumulative counters, same obs
    /// snapshot bytes — tick by tick, on identically built routers.
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
            let rs = seq.process_tick(&offers, end_us, TICK_US);
            let rp = par.process_tick(&offers, end_us, TICK_US);
            let sk: Vec<_> = rs.keys().copied().collect();
            let pk: Vec<_> = rp.keys().copied().collect();
            prop_assert_eq!(sk, pk);
            for (pid, r) in &rs {
                let p = &rp[pid];
                prop_assert_eq!(&r.delivered, &p.delivered);
                prop_assert_eq!(r.counters, p.counters);
            }
        }
        for ((spid, sport), (ppid, pport)) in seq.ports().zip(par.ports()) {
            prop_assert_eq!(spid, ppid);
            prop_assert_eq!(sport.counters, pport.counters);
        }
        prop_assert_eq!(seq.rule_ledger(), par.rule_ledger());
        prop_assert_eq!(obs_bytes(&seq), obs_bytes(&par));
    }

    /// The arena path (`process_tick`) is a behavior-preserving rewrite
    /// of the legacy allocating path (`process_tick_legacy`).
    #[test]
    fn arena_tick_matches_legacy(topo in arb_topology()) {
        let (port_rules, ticks) = topo;
        let mut new = build_router(&port_rules);
        new.set_tick_workers(1);
        let mut old = build_router(&port_rules);
        let n_ports = port_rules.len();
        for (t, tick) in ticks.iter().enumerate() {
            let offers = offers_for_tick(n_ports, tick);
            let end_us = (t as u64 + 1) * TICK_US;
            let rn = new.process_tick(&offers, end_us, TICK_US);
            let ro = old.process_tick_legacy(&offers, end_us, TICK_US);
            let nk: Vec<_> = rn.keys().copied().collect();
            let ok: Vec<_> = ro.keys().copied().collect();
            prop_assert_eq!(nk, ok);
            for (pid, r) in &rn {
                let o = &ro[pid];
                prop_assert_eq!(&r.delivered, &o.delivered);
                prop_assert_eq!(r.counters, o.counters);
            }
        }
        prop_assert_eq!(obs_bytes(&new), obs_bytes(&old));
    }
}
