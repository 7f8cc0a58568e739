//! Property tests for the multi-PoP fabric's determinism contract:
//!
//! - the PoP fan-out must be observationally identical for any worker
//!   count (`set_tick_workers`) — verdicts, fabric counters, and
//!   exported obs snapshot bytes;
//! - per-port outcomes must not depend on how ports are partitioned
//!   into PoPs (`Fabric::new`'s PoP count), because filtering is
//!   egress-side;
//! - a 1-PoP fabric must be byte-indistinguishable from the bare
//!   single [`EdgeRouter`] it wraps;
//! - the sparse per-port table must be lossless (rows plus implicit
//!   zeros equal every port read directly), strictly ascending, blind
//!   to port-insertion order, and rebuilt — never merged — per scrape;
//! - the occupied-port index must be the full port walk with the empty
//!   ports filtered out, under every way a rule table can change, and
//!   the rule-state version must move whenever one did.

use proptest::prelude::*;
use std::collections::BTreeMap;
use stellar_dataplane::filter::{Action, FilterRule, MatchSpec, PortMatch};
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::qos::TickResult;
use stellar_dataplane::switch::{EdgeRouter, OfferedAggregate, PortId};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;
use stellar_sim::fabric::{Fabric, PopId};

const TICK_US: u64 = 1_000_000;

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        proptest::option::of(prop_oneof![Just(IpProtocol::UDP), Just(IpProtocol::TCP)]),
        proptest::option::of(any::<u16>()),
    )
        .prop_map(|(proto, sp)| MatchSpec {
            protocol: proto,
            src_port: sp.map(PortMatch::Exact),
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

/// One port's rules: `(spec, action, priority)`.
type RuleGen = Vec<(MatchSpec, Action, u16)>;
/// One tick's offers: `(src port index, dst port index, l4 src port,
/// bytes, udp)` — src drawn from the member ports so cross-PoP and
/// local paths both occur, plus some external (unknown-MAC) sources.
type OfferGen = Vec<(usize, usize, u16, u64, bool)>;

fn arb_topology() -> impl Strategy<Value = (Vec<RuleGen>, Vec<OfferGen>)> {
    let rules = proptest::collection::vec(
        proptest::collection::vec((arb_spec(), arb_action(), any::<u16>()), 0..4),
        2..18,
    );
    let ticks = proptest::collection::vec(
        proptest::collection::vec(
            (
                0usize..32,
                0usize..18,
                any::<u16>(),
                1u64..50_000_000,
                any::<bool>(),
            ),
            0..24,
        ),
        1..4,
    );
    (rules, ticks)
}

fn port_rules_to_filter(p: usize, rules: &RuleGen) -> Vec<FilterRule> {
    rules
        .iter()
        .enumerate()
        .map(|(i, (spec, action, prio))| {
            FilterRule::new((p * 8 + i) as u64 + 1, spec.clone(), *action, *prio)
        })
        .collect()
}

fn build_fabric(port_rules: &[RuleGen], pops: usize) -> Fabric {
    let ascending: Vec<usize> = (0..port_rules.len()).collect();
    build_fabric_in_order(port_rules, pops, &ascending)
}

/// Port `p` lands on PoP `p % pops` whatever `order` the ports are
/// attached in.
fn build_fabric_in_order(port_rules: &[RuleGen], pops: usize, order: &[usize]) -> Fabric {
    let mut fabric = Fabric::new(HardwareInfoBase::lab_switch(), pops);
    for &p in order {
        let rules = &port_rules[p];
        let asn = 64500 + p as u32;
        let pid = PortId(p as u32 + 1);
        fabric.add_port(
            PopId((p % pops) as u16),
            pid,
            MemberPort::new(asn, MacAddr::for_member(asn, 1), 100_000_000),
        );
        let port = fabric.port_mut(pid).expect("port just added");
        for rule in port_rules_to_filter(p, rules) {
            port.policy.install(rule);
        }
    }
    fabric
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
        for rule in port_rules_to_filter(p, rules) {
            port.policy.install(rule);
        }
    }
    er
}

fn offers_for_tick(n_ports: usize, tick: &OfferGen) -> Vec<OfferedAggregate> {
    tick.iter()
        .map(|&(src, dst, sp, bytes, udp)| {
            let dst = dst % n_ports;
            let dst_asn = 64500 + dst as u32;
            // src index past the member range -> an external source MAC
            // the fabric cannot attribute to any PoP.
            let src_mac = if src < n_ports {
                MacAddr::for_member(64500 + src as u32, 1)
            } else {
                MacAddr::for_member(65000 + src as u32, 1)
            };
            OfferedAggregate {
                key: FlowKey {
                    src_mac,
                    dst_mac: MacAddr::for_member(dst_asn, 1),
                    src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, src as u8)),
                    dst_ip: IpAddress::V4(Ipv4Address::new(100, 0, dst as u8, 10)),
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

/// One fabric tick, its results drained from every PoP.
fn tick_fabric(
    fabric: &mut Fabric,
    offers: &[OfferedAggregate],
    end_us: u64,
) -> BTreeMap<PortId, TickResult> {
    fabric.process_tick_in_place(offers, end_us, TICK_US);
    fabric.take_tick_results()
}

/// One bare-router tick, its results drained from the arena.
fn tick_router(
    er: &mut EdgeRouter,
    offers: &[OfferedAggregate],
    end_us: u64,
) -> BTreeMap<PortId, TickResult> {
    er.process_tick_in_place(offers, end_us, TICK_US);
    er.take_tick_results().collect()
}

/// The exported snapshot text of a scrape into a fresh registry.
fn obs_bytes_fabric(fabric: &Fabric) -> String {
    let mut obs = stellar_obs::Obs::new();
    fabric.observe(&mut obs.registry);
    obs.snapshot_json(0)
}

fn obs_bytes_router(er: &EdgeRouter) -> String {
    let mut obs = stellar_obs::Obs::new();
    er.observe(&mut obs.registry);
    obs.snapshot_json(0)
}

/// Per-port cumulative counters, sorted by port id — the
/// partition-independence witness.
fn fingerprint(fabric: &Fabric) -> Vec<(u32, stellar_dataplane::counters::PortCounters)> {
    fabric
        .ports()
        .map(|(pid, port)| (pid.0, port.counters))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The worker axis: for each PoP count, every worker count yields
    /// the same verdicts, fabric counters, and obs snapshot bytes as
    /// the single-worker run.
    #[test]
    fn fabric_is_deterministic_across_workers_and_pops(topo in arb_topology()) {
        let (port_rules, ticks) = topo;
        let n_ports = port_rules.len();
        for pops in [1usize, 4, 16] {
            let mut base = build_fabric(&port_rules, pops);
            base.set_tick_workers(1);
            let mut base_results = Vec::new();
            for (t, tick) in ticks.iter().enumerate() {
                let offers = offers_for_tick(n_ports, tick);
                base_results.push(tick_fabric(&mut base, &offers, (t as u64 + 1) * TICK_US));
            }
            let base_obs = obs_bytes_fabric(&base);
            for workers in [2usize, 4] {
                let mut fab = build_fabric(&port_rules, pops);
                fab.set_tick_workers(workers);
                // Defeat the adaptive cutoff: these topologies sit far
                // below the default threshold and the property under
                // test is the parallel fan-out itself.
                fab.set_parallel_min_work(0);
                for (t, tick) in ticks.iter().enumerate() {
                    let offers = offers_for_tick(n_ports, tick);
                    let r = tick_fabric(&mut fab, &offers, (t as u64 + 1) * TICK_US);
                    prop_assert_eq!(&r, &base_results[t]);
                }
                prop_assert_eq!(fab.counters(), base.counters());
                prop_assert_eq!(obs_bytes_fabric(&fab), base_obs.clone());
            }
        }
    }

    /// The PoP axis: per-port verdicts and cumulative counters are
    /// independent of how ports are sharded into PoPs, because rules
    /// filter at egress only.
    #[test]
    fn port_outcomes_are_partition_independent(topo in arb_topology()) {
        let (port_rules, ticks) = topo;
        let n_ports = port_rules.len();
        let mut fabrics: Vec<Fabric> = [1usize, 4, 16]
            .iter()
            .map(|&pops| {
                let mut f = build_fabric(&port_rules, pops);
                f.set_tick_workers(1);
                f
            })
            .collect();
        for (t, tick) in ticks.iter().enumerate() {
            let offers = offers_for_tick(n_ports, tick);
            let end_us = (t as u64 + 1) * TICK_US;
            let mut results = fabrics
                .iter_mut()
                .map(|f| tick_fabric(f, &offers, end_us));
            let first = results.next().expect("three fabrics");
            for r in results {
                prop_assert_eq!(&r, &first);
            }
        }
        let fp = fingerprint(&fabrics[0]);
        for f in &fabrics[1..] {
            prop_assert_eq!(&fingerprint(f), &fp);
        }
        // Byte totals are conserved across partitions: only the
        // local/cross-PoP split moves, their sum does not.
        let sum = |f: &Fabric| {
            let c = f.counters();
            (c.local_bytes + c.cross_pop_bytes, c.external_bytes, c.unroutable_bytes)
        };
        let s = sum(&fabrics[0]);
        for f in &fabrics[1..] {
            prop_assert_eq!(sum(f), s);
        }
    }

    /// A 1-PoP fabric is the single router: same verdicts and the
    /// exact same exported snapshot bytes (the fabric delegates its
    /// observe to the lone PoP rather than renaming anything).
    #[test]
    fn one_pop_fabric_matches_bare_router(topo in arb_topology()) {
        let (port_rules, ticks) = topo;
        let n_ports = port_rules.len();
        let mut fab = build_fabric(&port_rules, 1);
        fab.set_tick_workers(1);
        let mut er = build_router(&port_rules);
        er.set_tick_workers(1);
        for (t, tick) in ticks.iter().enumerate() {
            let offers = offers_for_tick(n_ports, tick);
            let end_us = (t as u64 + 1) * TICK_US;
            let rf = tick_fabric(&mut fab, &offers, end_us);
            let rr = tick_router(&mut er, &offers, end_us);
            prop_assert_eq!(&rf, &rr);
        }
        prop_assert_eq!(fab.rule_ledger(), er.rule_ledger());
        prop_assert_eq!(obs_bytes_fabric(&fab), obs_bytes_router(&er));
    }

    /// The per-port table: ports attached in shuffled order, ticks
    /// interleaved with rule installs and removals through the fabric.
    /// The dense table rebuilt from the sparse rows plus implicit zeros
    /// equals every port read directly, and the snapshot text does not
    /// depend on attach order or worker count.
    #[test]
    fn port_table_is_lossless_sorted_and_order_independent(
        topo in arb_topology(),
        pops in 1usize..9,
        shuffle in proptest::collection::vec(any::<u32>(), 18),
        churn in proptest::collection::vec((0usize..18, 0usize..4, any::<bool>()), 0..16),
    ) {
        let (port_rules, ticks) = topo;
        let n_ports = port_rules.len();
        let mut shuffled: Vec<usize> = (0..n_ports).collect();
        shuffled.sort_by_key(|&p| shuffle[p]);
        let mut base = build_fabric(&port_rules, pops);
        base.set_tick_workers(1);
        let mut other = build_fabric_in_order(&port_rules, pops, &shuffled);
        other.set_tick_workers(4);
        other.set_parallel_min_work(0);
        for (t, tick) in ticks.iter().enumerate() {
            let offers = offers_for_tick(n_ports, tick);
            let end_us = (t as u64 + 1) * TICK_US;
            for f in [&mut base, &mut other] {
                f.process_tick_in_place(&offers, end_us, TICK_US);
                // This tick's share of the churn: remove one of the
                // port's generated rules, or install a fresh drop rule.
                for (k, &(p, i, install)) in churn.iter().enumerate() {
                    if k % ticks.len() != t {
                        continue;
                    }
                    let pid = PortId((p % n_ports) as u32 + 1);
                    if install {
                        let rule =
                            FilterRule::new(1_000 + k as u64, MatchSpec::default(), Action::Drop, 7);
                        let _ = f.install_rule(pid, rule, end_us);
                    } else {
                        f.remove_rule(pid, ((p % n_ports) * 8 + i) as u64 + 1, end_us);
                    }
                }
            }
        }

        let mut obs = stellar_obs::Obs::new();
        base.observe(&mut obs.registry);
        let reg = &obs.registry;
        prop_assert_eq!(reg.ports_total(), n_ports as u64);
        let rows = reg.port_rows();
        prop_assert!(rows.windows(2).all(|w| w[0].port < w[1].port));
        prop_assert!(rows.iter().all(stellar_obs::PortRow::is_active));
        for (pid, port) in base.ports() {
            let c = &port.counters;
            let direct = stellar_obs::PortRow {
                port: pid.0,
                rules: port.policy.rule_count() as u64,
                shape_queues: port.policy.shaper_count() as u64,
                forwarded_bytes: c.forwarded_bytes,
                dropped_bytes: c.dropped_bytes,
                shaped_bytes: c.shaped_bytes,
                shape_dropped_bytes: c.shape_dropped_bytes,
                congestion_dropped_bytes: c.congestion_dropped_bytes,
            };
            prop_assert_eq!(reg.port(pid.0), direct);
        }
        prop_assert!(rows.iter().all(|r| base.port(PortId(r.port)).is_some()));

        let json = obs.snapshot_json(0);
        prop_assert!(!json.contains("dataplane.port."));
        let header = format!("\"total\": {n_ports},\n      \"reported\": {},", rows.len());
        prop_assert!(json.contains(&header));
        prop_assert_eq!(obs_bytes_fabric(&other), json.clone());
        // Scraping the unchanged fabric into the used registry again
        // rebuilds the same table: same bytes, no duplicated rows.
        base.observe(&mut obs.registry);
        prop_assert_eq!(obs.snapshot_json(0), json);
    }
}

/// Every non-empty rule table, rendered — what the rule-state version
/// must follow.
fn rule_tables(fabric: &Fabric) -> Vec<String> {
    fabric
        .ports()
        .filter(|(_, port)| port.policy.rule_count() > 0)
        .map(|(pid, port)| format!("{pid:?} {:?}", port.policy.rules()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Index ≡ walk: ports attached in shuffled order over 1–8 PoPs —
    /// alone, or among 640 idle ports, so that both the walked (dense)
    /// and the looked-up (sparse) read of the index are exercised —
    /// some with rules already in their policy, then churned through
    /// every path that can change a rule table — the fabric's own
    /// `install_rule` / `remove_rule` / `flush_port` / `restart` and
    /// edits made straight in `port_mut(..).policy`. After every step
    /// `occupied_ports()` yields exactly the non-empty ports of
    /// `ports()` (same ids, same order, the same port objects),
    /// `total_rules()` is the sum over `ports()`, and the version has
    /// strictly increased if any table changed (and never decreased).
    #[test]
    fn occupied_index_is_the_port_walk_without_the_empty_ports(
        topo in arb_topology(),
        pops in 1usize..9,
        shuffle in proptest::collection::vec(any::<u32>(), 18),
        prepopulated in proptest::collection::vec(any::<bool>(), 18),
        idle in prop_oneof![Just(0u32), Just(640u32)],
        churn in proptest::collection::vec((0u8..6, 0usize..18, 0usize..4), 0..48),
    ) {
        let (port_rules, _) = topo;
        let n_ports = port_rules.len();
        let mut order: Vec<usize> = (0..n_ports).collect();
        order.sort_by_key(|&p| shuffle[p]);
        let mut fabric = Fabric::new(HardwareInfoBase::lab_switch(), pops);
        let mut version = fabric.rule_version();
        let mut tables = rule_tables(&fabric);
        let mut step = 0u64;
        let mut check = |fabric: &Fabric| -> Result<(), TestCaseError> {
            step += 1;
            let walked: Vec<(PortId, &MemberPort)> = fabric
                .ports()
                .filter(|(_, port)| port.policy.rule_count() > 0)
                .collect();
            let indexed: Vec<(PortId, &MemberPort)> = fabric.occupied_ports().collect();
            prop_assert_eq!(indexed.len(), walked.len(), "step {}", step);
            for ((ipid, iport), (wpid, wport)) in indexed.iter().zip(&walked) {
                prop_assert_eq!(ipid, wpid, "step {}", step);
                prop_assert!(std::ptr::eq(*iport, *wport), "step {}", step);
            }
            let total: usize = fabric.ports().map(|(_, p)| p.policy.rule_count()).sum();
            prop_assert_eq!(fabric.total_rules(), total, "step {}", step);
            let now = rule_tables(fabric);
            prop_assert!(fabric.rule_version() >= version, "step {}", step);
            if now != tables {
                prop_assert!(fabric.rule_version() > version, "step {}", step);
            }
            version = fabric.rule_version();
            tables = now;
            Ok(())
        };
        for i in 0..idle {
            let (asn, pid) = (70_000 + i, PortId(100 + i));
            let port = MemberPort::new(asn, MacAddr::for_member(asn, 1), 100_000_000);
            fabric.add_port(PopId((i as usize % pops) as u16), pid, port);
        }
        for &p in &order {
            let asn = 64500 + p as u32;
            let mut port = MemberPort::new(asn, MacAddr::for_member(asn, 1), 100_000_000);
            if prepopulated[p] {
                for rule in port_rules_to_filter(p, &port_rules[p]) {
                    port.policy.install(rule);
                }
            }
            fabric.add_port(PopId((p % pops) as u16), PortId(p as u32 + 1), port);
            check(&fabric)?;
        }
        for (k, &(kind, p, slot)) in churn.iter().enumerate() {
            let p = p % n_ports;
            let pid = PortId(p as u32 + 1);
            let generated = (p * 8 + slot) as u64 + 1;
            let fresh = FilterRule::new(1_000 + k as u64, MatchSpec::default(), Action::Drop, 7);
            match kind {
                0 => {
                    let _ = fabric.install_rule(pid, fresh, k as u64);
                }
                1 => {
                    fabric.remove_rule(pid, generated, k as u64);
                }
                2 => {
                    fabric.flush_port(pid, k as u64);
                }
                3 => {
                    fabric.restart(k as u64);
                }
                4 => fabric.port_mut(pid).expect("port exists").policy.install(fresh),
                _ => {
                    fabric.port_mut(pid).expect("port exists").policy.remove(generated);
                }
            }
            check(&fabric)?;
        }
    }
}

/// A port whose last rule is withdrawn while its counters are still zero
/// leaves the table at the next scrape of the *same* registry.
#[test]
fn withdrawn_idle_port_does_not_linger_as_a_stale_row() {
    let mut fabric = build_fabric(&vec![RuleGen::new(); 6], 3);
    let rule = FilterRule::new(77, MatchSpec::default(), Action::Drop, 10);
    fabric.install_rule(PortId(4), rule, 0).expect("install");
    let mut obs = stellar_obs::Obs::new();
    fabric.observe(&mut obs.registry);
    assert_eq!(obs.registry.port_rows().len(), 1);
    assert_eq!(obs.registry.port(4).rules, 1);
    assert!(obs.snapshot_json(0).contains("[4, 1, 0, 0, 0, 0, 0, 0]"));

    assert!(fabric.remove_rule(PortId(4), 77, 1));
    fabric.observe(&mut obs.registry);
    assert_eq!(obs.registry.port_rows(), []);
    assert_eq!(obs.registry.ports_total(), 6);
    assert_eq!(
        obs.registry.port(4),
        stellar_obs::PortRow {
            port: 4,
            ..Default::default()
        }
    );
    assert!(obs.snapshot_json(0).contains("\"reported\": 0,"));
}
