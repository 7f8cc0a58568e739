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
//!   the rule-state version must move whenever one did;
//! - a topology that grows between ticks, with ids below the existing
//!   ones, must route every offer to the port it names: the per-port
//!   slots are stable and the fabric's routing table follows each
//!   attach;
//! - a port that gains and sheds all its rules between ticks must tick
//!   like one that never held a rule;
//! - a scrape, which reads only the routers' scrape lists, must report
//!   exactly the active ports of a full walk, whatever made them active.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use stellar_dataplane::filter::{Action, FilterRule, MatchSpec, PortMatch};
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::qos::TickResult;
use stellar_dataplane::switch::{EdgeRouter, OfferedAggregate, PortId};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;
use stellar_obs::PortRow;
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

fn arb_tick() -> impl Strategy<Value = OfferGen> {
    proptest::collection::vec(
        (
            0usize..32,
            0usize..18,
            any::<u16>(),
            1u64..50_000_000,
            any::<bool>(),
        ),
        0..24,
    )
}

fn arb_topology() -> impl Strategy<Value = (Vec<RuleGen>, Vec<OfferGen>)> {
    let rules = proptest::collection::vec(
        proptest::collection::vec((arb_spec(), arb_action(), any::<u16>()), 0..4),
        2..18,
    );
    (rules, proptest::collection::vec(arb_tick(), 1..4))
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
        attach_to_fabric(&mut fabric, port_rules, p);
    }
    fabric
}

/// Attaches port `p` (id `p + 1`) to PoP `p % pops`, its rules written
/// straight into its policy.
fn attach_to_fabric(fabric: &mut Fabric, port_rules: &[RuleGen], p: usize) {
    let asn = 64500 + p as u32;
    let pid = PortId(p as u32 + 1);
    fabric.add_port(
        PopId((p % fabric.num_pops()) as u16),
        pid,
        MemberPort::new(asn, MacAddr::for_member(asn, 1), 100_000_000),
    );
    let port = fabric.port_mut(pid).expect("port just added");
    for rule in port_rules_to_filter(p, &port_rules[p]) {
        port.policy.install(rule);
    }
}

fn build_router(port_rules: &[RuleGen]) -> EdgeRouter {
    let mut er = EdgeRouter::new(HardwareInfoBase::lab_switch());
    for p in 0..port_rules.len() {
        attach_to_router(&mut er, port_rules, p);
    }
    er
}

fn attach_to_router(er: &mut EdgeRouter, port_rules: &[RuleGen], p: usize) {
    let asn = 64500 + p as u32;
    let pid = PortId(p as u32 + 1);
    er.add_port(
        pid,
        MemberPort::new(asn, MacAddr::for_member(asn, 1), 100_000_000),
    );
    let port = er.port_mut(pid).expect("port just added");
    for rule in port_rules_to_filter(p, &port_rules[p]) {
        port.policy.install(rule);
    }
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

/// Asserts that the tick `offers` just ran on `fabric` (with `workers`
/// tick workers) fanned out wherever it should: the PoPs when there are
/// more than one, and each PoP's ports when more than one of them was
/// offered traffic. A worker axis that quietly ran the sequential path
/// would pass every equality check, so the paths taken are checked too.
fn assert_fanned_out(fabric: &Fabric, offers: &[OfferedAggregate], workers: usize) {
    let mut touched = vec![BTreeSet::new(); fabric.num_pops()];
    for pid in offers
        .iter()
        .filter_map(|o| fabric.port_of_mac(o.key.dst_mac))
    {
        let pop = fabric.pop_of_port(pid).expect("a fabric port");
        touched[pop.0 as usize].insert(pid);
    }
    let pops = fabric.num_pops();
    assert_eq!(
        fabric.last_tick_parallel(),
        workers > 1 && pops > 1,
        "{pops} PoPs"
    );
    for (pop, (router, ports)) in fabric.routers().iter().zip(&touched).enumerate() {
        let fans_out = workers > 1 && ports.len() > 1;
        assert_eq!(router.last_tick_parallel(), fans_out, "PoP {pop} of {pops}");
    }
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

/// A port's scrape row read straight off the port.
fn direct_row(pid: PortId, port: &MemberPort) -> PortRow {
    let c = &port.counters;
    PortRow {
        port: pid.0,
        rules: port.policy.rule_count() as u64,
        shape_queues: port.policy.shaper_count() as u64,
        forwarded_bytes: c.forwarded_bytes,
        dropped_bytes: c.dropped_bytes,
        shaped_bytes: c.shaped_bytes,
        shape_dropped_bytes: c.shape_dropped_bytes,
        congestion_dropped_bytes: c.congestion_dropped_bytes,
    }
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
                for (t, tick) in ticks.iter().enumerate() {
                    let offers = offers_for_tick(n_ports, tick);
                    let r = tick_fabric(&mut fab, &offers, (t as u64 + 1) * TICK_US);
                    assert_fanned_out(&fab, &offers, workers);
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
            assert_fanned_out(&other, &offers, 4);
        }

        let mut obs = stellar_obs::Obs::new();
        base.observe(&mut obs.registry);
        let reg = &obs.registry;
        prop_assert_eq!(reg.ports_total(), n_ports as u64);
        let rows = reg.port_rows();
        prop_assert!(rows.windows(2).all(|w| w[0].port < w[1].port));
        prop_assert!(rows.iter().all(PortRow::is_active));
        for (pid, port) in base.ports() {
            prop_assert_eq!(reg.port(pid.0), direct_row(pid, port));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A topology that changes between ticks. Ports are attached in
    /// descending id order, in batches before the ticks, so every port
    /// attached after the first tick has an id below all the existing
    /// ones — each attach shifts the sorted position of every port
    /// already there. Each tick's offers name only ports (and member
    /// sources) attached by then, and drive three data planes: the grown
    /// fabric, the same fabric built in one go, and a bare router grown
    /// like the fabric. Every tick's results, every port's cumulative
    /// counters and the fabric's byte split agree, the grown fabric's
    /// obs bytes equal the one-go fabric's, and with one PoP the bare
    /// router's as well.
    ///
    /// Caught sabotage: a fabric whose routing table misses the ports
    /// attached once traffic has flowed (a table built lazily and never
    /// refreshed) drops their offers as unroutable — no other test here
    /// sees it. `EdgeRouter::add_port` handing out the port's sorted
    /// position as its slot (the dense index this replaced, without its
    /// rebuild) routes the next tick's offers to a neighbour's policy
    /// and counters.
    #[test]
    fn ports_attached_between_ticks_route_like_a_topology_built_at_once(
        topo in arb_topology(),
        pops in prop_oneof![Just(1usize), 2usize..9],
        batches in proptest::collection::vec(0usize..4, 18),
        extra in proptest::collection::vec(arb_tick(), 3),
    ) {
        let (port_rules, mut ticks) = topo;
        ticks.extend(extra);
        let n_ports = port_rules.len();
        // Descending ids, batch numbers non-decreasing along that order.
        let mut batch: Vec<usize> = batches[..n_ports].to_vec();
        batch.sort_unstable();
        let order: Vec<usize> = (0..n_ports).rev().collect();
        let mut attached = vec![false; n_ports];

        let mut grown = Fabric::new(HardwareInfoBase::lab_switch(), pops);
        grown.set_tick_workers(1);
        let mut whole = build_fabric(&port_rules, pops);
        whole.set_tick_workers(1);
        let mut bare = EdgeRouter::new(HardwareInfoBase::lab_switch());
        bare.set_tick_workers(1);
        for (t, tick) in ticks.iter().enumerate() {
            for (&p, _) in order.iter().zip(&batch).filter(|(_, &b)| b == t) {
                attach_to_fabric(&mut grown, &port_rules, p);
                attach_to_router(&mut bare, &port_rules, p);
                attached[p] = true;
            }
            let offers: Vec<OfferedAggregate> = offers_for_tick(n_ports, tick)
                .into_iter()
                .zip(tick)
                .filter(|(_, &(src, dst, ..))| {
                    attached[dst % n_ports] && (src >= n_ports || attached[src])
                })
                .map(|(o, _)| o)
                .collect();
            let end_us = (t as u64 + 1) * TICK_US;
            let rg = tick_fabric(&mut grown, &offers, end_us);
            prop_assert_eq!(&rg, &tick_fabric(&mut whole, &offers, end_us), "tick {}", t);
            prop_assert_eq!(&rg, &tick_router(&mut bare, &offers, end_us), "tick {}", t);
        }
        // Batches run 0..4 and there are at least four ticks, so every
        // port is attached by now.
        let fp = fingerprint(&whole);
        prop_assert_eq!(&fingerprint(&grown), &fp);
        let bare_fp: Vec<_> = bare.ports().map(|(pid, port)| (pid.0, port.counters)).collect();
        prop_assert_eq!(&bare_fp, &fp);
        prop_assert_eq!(grown.counters(), whole.counters());
        prop_assert_eq!(obs_bytes_fabric(&grown), obs_bytes_fabric(&whole));
        if pops == 1 {
            prop_assert_eq!(obs_bytes_fabric(&grown), obs_bytes_router(&bare));
        }
    }
}

/// The per-port rows of a scrape into a fresh registry.
fn port_rows(fabric: &Fabric) -> Vec<PortRow> {
    let mut reg = stellar_obs::MetricsRegistry::new();
    fabric.observe(&mut reg);
    reg.port_rows().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A port that gains rules and loses them all again between ticks —
    /// through the fabric's `install_rule` or straight into its policy,
    /// by removal, a flush or a policy `clear` — ticks like its twin in
    /// an identical fabric that never held a rule: the same results
    /// every tick, the same cumulative counters and the same per-port
    /// rows. Its policy's generation never goes back, while the state
    /// behind it comes and goes.
    #[test]
    fn a_port_that_sheds_its_rules_ticks_like_one_that_never_had_any(
        topo in arb_topology(),
        pops in 1usize..5,
        target in 0usize..18,
        visits in proptest::collection::vec(
            (
                proptest::collection::vec((arb_spec(), arb_action(), any::<u16>()), 1..4),
                any::<bool>(),
                0u8..4,
            ),
            1..4,
        ),
    ) {
        let (mut port_rules, ticks) = topo;
        let n_ports = port_rules.len();
        let target = target % n_ports;
        port_rules[target].clear();
        let pid = PortId(target as u32 + 1);
        let mut shed = build_fabric(&port_rules, pops);
        let mut twin = build_fabric(&port_rules, pops);
        let mut generation = 0;
        for (t, tick) in ticks.iter().enumerate() {
            let end_us = (t as u64 + 1) * TICK_US;
            let (rules, direct, shedding) = &visits[t % visits.len()];
            let ids = 10_000..10_000 + rules.len() as u64;
            for (id, (spec, action, prio)) in ids.clone().zip(rules) {
                let rule = FilterRule::new(id, spec.clone(), *action, *prio);
                if *direct {
                    shed.port_mut(pid).expect("target").policy.install(rule);
                } else {
                    // A full TCAM refuses some: the port gains fewer.
                    let _ = shed.install_rule(pid, rule, end_us);
                }
                let now = shed.port(pid).expect("target").policy.generation();
                prop_assert!(now >= generation, "tick {}", t);
                generation = now;
            }
            match shedding {
                0 => ids.for_each(|id| {
                    shed.remove_rule(pid, id, end_us);
                }),
                1 => {
                    shed.flush_port(pid, end_us);
                }
                2 => ids.for_each(|id| {
                    shed.port_mut(pid).expect("target").policy.remove(id);
                }),
                _ => {
                    shed.port_mut(pid).expect("target").policy.clear();
                }
            }
            let policy = &shed.port(pid).expect("target").policy;
            prop_assert_eq!(policy.rule_count(), 0, "tick {}", t);
            prop_assert!(policy.generation() >= generation, "tick {}", t);
            generation = policy.generation();
            // The tick's offers, plus one that surely reaches the port.
            let mut tick = tick.clone();
            tick.push((0, target, 123, 10_000, true));
            let offers = offers_for_tick(n_ports, &tick);
            let r = tick_fabric(&mut shed, &offers, end_us);
            prop_assert_eq!(&r, &tick_fabric(&mut twin, &offers, end_us), "tick {}", t);
        }
        prop_assert_eq!(fingerprint(&shed), fingerprint(&twin));
        prop_assert_eq!(port_rows(&shed), port_rows(&twin));
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

/// One step of the scrape-list property, on port index `p` (id `p + 1`)
/// of a 16-port universe; an index not attached yet is skipped, and its
/// offers are unroutable.
#[derive(Debug, Clone)]
enum Step {
    /// A fabric tick.
    Tick(OfferGen),
    /// `Fabric::install_rule`.
    Install(usize, Action),
    /// `Fabric::remove_rule` of the port's first rule.
    Remove(usize),
    /// `Fabric::flush_port`.
    Flush(usize),
    /// `Fabric::restart`.
    Restart,
    /// A counter (`field` of `set_counter`) rewritten through `port_mut`.
    Counter(usize, usize, u64),
    /// A rule installed straight into the policy through `port_mut`.
    PolicyInstall(usize, Action),
    /// The next port attached, maybe with a rule in its policy and a
    /// non-zero counter already.
    Attach(Option<Action>, Option<(usize, u64)>),
}

const UNIVERSE: usize = 16;

/// A counter to write: `(field of set_counter, value)`, often zero.
fn arb_counter() -> impl Strategy<Value = (usize, u64)> {
    (0usize..6, prop_oneof![Just(0u64), 1u64..1_000_000])
}

fn arb_attach() -> impl Strategy<Value = Step> {
    (
        proptest::option::of(arb_action()),
        proptest::option::of(arb_counter()),
    )
        .prop_map(|(a, c)| Step::Attach(a, c))
}

fn arb_step() -> impl Strategy<Value = Step> {
    let p = || 0usize..UNIVERSE;
    // Ticks and attaches listed twice: drawn twice as often.
    prop_oneof![
        arb_tick().prop_map(Step::Tick),
        arb_tick().prop_map(Step::Tick),
        (p(), arb_action()).prop_map(|(p, a)| Step::Install(p, a)),
        p().prop_map(Step::Remove),
        p().prop_map(Step::Flush),
        Just(Step::Restart),
        (p(), arb_counter()).prop_map(|(p, (f, v))| Step::Counter(p, f, v)),
        (p(), arb_action()).prop_map(|(p, a)| Step::PolicyInstall(p, a)),
        arb_attach(),
        arb_attach(),
    ]
}

/// Sets one of the port's counters: the five byte columns a scrape
/// reports, or (`field` 5) a packet count it does not.
fn set_counter(port: &mut MemberPort, field: usize, v: u64) {
    let c = &mut port.counters;
    *match field {
        0 => &mut c.forwarded_bytes,
        1 => &mut c.dropped_bytes,
        2 => &mut c.shaped_bytes,
        3 => &mut c.shape_dropped_bytes,
        4 => &mut c.congestion_dropped_bytes,
        _ => &mut c.forwarded_packets,
    } = v;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scrape ≡ walk: a scrape reads each router's scrape list, not its
    /// ports, so after every step — ticks, installs and removals through
    /// the fabric, flushes, restarts, counters and policies rewritten
    /// through `port_mut`, and ports attached between ticks, some with
    /// a rule or a non-zero counter already — its rows are exactly the
    /// full port walk's rows filtered by `PortRow::is_active`, and its
    /// total is the number of ports. On one PoP (the bare router's
    /// scrape) and on several.
    ///
    /// Caught sabotage, each of the four paths that put a slot on the
    /// list left out in turn: a tick touching a port (`run_staged`),
    /// `install_rule`, `port_mut`, and `add_port` of an active port.
    #[test]
    fn a_scrape_reports_every_active_port_of_the_full_walk(
        pops in prop_oneof![Just(1usize), 2usize..6],
        initial in 1usize..6,
        steps in proptest::collection::vec(arb_step(), 1..40),
    ) {
        let mut fabric = Fabric::new(HardwareInfoBase::lab_switch(), pops);
        let mut attached = 0;
        let mut attach = |fabric: &mut Fabric, rule: Option<Action>, counter: Option<(usize, u64)>| {
            if attached == UNIVERSE {
                return;
            }
            let asn = 64500 + attached as u32;
            let mut port = MemberPort::new(asn, MacAddr::for_member(asn, 1), 100_000_000);
            if let Some(action) = rule {
                port.policy.install(FilterRule::new(1, MatchSpec::default(), action, 5));
            }
            if let Some((field, v)) = counter {
                set_counter(&mut port, field, v);
            }
            fabric.add_port(PopId((attached % pops) as u16), PortId(attached as u32 + 1), port);
            attached += 1;
        };
        for _ in 0..initial {
            attach(&mut fabric, None, None);
        }
        for (k, step) in steps.into_iter().enumerate() {
            let now = (k as u64 + 1) * TICK_US;
            let rule = |action| FilterRule::new(100 + k as u64, MatchSpec::default(), action, 7);
            let pid = |p: usize| PortId(p as u32 + 1);
            match step {
                Step::Tick(tick) => {
                    fabric.process_tick_in_place(&offers_for_tick(UNIVERSE, &tick), now, TICK_US);
                }
                Step::Install(p, action) => {
                    let _ = fabric.install_rule(pid(p), rule(action), now);
                }
                Step::Remove(p) => {
                    let first = fabric.port(pid(p)).and_then(|port| port.policy.rules().first());
                    if let Some(id) = first.map(|r| r.id) {
                        fabric.remove_rule(pid(p), id, now);
                    }
                }
                Step::Flush(p) => {
                    fabric.flush_port(pid(p), now);
                }
                Step::Restart => {
                    fabric.restart(now);
                }
                Step::Counter(p, field, v) => {
                    if let Some(port) = fabric.port_mut(pid(p)) {
                        set_counter(port, field, v);
                    }
                }
                Step::PolicyInstall(p, action) => {
                    if let Some(port) = fabric.port_mut(pid(p)) {
                        port.policy.install(rule(action));
                    }
                }
                Step::Attach(rule, counter) => attach(&mut fabric, rule, counter),
            }
            let walked: Vec<PortRow> = fabric
                .ports()
                .map(|(pid, port)| direct_row(pid, port))
                .filter(PortRow::is_active)
                .collect();
            let mut reg = stellar_obs::MetricsRegistry::new();
            fabric.observe(&mut reg);
            prop_assert_eq!(reg.port_rows(), walked.as_slice(), "step {}", k);
            prop_assert_eq!(reg.ports_total(), fabric.ports().count() as u64, "step {}", k);
        }
    }
}
