//! Per-layer metrics: span totals from the staged pass, counts read at
//! the layer boundaries, and side calls made after the window into layers
//! the facade does not expose one at a time.

use crate::driver::TICK_US;
use crate::run::Pass;
use crate::stats;
use crate::trace::{LayerTotal, Stage};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use stellar_bgp::types::Asn;
use stellar_classify::analyze::analyze;
use stellar_classify::{FlowClassifier, DEFAULT_VERIFY_BUDGET};
use stellar_core::flowspec::lower_flowspec;
use stellar_core::proof::{check_lowering, check_placement, owner_table};
use stellar_core::system::StellarSystem;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::switch::{EdgeRouter, OfferedAggregate};
use stellar_net::flow::FlowKey;

/// `(name, unit)` of every per-layer metric, in report order.
/// `*.self_us` / `*.self_ns` are mean self time per op (per key for the
/// lookup); `*.self_ms` are mean self time per call.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("bgp.flowspec_decode.self_us", "us"),
    ("bgp.flowspec_malformed", "count"),
    ("sim.announcement.self_us", "us"),
    ("routeserver.handle_update.self_us", "us"),
    ("routeserver.handle_flowspec_update.self_us", "us"),
    ("routeserver.refused_share", "share"),
    ("core.process_update.self_us", "us"),
    ("core.flowspec_install.self_us", "us"),
    ("core.lower_flowspec.self_us", "us"),
    ("core.check_lowering.self_us", "us"),
    ("core.desired_rules.self_us", "us"),
    ("core.audit_batch.self_us", "us"),
    ("core.queue.self_us", "us"),
    ("core.manager_apply.self_us", "us"),
    ("core.withdraw.self_us", "us"),
    ("core.installs", "count"),
    ("core.removals", "count"),
    ("core.audit_rejected", "count"),
    ("core.watchdog_busy.self_ms", "ms"),
    ("core.watchdog_quiet.self_ms", "ms"),
    ("core.check_placement.self_ms", "ms"),
    ("core.reconcile.self_ms", "ms"),
    ("core.is_converged.self_ms", "ms"),
    ("core.watchdog_violations", "count"),
    ("classify.analyze.self_us", "us"),
    ("classify.compile.self_us", "us"),
    ("classify.lookup.self_ns", "ns"),
    ("sim.fabric_tick.self_us", "us"),
    ("sim.fabric_overhead_ratio", "ratio"),
    ("sim.fabric_par_speedup", "ratio"),
    ("sim.cross_pop_share", "share"),
    ("dataplane.dropped_share", "share"),
    ("dataplane.shaped_share", "share"),
    ("dataplane.tick_allocs", "count"),
    ("dataplane.tcam_l34_used", "count"),
    ("dataplane.rules_per_port_max", "count"),
    ("sim.fabric_observe.self_ms", "ms"),
    ("obs.snapshot_json.self_ms", "ms"),
    ("obs.series", "count"),
    ("trace.overhead_share", "share"),
    ("trace.coverage_share", "share"),
];

/// Repetitions of each side call; its mean is reported.
const SIDE_REPS: usize = 20;
/// Ticks per mode for the fabric-vs-bare-router and worker-count
/// comparisons.
const COMPARE_TICKS: usize = 40;

/// Mean time of one call of `f` in µs over `reps` calls.
fn mean_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

type Metrics = BTreeMap<&'static str, f64>;

/// Assembles every per-layer metric from the traced pass.
/// `direct_ops_per_s` is the throughput of the untraced pass of the same
/// seed, run in this process just before.
pub fn per_layer(direct_ops_per_s: f64, staged: &mut Pass) -> Metrics {
    let mut m: Metrics = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    m.insert(
        "trace.overhead_share",
        1.0 - crate::ops_per_s(&staged.rounds) / direct_ops_per_s,
    );
    span_metrics(staged, &mut m);
    boundary_counts(staged, &mut m);
    side_calls(&staged.driver.sys, &mut m);
    if !staged.offers.is_empty() {
        let tick_allocs: u64 = staged.rounds.iter().map(|r| r.op_allocs.0).sum();
        m.insert(
            "dataplane.tick_allocs",
            tick_allocs as f64 / staged.window_ops() as f64,
        );
        tick_comparisons(staged, &mut m);
    }
    m
}

/// Self time per layer from the span log.
fn span_metrics(staged: &Pass, m: &mut Metrics) {
    let tracer = staged
        .driver
        .tracer
        .as_ref()
        .expect("the staged pass carries a tracer");
    let window = tracer.totals(Stage::Window);
    let setup = tracer.totals(Stage::Setup);
    let quiet = tracer.totals(Stage::Quiet);
    let window_ops = staged.window_ops() as f64;
    let setup_ops = staged.setup_ops.max(1) as f64;
    // A layer is read where it runs: in the window if it has spans there,
    // otherwise in the set-up that built the standing state.
    for (metric, _) in PER_LAYER.iter().filter(|(n, _)| n.ends_with(".self_us")) {
        let span = metric.trim_end_matches(".self_us");
        let per_op_us = match (window.get(span), setup.get(span)) {
            (Some(t), _) => t.self_ns as f64 / 1e3 / window_ops,
            (None, Some(t)) => t.self_ns as f64 / 1e3 / setup_ops,
            // Not a span: filled in by a side call.
            (None, None) => continue,
        };
        m.insert(metric, per_op_us);
    }
    let per_call_ms = |t: Option<&LayerTotal>| -> f64 {
        t.map_or(0.0, |t| t.self_ns as f64 / 1e6 / t.calls.max(1) as f64)
    };
    for (metric, total) in [
        (
            "core.watchdog_busy.self_ms",
            window.get("core.watchdog_busy"),
        ),
        (
            "core.watchdog_quiet.self_ms",
            quiet.get("core.watchdog_quiet"),
        ),
        ("core.reconcile.self_ms", window.get("core.reconcile")),
        (
            "sim.fabric_observe.self_ms",
            window.get("sim.fabric_observe"),
        ),
        ("obs.snapshot_json.self_ms", window.get("obs.snapshot_json")),
    ] {
        m.insert(metric, per_call_ms(total));
    }
    if let Some(op) = window.get("op") {
        m.insert(
            "trace.coverage_share",
            share(op.total_ns - op.self_ns, op.total_ns),
        );
    }
}

/// Counts read where the work happens: route-server import statistics,
/// the control plane's own counters, the fabric's byte accounting.
fn boundary_counts(staged: &Pass, m: &mut Metrics) {
    let sys = &staged.driver.sys;
    let rs = &sys.ixp.route_server;
    let fs = rs.flowspec_stats();
    let refused = rs.stats().rejected.values().sum::<u64>()
        + fs.rejected.values().sum::<u64>()
        + fs.malformed;
    m.insert("bgp.flowspec_malformed", fs.malformed as f64);
    m.insert(
        "routeserver.refused_share",
        share(refused, rs.stats().announced + fs.announced + fs.malformed),
    );
    let reg = &sys.obs.registry;
    m.insert("core.installs", reg.counter("core.installs") as f64);
    m.insert("core.removals", reg.counter("core.removals") as f64);
    let audit_rejected: u64 = ["shadowed", "conflict", "empty", "duplicate"]
        .iter()
        .map(|k| reg.counter(&format!("analyze.rejected_{k}")))
        .sum();
    m.insert("core.audit_rejected", audit_rejected as f64);
    m.insert(
        "core.watchdog_violations",
        sys.watchdog.total_violations() as f64,
    );
    m.insert("obs.series", staged.series as f64);
    let fabric = &sys.ixp.fabric;
    m.insert("dataplane.tcam_l34_used", fabric.l34_used_total() as f64);
    let c = fabric.counters();
    m.insert(
        "sim.cross_pop_share",
        share(
            c.cross_pop_bytes,
            c.local_bytes + c.cross_pop_bytes + c.external_bytes,
        ),
    );
    let (mut offered, mut dropped, mut shaped, mut widest) = (0u64, 0u64, 0u64, 0usize);
    for (_, port) in fabric.ports() {
        let pc = &port.counters;
        offered += pc.forwarded_bytes + pc.total_discarded_bytes();
        dropped += pc.dropped_bytes;
        shaped += pc.shaped_bytes + pc.shape_dropped_bytes;
        widest = widest.max(port.policy.rule_count());
    }
    m.insert("dataplane.dropped_share", share(dropped, offered));
    m.insert("dataplane.shaped_share", share(shaped, offered));
    m.insert("dataplane.rules_per_port_max", widest as f64);
}

/// Layers the facade only runs as part of something else, called on the
/// end state: lowering and its proof over the standing NLRIs, the analyzer
/// on the largest owner table, a compile of the largest port table, the
/// placement proof and the convergence predicate.
fn side_calls(sys: &StellarSystem, m: &mut Metrics) {
    let flows: Vec<_> = sys
        .ixp
        .route_server
        .flowspec_routes()
        .into_iter()
        .map(|a| a.flow.clone())
        .collect();
    if !flows.is_empty() {
        let lowered: Vec<_> = flows
            .iter()
            .map(|f| lower_flowspec(f).unwrap_or_default())
            .collect();
        let mut next = flows.iter().cycle();
        m.insert(
            "core.lower_flowspec.self_us",
            mean_us(flows.len(), || {
                black_box(lower_flowspec(black_box(next.next().expect("cycle"))).is_ok());
            }),
        );
        let mut next = flows.iter().zip(&lowered).cycle();
        m.insert(
            "core.check_lowering.self_us",
            mean_us(flows.len(), || {
                let (flow, specs) = next.next().expect("cycle");
                black_box(check_lowering(black_box(flow), specs).is_exact());
            }),
        );
    }
    let mut desired = sys.controller.desired_rules();
    desired.extend(sys.flowspec.desired_rules());
    let mut per_owner: BTreeMap<u32, usize> = BTreeMap::new();
    for r in &desired {
        *per_owner.entry(r.owner.0).or_default() += 1;
    }
    // Ties go to the lowest id, so the choice does not depend on map order.
    let largest_owner = per_owner
        .iter()
        .max_by_key(|(asn, n)| (**n, std::cmp::Reverse(**asn)));
    if let Some((&owner, _)) = largest_owner {
        let table = owner_table(&desired, Asn(owner));
        m.insert(
            "classify.analyze.self_us",
            mean_us(SIDE_REPS, || {
                black_box(analyze(black_box(&table)).findings.len());
            }),
        );
    }
    let largest_port = sys
        .ixp
        .fabric
        .ports()
        .max_by_key(|(pid, p)| (p.policy.rule_count(), std::cmp::Reverse(*pid)));
    if let Some((_, port)) = largest_port {
        // One owned copy of the table per repetition, made before the clock
        // starts: `compile` consumes its input.
        let mut tables: Vec<Vec<_>> = (0..SIDE_REPS)
            .map(|_| port.policy.rules().iter().map(|r| r.entry()).collect())
            .collect();
        m.insert(
            "classify.compile.self_us",
            mean_us(SIDE_REPS, || {
                black_box(FlowClassifier::compile(tables.pop().unwrap_or_default()));
            }),
        );
    }
    m.insert(
        "core.check_placement.self_ms",
        mean_us(5, || {
            let check = check_placement(
                &sys.ixp.fabric,
                &desired,
                |a| sys.manager.owner_port(a),
                DEFAULT_VERIFY_BUDGET,
            );
            black_box(check.ports_checked);
        }) / 1e3,
    );
    m.insert(
        "core.is_converged.self_ms",
        mean_us(5, || {
            black_box(sys.is_converged());
        }) / 1e3,
    );
}

/// Median tick time in µs over `COMPARE_TICKS` ticks driven by `tick`.
fn tick_p50_us(
    offers: &[Vec<OfferedAggregate>],
    now: &mut u64,
    mut tick: impl FnMut(&[OfferedAggregate], u64),
) -> f64 {
    let mut samples = Vec::with_capacity(COMPARE_TICKS);
    for i in 0..COMPARE_TICKS {
        *now += TICK_US;
        let set = &offers[i % offers.len()];
        let t = Instant::now();
        tick(set, *now);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&samples)
}

/// A bare router holding the fabric's every port and rule: the same cell
/// without the inter-PoP route phase.
fn bare_router(sys: &StellarSystem) -> EdgeRouter {
    let mut er = EdgeRouter::new(HardwareInfoBase::production_er());
    for (pid, port) in sys.ixp.fabric.ports() {
        let mut copy = MemberPort::new(port.member_asn, port.mac, port.capacity_bps);
        for rule in port.policy.rules() {
            copy.policy.install(rule.clone());
        }
        er.add_port(pid, copy);
    }
    er.set_tick_workers(1);
    er
}

/// Tick-path comparisons on the end state of a tick workload: per-key
/// classifier lookups, the fabric against a bare router on the same cell,
/// and one tick worker against one per core. These keep ticking the
/// fabric, so they run last.
fn tick_comparisons(staged: &mut Pass, m: &mut Metrics) {
    let offers = &staged.offers;
    let sys = &mut staged.driver.sys;
    let fabric = &sys.ixp.fabric;
    let keyed: Vec<(&MemberPort, FlowKey)> = offers[0]
        .iter()
        .filter_map(|o| {
            let pid = fabric.port_of_mac(o.key.dst_mac)?;
            Some((fabric.port(pid)?, o.key))
        })
        .collect();
    let sweep_us = mean_us(3, || {
        for (port, key) in &keyed {
            black_box(port.policy.classify(black_box(key)).is_some());
        }
    });
    m.insert(
        "classify.lookup.self_ns",
        sweep_us * 1e3 / keyed.len().max(1) as f64,
    );
    drop(keyed);

    let mut now = staged.now;
    let mut bare = bare_router(sys);
    let bare_p50 = tick_p50_us(offers, &mut now, |set, t| {
        bare.process_tick_in_place(set, t, TICK_US);
    });
    drop(bare);
    let fabric = &mut sys.ixp.fabric;
    let seq_p50 = tick_p50_us(offers, &mut now, |set, t| {
        fabric.process_tick_in_place(set, t, TICK_US);
    });
    fabric.set_tick_workers(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let par_p50 = tick_p50_us(offers, &mut now, |set, t| {
        fabric.process_tick_in_place(set, t, TICK_US);
    });
    fabric.set_tick_workers(1);
    m.insert("sim.fabric_overhead_ratio", seq_p50 / bare_p50);
    m.insert("sim.fabric_par_speedup", seq_p50 / par_p50);
}
