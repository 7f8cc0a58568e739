//! End-to-end observability: a seeded fault-soak run exports a metrics
//! snapshot that (a) contains the paper-relevant telemetry — TCAM
//! occupancy, per-queue drop counters, the signal→install latency
//! histogram with its p50/p95/p99 summary, retry and reconcile span
//! counts — and (b) is byte-identical across two identically-seeded runs,
//! which is the determinism oracle the CI gate enforces.

use stellar::bgp::types::Asn;
use stellar::core::faults::{FaultEvent, FaultKind, FaultPlan};
use stellar::core::signal::StellarSignal;
use stellar::core::system::StellarSystem;
use stellar::dataplane::hardware::HardwareInfoBase;
use stellar::dataplane::switch::OfferedAggregate;
use stellar::net::addr::{IpAddress, Ipv4Address};
use stellar::net::flow::FlowKey;
use stellar::net::mac::MacAddr;
use stellar::net::proto::IpProtocol;
use stellar::sim::engine::run_ticks_observed;
use stellar::sim::topology::{generic_members, IxpTopology, MemberSpec};

const VICTIM: Asn = Asn(64500);
const END_US: u64 = 14_000_000;
const TICK_US: u64 = 250_000;

fn build() -> StellarSystem {
    let mut specs = vec![MemberSpec {
        asn: VICTIM.0,
        capacity_bps: 1_000_000_000,
        prefixes: vec!["100.50.0.0/16".parse().unwrap()],
    }];
    specs.extend(generic_members(VICTIM.0 + 1, 5));
    let mut sys = StellarSystem::new(
        IxpTopology::build(&specs, HardwareInfoBase::lab_switch()),
        4.33,
    );
    sys.inject_faults(FaultPlan::scripted(vec![
        FaultEvent {
            at_us: 2_000_000,
            kind: FaultKind::InstallBrownout {
                duration_us: 800_000,
            },
        },
        FaultEvent {
            at_us: 5_300_000,
            kind: FaultKind::RouterRestart,
        },
    ]));
    sys
}

fn attack(sys: &StellarSystem) -> OfferedAggregate {
    OfferedAggregate {
        key: FlowKey {
            src_mac: MacAddr::for_member(64503, 1),
            dst_mac: sys.ixp.member(VICTIM).unwrap().mac,
            src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 7)),
            dst_ip: IpAddress::V4(Ipv4Address::new(100, 50, 0, 10)),
            protocol: IpProtocol::UDP,
            src_port: 123,
            dst_port: 40000,
            ..FlowKey::default()
        },
        bytes: 12_500_000, // 400 Mbps over a 250 ms tick
        packets: 8_929,
    }
}

/// One seeded end-to-end run: signal → brownout-forced retries → router
/// restart → reconcile repairs, with attack traffic flowing every tick.
/// Returns the exported snapshot JSON.
fn run_once() -> (StellarSystem, String) {
    let mut sys = build();
    sys.member_signal(
        VICTIM,
        "100.50.0.10/32".parse().unwrap(),
        &[
            StellarSignal::drop_udp_src(123),
            StellarSignal::drop_udp_src(11211),
            StellarSignal::drop_udp_src(19),
        ],
        0,
    );
    let offer = attack(&sys);
    let mut registry = stellar::obs::MetricsRegistry::default();
    run_ticks_observed(&mut sys, 0, END_US, TICK_US, &mut registry, |s, t0, t1| {
        // The escalation lands mid-brownout and must be retried.
        if t0 == 2_250_000 {
            s.member_signal(
                VICTIM,
                "100.50.0.10/32".parse().unwrap(),
                &[
                    StellarSignal::drop_udp_src(123),
                    StellarSignal::drop_udp_src(11211),
                    StellarSignal::drop_udp_src(19),
                    StellarSignal::drop_udp_src(53),
                ],
                t0,
            );
        }
        s.pump(t0);
        if t0.is_multiple_of(1_000_000) {
            s.reconcile(t0);
        }
        s.traffic_tick(&[offer], t1, TICK_US);
    });
    // Fold the tick-driver metrics into the system's registry so one
    // snapshot carries everything.
    sys.obs
        .registry
        .counter_set("sim.ticks", registry.counter("sim.ticks"));
    sys.observe(END_US);
    let json = sys.obs.snapshot_json(END_US);
    (sys, json)
}

#[test]
fn snapshot_contains_required_telemetry() {
    let (sys, json) = run_once();
    let reg = &sys.obs.registry;

    // TCAM occupancy gauges are present and the drop rules occupy L3-L4
    // criteria at end of run.
    assert!(reg.gauge("dataplane.tcam.l34_used").unwrap() > 0);
    assert!(reg.gauge("dataplane.tcam.l34_free").unwrap() > 0);
    assert!(reg.gauge("dataplane.tcam.allocations").unwrap() > 0);

    // Per-queue drop counters on the victim port: the NTP attack was
    // discarded by the drop queue.
    let port = sys.ixp.member(VICTIM).unwrap().port.0;
    let dropped = reg.port(port).dropped_bytes;
    assert!(dropped > 0, "attack traffic was never dropped");

    // Signal→install latency histogram with quantile summary.
    let h = reg
        .histogram("core.signal_to_install_us")
        .expect("latency histogram exists");
    assert!(h.count() >= 4, "expected at least the 4 installs");
    assert!(h.quantile(0.50) <= h.quantile(0.95));
    assert!(h.quantile(0.95) <= h.quantile(0.99));
    // The mid-brownout escalation waited out the brownout: the tail is
    // visibly above the no-fault head.
    assert!(h.quantile(0.99) > h.quantile(0.50));

    // Retry episodes were opened by the brownout and closed on success.
    assert!(
        reg.counter("core.retries") > 0,
        "brownout caused no retries"
    );
    assert!(sys.obs.spans.completed_count("retry") > 0);
    assert!(reg.histogram("span.retry_us").is_some());

    // Reconcile passes ran every second; the restart forced repairs.
    assert!(reg.counter("core.reconcile.passes") >= 14);
    assert!(reg.counter("core.reconcile.adds") > 0, "restart unrepaired");
    assert!(sys.obs.spans.completed_count("reconcile_repair") > 0);

    // Route-server import counters and fault counters made it in.
    assert!(reg.counter("routeserver.accepted") > 0);
    assert!(reg.counter("core.faults.install_brownout") == 1);
    assert!(reg.counter("core.faults.router_restart") == 1);
    assert!(reg.counter("sim.ticks") == (END_US / TICK_US));

    // The flight recorder captured the faults.
    assert!(json.contains("fault.install_brownout"));
    assert!(json.contains("router_restarted"));

    // And the JSON carries the quantile summary fields.
    for needle in ["\"p50\"", "\"p95\"", "\"p99\"", "core.signal_to_install_us"] {
        assert!(json.contains(needle), "snapshot missing {needle}");
    }
}

#[test]
fn identically_seeded_runs_export_byte_identical_snapshots() {
    let (_, a) = run_once();
    let (_, b) = run_once();
    assert_eq!(a, b, "two identically-seeded runs diverged");
}
