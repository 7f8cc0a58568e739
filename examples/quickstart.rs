//! Quickstart: stand up a small IXP, attack a member, mitigate with one
//! BGP announcement.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use stellar::bgp::types::Asn;
use stellar::core::signal::StellarSignal;
use stellar::core::system::StellarSystem;
use stellar::dataplane::hardware::HardwareInfoBase;
use stellar::dataplane::switch::OfferedAggregate;
use stellar::net::addr::{IpAddress, Ipv4Address};
use stellar::net::flow::FlowKey;
use stellar::net::mac::MacAddr;
use stellar::net::proto::IpProtocol;
use stellar::sim::topology::{generic_members, IxpTopology};
use stellar_bench::knobs::Knobs;

fn main() {
    // 1. An IXP with ten members on a lab-sized edge router, plus the
    //    route server and Stellar's blackholing controller. The knob
    //    registry may shard the fabric (`STELLAR_POPS`) and fan its ticks
    //    out (`STELLAR_TICK_WORKERS`, `STELLAR_PARALLEL_MIN_WORK`); the
    //    exported snapshot must not change either way.
    let knobs = Knobs::from_env();
    let mut ixp = IxpTopology::build_with_pops(
        &generic_members(64500, 10),
        HardwareInfoBase::lab_switch(),
        knobs.pops(),
    );
    knobs.apply(&mut ixp.fabric);
    let mut system = StellarSystem::new(ixp, 4.33);
    let victim_asn = Asn(64500);
    let victim_ip = Ipv4Address::new(131, 0, 0, 10);
    let victim_prefix = stellar::net::prefix::Prefix::host(IpAddress::V4(victim_ip));
    println!(
        "IXP up: {} members, route server, Stellar controller.",
        system.ixp.members.len()
    );

    // 2. An NTP amplification attack: 1 Gbps of UDP source-port-123
    //    traffic converging on the victim's 10 Gbps port.
    let attack = OfferedAggregate {
        key: FlowKey {
            src_mac: MacAddr::for_member(64505, 1),
            dst_mac: system.ixp.member(victim_asn).unwrap().mac,
            src_ip: IpAddress::V4(Ipv4Address::new(198, 51, 100, 7)),
            dst_ip: IpAddress::V4(victim_ip),
            protocol: IpProtocol::UDP,
            src_port: 123,
            dst_port: 40000,
            ..FlowKey::default()
        },
        bytes: 125_000_000, // 1 Gbps over a 1 s tick
        packets: 267_000,
    };
    let port = system.ixp.member(victim_asn).unwrap().port;
    let r = system.traffic_tick(&[attack], 1_000_000, 1_000_000);
    println!(
        "t=1s  attack flowing: {:.0} Mbps delivered to the victim",
        r[&port].counters.forwarded_bytes as f64 * 8.0 / 1e6
    );
    let fabric = &system.ixp.fabric;
    println!(
        "      fabric: {} PoP(s), tick {}",
        fabric.num_pops(),
        if fabric.last_tick_parallel() {
            "fanned out over the PoPs"
        } else {
            "sequential"
        }
    );

    // 3. The victim signals Advanced Blackholing: ONE BGP announcement of
    //    its /32 tagged with the extended community "drop UDP source 123"
    //    (the paper's IXP:2:123). No other member needs to do anything.
    let out = system.member_signal(
        victim_asn,
        victim_prefix,
        &[StellarSignal::drop_udp_src(123)],
        2_000_000,
    );
    assert!(out.rejections.is_empty());
    let applied = system.pump(2_000_000);
    println!("t=2s  signal sent; {applied} rule installed in the IXP fabric.");

    // 4. The attack is now dropped at the IXP, before the member port.
    let r = system.traffic_tick(&[attack], 3_000_000, 1_000_000);
    println!(
        "t=3s  after Stellar: {:.0} Mbps delivered, {:.0} Mbps dropped at the IXP",
        r[&port].counters.forwarded_bytes as f64 * 8.0 / 1e6,
        r[&port].counters.dropped_bytes as f64 * 8.0 / 1e6
    );

    // 5. Telemetry: the member can see how much the rule is discarding.
    let t = &system.telemetry(&[1])[0];
    println!(
        "telemetry rule #1: matched {} MB, discarded {} MB",
        t.matched_bytes / 1_000_000,
        t.discarded_bytes / 1_000_000
    );

    // While the rule is live, the placement-soundness obligation must
    // hold: the fabric's installed tables are semantically equal to the
    // signalled intent over every port's traffic — proven exactly by
    // the packet-set algebra, not sampled.
    assert!(system.is_converged());
    let desired: Vec<_> = system
        .controller
        .desired_rules()
        .into_iter()
        .chain(system.flowspec.desired_rules())
        .collect();
    let placement = stellar_core::proof::check_placement(
        &system.ixp.fabric,
        &desired,
        |a| system.manager.owner_port(a),
        stellar_core::proof::DEFAULT_VERIFY_BUDGET,
    );
    assert!(
        placement.is_sound(),
        "placement obligation violated: {:?}",
        placement.mismatches
    );
    println!(
        "placement proof: {} occupied port(s) exactly match intent",
        placement.ports_checked
    );

    // 6. Attack over: withdraw the /32 and the rule disappears.
    system.member_withdraw(victim_asn, victim_prefix, 4_000_000);
    system.pump(4_000_000);
    println!("t=4s  withdrawn; active rules: {}", system.active_rules());

    // 7. The whole run was observed: export the metrics snapshot
    //    (install counters, signal→install latency, TCAM occupancy,
    //    per-port queue counters).
    let path = "results/metrics_quickstart.json";
    system.export_metrics(path, 4_000_000).expect("export");
    println!("metrics snapshot written to {path}");

    // 8. The runtime invariant watchdog saw nothing wrong, start to end.
    system.watchdog_check(60_000_000);
    assert!(
        system.watchdog.is_clean(),
        "watchdog violations: {:?}",
        system.watchdog.violations()
    );
    println!("watchdog: clean ({} checks)", system.watchdog.checks());
}
