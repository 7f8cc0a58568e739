//! Chaos soak: sweeps seeded fault schedules over every fault class the
//! signaling-plane chaos engine knows — install brownouts, edge-router
//! restarts, iBGP session flaps, member eBGP peer flaps, corrupted
//! FlowSpec NLRI injections, delayed/reordered announcement delivery and
//! IRR/RPKI validation-oracle brownouts — against a live signal +
//! FlowSpec workload, and reports MTTR (fault quiescence → convergence)
//! p50/p95/p99 per class from the obs log-linear histograms.
//!
//! Every episode must end converged with a clean runtime invariant
//! watchdog: one violation anywhere fails the soak. The whole sweep is
//! replayed and the summary payload must be byte-identical — the chaos
//! engine consumes only seeded randomness.
//!
//! Emits `results/chaos_soak.json`. `--ticks N` sets the seeds swept per
//! class; `STELLAR_CHAOS_SMOKE=1` shrinks the sweep for the CI gate. The
//! knob registry's values are recorded in the host metadata.

use stellar_bench::knobs::Knobs;
use stellar_bench::output::{self, RunOpts};
use stellar_bgp::extcommunity::ExtendedCommunity;
use stellar_bgp::flowspec::{Component, FlowSpec, NumericOp};
use stellar_bgp::types::{Afi, Asn};
use stellar_core::faults::{FaultPlan, FaultPlanConfig};
use stellar_core::signal::StellarSignal;
use stellar_core::system::StellarSystem;
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_net::prefix::Prefix;
use stellar_sim::topology::{generic_members, IxpTopology, MemberSpec};
use stellar_stats::table::render_table;

const VICTIM: Asn = Asn(64500);
const PUMP_US: u64 = 250_000;
const HORIZON_US: u64 = 10_000_000;
/// Drive past quiescence far enough for the worst recovery tail: the
/// full retry ladder, one dead-letter park (8 s cool-off) and a fresh
/// retry budget after requeue.
const SETTLE_US: u64 = 20_000_000;

/// One fault class under soak: a name (stable metric token) and the plan
/// shape that produces only that class.
struct FaultClass {
    name: &'static str,
    cfg: FaultPlanConfig,
}

fn classes() -> Vec<FaultClass> {
    let quiet = FaultPlanConfig {
        restarts: 0,
        flaps: 0,
        brownouts: 0,
        horizon_us: HORIZON_US,
        ..Default::default()
    };
    vec![
        FaultClass {
            name: "install_brownout",
            cfg: FaultPlanConfig {
                brownouts: 2,
                ..quiet.clone()
            },
        },
        FaultClass {
            name: "router_restart",
            cfg: FaultPlanConfig {
                restarts: 2,
                ..quiet.clone()
            },
        },
        FaultClass {
            name: "session_flap",
            cfg: FaultPlanConfig {
                flaps: 1,
                ..quiet.clone()
            },
        },
        FaultClass {
            name: "peer_flap",
            cfg: FaultPlanConfig {
                peer_flaps: 1,
                peers: vec![VICTIM, Asn(64502)],
                ..quiet.clone()
            },
        },
        FaultClass {
            name: "flowspec_corrupt",
            cfg: FaultPlanConfig {
                corruptions: 3,
                peers: vec![Asn(64503)],
                ..quiet.clone()
            },
        },
        FaultClass {
            name: "delivery_chaos",
            cfg: FaultPlanConfig {
                delivery_windows: 2,
                ..quiet.clone()
            },
        },
        FaultClass {
            name: "validation_brownout",
            cfg: FaultPlanConfig {
                validation_brownouts: 1,
                max_brownout_us: 3_000_000,
                ..quiet.clone()
            },
        },
    ]
}

fn system() -> StellarSystem {
    let mut specs = generic_members(64501, 9);
    specs.insert(
        0,
        MemberSpec {
            asn: VICTIM.0,
            capacity_bps: 1_000_000_000,
            prefixes: vec!["100.10.10.0/24".parse().expect("victim prefix")],
        },
    );
    let ixp = IxpTopology::build(&specs, HardwareInfoBase::lab_switch());
    StellarSystem::new(ixp, 100.0)
}

fn attack_flow() -> FlowSpec {
    FlowSpec::new(
        Afi::Ipv4,
        vec![
            Component::DstPrefix("100.10.10.10/32".parse().expect("prefix")),
            Component::IpProtocol(vec![NumericOp::equals(17)]),
            Component::SrcPort(vec![NumericOp::equals(53)]),
        ],
    )
    .expect("components in order")
}

/// One soaked episode: returns the MTTR in µs (time from fault
/// quiescence to the first converged control-plane sample) and the
/// watchdog check count. Panics if the episode does not recover or any
/// runtime invariant breaks — chaos may bend the system, never leave it
/// wrong.
fn episode(class: &FaultClass, seed: u64) -> (u64, u64) {
    let mut sys = system();
    let plan = FaultPlan::generate(seed, &class.cfg);
    // MTTR clock zero: the instant the last scripted fault (and any
    // window it opened) is over. Convergence observed before that point
    // does not count — a later fault may still break it.
    let quiescent = plan.quiescent_after_us();
    sys.inject_faults(plan);

    let victim: Prefix = "100.10.10.10/32".parse().expect("victim host");
    let end = quiescent.max(HORIZON_US) + SETTLE_US;
    let mut mttr = None;
    let mut t = 0u64;
    while t <= end {
        if t == 0 {
            // The standing mitigation every fault hits: three community
            // signals plus one FlowSpec rule.
            sys.member_signal(
                VICTIM,
                victim,
                &[
                    StellarSignal::drop_udp_src(123),
                    StellarSignal::drop_udp_src(11211),
                    StellarSignal::drop_udp_src(19),
                ],
                0,
            );
            let drop = ExtendedCommunity::traffic_rate(VICTIM.0 as u16, 0.0);
            sys.member_flowspec(VICTIM, attack_flow(), &[drop], 0);
        }
        if t == 2_500_000 {
            // Mid-soak escalation: lands inside whatever window is open.
            sys.member_signal(
                VICTIM,
                victim,
                &[
                    StellarSignal::drop_udp_src(123),
                    StellarSignal::drop_udp_src(11211),
                    StellarSignal::drop_udp_src(19),
                    StellarSignal::drop_udp_src(53),
                ],
                t,
            );
        }
        sys.pump(t);
        if t.is_multiple_of(sys.reconcile_interval_us.max(PUMP_US)) {
            sys.reconcile(t);
        }
        if mttr.is_none() && t >= quiescent && sys.is_converged() {
            mttr = Some(t - quiescent);
        }
        t += PUMP_US;
    }

    assert!(
        sys.is_converged(),
        "{} seed {seed}: not converged by t={end}; log tail: {:?}",
        class.name,
        sys.log.iter().rev().take(8).collect::<Vec<_>>()
    );
    assert!(
        sys.reconcile(end + PUMP_US).is_clean(),
        "{} seed {seed}: reconcile not idempotent after convergence",
        class.name
    );
    // Final quiet-state watchdog pass well past the grace bound, then
    // the verdict over the whole episode.
    sys.watchdog_check(end + 60_000_000);
    assert!(
        sys.watchdog.is_clean(),
        "{} seed {seed}: watchdog violations: {:?}",
        class.name,
        sys.watchdog.violations()
    );
    let mttr = mttr.unwrap_or_else(|| {
        panic!(
            "{} seed {seed}: never converged after quiescence",
            class.name
        )
    });
    (mttr, sys.watchdog.checks())
}

/// Runs the full sweep, returning the summary payload.
fn sweep(base_seed: u64, seeds_per_class: u64) -> serde_json::Value {
    // MTTR samples aggregate across episodes in one obs histogram per
    // class: `mttr.<class>_us`.
    let mut agg = stellar_obs::Obs::new();
    let mut rows = vec![vec![
        "fault class".to_string(),
        "episodes".to_string(),
        "mttr p50".to_string(),
        "mttr p95".to_string(),
        "mttr p99".to_string(),
    ]];
    let mut per_class = Vec::new();
    let mut total_checks = 0u64;
    for (ci, class) in classes().iter().enumerate() {
        for i in 0..seeds_per_class {
            let seed = base_seed + (ci as u64) * 1_000 + i;
            let (mttr, checks) = episode(class, seed);
            total_checks += checks;
            agg.registry
                .observe(&format!("mttr.{}_us", class.name), mttr);
        }
        let hist = agg
            .registry
            .histogram(&format!("mttr.{}_us", class.name))
            .expect("histogram recorded");
        let (p50, p95, p99) = (
            hist.quantile(0.50),
            hist.quantile(0.95),
            hist.quantile(0.99),
        );
        rows.push(vec![
            class.name.to_string(),
            seeds_per_class.to_string(),
            format!("{:.2}s", p50 as f64 / 1e6),
            format!("{:.2}s", p95 as f64 / 1e6),
            format!("{:.2}s", p99 as f64 / 1e6),
        ]);
        per_class.push(serde_json::json!({
            "class": class.name,
            "episodes": seeds_per_class,
            "mttr_p50_us": p50,
            "mttr_p95_us": p95,
            "mttr_p99_us": p99,
        }));
    }
    println!("{}", render_table(&rows));
    println!(
        "watchdog: {total_checks} checks across {} episodes, 0 violations",
        seeds_per_class * classes().len() as u64
    );
    serde_json::json!({
        "classes": per_class,
        "episodes": seeds_per_class * classes().len() as u64,
        "watchdog_checks": total_checks,
        "watchdog_violations": 0,
    })
}

fn main() {
    let knobs = Knobs::from_env();
    let smoke = knobs.chaos_smoke;
    let exp = output::start(
        "CHAOS-SOAK",
        "chaos engine MTTR soak: every fault class, watchdog-audited",
        RunOpts {
            seed: 7,
            ticks: if smoke { 2 } else { 10 },
        },
    );
    println!(
        "sweep: {} fault classes x {} seeds{}\n",
        classes().len(),
        exp.ticks(),
        if smoke { " [smoke]" } else { "" }
    );

    let data = sweep(exp.seed(), exp.ticks());

    // Replay the whole sweep: the chaos engine draws only seeded
    // randomness, so the payload must be byte-identical.
    let replay = sweep(exp.seed(), exp.ticks());
    let identical = serde_json::to_string(&data).expect("serialize")
        == serde_json::to_string(&replay).expect("serialize");
    println!(
        "determinism check (replayed sweep identical): {}",
        if identical { "PASS" } else { "FAIL" }
    );
    assert!(identical, "replayed sweep diverged");

    // The knob registry rides in the host metadata so a recorded run is
    // reproducible from the artifact alone.
    let payload = serde_json::json!({
        "host": serde_json::json!({
            "smoke": smoke,
            "env_knobs": knobs.host_json(),
        }),
        "soak": data,
        "deterministic": identical,
    });
    exp.write("chaos_soak", &payload);
}
