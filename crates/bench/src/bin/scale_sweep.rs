//! Scale sweep for the tick pipeline across the multi-PoP fabric: a
//! `pops × ports × rules` grid, each cell run three ways —
//!
//! - `single_router`: all ports on one legacy [`EdgeRouter`] (the 1-PoP
//!   pre-fabric baseline),
//! - `fabric_seq`: the [`Fabric`] with the PoP fan-out pinned to one
//!   worker,
//! - `fabric_par`: the fabric fanning PoPs out over scoped threads on
//!   every tick.
//!
//! The pass/fail gate is *equality*, not speed: every mode must finish
//! with byte-identical cumulative per-port counters, sequential and
//! parallel fabric runs must export byte-identical obs snapshots, a
//! 1-PoP fabric must export the single router's snapshot verbatim, and
//! the sequential measure windows must run with **zero heap
//! allocations** (counted by a wrapping global allocator). Wall times
//! are reported per mode as data — there is no parallel speedup
//! threshold, because a speedup is not measurable on a 1-core host and
//! a threshold that cannot fail on some hosts and cannot pass on others
//! is not a gate.
//!
//! Results land in `results/bench_pipeline.json` (standard envelope)
//! and the headline summary in `BENCH_pipeline.json` at the workspace
//! root. `STELLAR_SWEEP_SMOKE=1` shrinks the grid for the CI gate;
//! `STELLAR_TICK_WORKERS` pins the parallel worker count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;
use stellar_bench::knobs::Knobs;
use stellar_bench::output;
use stellar_dataplane::filter::{Action, FilterRule, MatchSpec, PortMatch};
use stellar_dataplane::hardware::HardwareInfoBase;
use stellar_dataplane::port::MemberPort;
use stellar_dataplane::switch::{EdgeRouter, OfferedAggregate, PortId};
use stellar_net::addr::{IpAddress, Ipv4Address};
use stellar_net::flow::FlowKey;
use stellar_net::mac::MacAddr;
use stellar_net::proto::IpProtocol;
use stellar_sim::engine::run_ticks_timed;
use stellar_sim::fabric::{Fabric, PopId};
use stellar_stats::table::render_table;

/// Counts heap allocations (and growing reallocations) while armed —
/// the witness for "steady-state ticks allocate nothing".
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed; returns (result, allocs).
fn counting_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let r = f();
    ARMED.store(false, Ordering::Relaxed);
    (r, ALLOCS.load(Ordering::Relaxed))
}

const TICK_US: u64 = 1_000_000;
const WARMUP_TICKS: u64 = 3;

/// One grid cell. `ports` is the TOTAL port count across the fabric;
/// the first `rule_ports` ports carry `rules_per_rule_port` rules each.
#[derive(Debug, Clone, Copy)]
struct Config {
    pops: usize,
    ports: usize,
    rule_ports: usize,
    rules_per_rule_port: usize,
    offers_per_tick: usize,
}

impl Config {
    fn rules_total(&self) -> usize {
        self.rule_ports * self.rules_per_rule_port
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    SingleRouter,
    FabricSeq,
    FabricPar,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::SingleRouter => "single_router",
            Mode::FabricSeq => "fabric_seq",
            Mode::FabricPar => "fabric_par",
        }
    }
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

fn member_asn(port: usize) -> u32 {
    64500 + port as u32
}

/// The seeded rule set for port index `p` (empty past `rule_ports`):
/// the same drop / shape / forward mix keyed on UDP source ports the
/// pre-fabric sweep used. Rules go straight into the port policies —
/// the sweep measures the tick pipeline, not TCAM admission.
fn rules_for_port(cfg: Config, seed: u64, p: usize) -> Vec<FilterRule> {
    if p >= cfg.rule_ports {
        return Vec::new();
    }
    let mut s = seed ^ (p as u64).wrapping_mul(0x9e3779b97f4a7c15);
    (0..cfg.rules_per_rule_port)
        .map(|r| {
            let id = (p * cfg.rules_per_rule_port + r) as u64 + 1;
            let src_port = (lcg(&mut s) % 1024) as u16;
            let action = match r % 3 {
                0 => Action::Drop,
                1 => Action::Shape {
                    rate_bps: 50_000_000,
                },
                _ => Action::Forward,
            };
            FilterRule::new(
                id,
                MatchSpec {
                    protocol: Some(IpProtocol::UDP),
                    src_port: Some(PortMatch::Exact(src_port)),
                    ..Default::default()
                },
                action,
                (r % 16) as u16,
            )
        })
        .collect()
}

fn new_port(p: usize) -> MemberPort {
    let asn = member_asn(p);
    MemberPort::new(asn, MacAddr::for_member(asn, 1), 1_000_000_000)
}

fn build_single_router(cfg: Config, seed: u64) -> EdgeRouter {
    let mut er = EdgeRouter::new(HardwareInfoBase::production_er());
    for p in 0..cfg.ports {
        let pid = PortId(p as u32 + 1);
        er.add_port(pid, new_port(p));
        let port = er.port_mut(pid).expect("port just added");
        for rule in rules_for_port(cfg, seed, p) {
            port.policy.install(rule);
        }
    }
    er
}

fn build_fabric(cfg: Config, seed: u64) -> Fabric {
    let mut fabric = Fabric::new(HardwareInfoBase::production_er(), cfg.pops);
    for p in 0..cfg.ports {
        let pid = PortId(p as u32 + 1);
        fabric.add_port(PopId((p % cfg.pops) as u16), pid, new_port(p));
        let port = fabric.port_mut(pid).expect("port just added");
        for rule in rules_for_port(cfg, seed, p) {
            port.policy.install(rule);
        }
    }
    fabric
}

/// The per-tick offered traffic: `offers_per_tick` aggregates whose
/// destination ports are spread multiplicatively over the whole port
/// range (ruled and bare ports both), UDP-heavy with source ports
/// overlapping the rule space so all three actions fire.
fn build_offers(cfg: Config, seed: u64) -> Vec<OfferedAggregate> {
    let mut s = seed.wrapping_mul(0x2545f4914f6cdd1d) | 1;
    let mut offers = Vec::with_capacity(cfg.offers_per_tick);
    for i in 0..cfg.offers_per_tick {
        let p = ((i as u64).wrapping_mul(0x9e3779b1) % cfg.ports as u64) as usize;
        let asn = member_asn(p);
        let proto = if lcg(&mut s).is_multiple_of(4) {
            IpProtocol::TCP
        } else {
            IpProtocol::UDP
        };
        let src_port = (lcg(&mut s) % 2048) as u16;
        let bytes = 10_000 + lcg(&mut s) % 100_000;
        offers.push(OfferedAggregate {
            key: FlowKey {
                src_mac: MacAddr::for_member(65_600_000 + (lcg(&mut s) % 64) as u32, 1),
                dst_mac: MacAddr::for_member(asn, 1),
                src_ip: IpAddress::V4(Ipv4Address::new(
                    198,
                    51,
                    (lcg(&mut s) % 256) as u8,
                    (lcg(&mut s) % 256) as u8,
                )),
                dst_ip: IpAddress::V4(Ipv4Address::new(
                    100,
                    ((p / 65536) % 256) as u8,
                    ((p / 256) % 256) as u8,
                    (p % 256) as u8,
                )),
                protocol: proto,
                src_port,
                dst_port: if proto == IpProtocol::TCP { 443 } else { 40000 },
                ..FlowKey::default()
            },
            bytes,
            packets: bytes / 1200 + 1,
        });
    }
    offers
}

/// Cumulative per-port counters — the cross-mode equality witness.
/// Identical for the flat router and any PoP partition of the same
/// topology, because per-port verdicts depend only on the port's own
/// offers and rules.
fn fingerprint<'a>(ports: impl Iterator<Item = (PortId, &'a MemberPort)>) -> Vec<(u32, [u64; 6])> {
    ports
        .map(|(pid, port)| {
            let c = &port.counters;
            (
                pid.0,
                [
                    c.forwarded_bytes,
                    c.forwarded_packets,
                    c.dropped_bytes,
                    c.dropped_packets,
                    c.shaped_bytes,
                    c.shape_dropped_bytes,
                ],
            )
        })
        .collect()
}

/// FNV-1a over the serialized obs snapshot: modes are compared by
/// (hash, length) instead of holding three full strings alive at once.
/// The sparse per-port table rides in `to_content`, so the digest covers
/// every active port's counters.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn obs_digest_router(er: &EdgeRouter) -> (u64, usize) {
    let mut reg = stellar_obs::MetricsRegistry::default();
    er.observe(&mut reg);
    let s = serde_json::to_string(&reg.to_content()).expect("serialize registry");
    (fnv1a(s.as_bytes()), s.len())
}

fn obs_digest_fabric(fabric: &Fabric) -> (u64, usize) {
    let mut reg = stellar_obs::MetricsRegistry::default();
    fabric.observe(&mut reg);
    let s = serde_json::to_string(&reg.to_content()).expect("serialize registry");
    (fnv1a(s.as_bytes()), s.len())
}

/// What one (cell, mode) run produced.
struct ModeRun {
    wall: Duration,
    /// Heap allocations inside the measured window.
    allocs: u64,
    /// Whether the final tick fanned out: over the PoPs, or inside a
    /// PoP over its touched ports.
    effective_parallel: bool,
    fp: Vec<(u32, [u64; 6])>,
    obs: (u64, usize),
}

/// Runs one (config, mode) cell serially: build, warm up, measure, read
/// the witnesses, drop. Nothing from other modes is alive concurrently,
/// so the 10^6-port cells fit comfortably.
fn run_mode(cfg: Config, mode: Mode, ticks: u64, seed: u64, parallel_workers: usize) -> ModeRun {
    let offers = build_offers(cfg, seed);
    let window = |executed: u64, expected: u64| {
        assert_eq!(executed, expected, "tick driver fell short");
    };
    match mode {
        Mode::SingleRouter => {
            let mut er = build_single_router(cfg, seed);
            er.set_tick_workers(1);
            let step = |er: &mut EdgeRouter, _t0: u64, t1: u64| {
                er.process_tick_in_place(&offers, t1, TICK_US);
            };
            run_ticks_timed(&mut er, 0, WARMUP_TICKS * TICK_US, TICK_US, step);
            let ((executed, wall), allocs) = counting_allocs(|| {
                run_ticks_timed(
                    &mut er,
                    WARMUP_TICKS * TICK_US,
                    (WARMUP_TICKS + ticks) * TICK_US,
                    TICK_US,
                    step,
                )
            });
            window(executed, ticks);
            ModeRun {
                wall,
                allocs,
                effective_parallel: er.last_tick_parallel(),
                fp: fingerprint(er.ports().map(|(pid, port)| (*pid, port))),
                obs: obs_digest_router(&er),
            }
        }
        Mode::FabricSeq | Mode::FabricPar => {
            let mut fabric = build_fabric(cfg, seed);
            fabric.set_tick_workers(if mode == Mode::FabricPar {
                parallel_workers
            } else {
                1
            });
            let step = |fabric: &mut Fabric, _t0: u64, t1: u64| {
                fabric.process_tick_in_place(&offers, t1, TICK_US);
            };
            run_ticks_timed(&mut fabric, 0, WARMUP_TICKS * TICK_US, TICK_US, step);
            let ((executed, wall), allocs) = counting_allocs(|| {
                run_ticks_timed(
                    &mut fabric,
                    WARMUP_TICKS * TICK_US,
                    (WARMUP_TICKS + ticks) * TICK_US,
                    TICK_US,
                    step,
                )
            });
            window(executed, ticks);
            ModeRun {
                wall,
                allocs,
                effective_parallel: fabric.last_tick_parallel()
                    || fabric.routers().iter().any(EdgeRouter::last_tick_parallel),
                fp: fingerprint(fabric.ports()),
                obs: obs_digest_fabric(&fabric),
            }
        }
    }
}

fn main() {
    let knobs = Knobs::from_env();
    let smoke = knobs.sweep_smoke;
    let exp = output::start(
        "SCALE SWEEP",
        "Tick pipeline across the multi-PoP fabric: pops x ports x rules",
        output::RunOpts {
            seed: stellar_bench::SEED,
            ticks: if smoke { 6 } else { 40 },
        },
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel_workers = knobs.tick_workers.unwrap_or(cores.max(2));
    let configs: Vec<Config> = if smoke {
        vec![
            Config {
                pops: 1,
                ports: 4,
                rule_ports: 4,
                rules_per_rule_port: 16,
                offers_per_tick: 64,
            },
            Config {
                pops: 4,
                ports: 64,
                rule_ports: 64,
                rules_per_rule_port: 32,
                offers_per_tick: 2_048,
            },
            // The >= 10^5-total-ports smoke cell.
            Config {
                pops: 4,
                ports: 100_000,
                rule_ports: 2_500,
                rules_per_rule_port: 4,
                offers_per_tick: 10_000,
            },
        ]
    } else {
        vec![
            Config {
                pops: 1,
                ports: 4,
                rule_ports: 4,
                rules_per_rule_port: 16,
                offers_per_tick: 64,
            },
            Config {
                pops: 4,
                ports: 10_000,
                rule_ports: 10_000,
                rules_per_rule_port: 4,
                offers_per_tick: 20_000,
            },
            Config {
                pops: 16,
                ports: 100_000,
                rule_ports: 25_000,
                rules_per_rule_port: 4,
                offers_per_tick: 50_000,
            },
            // The headline cell: 10^6 total ports, 10^5 rules.
            Config {
                pops: 16,
                ports: 1_000_000,
                rule_ports: 25_000,
                rules_per_rule_port: 4,
                offers_per_tick: 50_000,
            },
        ]
    };
    println!(
        "host: {cores} core(s); parallel mode uses {parallel_workers} worker(s); \
         {} tick(s)/cell after {WARMUP_TICKS} warm-up\n",
        exp.ticks()
    );

    let mut rows = vec![vec![
        "pops".to_string(),
        "ports".to_string(),
        "rules".to_string(),
        "offers/tick".to_string(),
        "single ms".to_string(),
        "fab_seq ms".to_string(),
        "fab_par ms".to_string(),
        "par eff".to_string(),
        "seq allocs".to_string(),
    ]];
    let mut cells = Vec::new();
    let mut equality_pass = true;
    let mut zero_alloc_pass = true;
    for cfg in &configs {
        let modes = [Mode::SingleRouter, Mode::FabricSeq, Mode::FabricPar];
        let mut runs = Vec::with_capacity(modes.len());
        for mode in modes {
            runs.push(run_mode(
                *cfg,
                mode,
                exp.ticks(),
                exp.seed(),
                parallel_workers,
            ));
        }
        let [single, seq, par] = match runs.as_slice() {
            [a, b, c] => [a, b, c],
            _ => unreachable!("three modes ran"),
        };
        // Equality gates.
        assert_eq!(
            single.fp, seq.fp,
            "fabric(seq) counters diverged from the single-router baseline"
        );
        assert_eq!(
            seq.fp, par.fp,
            "fabric(par) counters diverged from fabric(seq)"
        );
        assert_eq!(
            seq.obs, par.obs,
            "fabric(par) obs snapshot diverged from fabric(seq)"
        );
        if cfg.pops == 1 {
            assert_eq!(
                single.obs, seq.obs,
                "1-PoP fabric obs snapshot diverged from the bare router"
            );
        }
        // Zero-allocation gate on the sequential measure windows. The
        // parallel window's count is reported, not gated: the fan-out
        // allocates its chunks and spawns its threads by design.
        let seq_allocs = single.allocs + seq.allocs;
        if seq_allocs != 0 {
            zero_alloc_pass = false;
        }
        equality_pass = equality_pass && single.fp == seq.fp && seq.fp == par.fp;
        rows.push(vec![
            cfg.pops.to_string(),
            cfg.ports.to_string(),
            cfg.rules_total().to_string(),
            cfg.offers_per_tick.to_string(),
            format!("{:9.3}", single.wall.as_secs_f64() * 1e3),
            format!("{:9.3}", seq.wall.as_secs_f64() * 1e3),
            format!("{:9.3}", par.wall.as_secs_f64() * 1e3),
            if par.effective_parallel { "par" } else { "seq" }.to_string(),
            seq_allocs.to_string(),
        ]);
        cells.push(serde_json::json!({
            "pops": cfg.pops,
            "ports": cfg.ports,
            "rules_total": cfg.rules_total(),
            "offers_per_tick": cfg.offers_per_tick,
            "modes": [single, seq, par].iter().zip(modes).map(|(r, m)| {
                serde_json::json!({
                    "mode": m.name(),
                    "wall_ms": r.wall.as_secs_f64() * 1e3,
                    "allocs_in_window": r.allocs,
                    "effective_parallel": r.effective_parallel,
                })
            }).collect::<Vec<_>>(),
            "counters_identical": true,
            "snapshots_identical": true,
            "obs_snapshot_bytes": seq.obs.1,
            "seq_window_allocs": seq_allocs,
        }));
    }
    println!("{}", render_table(&rows));
    println!("cross-mode counter + snapshot equality: OK (all cells, all three modes)");
    println!(
        "sequential measure windows allocation-free: {}",
        if zero_alloc_pass { "OK" } else { "FAIL" }
    );
    if cores < 2 {
        println!(
            "single-core host: fabric_par wall times are correctness runs, not speedups; \
             no parallel threshold is applied"
        );
    }

    let summary = serde_json::json!({
        "host": serde_json::json!({
            "cores": cores,
            "parallel_workers": parallel_workers,
            // The `STELLAR_TICK_WORKERS` pin (null when derived): with
            // `cores`, makes the "no speedup threshold on a 1-core host"
            // caveat machine-readable.
            "tick_workers_env": knobs.tick_workers,
            "parallel_evaluable_on_this_host": cores >= 2,
            "smoke": smoke,
        }),
        "cells": cells,
        "criteria": serde_json::json!({
            "equality_pass": equality_pass,
            "zero_alloc_pass": zero_alloc_pass,
            // Wall times are data, not gates: see the module docs.
            "parallel_speedup_threshold": "none",
            "pass": equality_pass && zero_alloc_pass,
        }),
    });
    exp.write("bench_pipeline", &summary);
    output::write_json_root("BENCH_pipeline.json", &summary);
    assert!(
        equality_pass && zero_alloc_pass,
        "scale sweep gate failed: equality={equality_pass} zero_alloc={zero_alloc_pass}"
    );
}
