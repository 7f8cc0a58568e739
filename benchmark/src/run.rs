//! One pass over one workload: a few rounds, each a complete small run on
//! a freshly built system — set-up, warm-up, the measured window with a
//! group of quiet-state watchdog passes after each of its segments, and the
//! end-of-round checks.
//!
//! Every round replays the same generated ops from the same standing state,
//! so op `j` of one round is a repetition of op `j` of every other, taken
//! several seconds later. On a shared host a neighbour can only ever slow
//! an op down, and does so in bursts of milliseconds and in slow periods of
//! seconds; the fastest of an op's replays is the steadiest estimate of
//! what the code does when left alone, and whatever the program itself does
//! at op `j` — a watchdog pass, a table rebuild — it does in every replay,
//! so it stays in.
//!
//! Closed loop, one client, one driver thread: the next op is issued only
//! after the previous one — announcement, pump, withdrawal, pump and the
//! oracle's comparison — has completed.

use crate::alloc;
use crate::check::{self, TickCheck};
use crate::driver::{build_system, Admit, Driver, TICK_US};
use crate::gen::{self, ControlOp, Expect, Plan};
use crate::trace::{Stage, Tracer};
use crate::workload::Workload;
use std::time::Instant;
use stellar_dataplane::switch::OfferedAggregate;

/// Sim-clock advance per control op: ten ops per 250 ms watchdog
/// interval, so exactly one op in ten carries a watchdog pass inside
/// `pump`, and forty per reconcile interval.
const STEP_US: u64 = 25_000;

/// Back-to-back quiet-state watchdog passes timed at the end of a round.
const QUIET_PASSES: usize = 15;

/// The tick whose verdicts are recomputed by linear scan, every this many.
const TICK_CHECK_EVERY: usize = 100;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
}

/// What one round measured. Times cover the timed regions only — the
/// oracle's checks and the benchmark's own bookkeeping run between them.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    /// Per measured op: the op plus whatever the loop ran before it could
    /// issue the next one — in-loop upkeep (`reconcile`) and an export.
    pub cycle_ns: Vec<u64>,
    /// Per-op latencies; on `flowspec_victims`, accepted announcements
    /// only.
    pub latency_ns: Vec<u64>,
    pub export_ns: Vec<u64>,
    /// The quiet watchdog passes, one group per segment.
    pub quiet_ms: Vec<Vec<f64>>,
    /// Allocations and bytes of the ops (with upkeep) and of the exports.
    pub op_allocs: (u64, u64),
    pub export_allocs: (u64, u64),
}

/// Ops whose outcome differed from what the generator recorded, and
/// broken end-of-run invariants.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    /// The first few, for the operator.
    pub first: Vec<String>,
}

impl Failures {
    fn record(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what);
        }
    }
}

pub struct Pass {
    /// The last round's system, in its end state.
    pub driver: Driver,
    /// The offered traffic of a tick workload, for the side calls.
    pub offers: Vec<Vec<OfferedAggregate>>,
    pub rounds: Vec<Round>,
    pub snapshot_bytes: usize,
    /// Series in the last exported snapshot.
    pub series: usize,
    /// Ops issued in every round: set-up, warm-up and window.
    pub attempted: u64,
    pub failures: Failures,
    pub peak_rss_kib: u64,
    /// [`Driver::state_digest`] of the end state.
    pub digest: u64,
    /// Ops issued by one set-up (per-op divisor for set-up spans).
    pub setup_ops: usize,
    /// The last round's sim clock at its end.
    pub now: u64,
}

impl Pass {
    /// Measured ops, all rounds together.
    pub fn window_ops(&self) -> usize {
        self.rounds.iter().map(|r| r.cycle_ns.len()).sum()
    }
}

struct OpResult {
    /// The announcement was one the system had to accept.
    accepted: bool,
    /// Every observable step matched the generator's expectation.
    ok: bool,
}

/// Issues one control op — announce, pump, and in steady state withdraw
/// the announcement it replaces, pump — and compares every observable
/// step with what the generator said must happen.
fn control_op(d: &mut Driver, op: ControlOp, now: u64) -> OpResult {
    let expect = op.expect();
    let rules_before = d.sys.active_rules();
    let failures_before = d.apply_failures;
    let (admit, applied, rules_mid, backlog_mid, retired);
    match op {
        ControlOp::Signal {
            member,
            victim,
            signals,
            retire,
        } => {
            admit = d.signal(member, victim, &signals, now);
            applied = d.pump(now);
            (rules_mid, backlog_mid) = (d.sys.active_rules(), d.sys.queue.backlog());
            retired = retire.map(|old| (d.withdraw(member, old, now), d.pump(now), 1));
        }
        ControlOp::Flowspec {
            member,
            wire,
            actions,
            retire,
            ..
        } => {
            admit = d.flowspec_wire(member, &wire, &actions, now);
            applied = d.pump(now);
            (rules_mid, backlog_mid) = (d.sys.active_rules(), d.sys.queue.backlog());
            retired = retire
                .map(|(old, rules)| (d.flowspec_withdraw(member, old, now), d.pump(now), rules));
        }
    }
    let announced = match expect {
        Expect::Install(k) => {
            admit
                == Admit {
                    queued: k,
                    refused: 0,
                }
                && applied == k
                && rules_mid == rules_before + k
        }
        Expect::Refuse => {
            admit.queued == 0 && admit.refused >= 1 && applied == 0 && rules_mid == rules_before
        }
    };
    let withdrawn = retired.is_none_or(|(a, removed, k)| {
        a == Admit {
            queued: k,
            refused: 0,
        } && removed == k
            && d.sys.active_rules() + k == rules_mid
    });
    OpResult {
        accepted: matches!(expect, Expect::Install(_)),
        ok: announced
            && withdrawn
            && backlog_mid == 0
            && d.sys.queue.backlog() == 0
            && d.apply_failures == failures_before,
    }
}

/// Builds the system and replays the standing state through the real
/// signalling path. Returns the driver, the sim clock and the ops that
/// did not do what they had to.
fn set_up(
    w: &Workload,
    plan: &Plan,
    preload: Vec<ControlOp>,
    tracer: Option<Tracer>,
) -> (Driver, u64, usize) {
    let mut d = Driver::new(build_system(&plan.specs, w.pops), tracer);
    let (mut now, mut bad) = (0, 0);
    for op in preload {
        now += STEP_US;
        if !d.in_op(|d| control_op(d, op, now)).ok {
            bad += 1;
        }
    }
    (d, now, bad)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64, (u64, u64)) {
    let a0 = alloc::counts();
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    let a1 = alloc::counts();
    (out, ns, (a1.0 - a0.0, a1.1 - a0.1))
}

fn add(into: &mut (u64, u64), delta: (u64, u64)) {
    into.0 += delta.0;
    into.1 += delta.1;
}

/// `VmHWM` of this process in KiB: the peak resident set of the one
/// workload this process ran.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The op counts of one round, fixed by the workload and `--seconds`.
struct Sizes {
    /// Unmeasured ops first: 10 % of the measured count, rounded to whole
    /// blocks of 20 so that every segment of `flowspec_victims` holds the
    /// same number of hostile ops.
    warm_ops: usize,
    seg_ops: usize,
}

/// One round: builds the system, replays the standing state, then warms up
/// and measures. Returns the measurements with the system in its end
/// state, the sim clock and the last exported snapshot.
fn run_round(
    w: &Workload,
    plan: &Plan,
    sizes: &Sizes,
    tracer: Option<Tracer>,
    failures: &mut Failures,
) -> (Round, Driver, u64, String) {
    let preload = plan.preload.clone();
    let started = Instant::now();
    let (mut driver, mut now, setup_bad) = set_up(w, plan, preload, tracer);
    let mut round = Round {
        setup_s: started.elapsed().as_secs_f64(),
        ..Default::default()
    };
    if setup_bad > 0 {
        failures.count += setup_bad as u64;
        failures.first.push(format!(
            "{setup_bad} set-up announcement(s) did not install as generated"
        ));
    }

    let reconcile_every = driver.sys.reconcile_interval_us;
    let quiet_after = driver.sys.watchdog.config().convergence_grace_us + TICK_US;
    let mut last_reconcile = now;
    let mut control_ops = plan.ops.iter().cloned();
    let mut snapshot = String::new();
    let mut tick_index = 0usize;
    for segment in 0..=w.segments_per_round {
        // Segment 0 is the warm-up.
        let (n, stage) = if segment == 0 {
            (sizes.warm_ops, Stage::Warmup)
        } else {
            (sizes.seg_ops, Stage::Window)
        };
        if let Some(tr) = driver.tracer.as_mut() {
            tr.stage = stage;
        }
        for i in 0..n {
            let (mut cycle_ns, mut cycle_allocs, accepted);
            if w.is_tick() {
                now += TICK_US;
                let offers = &plan.offers[tick_index % plan.offers.len()];
                let verdicts = tick_index
                    .is_multiple_of(TICK_CHECK_EVERY)
                    .then(|| TickCheck::before(&driver.sys.ixp.fabric, offers));
                tick_index += 1;
                let ((), ns, allocs) = timed(|| driver.in_op(|d| d.tick(offers, now)));
                (cycle_ns, cycle_allocs, accepted) = (ns, allocs, true);
                let wrong = verdicts.map_or(0, |v| v.after(&driver.sys.ixp.fabric));
                if wrong > 0 {
                    failures.record(format!(
                        "tick {tick_index}: {wrong} port(s) disagree with the linear first-match scan"
                    ));
                }
            } else {
                now += STEP_US;
                let op = control_ops.next().expect("the plan holds a round's ops");
                let (r, ns, allocs) = timed(|| driver.in_op(|d| control_op(d, op, now)));
                (cycle_ns, cycle_allocs, accepted) = (ns, allocs, r.accepted);
                if !r.ok {
                    failures.record(format!(
                        "op at sim time {now} us did not do what the generator expected"
                    ));
                }
            }
            let op_ns = cycle_ns;
            if !w.is_tick() && now - last_reconcile >= reconcile_every {
                last_reconcile = now;
                let (clean, ns, allocs) = timed(|| driver.reconcile(now));
                cycle_ns += ns;
                add(&mut cycle_allocs, allocs);
                if !clean {
                    failures.record(format!("reconcile at {now} us found repairs to queue"));
                }
            }
            if segment == 0 {
                continue;
            }
            // Exports are spread evenly over each measured segment.
            let exports_due = |ops_done: usize| ops_done * w.exports_per_segment / n;
            if exports_due(i + 1) > exports_due(i) {
                drop(std::mem::take(&mut snapshot));
                let (out, ns, allocs) = timed(|| driver.export(now));
                snapshot = out;
                cycle_ns += ns;
                round.export_ns.push(ns);
                add(&mut round.export_allocs, allocs);
            }
            round.cycle_ns.push(cycle_ns);
            add(&mut round.op_allocs, cycle_allocs);
            if accepted {
                round.latency_ns.push(op_ns);
            }
        }
        if segment == 0 {
            continue;
        }
        // The quiet, converged state: past the watchdog's grace bound, every
        // pass runs the full catalogue including the placement proof.
        now += quiet_after;
        if let Some(tr) = driver.tracer.as_mut() {
            tr.stage = Stage::Quiet;
        }
        let mut group = Vec::with_capacity(QUIET_PASSES);
        for _ in 0..QUIET_PASSES {
            let (violations, ns, _) = timed(|| driver.quiet_pass(now));
            group.push(ns as f64 / 1e6);
            if violations > 0 {
                failures.record(format!(
                    "quiet watchdog pass found {violations} violation(s)"
                ));
            }
        }
        round.quiet_ms.push(group);
    }
    for b in check::invariants(&driver.sys, plan.standing_rules) {
        failures.record(b);
    }
    (round, driver, now, snapshot)
}

/// Runs one pass of `rounds` rounds. `staged` selects the traced driver.
pub fn run_pass(cfg: &Config, staged: bool, rounds: usize) -> Pass {
    let w = &cfg.workload;
    let seg_ops = w.segment_ops(cfg.seconds);
    let sizes = Sizes {
        warm_ops: (seg_ops * w.segments_per_round / 10).next_multiple_of(20),
        seg_ops,
    };
    let round_ops = sizes.warm_ops + seg_ops * w.segments_per_round;
    let plan = gen::plan(w, cfg.seed, if w.is_tick() { 0 } else { round_ops });
    let expected_spans = (plan.preload.len() + round_ops) * 24 + 4096;

    let mut measured = Vec::with_capacity(rounds);
    let mut failures = Failures::default();
    let mut last = None;
    for _ in 0..rounds {
        // Never two systems resident: peak RSS is one system's.
        drop(last.take());
        let tracer = staged.then(|| Tracer::new(expected_spans));
        let (round, driver, now, snapshot) = run_round(w, &plan, &sizes, tracer, &mut failures);
        measured.push(round);
        last = Some((driver, now, snapshot));
    }
    let (driver, now, snapshot) = last.expect("at least one round");
    // Read before the benchmark's own parse of the snapshot inflates it.
    let peak_rss_kib = peak_rss_kib();
    let (broken, series) = check::snapshot(&snapshot, plan.standing_rules);
    for b in broken {
        failures.record(b);
    }
    Pass {
        digest: driver.state_digest(),
        driver,
        offers: plan.offers,
        rounds: measured,
        snapshot_bytes: snapshot.len(),
        series,
        attempted: (rounds * (plan.preload.len() + round_ops)) as u64,
        failures,
        peak_rss_kib,
        setup_ops: plan.preload.len(),
        now,
    }
}
