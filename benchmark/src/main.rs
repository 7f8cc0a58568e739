//! `stellar-benchmark`: four pinned workloads over the whole Stellar
//! system, timed from outside through its public functions.
//!
//! ```text
//! stellar-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! stellar-benchmark --repeat N [--workload <name>] [--seed N] [--seconds S]
//! ```
//!
//! One invocation runs one workload in one process (so `VmHWM` is that
//! workload's), prints every metric by name and unit, checks the outputs
//! and ends with one JSON line. `--trace 1` swaps in the staged driver and
//! reports the per-layer metrics instead. See `README.md`.

mod alloc;
mod check;
mod driver;
mod gen;
mod json;
mod layers;
mod repeat;
mod rng;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Config, Pass, Round};
use std::process::ExitCode;
use workload::{Workload, ROUNDS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `(name, unit)` of the ten end-to-end metrics, the same on every
/// workload. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("export_p50_ms", "ms"),
    ("quiet_pass_p50_ms", "ms"),
    ("snapshot_kib", "KiB"),
    ("peak_rss_mib", "MiB"),
    ("allocs_per_op", "count"),
    ("alloc_bytes_per_op", "B"),
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: {v:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    let known: Vec<_> = workload::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => args.trace = number(value()?)? != 0,
            "--repeat" => args.repeat = Some(number(value()?)?.max(2) as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Elementwise minimum over the rounds of one per-op series: every round
/// replays the same ops from the same state, so entry `j` of each round is
/// the same op, and its fastest replay is what the code does when the host
/// leaves it alone (see `run.rs`).
fn fastest_replay(rounds: &[Round], series: impl Fn(&Round) -> &[u64]) -> Vec<f64> {
    let mut best = series(&rounds[0]).to_vec();
    for r in &rounds[1..] {
        for (b, ns) in best.iter_mut().zip(series(r)) {
            *b = (*b).min(*ns);
        }
    }
    best.into_iter().map(|ns| ns as f64).collect()
}

/// Ops per second of measured time — ops, in-loop upkeep and exports —
/// with every op at its fastest replay.
pub fn ops_per_s(rounds: &[Round]) -> f64 {
    let cycles = fastest_replay(rounds, |r| &r.cycle_ns);
    cycles.len() as f64 / (cycles.iter().sum::<f64>() / 1e9)
}

/// The median of every group of quiet watchdog passes, all rounds.
fn quiet_medians(pass: &Pass) -> Vec<f64> {
    pass.rounds
        .iter()
        .flat_map(|r| r.quiet_ms.iter().map(|g| stats::median(g)))
        .collect()
}

fn end_to_end(pass: &Pass) -> Vec<f64> {
    let rounds = &pass.rounds;
    let ops = pass.window_ops() as f64;
    let allocs: (u64, u64) = rounds.iter().fold((0, 0), |acc, r| {
        (
            acc.0 + r.op_allocs.0 + r.export_allocs.0,
            acc.1 + r.op_allocs.1 + r.export_allocs.1,
        )
    });
    let mut latency = fastest_replay(rounds, |r| &r.latency_ns);
    stats::sort(&mut latency);
    let exports = fastest_replay(rounds, |r| &r.export_ns);
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    // A neighbour can only slow a group of quiet passes down: the best
    // group's median is the steadiest.
    let quiet = quiet_medians(pass)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    vec![
        stats::median(&setups),
        ops_per_s(rounds),
        stats::quantile_sorted(&latency, 0.50) / 1e3,
        stats::quantile_sorted(&latency, 0.95) / 1e3,
        stats::median(&exports) / 1e6,
        quiet,
        pass.snapshot_bytes as f64 / 1024.0,
        pass.peak_rss_kib as f64 / 1024.0,
        allocs.0 as f64 / ops,
        allocs.1 as f64 / ops,
    ]
}

/// Prints the metrics by name and unit, then the one-line JSON result.
fn report(names: &[(&str, &str)], values: &[f64], attempted: u64, failed: u64, correct: bool) {
    for ((name, unit), v) in names.iter().zip(values) {
        println!("{name:<44} {v:>18.6} {unit}");
    }
    println!("{:<44} {attempted:>18}", "ops_attempted");
    println!("{:<44} {failed:>18}", "ops_failed");
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn print_failures(pass: &Pass) {
    for f in &pass.failures.first {
        eprintln!("FAILED: {f}");
    }
}

fn run_untraced(cfg: &Config) {
    let pass = run::run_pass(cfg, false, ROUNDS);
    print_failures(&pass);
    // Per round, so that an operator can see how noisy the host was.
    for (i, r) in pass.rounds.iter().enumerate() {
        eprintln!(
            "round {i}: setup_s {:.3} ops_per_s {:.2} quiet_pass_ms {:.3?}",
            r.setup_s,
            ops_per_s(std::slice::from_ref(r)),
            r.quiet_ms
                .iter()
                .map(|g| stats::median(g))
                .collect::<Vec<_>>(),
        );
    }
    let values = end_to_end(&pass);
    let failed = pass.failures.count;
    let correct = failed == 0 && values.iter().all(|v| v.is_finite());
    report(&END_TO_END, &values, pass.attempted, failed, correct);
}

fn run_traced(cfg: &Config) {
    // The untraced pass of the same seed gives the tracing overhead and
    // the end state the staged driver must reproduce.
    let direct = run::run_pass(cfg, false, 1);
    print_failures(&direct);
    let (direct_rate, direct_digest) = (ops_per_s(&direct.rounds), direct.digest);
    let (mut attempted, mut failed) = (direct.attempted, direct.failures.count);
    drop(direct);

    let mut staged = run::run_pass(cfg, true, 1);
    print_failures(&staged);
    attempted += staged.attempted;
    failed += staged.failures.count;
    if staged.digest != direct_digest {
        failed += 1;
        eprintln!(
            "FAILED: staged driver drifted from core::system's composition: end state {:#x}, \
             direct run of the same seed {direct_digest:#x}",
            staged.digest
        );
    }
    let by_name = layers::per_layer(direct_rate, &mut staged);
    let values: Vec<f64> = layers::PER_LAYER.iter().map(|(n, _)| by_name[n]).collect();

    let path =
        std::path::Path::new("benchmark/out").join(format!("trace_{}.json", cfg.workload.name));
    let tracer = staged
        .driver
        .tracer
        .as_ref()
        .expect("the staged pass carries a tracer");
    // Where the window's time went, for the operator and for `--repeat`.
    for (layer, share) in tracer.window_shares().iter().take(4) {
        println!("window_share {layer} {share:.3}");
    }
    let mut correct = failed == 0 && values.iter().all(|v| v.is_finite());
    match tracer.write(&path, cfg.workload.name, cfg.seed) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => {
            eprintln!("FAILED: could not write {}: {e}", path.display());
            correct = false;
        }
    }
    report(&layers::PER_LAYER, &values, attempted, failed, correct);
}

fn main() -> ExitCode {
    // Defaults are what is measured: no knob of the code under test may
    // leak in from the caller's environment. Nothing else is running yet,
    // so mutating the environment is safe.
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("STELLAR_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    // glibc raises its mmap and trim thresholds to the size of the first
    // large block freed, and a process runs 10-20 % slower until then.
    // Freeing one 16 MiB block up front (never touched, so not resident)
    // puts every round of the run under the same allocator regime.
    drop(std::hint::black_box(vec![0u8; 16 << 20]));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stellar-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat::run(n, args.workload, args.seed, args.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("stellar-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("stellar-benchmark: --workload is required (or --repeat N)");
        return ExitCode::from(2);
    };
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
    };
    println!(
        "workload {} seed {} seconds {} trace {} — closed loop, one client, one tick worker, {} core(s)",
        workload.name,
        cfg.seed,
        cfg.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    // A run with failed ops or a broken invariant still ends with its
    // result line: `"correct": false` and the counts are the verdict.
    if args.trace {
        run_traced(&cfg);
    } else {
        run_untraced(&cfg);
    }
    ExitCode::SUCCESS
}
