//! `--repeat N`: the benchmark's self-check. Runs two interleaved sets of
//! N runs per workload (seeds `seed..seed+N`, every run its own process)
//! and judges them the way the driver will: per end-to-end metric, the
//! spread of each set (interquartile range over median) against the
//! metric's bound, and the second set's median against the first's. It
//! also checks that the three count metrics repeat exactly within a seed,
//! and that traced runs of two seeds are clean and agree on the dominant
//! layer (each run's leading layer must hold at least 80 % of the leading
//! share in the other, so a near-tie between two layers is not a
//! disagreement).

use crate::json::{self, Value};
use crate::stats;
use crate::workload::{Workload, ALL};
use std::collections::BTreeMap;
use std::process::Command;

/// Metrics that must repeat between two runs of one seed: they are counts,
/// not times. The tolerance is one part in ten thousand, not zero, because
/// one source of variation is outside the benchmark: `std`'s hash maps are
/// seeded per process, and whether a map that churns (rule id → port, TCAM
/// handles) cleans its tombstones in place or reallocates depends on where
/// the hashes fall — about one allocation per thousand ops on
/// `flowspec_victims`.
const COUNTS: [&str; 3] = ["allocs_per_op", "alloc_bytes_per_op", "snapshot_kib"];
const COUNT_TOLERANCE: f64 = 1e-4;

struct Bound {
    lower_is_better: bool,
    bound: f64,
}

struct RunResult {
    metrics: BTreeMap<String, f64>,
    failed: u64,
    correct: bool,
    /// Traced runs: the leading layers of the window, largest share first.
    window_shares: Vec<(String, f64)>,
}

/// The end-to-end metrics' bounds, in `BENCHMARK.json` order.
fn bounds() -> Result<Vec<(String, Bound)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let mut out = Vec::new();
    for m in doc.get("end_to_end").and_then(Value::as_arr).unwrap_or(&[]) {
        let field = |k: &str| {
            m.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        out.push((
            field("name"),
            Bound {
                lower_is_better: field("better") == "lower",
                bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
            },
        ));
    }
    Ok(out)
}

fn run_once(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{} seed {seed}: no result line ({e}); stderr: {}",
            w.name,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let mut metrics = BTreeMap::new();
    if let Some(Value::Obj(entries)) = doc.get("metrics") {
        for (name, m) in entries {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
    }
    Ok(RunResult {
        metrics,
        failed: doc
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN) as u64,
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        window_shares: stdout
            .lines()
            .filter_map(|l| l.strip_prefix("window_share "))
            .filter_map(|l| {
                let (name, share) = l.split_once(' ')?;
                Some((name.to_string(), share.trim().parse().ok()?))
            })
            .collect(),
    })
}

/// Runs the self-check; `Ok(true)` when every judgement passed.
pub fn run(n: usize, only: Option<Workload>, seed: u64, seconds: u64) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut all_ok = true;
    for w in ALL.iter().filter(|w| only.is_none_or(|o| o.name == w.name)) {
        println!(
            "== {} — two interleaved sets of {n} runs, seeds {seed}..{}",
            w.name,
            seed + n as u64 - 1
        );
        let (mut a, mut b) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for i in 0..n as u64 {
            a.push(run_once(w, seed + i, seconds, false)?);
            b.push(run_once(w, seed + i, seconds, false)?);
        }
        for r in a.iter().chain(&b) {
            if !r.correct || r.failed != 0 {
                println!(
                    "FAIL  a run reported correct={} failed={}",
                    r.correct, r.failed
                );
                all_ok = false;
            }
        }
        println!(
            "{:<20} {:>13} {:>13} {:>8} {:>8} {:>8} {:>7}  verdict",
            "metric", "median A", "median B", "iqr A", "iqr B", "B vs A", "bound"
        );
        for (name, bound) in &bounds {
            let column = |set: &[RunResult]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (va, vb) = (column(&a), column(&b));
            if va.len() != n || vb.len() != n {
                println!("{name:<20} missing from a result line");
                all_ok = false;
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let spread = |v: &[f64], m: f64| {
                let q = stats::quartiles(v);
                (q[2] - q[0]) / m
            };
            let (sa, sb) = (spread(&va, ma), spread(&vb, mb));
            // Positive = the second set is worse.
            let worse = if bound.lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            // The driver does not judge the spread of `setup_s`.
            let spread_ok = name == "setup_s" || (sa <= bound.bound && sb <= bound.bound);
            let ok = spread_ok && worse <= bound.bound;
            all_ok &= ok;
            println!(
                "{name:<20} {ma:>13.4} {mb:>13.4} {:>7.2}% {:>7.2}% {:>+7.2}% {:>6.1}%  {}",
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                bound.bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
        for name in COUNTS {
            let apart =
                |x: &RunResult, y: &RunResult| match (x.metrics.get(name), y.metrics.get(name)) {
                    (Some(x), Some(y)) => ((x - y) / x).abs(),
                    _ => f64::INFINITY,
                };
            let worst = a
                .iter()
                .zip(&b)
                .map(|(x, y)| apart(x, y))
                .fold(0.0, f64::max);
            let exact = a.iter().zip(&b).filter(|(x, y)| apart(x, y) == 0.0).count();
            let ok = worst <= COUNT_TOLERANCE;
            all_ok &= ok;
            println!(
                "{name:<20} identical in {exact} of {n} seeds, furthest apart {:.1e} — {}",
                worst,
                if ok { "repeats" } else { "DIFFERS" }
            );
        }
        let (t1, t2) = (
            run_once(w, seed, seconds, true)?,
            run_once(w, seed + 1, seconds, true)?,
        );
        let clean = t1.correct && t2.correct && t1.failed == 0 && t2.failed == 0;
        // `x`'s leading layer is (nearly) leading in `y` too.
        let leads_in =
            |x: &RunResult, y: &RunResult| match (x.window_shares.first(), y.window_shares.first())
            {
                (Some((layer, _)), Some((_, top))) => y
                    .window_shares
                    .iter()
                    .any(|(name, share)| name == layer && *share >= 0.8 * top),
                _ => false,
            };
        let same = leads_in(&t1, &t2) && leads_in(&t2, &t1);
        all_ok &= clean && same;
        let leader = |r: &RunResult| {
            r.window_shares
                .first()
                .map_or("?".to_string(), |(n, s)| format!("{n} {s:.2}"))
        };
        println!(
            "traced seeds {seed} and {}: {}, dominant layer {} / {} — {}",
            seed + 1,
            if clean { "clean" } else { "FAILED OPS" },
            leader(&t1),
            leader(&t2),
            if same { "agree" } else { "DISAGREE" }
        );
    }
    println!(
        "{}",
        if all_ok {
            "self-check: PASS"
        } else {
            "self-check: FAIL"
        }
    );
    Ok(all_ok)
}
