//! Figures 10(a) and 10(b): control-plane scalability.
//!
//! 10(a) sweeps the rule-update rate, samples control-plane CPU usage per
//! five-second interval, and fits a linear regression with a 95 %
//! confidence band. The calibrated model puts the 15 % CPU cap at a
//! median of ≈4.33 updates/s.
//!
//! 10(b) replays an RTBH-service-like configuration-change trace through
//! the blackholing manager's token-bucket queue at dequeue rates of 4/s
//! and 5/s and reports the waiting-time CDF.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stellar_bgp::types::Asn;
use stellar_core::config_queue::ConfigChangeQueue;
use stellar_core::controller::AbstractChange;
use stellar_dataplane::cpu::{measurement_jitter, ControlPlaneCpu};
use stellar_stats::cdf::Ecdf;
use stellar_stats::regression::{ols, OlsFit};

/// One Fig. 10(a) sample: (updates per second, CPU fraction).
pub type CpuSample = (f64, f64);

/// Runs the update-rate sweep: for each target rate, `reps` five-second
/// measurement windows of the ER's control plane.
pub fn run_cpu_sweep(reps: usize) -> Vec<CpuSample> {
    let mut samples = Vec::new();
    let mut key = 0u64;
    for rate_x4 in 2..=20u64 {
        // 0.5 .. 5.0 updates/s in 0.25 steps
        let rate = rate_x4 as f64 / 4.0;
        for _ in 0..reps {
            let mut cpu = ControlPlaneCpu::production();
            // Drive a 5-second window at this rate.
            let n_updates = (rate * 5.0).round() as u64;
            for i in 0..n_updates {
                cpu.record_update(i * 5_000_000 / n_updates.max(1));
            }
            let (measured_rate, frac) = cpu.sample_window(5_000_000);
            key += 1;
            // Deterministic measurement noise (±1 % CPU).
            let noisy = (frac + measurement_jitter(key, 0.01)).max(0.0);
            samples.push((measured_rate, noisy));
        }
    }
    samples
}

/// Fits the regression of Fig. 10(a).
pub fn fit(samples: &[CpuSample]) -> OlsFit {
    let x: Vec<f64> = samples.iter().map(|(r, _)| *r).collect();
    let y: Vec<f64> = samples.iter().map(|(_, f)| *f).collect();
    ols(&x, &y)
}

/// An arrival trace of configuration changes: mostly lone signals (a
/// member reacting to one attack), with occasional bursts (automation
/// reacting to carpet attacks / flapping), which is what produces the
/// heavy waiting-time tail of Fig. 10(b).
pub fn rtbh_trace(seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut arrivals = Vec::new();
    let mut t = 0u64;
    // ~3500 lone arrivals over ~10 hours.
    for _ in 0..3500 {
        t += rng.random_range(4_000_000..20_000_000); // 4-20 s apart
        arrivals.push(t);
    }
    // 12 bursts at random positions.
    let horizon = t;
    for i in 0..12 {
        let burst_at = rng.random_range(0..horizon);
        let size = [20, 30, 40, 60, 80, 100, 120, 150, 200, 250, 300, 380][i];
        for _ in 0..size {
            arrivals.push(burst_at);
        }
    }
    arrivals.sort_unstable();
    arrivals
}

/// Replays a trace through the queue at `rate_per_s`, returning the ECDF
/// of waiting times in seconds.
pub fn replay(arrivals: &[u64], rate_per_s: f64) -> Ecdf {
    let mut queue = ConfigChangeQueue::production(rate_per_s);
    let mut i = 0usize;
    let end = arrivals.last().copied().unwrap_or(0) + 600_000_000;
    let mut now = 0u64;
    let mut rule_id = 0u64;
    while now <= end {
        while i < arrivals.len() && arrivals[i] <= now {
            rule_id += 1;
            queue.enqueue(
                AbstractChange::RemoveRule {
                    rule_id,
                    owner: Asn(64500),
                },
                arrivals[i],
            );
            i += 1;
        }
        queue.dequeue_ready_queued(now);
        now += 100_000; // poll every 100 ms
    }
    let waits_s: Vec<f64> = queue
        .wait_log_us()
        .iter()
        .map(|w| *w as f64 / 1e6)
        .collect();
    Ecdf::new(waits_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fit_matches_paper_calibration() {
        let samples = run_cpu_sweep(4);
        let fit = fit(&samples);
        // Slope ~3 % per update/s, intercept ~2 %.
        assert!((fit.slope - 0.03).abs() < 0.005, "slope {}", fit.slope);
        assert!(
            (fit.intercept - 0.02).abs() < 0.01,
            "intercept {}",
            fit.intercept
        );
        assert!(fit.r2 > 0.9, "r2 {}", fit.r2);
        // The 15 % cap solves to ~4.33 updates/s.
        let max_rate = fit.solve_for_x(0.15);
        assert!((max_rate - 4.33).abs() < 0.35, "max rate {max_rate}");
    }

    #[test]
    fn queue_cdf_matches_fig10b_shape() {
        let trace = rtbh_trace(17);
        let at4 = replay(&trace, 4.0);
        let at5 = replay(&trace, 5.0);
        // 70 % of changes wait well below one second.
        assert!(at4.at(1.0) >= 0.70, "P(<=1s)@4/s = {}", at4.at(1.0));
        // The 95th percentile stays below 100 s.
        assert!(at4.quantile(0.95) < 100.0, "p95 {}", at4.quantile(0.95));
        // A faster dequeue rate strictly improves waiting times.
        assert!(at5.at(1.0) >= at4.at(1.0));
        assert!(at5.quantile(0.95) <= at4.quantile(0.95));
        // But the tail is real: some changes wait tens of seconds.
        assert!(at4.max() > 10.0);
    }

    #[test]
    fn trace_is_sorted_and_bursty() {
        let trace = rtbh_trace(1);
        assert!(trace.windows(2).all(|w| w[0] <= w[1]));
        // Bursts: some timestamps repeat many times.
        let mut max_run = 1;
        let mut run = 1;
        for w in trace.windows(2) {
            if w[0] == w[1] {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 1;
            }
        }
        assert!(max_run >= 100, "max burst {max_run}");
    }
}
