//! # stellar-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see DESIGN.md §4 for the index), plus Criterion
//! micro-benchmarks of the building blocks.
//!
//! Binaries print the same rows/series the paper reports and additionally
//! dump machine-readable JSON next to the text (under `results/` in the
//! working directory) so EXPERIMENTS.md can be regenerated diffably.

pub mod fig10ab;
pub mod fig3a;
pub mod fig3b;
pub mod fig9;
pub mod knobs;
pub mod output;

/// The experiment RNG seed shared by all binaries; change it to check
/// that conclusions are seed-independent.
pub const SEED: u64 = 0x0574_11a2_2018;
