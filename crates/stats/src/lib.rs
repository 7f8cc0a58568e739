//! # stellar-stats
//!
//! The statistical toolkit behind the paper's evaluation plots:
//!
//! - descriptive statistics and percentiles ([`describe`]),
//! - one-tailed Welch's unequal-variances t-test, used in §2.3 to show the
//!   port distribution of blackholed traffic differs significantly from
//!   non-blackholed traffic ([`welch`]),
//! - 95 % confidence intervals for means (Fig. 3a error bars) ([`ci`]),
//! - ordinary least-squares regression with confidence bands (Fig. 10a)
//!   ([`regression`]),
//! - empirical CDFs (Fig. 10b) ([`cdf`]),
//! - plain-text table/series rendering shared by the bench binaries
//!   ([`table`]).
//!
//! Everything is implemented from first principles (log-gamma, regularized
//! incomplete beta, Student-t distribution) so the crate has no external
//! dependencies and results are bit-reproducible.

#![forbid(unsafe_code)]

pub mod cdf;
pub mod ci;
pub mod describe;
pub mod regression;
pub mod special;
pub mod table;
pub mod welch;

pub use cdf::Ecdf;
pub use ci::{mean_ci95, MeanCi};
pub use describe::{mean, median, percentile, std_dev, variance};
pub use regression::{ols, OlsFit};
pub use welch::{welch_t_test, WelchResult};
