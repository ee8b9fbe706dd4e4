//! # skewbound-bench
//!
//! The experiment harness that regenerates the paper's evaluation
//! artifacts:
//!
//! * [`report`] — Tables I–IV with the paper's bound formulas evaluated
//!   at concrete parameters next to measured worst-case latencies of
//!   Algorithm 1 and the centralized `2d` baseline;
//! * [`measure`] — the closed-loop measurement workloads behind the
//!   tables;
//! * [`figures`] — the figure/theorem experiments (Fig. 1, Theorems
//!   C.1/D.1/E.1 run families, the `X` trade-off sweep, and the
//!   clock-synchronization premise).
//!
//! The `tables` binary prints everything. Performance is measured only
//! by the standalone `benchmark/` package.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod measure;
pub mod report;

use skewbound_core::params::Params;
use skewbound_sim::time::SimDuration;

/// The default experiment parameters used throughout the harness:
/// `n = 3`, `d = 9000`, `u = 2400` ticks, optimal skew
/// `ε = (1 − 1/n)u = 1600`, `X = 0`.
///
/// With 1 tick = 1 µs these model a 9 ms network with 2.4 ms jitter.
/// They satisfy `ε ≤ min(u, d/3)`, the regime in which the Theorem C.1
/// bound is tight, and `u % 2n == 0` so the Theorem D.1 shifts are exact.
///
/// # Panics
///
/// Never; the constants are valid.
#[must_use]
pub fn default_params() -> Params {
    Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_400),
        SimDuration::ZERO,
    )
    .expect("default parameters are valid")
}
