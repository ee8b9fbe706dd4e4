//! Harness entries: build a run from `(actors, clocks, delays, driver)`
//! and return the complete history.
//!
//! Every backend takes that one argument list:
//! [`skewbound_sim::engine::run_history`] (virtual time, re-exported here
//! as [`run_history`]), [`skewbound_sim::rt::run_history`] (OS threads)
//! and `skewbound_net::runtime::run_history` (a TCP loopback mesh).
//! Histories are returned by move — no clone of the full run record.

use std::time::Duration;

use skewbound_sim::actor::Actor;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::{DelayBounds, UniformDelay};
pub use skewbound_sim::engine::run_history;
use skewbound_sim::history::History;
use skewbound_sim::workload::Driver;

/// The thread runtime under seeded uniform delays in `bounds`: forwards
/// to [`skewbound_sim::rt::run_history`], whose drain grace is `2·d`, so
/// `settle` is ignored. Kept, with its old signature, only for the
/// frozen benchmark's `sim.rt` layer: the next change to `benchmark/`
/// moves that caller to `rt::run_history` and deletes this shim.
///
/// # Panics
///
/// As [`skewbound_sim::rt::run_history`].
pub fn run_history_rt<A, Dr>(
    actors: Vec<A>,
    clocks: &ClockAssignment,
    bounds: DelayBounds,
    seed: u64,
    driver: &mut Dr,
    settle: Duration,
) -> History<A::Op, A::Resp>
where
    A: Actor + Send + 'static,
    A::Msg: Send + 'static,
    A::Op: Send + 'static,
    A::Resp: Send + 'static,
    A::Timer: Send + 'static,
    Dr: Driver<A::Op, A::Resp> + ?Sized,
{
    let _ = settle;
    let delays = UniformDelay::new(bounds, seed);
    skewbound_sim::rt::run_history(actors, clocks.clone(), delays, driver)
        .expect("the thread link never fails a send")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::replica::Replica;
    use skewbound_sim::prelude::*;
    use skewbound_spec::prelude::*;

    #[test]
    fn run_history_completes_closed_loop() {
        let params = Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(30),
            SimDuration::ZERO,
        )
        .unwrap();
        let mut driver = ClosedLoop::new(ProcessId::all(3).collect(), 4, 7, |_pid, idx, _rng| {
            if idx % 2 == 0 {
                CounterOp::Add(1)
            } else {
                CounterOp::Read
            }
        });
        let history = run_history(
            Replica::group(Counter::default(), &params),
            ClockAssignment::zero(3),
            UniformDelay::new(params.delay_bounds(), 3),
            &mut driver,
        )
        .unwrap();
        assert_eq!(history.len(), 12);
        assert!(history.is_complete());
    }

    #[test]
    fn run_history_rt_completes_closed_loop() {
        // Millisecond-scale parameters: the rt backend interprets one
        // tick as one microsecond.
        let params = Params::with_optimal_skew(
            2,
            SimDuration::from_ticks(2_000),
            SimDuration::from_ticks(1_000),
            SimDuration::ZERO,
        )
        .unwrap();
        let mut driver = ClosedLoop::new(ProcessId::all(2).collect(), 2, 7, |_pid, idx, _rng| {
            if idx % 2 == 0 {
                CounterOp::Add(1)
            } else {
                CounterOp::Read
            }
        });
        let history = run_history_rt(
            Replica::group(Counter::default(), &params),
            &ClockAssignment::zero(2),
            params.delay_bounds(),
            7,
            &mut driver,
            Duration::from_millis(20),
        );
        assert_eq!(history.len(), 4);
        assert!(history.is_complete());
    }
}
