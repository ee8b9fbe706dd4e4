//! Convenience runners: build a simulation (or a real-thread cluster),
//! run a workload, return the complete history.
//!
//! These wrappers keep examples, integration tests and benches concise;
//! everything they do can also be done directly with
//! [`skewbound_sim::engine::Simulation`] (which is also where to go for
//! the final actor states, the message log or a trace) or
//! [`skewbound_sim::rt::RtCluster`]. Histories are returned by move — no
//! clone of the full run record.

use std::time::Duration;

use skewbound_sim::actor::Actor;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::{DelayBounds, DelayModel};
use skewbound_sim::engine::{SimError, Simulation};
use skewbound_sim::history::History;
use skewbound_sim::rt::RtCluster;
use skewbound_sim::workload::Driver;

/// Runs `actors` under `clocks`/`delays` with `driver` until quiescence
/// and returns the complete history.
///
/// # Errors
///
/// Propagates [`SimError`] from the engine (event-cap exceeded).
///
/// # Panics
///
/// Panics if the run ends with an incomplete history, which would indicate
/// an actor that failed to respond to an invocation — a correctness bug
/// worth failing loudly on.
pub fn run_history<A, D, Dr>(
    actors: Vec<A>,
    clocks: ClockAssignment,
    delays: D,
    driver: &mut Dr,
) -> Result<History<A::Op, A::Resp>, SimError>
where
    A: Actor,
    D: DelayModel,
    Dr: Driver<A::Op, A::Resp> + ?Sized,
{
    let mut sim = Simulation::new(actors, clocks, delays);
    sim.run_with(driver)?;
    assert!(
        sim.history().is_complete(),
        "run reached quiescence with pending operations (termination bug)"
    );
    Ok(sim.into_history())
}

/// Runs the same closed-loop workload on the **real-thread runtime**:
/// `actors` on OS threads with message delays drawn uniformly from
/// `bounds` (seeded by `seed`), `driver` issuing invocations, shutdown
/// `settle` after the last response. One tick is one microsecond, so
/// pick tick values accordingly (e.g. `d = 2_000` ticks = 2 ms).
///
/// This is the rt counterpart of [`run_history`] — the same `Driver`
/// value works on both backends, which is what the cross-runtime parity
/// test leans on.
///
/// # Panics
///
/// Panics if the run ends with an incomplete history, if the driver
/// overlaps invocations at one process, or if a worker thread panics.
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
    let cluster = RtCluster::start(actors, clocks, bounds, seed);
    cluster.run_driver(driver);
    let history = cluster.shutdown(settle);
    assert!(
        history.is_complete(),
        "run reached quiescence with pending operations (termination bug)"
    );
    history
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
