//! Full-stack integration: clock synchronization feeding Algorithm 1,
//! and the real-thread runtime producing checkable histories.

use skewbound_clocksync::{optimal_skew, run_sync_round};
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_integration::assert_linearizable;
use skewbound_lin::checker::check_history;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::{DelayBounds, UniformDelay};
use skewbound_sim::engine::Simulation;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::rt;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_sim::workload::Script;
use skewbound_spec::prelude::*;

#[test]
fn sync_round_then_shared_object() {
    let n = 4;
    let d = SimDuration::from_ticks(9_000);
    let u = SimDuration::from_ticks(2_000);
    let bounds = DelayBounds::new(d, u);

    // Start with terrible clocks, synchronize, then run Algorithm 1 on
    // the adjusted clocks with eps = achieved bound (+ rounding slack).
    let raw = ClockAssignment::spread(n, SimDuration::from_ticks(2_000_000));
    let sync = run_sync_round(&raw, bounds, 77);
    let slack = SimDuration::from_ticks(2);
    assert!(sync.achieved_skew <= optimal_skew(n, u) + slack);

    let params = Params::new(n, d, u, optimal_skew(n, u) + slack, SimDuration::ZERO).unwrap();
    let mut sim = Simulation::new(
        Replica::group(Queue::<i64>::new(), &params),
        sync.adjusted_clocks(),
        UniformDelay::new(bounds, 5),
    );
    let p = ProcessId::new;
    sim.schedule_invoke(p(0), SimTime::ZERO, QueueOp::Enqueue(1));
    sim.schedule_invoke(p(1), SimTime::from_ticks(2_000), QueueOp::Enqueue(2));
    sim.schedule_invoke(p(2), SimTime::from_ticks(30_000), QueueOp::Dequeue);
    sim.schedule_invoke(p(3), SimTime::from_ticks(60_000), QueueOp::Dequeue);
    sim.run().unwrap();
    assert_linearizable(&Queue::<i64>::new(), sim.history());
    // FIFO held across the synchronized system.
    assert_eq!(
        sim.history().records()[2].resp(),
        Some(&QueueResp::Value(Some(1)))
    );
    assert_eq!(
        sim.history().records()[3].resp(),
        Some(&QueueResp::Value(Some(2)))
    );
}

#[test]
fn threaded_runtime_history_checks_out() {
    // Millisecond-scale delays so OS noise stays negligible.
    let n = 3;
    let params = Params::with_optimal_skew(
        n,
        SimDuration::from_ticks(5_000),
        SimDuration::from_ticks(2_000),
        SimDuration::ZERO,
    )
    .unwrap();
    let p = ProcessId::new;
    let ms = |x: u64| SimTime::from_ticks(x * 1_000);
    let mut script = Script::new()
        .at(p(0), ms(0), CounterOp::Add(5))
        .at(p(1), ms(2), CounterOp::Add(7))
        .at(p(2), ms(40), CounterOp::Read);
    let history = rt::run_history(
        Replica::group(Counter::default(), &params),
        ClockAssignment::zero(n),
        UniformDelay::new(params.delay_bounds(), 3),
        &mut script,
    )
    .unwrap();
    assert!(history.is_complete());
    assert_eq!(history.records()[2].resp(), Some(&CounterResp::Value(12)));
    assert!(check_history(&Counter::default(), &history).is_linearizable());
}
