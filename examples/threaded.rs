//! The same Algorithm-1 state machines on real OS threads: a timed
//! `Script` driver, messages over mpsc channels with `[d − u, d]`
//! delays from a seeded `UniformDelay`, wall-clock clocks with
//! per-process offsets. The produced history is checked for
//! linearizability just like the simulated ones.
//!
//! ```text
//! cargo run -p skewbound-examples --bin threaded
//! ```

use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_lin::checker::check_history;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::UniformDelay;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::rt;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_sim::workload::Script;
use skewbound_spec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Real-time scale: 1 tick = 1 µs, so d = 5 ms, u = 2 ms.
    let n = 3;
    let params = Params::with_optimal_skew(
        n,
        SimDuration::from_ticks(5_000),
        SimDuration::from_ticks(2_000),
        SimDuration::ZERO,
    )?;
    println!("running {n} replicas on OS threads, {params}");

    let p = ProcessId::new;
    let ms = |x: u64| SimTime::from_ticks(x * 1_000);
    let mut script = Script::new()
        .at(p(0), ms(0), QueueOp::Enqueue(1))
        .at(p(1), ms(5), QueueOp::Enqueue(2))
        .at(p(2), ms(40), QueueOp::Peek)
        .at(p(0), ms(60), QueueOp::Dequeue)
        .at(p(1), ms(80), QueueOp::Dequeue)
        .at(p(2), ms(110), QueueOp::Dequeue);

    let history = rt::run_history(
        Replica::group(Queue::<i64>::new(), &params),
        ClockAssignment::zero(n),
        UniformDelay::new(params.delay_bounds(), 7),
        &mut script,
    )?;

    println!("\n{:<10} {:>12} response", "op", "latency µs");
    for rec in history.records() {
        println!(
            "{:<10} {:>12} {:?}",
            match &rec.op {
                QueueOp::Enqueue(_) => "enqueue",
                QueueOp::Dequeue => "dequeue",
                QueueOp::Peek => "peek",
                QueueOp::Len => "len",
            },
            rec.latency().map_or(0, |l| l.as_ticks()),
            rec.resp(),
        );
    }

    let outcome = check_history(&Queue::<i64>::new(), &history);
    println!(
        "\nlinearizability check on the real-thread history: {}",
        if outcome.is_linearizable() {
            "OK"
        } else {
            "VIOLATION"
        }
    );
    // OS scheduling noise is real; the honest algorithm still has enough
    // slack at these scales that the run should check out.
    assert!(outcome.is_linearizable());
    Ok(())
}
