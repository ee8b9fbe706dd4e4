//! Watch an adversarial run unfold, event by event.
//!
//! Runs the Theorem C.1 `R1` scenario (two concurrent dequeues under the
//! proof's delay matrix and clock skew) twice — once against a too-fast
//! implementation, once against Algorithm 1 — with full event tracing,
//! and prints the timelines side by side with the checker's verdicts.
//!
//! ```text
//! cargo run -p skewbound-examples --bin trace_run
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use skewbound_core::foils::eager_group;
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_lin::checker::check_history;
use skewbound_shift::scenarios::insc_dequeue_family;
use skewbound_sim::engine::Simulation;
use skewbound_sim::time::SimDuration;
use skewbound_sim::trace::Trace;
use skewbound_spec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_400),
        SimDuration::ZERO,
    )?;
    let scenario = &insc_dequeue_family(&params)[0]; // R1
    println!("scenario: {} (Theorem C.1, Fig. 7)", scenario.name);
    println!(
        "p1's clock runs m = {} behind; both processes dequeue the single element\n",
        params.m()
    );

    for (label, foil) in [("half-timer foil", true), ("Algorithm 1", false)] {
        let mut sim = Simulation::new(
            if foil {
                eager_group(Queue::<i64>::new(), &params, 1, 2)
            } else {
                Replica::group(Queue::<i64>::new(), &params)
            },
            scenario.clocks.clone(),
            scenario.delays.clone(),
        );
        // Keep one handle on the in-memory trace; the engine writes
        // through the other.
        let trace = Rc::new(RefCell::new(Trace::new()));
        sim.set_trace_sink(Box::new(Rc::clone(&trace)));
        for (pid, at, op) in &scenario.script {
            sim.schedule_invoke(*pid, *at, op.clone());
        }
        sim.run()?;

        println!("=== {label} ===");
        println!("{}", trace.borrow().render_lanes(3));
        let outcome = check_history(&Queue::<i64>::new(), sim.history());
        println!(
            "verdict: {}\n",
            if outcome.is_linearizable() {
                "linearizable"
            } else {
                "NOT LINEARIZABLE — both dequeues claimed the element"
            }
        );
    }
    Ok(())
}
