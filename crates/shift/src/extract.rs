//! Extracting runs-as-data from executed simulations.
//!
//! The `shift` machinery manipulates runs abstractly; this module bridges
//! from the engine: any executed [`Simulation`] and the [`Trace`] it
//! emitted can be turned into a [`Run`] (views with
//! invoke/respond/send/recv steps, message table, clock offsets) and
//! then checked for admissibility, shifted, or chopped. This closes the
//! loop of Chapter IV: the runs the proofs reason about and the runs the
//! simulator executes are the same objects.

use skewbound_sim::actor::Actor;
use skewbound_sim::delay::DelayModel;
use skewbound_sim::engine::Simulation;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::trace::Trace;

use crate::run::{Message, Run, RunTime, Step, StepKind, View};

/// Builds a [`Run`] from an executed simulation and the trace of its
/// whole run (attached before it started).
///
/// Views contain every invocation, response, send and receive at their
/// real times; the messages are the trace's [`Trace::messages`]. Each
/// view ends one tick after the last global event (the run is complete,
/// so all messages are delivered and admissibility's
/// undelivered-message clause is vacuous).
#[must_use]
pub fn run_from_sim<A, D>(sim: &Simulation<A, D>, trace: &Trace) -> Run
where
    A: Actor,
    D: DelayModel,
{
    let n = sim.n();
    let end = RunTime(i64::try_from(sim.now().as_ticks()).expect("run time fits i64") + 1);

    // Collect (time, pid, kind) triples, then split per process.
    let mut events: Vec<(RunTime, ProcessId, StepKind)> = Vec::new();
    for rec in sim.history().records() {
        let at = RunTime(i64::try_from(rec.invoked_at.as_ticks()).expect("fits"));
        events.push((at, rec.pid, StepKind::Invoke(format!("{:?}", rec.op))));
        if let Some(resp_at) = rec.responded_at() {
            let at = RunTime(i64::try_from(resp_at.as_ticks()).expect("fits"));
            events.push((at, rec.pid, StepKind::Respond(format!("{:?}", rec.op))));
        }
    }
    let mut msgs = Vec::new();
    for (idx, m) in trace.messages().iter().enumerate() {
        let sent = RunTime(i64::try_from(m.sent_at.as_ticks()).expect("fits"));
        let recv = RunTime(i64::try_from(m.recv_at.as_ticks()).expect("fits"));
        events.push((sent, m.from, StepKind::Send(idx)));
        events.push((recv, m.to, StepKind::Recv(idx)));
        msgs.push(Message {
            from: m.from,
            to: m.to,
            sent_at: sent,
            recv_at: Some(recv),
        });
    }
    events.sort_by_key(|(at, pid, _)| (*at, *pid));

    let mut views: Vec<View> = (0..n)
        .map(|i| View::new(sim.clocks().offsets()[i].as_ticks(), end))
        .collect();
    for (at, pid, kind) in events {
        views[pid.index()].steps.push(Step { at, kind });
    }
    Run::new(views, msgs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use skewbound_core::params::Params;
    use skewbound_core::replica::Replica;
    use skewbound_sim::clock::ClockAssignment;
    use skewbound_sim::delay::{DelayBounds, UniformDelay};
    use skewbound_sim::time::{SimDuration, SimTime};
    use skewbound_spec::prelude::*;

    fn params() -> Params {
        Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(2_400),
            SimDuration::ZERO,
        )
        .unwrap()
    }

    /// The run of an enqueue and a dequeue, extracted with its trace.
    fn executed_run() -> Run {
        let p = params();
        let mut sim = Simulation::new(
            Replica::group(Queue::<i64>::new(), &p),
            ClockAssignment::spread(3, p.eps()),
            UniformDelay::new(p.delay_bounds(), 5),
        );
        let trace = Rc::new(RefCell::new(Trace::new()));
        sim.set_trace_sink(Box::new(Rc::clone(&trace)));
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, QueueOp::Enqueue(1));
        sim.schedule_invoke(
            ProcessId::new(1),
            SimTime::from_ticks(4_000),
            QueueOp::Dequeue,
        );
        sim.run().unwrap();
        let trace = trace.borrow();
        run_from_sim(&sim, &trace)
    }

    #[test]
    fn extracted_run_is_admissible() {
        let p = params();
        let run = executed_run();
        run.check_admissible(p.delay_bounds(), i64::try_from(p.eps().as_ticks()).unwrap())
            .unwrap();
        assert!(run.all_delivered());
        assert_eq!(run.n(), 3);
    }

    #[test]
    fn extracted_run_has_all_events() {
        let run = executed_run();
        let invokes: usize = run
            .views()
            .iter()
            .flat_map(|v| &v.steps)
            .filter(|s| matches!(s.kind, StepKind::Invoke(_)))
            .count();
        assert_eq!(invokes, 2);
        // Two broadcast ops × (n − 1) peers = 4 messages.
        assert_eq!(run.messages().len(), 4);
        // Send/Recv step counts match the table.
        let sends = run
            .views()
            .iter()
            .flat_map(|v| &v.steps)
            .filter(|s| matches!(s.kind, StepKind::Send(_)))
            .count();
        assert_eq!(sends, 4);
    }

    #[test]
    fn uniform_shift_of_real_run_stays_admissible() {
        // Shifting every process by the same amount leaves all delays
        // unchanged (formula 4.1 with equal x's) — an executable
        // instance of Claim B.3.
        let p = params();
        let run = executed_run();
        let shifted = crate::shiftop::shift_run(&run, &[100, 100, 100]);
        shifted
            .check_admissible(p.delay_bounds(), i64::try_from(p.eps().as_ticks()).unwrap())
            .unwrap();
    }

    #[test]
    fn over_shift_of_real_run_breaks_admissibility() {
        // Shifting one process by more than the remaining delay slack
        // must push some delay out of range — the modified-shift setup,
        // on a real executed run.
        let p = params();
        let run = executed_run();
        let too_much = i64::try_from(p.u().as_ticks()).unwrap() * 2;
        let shifted = crate::shiftop::shift_run(&run, &[too_much, 0, 0]);
        assert!(shifted
            .check_admissible(p.delay_bounds(), i64::try_from(p.eps().as_ticks()).unwrap(),)
            .is_err());
    }

    #[test]
    fn skew_violation_detected_on_real_run() {
        let run = executed_run();
        // Claim admissibility with a tighter eps than the actual spread.
        assert!(run
            .check_admissible(
                DelayBounds::new(
                    SimDuration::from_ticks(9_000),
                    SimDuration::from_ticks(2_400)
                ),
                10,
            )
            .is_err());
    }
}
