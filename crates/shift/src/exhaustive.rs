//! The delay side of exhaustive exploration: a delay model that replays
//! one enumerated assignment of delay draws, and the check that makes
//! such an enumeration sound.
//!
//! The lower-bound theorems quantify over all admissible runs; the
//! scenario families encode the specific runs their proofs construct.
//! The model checker (`skewbound-mc`'s `model_check`) goes further for
//! small configurations: it enumerates every combination of delays
//! (from a chosen grid, e.g. `{d − u, d}`) for the run's delay draws —
//! one per sent batch, a single send being a batch of one — and every
//! clock assignment from a chosen set, replaying each assignment with
//! [`EnumeratedDelay`] — turning "the checker found no violation" into
//! "no violation exists within this finite run space".
//!
//! This works because, for the implementations in this workspace, the
//! *number and order of delay draws* is delay-independent (replicas
//! broadcast on invocation only), so a dry run under any delay model
//! discovers the draw count, and the delay grid then spans the whole
//! space. That assumption is **verified**, not trusted:
//! [`verify_send_order_independence`] executes two dry runs under the
//! opposite-extreme delay models and fails with a diagnostic if their
//! `(from, to)` draw sequences differ.

use skewbound_sim::actor::Actor;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::{DelayBounds, DelayModel, FixedDelay, MsgMeta};
use skewbound_sim::engine::Simulation;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{SimDuration, SimTime};

/// Structured evidence that a run requested more delays than its
/// enumerated assignment covers — the run left the enumerated space.
///
/// [`EnumeratedDelay::delay`] cannot refuse mid-run (the engine needs
/// *some* admissible delay for every send), so overruns are recorded and
/// surfaced here afterwards via [`EnumeratedDelay::check_exhausted`].
/// The model checker counts such a run as off-space: it proves nothing
/// about the enumerated space, so a report that contains one does not
/// pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignmentExhausted {
    /// Delays the assignment covered.
    pub assigned: usize,
    /// Delays the run actually requested (`> assigned`).
    pub requested: usize,
}

impl core::fmt::Display for AssignmentExhausted {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "enumerated delay assignment exhausted: run requested {} delays \
             but only {} were assigned (extra messages fell back to d)",
            self.requested, self.assigned
        )
    }
}

impl std::error::Error for AssignmentExhausted {}

/// A delay model that replays a fixed assignment, one delay per draw,
/// in global send order.
#[derive(Debug)]
pub struct EnumeratedDelay {
    bounds: DelayBounds,
    assignment: Vec<SimDuration>,
    next: usize,
}

// `clone_from` refills the assignment in place: an explorer forking
// runs of one grid cell into retired ones copies it without allocating.
skewbound_sim::clone_fields!([] EnumeratedDelay { bounds, assignment, next });

impl EnumeratedDelay {
    /// Creates a model assigning `assignment[i]` to the run's `i`-th
    /// delay draw (its `i`-th sent batch).
    ///
    /// # Panics
    ///
    /// Panics if any assigned delay is out of bounds.
    #[must_use]
    pub fn new(bounds: DelayBounds, assignment: Vec<SimDuration>) -> Self {
        for d in &assignment {
            assert!(bounds.contains(*d), "enumerated delay {d:?} out of bounds");
        }
        EnumeratedDelay {
            bounds,
            assignment,
            next: 0,
        }
    }

    /// Delays requested so far.
    #[must_use]
    pub fn requested(&self) -> usize {
        self.next
    }

    /// Checks that the run stayed within the enumerated assignment.
    ///
    /// # Errors
    ///
    /// Returns [`AssignmentExhausted`] when the run requested more delays
    /// than were assigned; those extra draws silently took the maximal
    /// delay `d`, so the run is *admissible* but outside the enumerated
    /// space.
    pub fn check_exhausted(&self) -> Result<(), AssignmentExhausted> {
        if self.next > self.assignment.len() {
            return Err(AssignmentExhausted {
                assigned: self.assignment.len(),
                requested: self.next,
            });
        }
        Ok(())
    }
}

impl DelayModel for EnumeratedDelay {
    fn delay(&mut self, _meta: MsgMeta) -> SimDuration {
        let d = self
            .assignment
            .get(self.next)
            .copied()
            .unwrap_or_else(|| self.bounds.max());
        self.next += 1;
        d
    }

    fn bounds(&self) -> DelayBounds {
        self.bounds
    }
}

/// First divergence between the delay-draw sequences of the two extreme
/// dry runs, as reported by [`verify_send_order_independence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendOrderDivergence {
    /// Index into the global order of delay draws (one per sent batch)
    /// at which the runs differ.
    pub index: usize,
    /// `(from, to)` of the `index`-th draw under `FixedDelay::minimal`,
    /// if that run drew that many delays.
    pub under_minimal: Option<(ProcessId, ProcessId)>,
    /// `(from, to)` of the `index`-th draw under `FixedDelay::maximal`.
    pub under_maximal: Option<(ProcessId, ProcessId)>,
    /// Total draws under the minimal-delay run.
    pub minimal_count: usize,
    /// Total draws under the maximal-delay run.
    pub maximal_count: usize,
}

impl core::fmt::Display for SendOrderDivergence {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "send order depends on message delays: at send #{} the \
             minimal-delay run sends {:?} but the maximal-delay run sends \
             {:?} ({} vs {} total sends); an enumerated delay grid indexed \
             by send order is unsound for this implementation",
            self.index,
            self.under_minimal,
            self.under_maximal,
            self.minimal_count,
            self.maximal_count
        )
    }
}

impl std::error::Error for SendOrderDivergence {}

/// A fixed delay that records the `(from, to)` of every draw, in draw
/// order.
struct Recording {
    inner: FixedDelay,
    draws: Vec<(ProcessId, ProcessId)>,
}

impl DelayModel for Recording {
    fn delay(&mut self, meta: MsgMeta) -> SimDuration {
        self.draws.push((meta.from, meta.to));
        self.inner.delay(meta)
    }

    fn bounds(&self) -> DelayBounds {
        self.inner.bounds()
    }
}

/// Verifies — rather than assumes — that the implementation's send
/// pattern is delay-independent: runs the scripted scenario twice, under
/// `FixedDelay::minimal` and `FixedDelay::maximal` (the opposite extremes
/// of the admissible space), and compares the global `(from, to)`
/// sequences of their delay draws, one per sent batch.
///
/// On success returns the (common) draw count, which is exactly the
/// dimensionality an enumerated delay grid needs.
///
/// # Errors
///
/// Returns [`SendOrderDivergence`] describing the first differing draw
/// when the sequences differ.
///
/// # Panics
///
/// Panics if either dry run fails to reach quiescence.
pub fn verify_send_order_independence<A, F>(
    make_actors: &F,
    clocks: &ClockAssignment,
    bounds: DelayBounds,
    script: &[(ProcessId, SimTime, A::Op)],
) -> Result<usize, SendOrderDivergence>
where
    A: Actor,
    A::Op: Clone,
    F: Fn() -> Vec<A>,
{
    let dry = |inner: FixedDelay| {
        let delays = Recording {
            inner,
            draws: Vec::new(),
        };
        let mut sim = Simulation::new(make_actors(), clocks.clone(), delays);
        for (pid, at, op) in script {
            sim.schedule_invoke(*pid, *at, op.clone());
        }
        sim.run().expect("dry run failed");
        sim.delays().draws.clone()
    };
    let lo = dry(FixedDelay::minimal(bounds));
    let hi = dry(FixedDelay::maximal(bounds));
    if lo == hi {
        return Ok(hi.len());
    }
    let index = lo
        .iter()
        .zip(hi.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| lo.len().min(hi.len()));
    Err(SendOrderDivergence {
        index,
        under_minimal: lo.get(index).copied(),
        under_maximal: hi.get(index).copied(),
        minimal_count: lo.len(),
        maximal_count: hi.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_core::params::Params;
    use skewbound_core::replica::Replica;
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

    #[test]
    fn a_refilled_enumerated_delay_equals_a_cloned_one() {
        let bounds = params().delay_bounds();
        let meta = MsgMeta {
            from: ProcessId::new(0),
            to: ProcessId::new(1),
        };
        // `len` assigned delays, `drawn` of them (or past them) used up.
        let model = |len: usize, drawn: usize| {
            let corner = |i: usize| [bounds.min(), bounds.max()][i % 2];
            let mut model = EnumeratedDelay::new(bounds, (0..len).map(corner).collect());
            for _ in 0..drawn {
                model.delay(meta);
            }
            model
        };
        let models = [model(0, 0), model(3, 2), model(6, 7), model(2, 0)];
        for source in &models {
            for dest in &models {
                let mut refilled = dest.clone();
                refilled.clone_from(source);
                assert_eq!(format!("{refilled:?}"), format!("{:?}", source.clone()));
                assert_eq!(refilled.check_exhausted(), source.check_exhausted());
            }
        }
    }

    #[test]
    fn enumerated_delay_replays_assignment() {
        let bounds = DelayBounds::new(SimDuration::from_ticks(10), SimDuration::from_ticks(4));
        let mut model = EnumeratedDelay::new(
            bounds,
            vec![SimDuration::from_ticks(6), SimDuration::from_ticks(10)],
        );
        let meta = MsgMeta {
            from: ProcessId::new(0),
            to: ProcessId::new(1),
        };
        assert_eq!(model.delay(meta).as_ticks(), 6);
        assert_eq!(model.delay(meta).as_ticks(), 10);
        assert_eq!(model.check_exhausted(), Ok(()));
        // Past the assignment: defaults to d, and the overrun is recorded
        // as a structured error instead of a panic, so explorers can
        // treat the run as a pruned branch.
        assert_eq!(model.delay(meta).as_ticks(), 10);
        assert_eq!(
            model.check_exhausted(),
            Err(AssignmentExhausted {
                assigned: 2,
                requested: 3
            })
        );
        assert_eq!(model.requested(), 3);
    }

    /// An implementation whose send *order* depends on delays: p0's
    /// invocation sends to p1, which relays to p2 on receipt. Under
    /// minimal delays the relay beats a scripted broadcast from p2;
    /// under maximal delays it loses the race.
    #[derive(Debug, Default)]
    struct Relay;

    impl Actor for Relay {
        type Msg = u8;
        type Op = u8;
        type Resp = u8;
        type Timer = ();

        fn on_invoke(&mut self, op: u8, ctx: &mut Context<'_, Self>) {
            match op {
                0 => ctx.send(ProcessId::new(1), 0),
                _ => ctx.broadcast(1),
            }
            ctx.respond(op);
        }
        fn on_message(&mut self, _from: ProcessId, msg: u8, ctx: &mut Context<'_, Self>) {
            if msg == 0 && ctx.pid() == ProcessId::new(1) {
                ctx.send(ProcessId::new(2), 2);
            }
        }
        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    use skewbound_sim::actor::Context;

    #[test]
    fn send_order_independence_verified_for_honest_replicas() {
        let params = params();
        // One enqueue then two spaced dequeues: 3 broadcasts × 2 peers.
        let p = ProcessId::new;
        let t = SimTime::from_ticks;
        let script = vec![
            (p(2), t(0), QueueOp::Enqueue(42)),
            (p(0), t(40_000), QueueOp::Dequeue),
            (p(1), t(41_000), QueueOp::Dequeue),
        ];
        let messages = verify_send_order_independence(
            &|| Replica::group(Queue::<i64>::new(), &params),
            &ClockAssignment::zero(params.n()),
            params.delay_bounds(),
            &script,
        )
        .expect("Algorithm 1 broadcasts on invocation only");
        assert_eq!(messages, 6);
    }

    #[test]
    fn delay_dependent_send_order_is_diagnosed() {
        // d = 10, u = 4: the relay send happens at t = 6 (minimal) or
        // t = 10 (maximal); the scripted broadcast at t = 8 sits between.
        let bounds = DelayBounds::new(SimDuration::from_ticks(10), SimDuration::from_ticks(4));
        let p = ProcessId::new;
        let t = SimTime::from_ticks;
        let script = vec![(p(0), t(0), 0u8), (p(2), t(8), 1u8)];
        let err = verify_send_order_independence(
            &|| vec![Relay, Relay, Relay],
            &ClockAssignment::zero(3),
            bounds,
            &script,
        )
        .expect_err("relay send order must depend on delays");
        assert_eq!(err.index, 1);
        assert_eq!(err.minimal_count, err.maximal_count);
        assert_eq!(err.under_minimal, Some((p(1), p(2))));
        assert_eq!(err.under_maximal, Some((p(2), p(0))));
        // The diagnostic names the divergence.
        let msg = err.to_string();
        assert!(
            msg.contains("send #1"),
            "diagnostic should locate it: {msg}"
        );
    }
}
