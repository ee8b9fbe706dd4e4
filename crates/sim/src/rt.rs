//! A real-thread runtime for the same [`Actor`] state machines.
//!
//! [`run_history`] is the second backend over the shared [`NodeCore`]:
//! each process is a [`WallNode`] on an OS thread, running the one
//! wall-clock loop ([`WallNode::run`]) the socket mesh runs too, with a
//! worker's channel for its inbox. A send takes its delay from the
//! run's [`DelayModel`], one model shared by every worker as the engine
//! shares one across its processes, checked against the model's bounds
//! on every send. The batch goes straight into the destination worker's
//! inbox, which holds it on its agenda until `sent + delay`; timers and
//! held deliveries fire in one `(instant, seq)` order, each anchored at
//! its own instant. The node and its step are the ones the
//! discrete-event engine ([`crate::engine`]) runs on virtual time.
//! Invocations come from [`drive`], the closed-loop
//! driver the socket mesh runs too, which records the run's history:
//! each invocation when it is dispatched, each response at the node's
//! response stamp. Clocks are wall-clock readings plus the
//! [`ClockAssignment`]'s per-process offsets; one tick is one
//! microsecond.
//!
//! Because the OS scheduler adds real, unbounded noise, this runtime is
//! suitable for functional demonstrations (histories can still be checked
//! for linearizability) but not for measuring the tight time bounds — the
//! injected delay is a *lower* bound on actual delivery latency. Scheduling
//! noise can also perturb the relative order of closely spaced events, so
//! prefer workloads whose correctness does not hinge on exact tie-breaks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use crate::actor::Actor;
use crate::clock::ClockAssignment;
use crate::deadline::{TimeBase, WallNode};
use crate::delay::DelayModel;
use crate::engine::SimError;
use crate::history::History;
use crate::ids::{MsgId, ProcessId};
use crate::node::NodeCore;
use crate::time::ticks_to_duration;
use crate::transport::{Link, Transport, TransportError};
use crate::workload::{drive, Driver};

/// A worker thread's inbox message.
enum Input<A: Actor> {
    /// Invoke an operation.
    Invoke(A::Op),
    /// A batch from another process, holding the ids
    /// `first_id..first_id + msgs.len()`, to deliver at tick
    /// `deliver_at`.
    Deliver {
        from: ProcessId,
        first_id: MsgId,
        deliver_at: u64,
        msgs: Vec<A::Msg>,
    },
    /// Stop once drained, after this grace period of quiet.
    Stop(Duration),
}

/// The thread runtime's [`Link`]: every worker's inbox. Inboxes are
/// unbounded, so two workers flooding each other never block on a full
/// one.
struct Inboxes<A: Actor>(Vec<Sender<Input<A>>>);

impl<A: Actor> Link<A::Msg> for Inboxes<A> {
    fn hand_off(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        first_id: MsgId,
        sent: u64,
        delay: u64,
        _seq: u64,
        msgs: Vec<A::Msg>,
    ) -> Result<(), TransportError> {
        let deliver_at = sent + delay;
        let batch = Input::Deliver {
            from,
            first_id,
            deliver_at,
            msgs,
        };
        // A worker that has drained and exited takes no more input; by
        // the drain rule nothing was still due to it.
        let _ = self.0[to.index()].send(batch);
        Ok(())
    }
}

/// Tells every worker to stop once drained when dropped: on the way out
/// of [`run_history`], whether the driver returned or panicked.
struct StopOnDrop<'a, A: Actor>(&'a [Sender<Input<A>>], Duration);

impl<A: Actor> Drop for StopOnDrop<'_, A> {
    fn drop(&mut self) {
        for tx in self.0 {
            let _ = tx.send(Input::Stop(self.1));
        }
    }
}

/// Runs `actors` on one OS thread each under `clocks` and `delays`,
/// with `driver` issuing invocations, and returns the observed history —
/// the same argument list and result as
/// [`engine::run_history`](crate::engine::run_history).
///
/// Once every invocation has responded, each worker delivers everything
/// held for it and fires every armed timer, then exits after `2·d` of
/// quiet (`d` the model's maximum delay) while no operation is pending
/// anywhere. Only a send made after every operation has responded, to a
/// destination already quiet for `2·d`, can be lost that way; Algorithm
/// 1's replicas make none.
///
/// # Examples
///
/// ```
/// use skewbound_sim::prelude::*;
/// use skewbound_sim::rt;
///
/// # #[derive(Debug)] struct Echo;
/// # impl Actor for Echo {
/// #     type Msg = (); type Op = u32; type Resp = u32; type Timer = ();
/// #     fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) { ctx.respond(op + 1); }
/// #     fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
/// #     fn on_timer(&mut self, _: (), _: &mut Context<'_, Self>) {}
/// # }
/// let bounds = DelayBounds::new(SimDuration::from_ticks(2_000), SimDuration::from_ticks(1_000));
/// let mut script = Script::new().at(ProcessId::new(0), SimTime::ZERO, 41);
/// let history = rt::run_history(
///     vec![Echo, Echo],
///     ClockAssignment::zero(2),
///     UniformDelay::new(bounds, 7),
///     &mut script,
/// )?;
/// assert_eq!(history.records()[0].resp(), Some(&42));
/// # Ok::<(), SimError>(())
/// ```
///
/// # Errors
///
/// None: the thread link never fails a send. The `Result` is the
/// engine's, so the backends share one signature.
///
/// # Panics
///
/// Panics if `actors` does not have one process per clock of `clocks`
/// ([`ClockAssignment::assert_covers`]), the clocks drift, the model
/// draws an inadmissible delay, the driver overlaps invocations at one
/// process, or a worker thread panics (e.g. an actor invariant fails).
pub fn run_history<A, D, Dr>(
    actors: Vec<A>,
    clocks: ClockAssignment,
    delays: D,
    driver: &mut Dr,
) -> Result<History<A::Op, A::Resp>, SimError>
where
    A: Actor + Send,
    A::Msg: Send,
    A::Op: Send,
    A::Resp: Send,
    A::Timer: Send,
    D: DelayModel + Send,
    Dr: Driver<A::Op, A::Resp> + ?Sized,
{
    clocks.assert_covers(actors.len());
    assert!(
        clocks.is_drift_free(),
        "the real-thread runtime does not emulate clock drift"
    );
    let n = actors.len();
    let grace = ticks_to_duration(delays.bounds().max() * 2);
    let delays = Mutex::new(delays);
    // One flag per process, set while an operation is in flight there:
    // another worker's pending operation may still send to a drained one.
    let in_flight: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let (done_tx, done_rx) = channel();
    let (txs, rxs): (Vec<Sender<Input<A>>>, Vec<_>) = (0..n).map(|_| channel()).unzip();
    // Ticks count µs from the start of the run.
    let base = TimeBase {
        start_instant: Instant::now(),
        start_ticks: 0,
    };
    let history = thread::scope(|scope| {
        for ((pid, actor), rx) in ProcessId::all(n).zip(actors).zip(rxs) {
            let link = Inboxes(txs.clone());
            let transport = Transport::new(pid, link, base, clocks.clone(), &delays);
            let mut node = WallNode::new(NodeCore::new(pid, n, actor), transport);
            let (in_flight, done_tx) = (&in_flight, done_tx.clone());
            scope.spawn(move || {
                let file = |node: &mut WallNode<_, _, _, ()>, input| match input {
                    Input::Invoke(op) => node.enqueue((), op),
                    Input::Deliver {
                        from,
                        first_id,
                        deliver_at,
                        msgs,
                    } => assert!(
                        node.hold(deliver_at, from, first_id, msgs),
                        "{pid} could not hold the batch {first_id:?} until {deliver_at}"
                    ),
                    Input::Stop(grace) => node.stop(grace),
                };
                let busy = || in_flight.iter().any(|f| f.load(Ordering::Acquire));
                // Clear the flag *before* announcing, so a follow-up
                // invocation never races it. A closed end means the
                // driver is gone; not an error here.
                let done = |(), resp, at| {
                    in_flight[pid.index()].store(false, Ordering::Release);
                    let _ = done_tx.send((pid, resp, at));
                };
                node.run(&rx, None, file, busy, done)
                    .expect("the thread link never fails a send");
            });
        }
        drop(done_tx);
        let _stop = StopOnDrop(&txs, grace);
        drive(driver, base, &done_rx, |pid, op| {
            in_flight[pid.index()].store(true, Ordering::Release);
            txs[pid.index()]
                .send(Input::Invoke(op))
                .expect("a worker exited with work left");
        })
    });
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::delay::{DelayBounds, UniformDelay};
    use crate::time::{SimDuration, SimTime};
    use crate::workload::{ClosedLoop, Script};

    /// `[d − u, d]` in µs ticks.
    fn bounds(d: u64, u: u64) -> DelayBounds {
        DelayBounds::new(SimDuration::from_ticks(d), SimDuration::from_ticks(u))
    }

    /// Runs `actors` with zero offsets, seeded uniform delays in
    /// `bounds` and `driver`.
    fn run<A>(
        actors: Vec<A>,
        bounds: DelayBounds,
        driver: &mut dyn Driver<A::Op, A::Resp>,
    ) -> History<A::Op, A::Resp>
    where
        A: Actor + Send,
        A::Msg: Send,
        A::Op: Send,
        A::Resp: Send,
        A::Timer: Send,
    {
        let clocks = ClockAssignment::zero(actors.len());
        run_history(actors, clocks, UniformDelay::new(bounds, 7), driver).unwrap()
    }

    /// One invocation of `op` at process 0 at time zero.
    fn at_zero<O: Clone>(op: O) -> Script<O> {
        Script::new().at(ProcessId::new(0), SimTime::ZERO, op)
    }

    /// Each process forwards its op value to the next process and responds
    /// when the ring token returns.
    #[derive(Debug, Default)]
    struct Ring;

    impl Actor for Ring {
        type Msg = u32;
        type Op = u32;
        type Resp = u32;
        type Timer = ();

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            let next = ProcessId::new((ctx.pid().as_u32() + 1) % ctx.n() as u32);
            ctx.send(next, op);
        }

        fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Context<'_, Self>) {
            if ctx.pid() == ProcessId::new(0) {
                ctx.respond(msg);
            } else {
                let next = ProcessId::new((ctx.pid().as_u32() + 1) % ctx.n() as u32);
                ctx.send(next, msg);
            }
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    #[test]
    fn ring_completes_on_threads() {
        let history = run(vec![Ring, Ring, Ring], bounds(2000, 1000), &mut at_zero(42));
        assert!(history.is_complete());
        assert_eq!(history.records()[0].resp(), Some(&42));
        // Three hops of ≥ 1 ms each.
        assert!(history.records()[0].latency().unwrap().as_ticks() >= 3000);
    }

    /// On invoke, broadcast a `send_batch` to every peer; peers ack the
    /// whole batch with one message; the origin responds once every
    /// peer has acked.
    #[derive(Debug, Default)]
    struct BatchFlood {
        acks: u32,
    }

    impl Actor for BatchFlood {
        type Msg = i64; // −1 = batch ack, anything else = payload
        type Op = u32; // batch size
        type Resp = u32; // acks received
        type Timer = ();

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            for p in 0..ctx.n() as u32 {
                let p = ProcessId::new(p);
                if p != ctx.pid() {
                    ctx.send_batch(p, (0..i64::from(op)).collect());
                }
            }
        }

        fn on_message(&mut self, _from: ProcessId, msg: i64, ctx: &mut Context<'_, Self>) {
            if msg == -1 {
                self.acks += 1;
                if self.acks == ctx.n() as u32 - 1 {
                    ctx.respond(self.acks);
                }
            }
        }

        fn on_message_batch(
            &mut self,
            from: ProcessId,
            msgs: Vec<i64>,
            ctx: &mut Context<'_, Self>,
        ) {
            // A single send arrives as a batch of one: the ack.
            match msgs[..] {
                [-1] => self.on_message(from, -1, ctx),
                _ => ctx.send(from, -1),
            }
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    /// Regression: the run must not end while batches (and the acks
    /// they trigger) are still in flight. A worker holds its deliveries
    /// until they are due and exits only once drained while no operation
    /// is pending anywhere, so the flooded run completes.
    #[test]
    fn shutdown_drains_in_flight_batches() {
        let actors = vec![
            BatchFlood::default(),
            BatchFlood::default(),
            BatchFlood::default(),
        ];
        let history = run(actors, bounds(2000, 1000), &mut at_zero(64));
        assert!(
            history.is_complete(),
            "teardown dropped in-flight batches: {history:?}"
        );
        assert_eq!(history.records()[0].resp(), Some(&2));
    }

    /// On invoke, sends `op` single messages to the other process inside
    /// the one activation and responds; each delivery is counted.
    #[derive(Debug, Default)]
    struct Flood {
        got: u32,
    }

    impl Actor for Flood {
        type Msg = ();
        type Op = u32;
        type Resp = ();
        type Timer = ();

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            let other = ProcessId::new(1 - ctx.pid().as_u32());
            for _ in 0..op {
                ctx.send(other, ());
            }
            ctx.respond(());
        }
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {
            self.got += 1;
        }
        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    /// Two workers each send 4096 single messages to the other inside
    /// one activation and the run completes: inboxes are unbounded, so
    /// neither blocks on the other's full inbox.
    #[test]
    fn two_workers_flooding_each_other_complete() {
        let mut script = at_zero(4096).at(ProcessId::new(1), SimTime::ZERO, 4096);
        let history = run(
            vec![Flood::default(), Flood::default()],
            bounds(1000, 500),
            &mut script,
        );
        assert!(history.is_complete());
        assert_eq!(history.len(), 2);
    }

    /// Timer-driven response with injected delay bounds honoured.
    #[derive(Debug, Default)]
    struct TimerEcho;

    impl Actor for TimerEcho {
        type Msg = ();
        type Op = u32;
        type Resp = u32;
        type Timer = u32;

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(1000), op);
        }
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
        fn on_timer(&mut self, t: u32, ctx: &mut Context<'_, Self>) {
            ctx.respond(t + 1);
        }
    }

    #[test]
    fn timers_fire_on_threads() {
        // Generous spacing: under full-suite parallel load the OS may
        // delay the first timer by many milliseconds.
        let mut script = at_zero(1).at(ProcessId::new(0), SimTime::from_ticks(250_000), 2);
        let history = run(vec![TimerEcho], bounds(1000, 500), &mut script);
        assert!(history.is_complete());
        assert_eq!(history.records()[0].resp(), Some(&2));
        assert_eq!(history.records()[1].resp(), Some(&3));
        // The timer wait is 1 ms; latency must be at least that.
        assert!(history.records()[0].latency().unwrap().as_ticks() >= 1000);
    }

    /// A second invocation at a process whose first is still in flight
    /// is rejected; invocations at another process at the same instant,
    /// and at the same process once it has responded, are not.
    #[test]
    fn overlapping_async_invocations_rejected() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        // Both due at time zero: the driver loop issues them in one pass,
        // before any completion can be filed, so the overlap is certain.
        let mut overlapping = at_zero(1).at(p0, SimTime::ZERO, 2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(
                vec![TimerEcho, TimerEcho],
                bounds(1000, 500),
                &mut overlapping,
            )
        }));
        let payload = outcome.expect_err("overlapping invocations at p0 must be rejected");
        let message = payload
            .downcast_ref::<String>()
            .expect("the panic carries a message");
        assert!(
            message.contains("another operation is pending"),
            "{message}"
        );
        // A different process is unaffected, and p0 accepts new work
        // once its first operation has responded.
        let mut disjoint =
            at_zero(1)
                .at(p1, SimTime::ZERO, 3)
                .at(p0, SimTime::from_ticks(250_000), 4);
        let history = run(vec![TimerEcho, TimerEcho], bounds(1000, 500), &mut disjoint);
        assert!(history.is_complete());
        assert_eq!(history.len(), 3);
    }

    #[test]
    #[should_panic(expected = "another operation is pending")]
    fn overlapping_invoke_async_panics() {
        let mut script = at_zero(1).at(ProcessId::new(0), SimTime::ZERO, 2);
        run(vec![TimerEcho], bounds(1000, 500), &mut script);
    }

    /// Arms a long timer and responds immediately, leaving the timer
    /// pending at shutdown.
    #[derive(Debug, Default)]
    struct SlowTimer {
        fired: bool,
    }

    impl Actor for SlowTimer {
        type Msg = ();
        type Op = ();
        type Resp = ();
        type Timer = ();

        fn on_invoke(&mut self, _op: (), ctx: &mut Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(20_000), ()); // 20 ms
            ctx.respond(());
        }
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {
            self.fired = true;
        }
    }

    /// A run with a timer still pending must drain it — a worker only
    /// exits once its agenda is empty, so the runtime neither hangs nor
    /// drops armed timers on the floor.
    #[test]
    fn shutdown_drains_pending_timers() {
        let history = run(
            vec![SlowTimer::default()],
            bounds(1000, 500),
            &mut at_zero(()),
        );
        assert!(history.is_complete());
        assert_eq!(history.len(), 1);
    }

    /// The drain must actually *wait* for the pending timer, not discard
    /// it: the op responds at once, yet the run cannot end before the
    /// 20 ms timer armed at its invocation has fired.
    #[test]
    fn shutdown_waits_for_pending_timers_to_fire() {
        let before = Instant::now();
        let history = run(
            vec![SlowTimer::default()],
            bounds(1000, 500),
            &mut at_zero(()),
        );
        assert!(
            before.elapsed() >= Duration::from_millis(20),
            "the run ended before the pending timer could have fired"
        );
        assert!(history.is_complete());
    }

    /// A driver-run closed loop on the rt backend: every process issues
    /// its quota sequentially and the history completes.
    #[test]
    fn run_driver_executes_a_closed_loop() {
        let mut driver = ClosedLoop::new(
            vec![ProcessId::new(0), ProcessId::new(1)],
            3,
            42,
            |pid, idx, _rng| pid.as_u32() * 100 + u32::try_from(idx).unwrap(),
        );
        let history = run(vec![TimerEcho, TimerEcho], bounds(1000, 500), &mut driver);
        assert!(history.is_complete());
        assert_eq!(history.len(), 6);
        // Per process, ops are issued in index order (closed loop).
        for pid in [ProcessId::new(0), ProcessId::new(1)] {
            let ops: Vec<u32> = history
                .records()
                .iter()
                .filter(|r| r.pid == pid)
                .map(|r| r.op)
                .collect();
            let base = pid.as_u32() * 100;
            assert_eq!(ops, vec![base, base + 1, base + 2]);
        }
    }
}
