//! The runtime-agnostic node core shared by both runtimes.
//!
//! Chapter III's model is one actor state machine per process; this
//! module is the one place that executes it. A [`NodeCore`] owns the
//! per-process runtime state — the actor, its [`TimerSlab`] and the
//! at-most-one-pending-operation bookkeeping — and, for every
//! activation (invoke, message delivery, timer expiry, start-of-run),
//! performs in a fixed order:
//!
//! 1. invariant enforcement (one pending operation per process, stale
//!    timer filtering via slab generations);
//! 2. structured trace emission ([`TraceEventKind`]) stamped with the
//!    activation's real time and local clock reading;
//! 3. the actor handler itself, through a [`Context`];
//! 4. draining the resulting effects: sends and timers go to the
//!    pluggable [`Transport`], cancels retire slab generations,
//!    responses are committed to the [`History`].
//!
//! The discrete-event engine ([`crate::engine`]) wraps a `NodeCore` per
//! process around a virtual-time heap transport; the real-thread
//! runtime ([`crate::rt`]) and the socket mesh wrap one in the
//! wall-clock [`WallNode`](crate::deadline::WallNode). Neither
//! re-implements any of the four steps above, so the backends cannot
//! drift in effect application, invariants,
//! timer lifecycle or trace schema.

use core::fmt;

use crate::actor::{Actor, Context, Effects};
use crate::history::History;
use crate::ids::{MsgId, OpId, ProcessId, TimerId};
use crate::time::{ClockTime, SimTime};
use crate::timers::TimerSlab;
use crate::trace::{TraceEvent, TraceEventKind};
use crate::transport::{Transport, TransportError};

/// The time stamp of one activation: the real time at which it happens
/// and the local clock reading of the process at that instant.
///
/// The engine computes it from virtual time and the
/// [`ClockAssignment`](crate::clock::ClockAssignment); the real-thread
/// runtime from the wall clock and the worker's offset. Local
/// processing takes zero time, so every effect of one activation
/// carries the same stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Real time of the activation.
    pub now: SimTime,
    /// The process's local clock reading at `now`.
    pub clock: ClockTime,
}

/// What one activation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// The event was stale (a timer expiry whose generation was retired
    /// by a cancel) — no handler ran, no effects were applied.
    Stale,
    /// The handler ran; no operation completed.
    Ran,
    /// The handler ran and completed the process's pending operation.
    /// The response is already committed to the history under this id.
    Completed(OpId),
}

/// A consumer of the structured trace events a node emits.
///
/// The two runtimes store their sinks differently (the engine holds an
/// optional recorder plus an optional boxed sink; the real-thread
/// runtime a mutex-shared sink); this small trait lets [`NodeCore`]
/// emit through either without caring. `active` gates payload
/// rendering: when it returns `false` the node builds no event (and no
/// `Debug` strings), keeping the disabled path allocation-free.
pub trait TraceOutput {
    /// `true` when some consumer is attached and events should be built.
    fn active(&self) -> bool;

    /// Receives one stamped event. Only called when [`TraceOutput::active`]
    /// returned `true` in the same activation.
    fn emit(&mut self, event: TraceEvent);
}

/// A trace output with nothing attached; `active` is always `false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl TraceOutput for NoTrace {
    fn active(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: TraceEvent) {}
}

/// Where a node commits history records.
///
/// The engine owns its [`History`] directly; the real-thread runtime
/// shares one behind an `Arc<Mutex<_>>` and locks per record. Both
/// paths go through this trait so invocation and response recording —
/// and the invariants `History` asserts — live in [`NodeCore`] only.
pub trait HistorySink<A: Actor> {
    /// Appends an invocation and returns its id.
    fn record_invoke(&mut self, pid: ProcessId, op: A::Op, at: SimTime) -> OpId;

    /// Records the response of operation `id`.
    fn record_response(&mut self, id: OpId, resp: A::Resp, at: SimTime);
}

impl<A: Actor> HistorySink<A> for History<A::Op, A::Resp> {
    fn record_invoke(&mut self, pid: ProcessId, op: A::Op, at: SimTime) -> OpId {
        History::record_invoke(self, pid, op, at)
    }

    fn record_response(&mut self, id: OpId, resp: A::Resp, at: SimTime) {
        History::record_response(self, id, resp, at);
    }
}

/// One process of the system: the actor plus the per-process runtime
/// state both backends need.
///
/// See the [module docs](self) for the activation pipeline. A
/// `NodeCore` is driven by a scheduler (virtual-time or real-thread)
/// that decides *when* each activation happens; the core decides *what*
/// an activation does.
pub struct NodeCore<A: Actor> {
    pid: ProcessId,
    n: usize,
    actor: A,
    /// Timer liveness: generation-stamped ids, O(1) integer compares
    /// (see [`crate::timers`]). One slab per node — ids are only ever
    /// cancelled by the process that set them.
    timers: TimerSlab,
    /// The at-most-one-pending-operation invariant of Chapter III §A.
    pending_op: Option<OpId>,
    /// Reused effect buffer: every activation borrows it, fills it and
    /// hands it back drained, so steady-state activations allocate
    /// nothing for their effects.
    scratch: Effects<A>,
}

impl<A: Actor> fmt::Debug for NodeCore<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeCore")
            .field("pid", &self.pid)
            .field("pending_op", &self.pending_op)
            .field("pending_timers", &self.timers.pending())
            .finish_non_exhaustive()
    }
}

impl<A: Actor> NodeCore<A> {
    /// Wraps `actor` as process `pid` of an `n`-process system.
    #[must_use]
    pub fn new(pid: ProcessId, n: usize, actor: A) -> Self {
        NodeCore {
            pid,
            n,
            actor,
            timers: TimerSlab::with_capacity(2),
            pending_op: None,
            scratch: Effects::new(),
        }
    }

    /// This node's process id.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Immutable access to the actor state.
    #[must_use]
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// Consumes the node, returning the actor state.
    #[must_use]
    pub fn into_actor(self) -> A {
        self.actor
    }

    /// The node's timer slab — schedulers use this to filter stale
    /// expiry events without retiring live ids.
    #[must_use]
    pub fn timers(&self) -> &TimerSlab {
        &self.timers
    }

    /// The pending operation, if one is in flight at this process.
    #[must_use]
    pub fn pending_op(&self) -> Option<OpId> {
        self.pending_op
    }

    /// Runs the start-of-run hook ([`Actor::on_start`]).
    pub fn on_start<T, TO, H>(
        &mut self,
        stamp: Stamp,
        transport: &mut T,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Activation, TransportError>
    where
        T: Transport<A>,
        TO: TraceOutput,
        H: HistorySink<A>,
    {
        let effects = self.run(stamp.clock, |actor, ctx| actor.on_start(ctx));
        self.apply_effects(stamp, effects, transport, trace, history)
    }

    /// Runs an operation invocation, recording it in the history.
    ///
    /// This is the engine path, where the invocation is recorded at the
    /// instant the scheduler dispatches it. The real-thread runtime
    /// records invocations at the client call site (to capture the real
    /// invocation time, not the worker dequeue time) and uses
    /// [`NodeCore::on_invoke_recorded`] instead.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already pending at this process.
    pub fn on_invoke<T, TO, H>(
        &mut self,
        stamp: Stamp,
        op: A::Op,
        transport: &mut T,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Activation, TransportError>
    where
        T: Transport<A>,
        TO: TraceOutput,
        H: HistorySink<A>,
    {
        self.assert_no_pending();
        if trace.active() {
            self.emit(
                trace,
                stamp,
                TraceEventKind::Invoke {
                    op: format!("{op:?}"),
                },
            );
        }
        let op_id = history.record_invoke(self.pid, op.clone(), stamp.now);
        self.pending_op = Some(op_id);
        let effects = self.run(stamp.clock, |actor, ctx| actor.on_invoke(op, ctx));
        self.apply_effects(stamp, effects, transport, trace, history)
    }

    /// Runs an operation invocation that was already recorded in the
    /// history as `op_id` (the real-thread client path).
    ///
    /// # Panics
    ///
    /// Panics if an operation is already pending at this process.
    pub fn on_invoke_recorded<T, TO, H>(
        &mut self,
        stamp: Stamp,
        op_id: OpId,
        op: A::Op,
        transport: &mut T,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Activation, TransportError>
    where
        T: Transport<A>,
        TO: TraceOutput,
        H: HistorySink<A>,
    {
        self.assert_no_pending();
        if trace.active() {
            self.emit(
                trace,
                stamp,
                TraceEventKind::Invoke {
                    op: format!("{op:?}"),
                },
            );
        }
        self.pending_op = Some(op_id);
        let effects = self.run(stamp.clock, |actor, ctx| actor.on_invoke(op, ctx));
        self.apply_effects(stamp, effects, transport, trace, history)
    }

    /// Delivers message `msg_id` from `from`.
    #[allow(clippy::too_many_arguments)] // one parameter per activation ingredient
    pub fn on_message<T, TO, H>(
        &mut self,
        stamp: Stamp,
        from: ProcessId,
        msg_id: MsgId,
        msg: A::Msg,
        transport: &mut T,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Activation, TransportError>
    where
        T: Transport<A>,
        TO: TraceOutput,
        H: HistorySink<A>,
    {
        if trace.active() {
            self.emit(trace, stamp, TraceEventKind::Recv { from, msg: msg_id });
        }
        let effects = self.run(stamp.clock, |actor, ctx| actor.on_message(from, msg, ctx));
        self.apply_effects(stamp, effects, transport, trace, history)
    }

    /// Delivers a batch of messages from `from` as one activation. The
    /// messages carry the consecutive ids `first_id..first_id + k`;
    /// one `Recv` trace event is emitted per message so per-message
    /// send/deliver pairing survives batching.
    #[allow(clippy::too_many_arguments)] // one parameter per activation ingredient
    pub fn on_message_batch<T, TO, H>(
        &mut self,
        stamp: Stamp,
        from: ProcessId,
        first_id: MsgId,
        msgs: Vec<A::Msg>,
        transport: &mut T,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Activation, TransportError>
    where
        T: Transport<A>,
        TO: TraceOutput,
        H: HistorySink<A>,
    {
        if trace.active() {
            for i in 0..msgs.len() {
                self.emit(
                    trace,
                    stamp,
                    TraceEventKind::Recv {
                        from,
                        msg: MsgId::new(first_id.as_u64() + i as u64),
                    },
                );
            }
        }
        let effects = self.run(stamp.clock, |actor, ctx| {
            actor.on_message_batch(from, msgs, ctx);
        });
        self.apply_effects(stamp, effects, transport, trace, history)
    }

    /// Fires timer `id`, or returns [`Activation::Stale`] without
    /// running anything if the id's generation was retired by a cancel
    /// after the expiry event was queued.
    pub fn on_timer<T, TO, H>(
        &mut self,
        stamp: Stamp,
        id: TimerId,
        timer: A::Timer,
        transport: &mut T,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Activation, TransportError>
    where
        T: Transport<A>,
        TO: TraceOutput,
        H: HistorySink<A>,
    {
        if !self.timers.fire(id) {
            return Ok(Activation::Stale);
        }
        if trace.active() {
            self.emit(
                trace,
                stamp,
                TraceEventKind::Timer {
                    id,
                    tag: format!("{timer:?}"),
                },
            );
        }
        let effects = self.run(stamp.clock, |actor, ctx| actor.on_timer(timer, ctx));
        self.apply_effects(stamp, effects, transport, trace, history)
    }

    fn assert_no_pending(&self) {
        assert!(
            self.pending_op.is_none(),
            "{}: invocation while another operation is pending \
             (the application layer allows one pending operation per process)",
            self.pid
        );
    }

    fn emit<TO: TraceOutput>(&self, trace: &mut TO, stamp: Stamp, kind: TraceEventKind) {
        trace.emit(TraceEvent {
            at: stamp.now,
            clock: stamp.clock,
            pid: self.pid,
            kind,
        });
    }

    /// Runs one handler against the reusable scratch [`Effects`] buffer
    /// and returns it filled. The caller must hand it back (drained)
    /// via [`NodeCore::apply_effects`], which restores the buffers.
    fn run<F>(&mut self, clock: ClockTime, f: F) -> Effects<A>
    where
        F: FnOnce(&mut A, &mut Context<'_, A>),
    {
        let mut effects = core::mem::take(&mut self.scratch);
        effects.clear();
        {
            let mut ctx = Context::new(self.pid, self.n, clock, &mut self.timers, &mut effects);
            f(&mut self.actor, &mut ctx);
        }
        effects
    }

    /// Drains one activation's effects in the model's fixed order:
    /// sends, timer arms, timer cancels, then the response — then puts
    /// the emptied buffer back as scratch for the next activation.
    ///
    /// On the first transport failure the remaining effects of the
    /// activation are discarded (a partially applied activation cannot
    /// be meaningfully resumed) and the error propagates to the
    /// scheduler. In-process transports never fail, so both in-process
    /// backends take the infallible path bit-for-bit.
    fn apply_effects<T, TO, H>(
        &mut self,
        stamp: Stamp,
        mut effects: Effects<A>,
        transport: &mut T,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Activation, TransportError>
    where
        T: Transport<A>,
        TO: TraceOutput,
        H: HistorySink<A>,
    {
        let out = self.drain_effects(stamp, &mut effects, transport, trace, history);
        // On success every buffer is already drained; on failure this
        // discards whatever the early return left behind. Either way the
        // buffer goes back as scratch.
        effects.clear();
        self.scratch = effects;
        out
    }

    fn drain_effects<T, TO, H>(
        &mut self,
        stamp: Stamp,
        effects: &mut Effects<A>,
        transport: &mut T,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Activation, TransportError>
    where
        T: Transport<A>,
        TO: TraceOutput,
        H: HistorySink<A>,
    {
        for (to, msg) in effects.sends.drain(..) {
            if trace.active() {
                let payload = format!("{msg:?}");
                let id = transport.send(self.pid, to, msg)?;
                self.emit(
                    trace,
                    stamp,
                    TraceEventKind::Send {
                        to,
                        msg: id,
                        payload,
                    },
                );
            } else {
                transport.send(self.pid, to, msg)?;
            }
        }

        for (to, msgs) in effects.batches.drain(..) {
            if trace.active() {
                // One Send trace event per message; ids are consecutive
                // from the batch's first id.
                let payloads: Vec<String> = msgs.iter().map(|m| format!("{m:?}")).collect();
                let first = transport.send_batch(self.pid, to, msgs)?;
                for (i, payload) in payloads.into_iter().enumerate() {
                    self.emit(
                        trace,
                        stamp,
                        TraceEventKind::Send {
                            to,
                            msg: MsgId::new(first.as_u64() + i as u64),
                            payload,
                        },
                    );
                }
            } else {
                transport.send_batch(self.pid, to, msgs)?;
            }
        }

        for (id, delay, timer) in effects.timers.drain(..) {
            // The id is already live in the slab (allocated by
            // `Context::set_timer`); the transport only schedules the
            // expiry.
            if trace.active() {
                self.emit(
                    trace,
                    stamp,
                    TraceEventKind::TimerSet {
                        id,
                        tag: format!("{timer:?}"),
                        delay,
                    },
                );
            }
            transport.set_timer(self.pid, id, delay, timer);
        }

        for id in effects.cancels.drain(..) {
            if self.timers.cancel(id) {
                transport.cancel_timer(self.pid, id);
                if trace.active() {
                    self.emit(trace, stamp, TraceEventKind::TimerCancel { id });
                }
            }
        }

        if let Some(resp) = effects.response.take() {
            let op_id = self
                .pending_op
                .take()
                .unwrap_or_else(|| panic!("{}: response with no pending operation", self.pid));
            if trace.active() {
                self.emit(
                    trace,
                    stamp,
                    TraceEventKind::Respond {
                        resp: format!("{resp:?}"),
                    },
                );
            }
            history.record_response(op_id, resp, stamp.now);
            Ok(Activation::Completed(op_id))
        } else {
            Ok(Activation::Ran)
        }
    }
}
