//! The deterministic discrete-event scheduler.
//!
//! This module is one of the two backends over the shared
//! [`NodeCore`]: it decides *when* each process
//! activates, while the node core decides *what* an activation does
//! (handler dispatch, effect draining, the one-pending-op invariant,
//! timer generations, trace emission, history recording — see
//! [`crate::node`]). The engine's own job is reduced to a virtual-time
//! event queue: a private `VirtualTransport` implementing
//! [`Transport`](crate::transport::Transport) assigns every send a
//! delay from the [`DelayModel`] and pops deliveries, timer expiries
//! and invocations back in deterministic `(time, seq)` order. The
//! queue is a calendar queue ([`crate::equeue`]) carrying `Copy` tags;
//! payloads live in generation-stamped slabs ([`crate::slab`]) whose
//! slots recycle, so steady-state scheduling allocates nothing.
//!
//! Identical inputs (actors, clocks, delay model, schedule, driver)
//! always produce identical runs: events at equal real times are
//! processed in schedule order, and all randomness lives in seeded
//! delay models and workloads.
//!
//! The engine enforces the model of Chapter III:
//!
//! * at most one pending operation per process (via the node core);
//! * every message delay within `[d − u, d]` (the bounds are validated
//!   at construction; each send is spot-checked in debug builds);
//! * local processing takes zero time;
//! * clocks are fixed offsets from real time.
//!
//! The real-thread counterpart is [`crate::rt`], which drives the same
//! node core from OS threads, each holding its deliveries until due.

use crate::actor::Actor;
use crate::clock::ClockAssignment;
use crate::delay::DelayModel;
use crate::history::History;
use crate::ids::{MsgId, ProcessId, TimerId};
use crate::node::{Activation, NodeCore, Stamp};
use crate::time::{SimDuration, SimTime};
use crate::trace::{EngineTrace, Trace, TraceSink};
use crate::transport::{EvSlot, EvTag, TransportError, VirtualTransport};
use crate::workload::Driver;

/// Engine limits and switches.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Abort the run after this many processed events (guards against
    /// actors that set timers forever).
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_events: 10_000_000,
        }
    }
}

/// Errors surfaced by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event cap was reached before quiescence.
    EventCapExceeded {
        /// The configured cap.
        cap: u64,
    },
    /// A [`SchedulePolicy`] abandoned the run
    /// ([`ScheduleDecision::Abort`]) — e.g. a model-checking explorer
    /// proved the remaining branch redundant.
    PolicyAbort,
    /// The transport refused a send. Never produced by the in-process
    /// backends (their queues are infallible); byte-oriented backends
    /// surface peer/codec failures here.
    Transport(TransportError),
}

impl From<TransportError> for SimError {
    fn from(e: TransportError) -> Self {
        SimError::Transport(e)
    }
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::EventCapExceeded { cap } => {
                write!(f, "event cap of {cap} events exceeded before quiescence")
            }
            SimError::PolicyAbort => write!(f, "the schedule policy abandoned the run"),
            SimError::Transport(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of a finished run: everything in it is a function of the
/// scenario, so two runs of the same scenario compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimReport {
    /// Number of events processed.
    pub events: u64,
    /// Real time of the last processed event.
    pub end_time: SimTime,
    /// Payload-arena slots (invoke / message / batch / timer) still live
    /// when the run loop returned. Every pop takes its payload out of
    /// the owning slab — stale timers included — so a quiescent run must
    /// report zero; anything else means a payload leaked (also asserted
    /// in debug builds at end of run).
    pub leaked_payloads: u64,
}

/// Metadata of one message transmission (payload omitted).
///
/// This is the raw material from which the `shift` crate reconstructs
/// runs-as-data for admissibility checking and chopping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgEvent {
    /// Run-unique message id.
    pub id: MsgId,
    /// Sender.
    pub from: ProcessId,
    /// Recipient.
    pub to: ProcessId,
    /// Real send time.
    pub sent_at: SimTime,
    /// Assigned delay.
    pub delay: SimDuration,
    /// Real delivery time (`sent_at + delay`).
    pub recv_at: SimTime,
}

pub(crate) enum EventKind<A: Actor> {
    Invoke {
        op: A::Op,
    },
    Deliver {
        from: ProcessId,
        msg: A::Msg,
        msg_id: MsgId,
    },
    DeliverBatch {
        from: ProcessId,
        first_id: MsgId,
        msgs: Vec<A::Msg>,
    },
    Timer {
        id: TimerId,
        timer: A::Timer,
    },
}

/// Read-only view of one schedulable event, as presented to a
/// [`SchedulePolicy`] by [`Simulation::run_scheduled_with`].
///
/// The `seq` field is the engine's internal scheduling sequence number:
/// it identifies the *same* event across deterministic replays of the
/// same choice prefix (the basis for sleep-set bookkeeping in explorers).
pub enum EventView<'a, A: Actor> {
    /// An operation invocation at `pid`.
    Invoke {
        /// Stable event identity within a deterministic replay.
        seq: u64,
        /// The invoked process.
        pid: ProcessId,
        /// The operation being invoked.
        op: &'a A::Op,
    },
    /// Delivery of a message at `pid`.
    Deliver {
        /// Stable event identity within a deterministic replay.
        seq: u64,
        /// The receiving process.
        pid: ProcessId,
        /// The sender.
        from: ProcessId,
        /// The run-unique message id.
        msg_id: MsgId,
        /// The payload.
        msg: &'a A::Msg,
    },
    /// Delivery of a coalesced message batch at `pid`
    /// (see [`Transport::send_batch`](crate::transport::Transport::send_batch)).
    DeliverBatch {
        /// Stable event identity within a deterministic replay.
        seq: u64,
        /// The receiving process.
        pid: ProcessId,
        /// The sender.
        from: ProcessId,
        /// Id of the first message; the batch spans
        /// `first_id..first_id + msgs.len()`.
        first_id: MsgId,
        /// The payloads, in send order.
        msgs: &'a [A::Msg],
    },
    /// A live timer expiry at `pid` (stale expiries are filtered out
    /// before the policy sees the batch).
    Timer {
        /// Stable event identity within a deterministic replay.
        seq: u64,
        /// The process whose timer fires.
        pid: ProcessId,
    },
}

impl<A: Actor> EventView<'_, A> {
    /// The engine's scheduling sequence number — stable event identity
    /// across deterministic replays of the same prefix.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match self {
            EventView::Invoke { seq, .. }
            | EventView::Deliver { seq, .. }
            | EventView::DeliverBatch { seq, .. }
            | EventView::Timer { seq, .. } => *seq,
        }
    }

    /// The process at which the event takes place.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        match self {
            EventView::Invoke { pid, .. }
            | EventView::Deliver { pid, .. }
            | EventView::DeliverBatch { pid, .. }
            | EventView::Timer { pid, .. } => *pid,
        }
    }
}

impl<A: Actor> core::fmt::Debug for EventView<'_, A> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EventView::Invoke { seq, pid, op } => f
                .debug_struct("Invoke")
                .field("seq", seq)
                .field("pid", pid)
                .field("op", op)
                .finish(),
            EventView::Deliver {
                seq,
                pid,
                from,
                msg_id,
                msg,
            } => f
                .debug_struct("Deliver")
                .field("seq", seq)
                .field("pid", pid)
                .field("from", from)
                .field("msg_id", msg_id)
                .field("msg", msg)
                .finish(),
            EventView::DeliverBatch {
                seq,
                pid,
                from,
                first_id,
                msgs,
            } => f
                .debug_struct("DeliverBatch")
                .field("seq", seq)
                .field("pid", pid)
                .field("from", from)
                .field("first_id", first_id)
                .field("len", &msgs.len())
                .finish(),
            EventView::Timer { seq, pid } => f
                .debug_struct("Timer")
                .field("seq", seq)
                .field("pid", pid)
                .finish(),
        }
    }
}

/// Verdict of a [`SchedulePolicy`] on one batch of same-time events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleDecision {
    /// Process `enabled[i]` next; the rest stay queued.
    Take(usize),
    /// Abandon the whole run; [`Simulation::run_scheduled_with`] returns
    /// [`SimError::PolicyAbort`].
    Abort,
}

/// Chooses which of the events enabled at the current instant runs next.
///
/// [`Simulation::run_scheduled_with`] consults the policy with the batch
/// of *all* queued events sharing the minimal real time, in the engine's
/// default (FIFO schedule) order — index 0 reproduces the default run.
/// This is the replayable hook model-checking explorers drive: choices
/// are deterministic functions of the prefix, so identical choice
/// sequences replay identical runs.
pub trait SchedulePolicy<A: Actor> {
    /// Picks the next event from `enabled` (never empty). Called for
    /// every batch, including singletons, so policies can maintain
    /// bookkeeping over the full event sequence.
    fn choose(&mut self, now: SimTime, enabled: &[EventView<'_, A>]) -> ScheduleDecision;
}

/// The engine's own deterministic order: always take the first enabled
/// event. `run_scheduled_with(&mut FifoPolicy, …)` reproduces `run_with`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoPolicy;

impl<A: Actor> SchedulePolicy<A> for FifoPolicy {
    fn choose(&mut self, _now: SimTime, _enabled: &[EventView<'_, A>]) -> ScheduleDecision {
        ScheduleDecision::Take(0)
    }
}

/// A discrete-event simulation of `n` processes running actor `A` over
/// delay model `D`.
///
/// # Examples
///
/// A one-process echo system:
///
/// ```
/// use skewbound_sim::prelude::*;
///
/// #[derive(Debug)]
/// struct Echo;
/// impl Actor for Echo {
///     type Msg = ();
///     type Op = u32;
///     type Resp = u32;
///     type Timer = ();
///     fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
///         ctx.respond(op + 1);
///     }
///     fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
///     fn on_timer(&mut self, _: (), _: &mut Context<'_, Self>) {}
/// }
///
/// let bounds = DelayBounds::new(SimDuration::from_ticks(10), SimDuration::from_ticks(2));
/// let mut sim = Simulation::new(
///     vec![Echo],
///     ClockAssignment::zero(1),
///     FixedDelay::maximal(bounds),
/// );
/// sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, 41);
/// sim.run().unwrap();
/// assert_eq!(sim.history().records()[0].resp(), Some(&42));
/// ```
pub struct Simulation<A: Actor, D: DelayModel> {
    nodes: Vec<NodeCore<A>>,
    transport: VirtualTransport<A, D>,
    config: SimConfig,
    started: bool,
    history: History<A::Op, A::Resp>,
    trace: EngineTrace,
}

impl<A: Actor, D: DelayModel> core::fmt::Debug for Simulation<A, D> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.nodes.len())
            .field("now", &self.transport.now)
            .field("queued_events", &self.transport.queue.len())
            .field("ops_recorded", &self.history.len())
            .finish_non_exhaustive()
    }
}

impl<A: Actor, D: DelayModel> Simulation<A, D> {
    /// Creates a simulation. `actors[i]` runs as process `p_i`.
    ///
    /// # Panics
    ///
    /// Panics if `actors` is empty or its length differs from the clock
    /// assignment's.
    #[must_use]
    pub fn new(actors: Vec<A>, clocks: ClockAssignment, delays: D) -> Self {
        assert!(!actors.is_empty(), "at least one process required");
        assert_eq!(
            actors.len(),
            clocks.len(),
            "clock assignment must cover every process"
        );
        let n = actors.len();
        Simulation {
            nodes: actors
                .into_iter()
                .enumerate()
                .map(|(i, actor)| {
                    NodeCore::new(
                        ProcessId::new(u32::try_from(i).expect("pid fits u32")),
                        n,
                        actor,
                    )
                })
                .collect(),
            transport: VirtualTransport::new(clocks, delays, n),
            config: SimConfig::default(),
            started: false,
            history: History::new(),
            trace: EngineTrace::default(),
        }
    }

    /// Turns on structured event tracing (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        if self.trace.recorder.is_none() {
            self.trace.recorder = Some(Trace::new());
        }
    }

    /// The recorded trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.recorder.as_ref()
    }

    /// Attaches an external [`TraceSink`]; every subsequent engine event
    /// (invoke, send, deliver, timer-set, timer-fire, respond) is emitted
    /// to it, stamped with real time, local clock reading and process id.
    /// Replaces any previously attached sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace.sink = Some(sink);
    }

    /// Detaches and returns the attached [`TraceSink`], if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.sink.take()
    }

    /// Detaches and returns the recorded trace by move, if tracing was
    /// enabled. Subsequent events are no longer recorded (the attached
    /// sink, if any, still receives them).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.recorder.take()
    }

    /// Replaces the engine configuration.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The clock assignment in force.
    #[must_use]
    pub fn clocks(&self) -> &ClockAssignment {
        &self.transport.clocks
    }

    /// Immutable access to the actor running as `pid`.
    #[must_use]
    pub fn actor(&self, pid: ProcessId) -> &A {
        self.nodes[pid.index()].actor()
    }

    /// The history recorded so far.
    #[must_use]
    pub fn history(&self) -> &History<A::Op, A::Resp> {
        &self.history
    }

    /// Consumes the simulation, returning the history by move — the
    /// allocation-free way to keep a finished run's history (grids run
    /// millions of short simulations; cloning the history out was the
    /// largest allocation on that path).
    #[must_use]
    pub fn into_history(self) -> History<A::Op, A::Resp> {
        self.history
    }

    /// Consumes the simulation, returning the history, the final actor
    /// states, and the message log (empty unless
    /// [`Simulation::enable_msg_log`] was called before running) —
    /// everything a checker needs, all by move.
    #[must_use]
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (History<A::Op, A::Resp>, Vec<A>, Vec<MsgEvent>) {
        (
            self.history,
            self.nodes.into_iter().map(NodeCore::into_actor).collect(),
            self.transport.msg_log,
        )
    }

    /// Turns on message-metadata logging: every subsequent send appends
    /// a [`MsgEvent`] to [`Simulation::message_log`]. Off by default —
    /// the log grows with every send, which run-reconstruction and
    /// checkers need but measurement sweeps should not pay for. Call
    /// before running; sends made while disabled are not logged.
    pub fn enable_msg_log(&mut self) {
        self.transport.enable_msg_log();
    }

    /// Metadata of every message sent while logging was enabled (see
    /// [`Simulation::enable_msg_log`]), in send order. Empty when
    /// logging was never enabled.
    #[must_use]
    pub fn message_log(&self) -> &[MsgEvent] {
        &self.transport.msg_log
    }

    /// The delay model — e.g. to inspect an enumerated model's state
    /// after a run (did the run stay within its assignment?).
    #[must_use]
    pub fn delays(&self) -> &D {
        &self.transport.delays
    }

    /// Current simulated real time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.transport.now
    }

    /// Schedules an operation invocation at process `pid` at real time
    /// `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past or `pid` is out of range.
    pub fn schedule_invoke(&mut self, pid: ProcessId, at: SimTime, op: A::Op) {
        assert!(pid.index() < self.n(), "{pid} out of range");
        assert!(
            at >= self.transport.now,
            "cannot schedule an invocation in the past"
        );
        self.transport.push_invoke(pid, at, op);
    }

    /// Runs to quiescence with no closed-loop driver.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventCapExceeded`] if the configured event cap
    /// is hit first.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        self.run_with(&mut crate::workload::NoDriver)
    }

    /// Runs to quiescence, consulting `driver` for closed-loop workloads:
    /// the driver's initial invocations are scheduled first, and each
    /// response may trigger a follow-up invocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventCapExceeded`] if the configured event cap
    /// is hit first.
    pub fn run_with<Dr>(&mut self, driver: &mut Dr) -> Result<SimReport, SimError>
    where
        Dr: Driver<A::Op, A::Resp> + ?Sized,
    {
        for (pid, at, op) in driver.initial() {
            self.schedule_invoke(pid, at, op);
        }
        self.start_nodes(driver)?;
        let mut events = 0u64;
        while let Some((at, _seq, tag)) = self.transport.queue.pop() {
            events += 1;
            if events > self.config.max_events {
                return Err(SimError::EventCapExceeded {
                    cap: self.config.max_events,
                });
            }
            self.dispatch_event(at, tag, driver)?;
        }
        self.emit_run_counters(events);
        Ok(self.finish_report(events))
    }

    /// Runs to quiescence under `policy`, which picks among same-time
    /// events. A convenience for [`Simulation::run_scheduled_with`] with
    /// no driver.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run_scheduled_with`].
    pub fn run_scheduled<P>(&mut self, policy: &mut P) -> Result<SimReport, SimError>
    where
        P: SchedulePolicy<A> + ?Sized,
    {
        self.run_scheduled_with(policy, &mut crate::workload::NoDriver)
    }

    /// Runs to quiescence, consulting `policy` for the order of same-time
    /// events — the replayable scheduler hook for model-checking
    /// explorers.
    ///
    /// At every step, *all* queued events sharing the minimal real time
    /// are collected into a batch (in the engine's deterministic FIFO
    /// order), stale timer expiries are dropped, and the policy picks one
    /// to process; the rest are re-queued unchanged. With [`FifoPolicy`]
    /// this path produces exactly the history [`Simulation::run_with`]
    /// does; the separate hot path in `run_with` exists because grid
    /// sweeps never pay for the batching.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventCapExceeded`] if the configured event cap
    /// is hit first, or [`SimError::PolicyAbort`] if the policy abandons
    /// the run.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns an out-of-range index.
    pub fn run_scheduled_with<P, Dr>(
        &mut self,
        policy: &mut P,
        driver: &mut Dr,
    ) -> Result<SimReport, SimError>
    where
        P: SchedulePolicy<A> + ?Sized,
        Dr: Driver<A::Op, A::Resp> + ?Sized,
    {
        for (pid, at, op) in driver.initial() {
            self.schedule_invoke(pid, at, op);
        }
        self.start_nodes(driver)?;
        let mut events = 0u64;
        let mut batch: Vec<(u64, EvTag)> = Vec::new();
        while let Some((at, seq, tag)) = self.transport.queue.pop() {
            batch.clear();
            batch.push((seq, tag));
            while self.transport.queue.next_at() == Some(at) {
                let (_, s, t) = self.transport.queue.pop().expect("peeked");
                batch.push((s, t));
            }
            // The queue pops in (at, seq) order, so the batch is already
            // in the engine's default FIFO order. Stale timer expiries
            // are not schedulable events — drop them (and free their
            // payload slots) before the policy looks.
            {
                let nodes = &self.nodes;
                let transport = &mut self.transport;
                batch.retain(|&(_, tag)| match tag.kind {
                    EvSlot::Timer => {
                        let id = transport.timer_payloads.get(tag.slot).0;
                        if nodes[tag.pid.index()].timers().is_live(id) {
                            true
                        } else {
                            let _ = transport.timer_payloads.take(tag.slot);
                            false
                        }
                    }
                    _ => true,
                });
            }
            if batch.is_empty() {
                continue;
            }
            let chosen = {
                let views: Vec<EventView<'_, A>> = batch
                    .iter()
                    .map(|&(seq, tag)| match tag.kind {
                        EvSlot::Invoke => EventView::Invoke {
                            seq,
                            pid: tag.pid,
                            op: self.transport.ops.get(tag.slot),
                        },
                        EvSlot::Deliver => {
                            let p = self.transport.msgs.get(tag.slot);
                            EventView::Deliver {
                                seq,
                                pid: tag.pid,
                                from: p.from,
                                msg_id: p.id,
                                msg: &p.msg,
                            }
                        }
                        EvSlot::DeliverBatch => {
                            let p = self.transport.batches.get(tag.slot);
                            EventView::DeliverBatch {
                                seq,
                                pid: tag.pid,
                                from: p.from,
                                first_id: p.first_id,
                                msgs: &p.msgs,
                            }
                        }
                        EvSlot::Timer => EventView::Timer { seq, pid: tag.pid },
                    })
                    .collect();
                match policy.choose(at, &views) {
                    ScheduleDecision::Take(i) => {
                        assert!(
                            i < batch.len(),
                            "schedule policy chose event {i} of {}",
                            batch.len()
                        );
                        i
                    }
                    ScheduleDecision::Abort => return Err(SimError::PolicyAbort),
                }
            };
            let (_, chosen_tag) = batch.remove(chosen);
            for (s, t) in batch.drain(..) {
                self.transport.queue.push(at, s, t);
            }
            events += 1;
            if events > self.config.max_events {
                return Err(SimError::EventCapExceeded {
                    cap: self.config.max_events,
                });
            }
            self.dispatch_event(at, chosen_tag, driver)?;
        }
        self.emit_run_counters(events);
        Ok(self.finish_report(events))
    }

    /// Builds the end-of-run report and performs the payload-leak check:
    /// the event queue is empty here, so every invoke/message/batch/timer
    /// payload must have been taken out of its arena.
    fn finish_report(&self, events: u64) -> SimReport {
        let leaked = self.transport.live_payloads();
        debug_assert_eq!(
            leaked, 0,
            "event queue drained but {leaked} payload slab slot(s) still live"
        );
        SimReport {
            events,
            end_time: self.transport.now,
            leaked_payloads: leaked as u64,
        }
    }

    /// Runs every node's `on_start` hook once, at the start of the first
    /// run call.
    fn start_nodes<Dr>(&mut self, driver: &mut Dr) -> Result<(), SimError>
    where
        Dr: Driver<A::Op, A::Resp> + ?Sized,
    {
        if self.started {
            return Ok(());
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let pid = self.nodes[i].pid();
            let stamp = self.stamp(pid);
            let act = self.nodes[i].on_start(
                stamp,
                &mut self.transport,
                &mut self.trace,
                &mut self.history,
            )?;
            self.after_activation(pid, act, driver);
        }
        Ok(())
    }

    /// The (real time, local clock) stamp of an activation at `pid` at
    /// the current instant.
    fn stamp(&self, pid: ProcessId) -> Stamp {
        Stamp {
            now: self.transport.now,
            clock: self.transport.clocks.clock_at(pid, self.transport.now),
        }
    }

    fn emit_run_counters(&mut self, events: u64) {
        if let Some(sink) = self.trace.sink.as_deref_mut() {
            sink.counter("engine", "events", events);
            sink.counter("engine", "messages", self.transport.next_msg_id);
            // Zero on every honest run; the offline trace auditor turns a
            // nonzero reading into an SB105 payload-leak diagnostic.
            sink.counter(
                "engine",
                "leaked_payloads",
                self.transport.live_payloads() as u64,
            );
        }
    }

    /// Advances time to the event, takes its payload out of the slabs
    /// and activates the node core. Stale timer expiries (cancelled
    /// after queueing) are dropped silently by the node's slab
    /// generation check.
    #[inline]
    fn dispatch_event<Dr>(
        &mut self,
        at: SimTime,
        tag: EvTag,
        driver: &mut Dr,
    ) -> Result<(), SimError>
    where
        Dr: Driver<A::Op, A::Resp> + ?Sized,
    {
        debug_assert!(at >= self.transport.now, "time went backwards");
        self.transport.now = at;
        let pid = tag.pid;
        let stamp = self.stamp(pid);
        let kind = self.transport.resolve(tag);
        let node = &mut self.nodes[pid.index()];
        let act = match kind {
            EventKind::Invoke { op } => node.on_invoke(
                stamp,
                op,
                &mut self.transport,
                &mut self.trace,
                &mut self.history,
            ),
            EventKind::Deliver { from, msg, msg_id } => node.on_message(
                stamp,
                from,
                msg_id,
                msg,
                &mut self.transport,
                &mut self.trace,
                &mut self.history,
            ),
            EventKind::DeliverBatch {
                from,
                first_id,
                msgs,
            } => node.on_message_batch(
                stamp,
                from,
                first_id,
                msgs,
                &mut self.transport,
                &mut self.trace,
                &mut self.history,
            ),
            EventKind::Timer { id, timer } => node.on_timer(
                stamp,
                id,
                timer,
                &mut self.transport,
                &mut self.trace,
                &mut self.history,
            ),
        }?;
        self.after_activation(pid, act, driver);
        Ok(())
    }

    /// If the activation completed an operation, consults the driver for
    /// the follow-up invocation of the closed loop. The operation and
    /// response are borrowed from the history — no per-response clones
    /// on the hot path.
    fn after_activation<Dr>(&mut self, pid: ProcessId, act: Activation, driver: &mut Dr)
    where
        Dr: Driver<A::Op, A::Resp> + ?Sized,
    {
        let Activation::Completed(op_id) = act else {
            return;
        };
        let rec = self.history.get(op_id).expect("recorded at invocation");
        let resp = rec.resp().expect("completed activations have a response");
        if let Some((gap, next_op)) = driver.next(pid, &rec.op, resp, self.transport.now) {
            let at = self.transport.now + gap;
            self.transport.push_invoke(pid, at, next_op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::delay::{DelayBounds, FixedDelay};
    use crate::time::SimDuration;

    /// Ping-pong: an invocation at p0 sends to p1, which echoes back; p0
    /// then responds with the round-trip count.
    #[derive(Debug, Default)]
    struct PingPong {
        hops: u32,
    }

    impl Actor for PingPong {
        type Msg = u32;
        type Op = ();
        type Resp = u32;
        type Timer = ();

        fn on_invoke(&mut self, _op: (), ctx: &mut Context<'_, Self>) {
            ctx.send(ProcessId::new(1), 0);
        }

        fn on_message(&mut self, from: ProcessId, msg: u32, ctx: &mut Context<'_, Self>) {
            self.hops += 1;
            if ctx.pid() == ProcessId::new(1) {
                ctx.send(from, msg + 1);
            } else {
                ctx.respond(msg + 1);
            }
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    fn bounds() -> DelayBounds {
        DelayBounds::new(SimDuration::from_ticks(10), SimDuration::from_ticks(4))
    }

    #[test]
    fn ping_pong_round_trip_takes_two_delays() {
        let mut sim = Simulation::new(
            vec![PingPong::default(), PingPong::default()],
            ClockAssignment::zero(2),
            FixedDelay::maximal(bounds()),
        );
        sim.enable_msg_log();
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, ());
        let report = sim.run().unwrap();
        assert!(sim.history().is_complete());
        let rec = &sim.history().records()[0];
        assert_eq!(rec.resp(), Some(&2));
        // Round trip at delay d = 10 each way.
        assert_eq!(rec.latency().unwrap().as_ticks(), 20);
        assert_eq!(report.end_time, SimTime::from_ticks(20));
        assert_eq!(sim.message_log().len(), 2);
        assert_eq!(sim.message_log()[0].delay.as_ticks(), 10);
    }

    /// An actor that responds via a timer after a fixed local delay.
    #[derive(Debug)]
    struct DelayedResponder {
        wait: SimDuration,
    }

    impl Actor for DelayedResponder {
        type Msg = ();
        type Op = u32;
        type Resp = u32;
        type Timer = u32;

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            ctx.set_timer(self.wait, op);
        }

        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}

        fn on_timer(&mut self, timer: u32, ctx: &mut Context<'_, Self>) {
            ctx.respond(timer * 10);
        }
    }

    #[test]
    fn timer_drives_response_latency() {
        let mut sim = Simulation::new(
            vec![DelayedResponder {
                wait: SimDuration::from_ticks(7),
            }],
            ClockAssignment::zero(1),
            FixedDelay::maximal(bounds()),
        );
        sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(3), 5);
        sim.run().unwrap();
        let rec = &sim.history().records()[0];
        assert_eq!(rec.resp(), Some(&50));
        assert_eq!(rec.invoked_at, SimTime::from_ticks(3));
        assert_eq!(rec.responded_at(), Some(SimTime::from_ticks(10)));
    }

    /// An actor that cancels its own first timer; only the second fires.
    #[derive(Debug, Default)]
    struct Canceller {
        fired: Vec<u32>,
    }

    impl Actor for Canceller {
        type Msg = ();
        type Op = ();
        type Resp = ();
        type Timer = u32;

        fn on_invoke(&mut self, _op: (), ctx: &mut Context<'_, Self>) {
            let first = ctx.set_timer(SimDuration::from_ticks(5), 1);
            ctx.set_timer(SimDuration::from_ticks(6), 2);
            ctx.cancel_timer(first);
        }

        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}

        fn on_timer(&mut self, timer: u32, ctx: &mut Context<'_, Self>) {
            self.fired.push(timer);
            if timer == 2 {
                ctx.respond(());
            }
        }
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut sim = Simulation::new(
            vec![Canceller::default()],
            ClockAssignment::zero(1),
            FixedDelay::maximal(bounds()),
        );
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, ());
        sim.run().unwrap();
        assert_eq!(sim.actor(ProcessId::new(0)).fired, vec![2]);
    }

    #[test]
    fn clock_offsets_visible_to_actors() {
        #[derive(Debug, Default)]
        struct ClockReader {
            read: Option<i64>,
        }
        impl Actor for ClockReader {
            type Msg = ();
            type Op = ();
            type Resp = ();
            type Timer = ();
            fn on_invoke(&mut self, _op: (), ctx: &mut Context<'_, Self>) {
                self.read = Some(ctx.clock().as_ticks());
                ctx.respond(());
            }
            fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
            fn on_timer(&mut self, _: (), _: &mut Context<'_, Self>) {}
        }

        let clocks = ClockAssignment::single_late(2, ProcessId::new(1), SimDuration::from_ticks(4));
        let mut sim = Simulation::new(
            vec![ClockReader::default(), ClockReader::default()],
            clocks,
            FixedDelay::maximal(bounds()),
        );
        sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(10), ());
        sim.schedule_invoke(ProcessId::new(1), SimTime::from_ticks(10), ());
        sim.run().unwrap();
        assert_eq!(sim.actor(ProcessId::new(0)).read, Some(10));
        assert_eq!(sim.actor(ProcessId::new(1)).read, Some(6));
    }

    #[test]
    #[should_panic(expected = "another operation is pending")]
    fn overlapping_invocations_rejected() {
        let mut sim = Simulation::new(
            vec![DelayedResponder {
                wait: SimDuration::from_ticks(100),
            }],
            ClockAssignment::zero(1),
            FixedDelay::maximal(bounds()),
        );
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, 1);
        sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(1), 2);
        let _ = sim.run();
    }

    #[test]
    fn event_cap_reported() {
        #[derive(Debug)]
        struct Looper;
        impl Actor for Looper {
            type Msg = ();
            type Op = ();
            type Resp = ();
            type Timer = ();
            fn on_invoke(&mut self, _op: (), ctx: &mut Context<'_, Self>) {
                ctx.set_timer(SimDuration::from_ticks(1), ());
            }
            fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
            fn on_timer(&mut self, _: (), ctx: &mut Context<'_, Self>) {
                ctx.set_timer(SimDuration::from_ticks(1), ());
            }
        }
        let mut sim = Simulation::new(
            vec![Looper],
            ClockAssignment::zero(1),
            FixedDelay::maximal(bounds()),
        )
        .with_config(SimConfig { max_events: 100 });
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, ());
        assert_eq!(sim.run(), Err(SimError::EventCapExceeded { cap: 100 }));
    }

    #[derive(Debug, Default)]
    struct Recorder {
        seen: Vec<u32>,
    }
    impl Actor for Recorder {
        type Msg = ();
        type Op = u32;
        type Resp = ();
        type Timer = ();
        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            self.seen.push(op);
            ctx.respond(());
        }
        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
        fn on_timer(&mut self, _: (), _: &mut Context<'_, Self>) {}
    }

    #[test]
    fn same_time_events_fifo_by_schedule_order() {
        // Two invocations at the same instant on the same process would
        // violate the pending-op rule, so use the response to sequence:
        // each invocation completes instantly, so both run at t=5 in
        // schedule order.
        let mut sim = Simulation::new(
            vec![Recorder::default()],
            ClockAssignment::zero(1),
            FixedDelay::maximal(bounds()),
        );
        sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(5), 1);
        sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(5), 2);
        sim.run().unwrap();
        assert_eq!(sim.actor(ProcessId::new(0)).seen, vec![1, 2]);
    }

    #[test]
    fn scheduled_fifo_reproduces_the_default_run() {
        let build = || {
            let mut sim = Simulation::new(
                vec![PingPong::default(), PingPong::default()],
                ClockAssignment::zero(2),
                FixedDelay::maximal(bounds()),
            );
            sim.enable_msg_log();
            sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, ());
            sim
        };
        let mut plain = build();
        let plain_report = plain.run().unwrap();
        let mut hooked = build();
        let hooked_report = hooked.run_scheduled(&mut FifoPolicy).unwrap();
        assert_eq!(plain_report, hooked_report);
        assert_eq!(plain.message_log(), hooked.message_log());
        assert_eq!(
            plain.history().records()[0].resp(),
            hooked.history().records()[0].resp()
        );
    }

    #[test]
    fn policy_reorders_same_time_events() {
        struct TakeLast;
        impl<A: Actor> SchedulePolicy<A> for TakeLast {
            fn choose(&mut self, _: SimTime, enabled: &[EventView<'_, A>]) -> ScheduleDecision {
                ScheduleDecision::Take(enabled.len() - 1)
            }
        }
        let mut sim = Simulation::new(
            vec![Recorder::default()],
            ClockAssignment::zero(1),
            FixedDelay::maximal(bounds()),
        );
        sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(5), 1);
        sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(5), 2);
        sim.run_scheduled(&mut TakeLast).unwrap();
        assert_eq!(
            sim.actor(ProcessId::new(0)).seen,
            vec![2, 1],
            "the policy must be able to invert the default order"
        );
    }

    #[test]
    fn policy_abort_surfaces_as_error() {
        struct AbortAll;
        impl<A: Actor> SchedulePolicy<A> for AbortAll {
            fn choose(&mut self, _: SimTime, _: &[EventView<'_, A>]) -> ScheduleDecision {
                ScheduleDecision::Abort
            }
        }
        let mut sim = Simulation::new(
            vec![Recorder::default()],
            ClockAssignment::zero(1),
            FixedDelay::maximal(bounds()),
        );
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, 1);
        assert_eq!(sim.run_scheduled(&mut AbortAll), Err(SimError::PolicyAbort));
    }

    #[test]
    fn scheduled_run_filters_stale_timer_batches() {
        // The canceller's first timer is cancelled at set time; when its
        // expiry would pop, the scheduled path must not present it as a
        // choice.
        struct CountBatches {
            multi: u32,
        }
        impl<A: Actor> SchedulePolicy<A> for CountBatches {
            fn choose(&mut self, _: SimTime, enabled: &[EventView<'_, A>]) -> ScheduleDecision {
                if enabled.len() > 1 {
                    self.multi += 1;
                }
                ScheduleDecision::Take(0)
            }
        }
        let mut sim = Simulation::new(
            vec![Canceller::default()],
            ClockAssignment::zero(1),
            FixedDelay::maximal(bounds()),
        );
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, ());
        let mut policy = CountBatches { multi: 0 };
        sim.run_scheduled(&mut policy).unwrap();
        assert_eq!(sim.actor(ProcessId::new(0)).fired, vec![2]);
        assert_eq!(policy.multi, 0, "no batch should contain the stale expiry");
    }

    #[test]
    fn into_parts_returns_history_actors_and_log() {
        let mut sim = Simulation::new(
            vec![PingPong::default(), PingPong::default()],
            ClockAssignment::zero(2),
            FixedDelay::maximal(bounds()),
        );
        sim.enable_msg_log();
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, ());
        sim.run().unwrap();
        let log_len = sim.message_log().len();
        assert_eq!(log_len, 2, "logging was enabled, so sends were recorded");
        let (history, actors, log) = sim.into_parts();
        assert!(history.is_complete());
        assert_eq!(actors.len(), 2);
        assert_eq!(actors[0].hops + actors[1].hops, 2);
        assert_eq!(log.len(), log_len);
    }
}
