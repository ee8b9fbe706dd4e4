//! The deterministic discrete-event scheduler.
//!
//! The engine runs `n` [`NodeCore`]s — the node the wall-clock backends
//! and the served binary run too — on one virtual clock. It decides
//! only *which* node acts next; the node decides *what* an activation
//! does (handler dispatch, effect draining, the one-pending-op
//! invariant, timer ids, trace emission — see [`crate::node`]). The
//! engine observes the run from outside, as the model's checker does:
//! it records each invocation in the [`History`] at the instant it
//! fires, and each response the node hands back. All nodes share one
//! [`Transport`] on virtual time: it draws every delay from the one
//! [`DelayModel`] in global send order, allocates message ids from 0
//! across the run, draws every agenda sequence number from one run-wide
//! counter, and its link files each sent batch onto its destination's
//! agenda at `sent + delay`. An invocation is an agenda item at its
//! instant. So the least `(instant, seq)` head across the nodes'
//! agendas is the run's next event. One run loop fires it:
//! [`Simulation::run_with`] fires that head, and
//! [`Simulation::run_scheduled`] shows a [`SchedulePolicy`] every item
//! at its instant and fires the one the policy picks.
//!
//! Identical inputs (actors, clocks, delay model, schedule, driver)
//! always produce identical runs: events at equal real times are
//! processed in schedule order, and all randomness lives in seeded
//! delay models and workloads.
//!
//! The engine enforces the model of Chapter III:
//!
//! * at most one pending operation per process (via the node);
//! * every message delay within `[d − u, d]` (the bounds are validated
//!   at construction and every draw is checked, as on the wall-clock
//!   backends);
//! * local processing takes zero time;
//! * clocks are fixed offsets from real time.
//!
//! [`run_history`] is the engine's entry of the one harness signature
//! `(actors, clocks, delays, driver)`. The real-thread counterpart is
//! [`crate::rt::run_history`], which runs the same nodes on OS threads,
//! each stepping on the wall clock.

use crate::actor::Actor;
use crate::clock::ClockAssignment;
use crate::deadline::Due;
use crate::delay::DelayModel;
use crate::history::History;
use crate::ids::{MsgId, OpId, ProcessId};
use crate::node::{Item, NodeCore};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceSink;
use crate::transport::{Link, Transport, TransportError};
use crate::workload::{Driver, NoDriver};

/// The run loop aborts after this many processed events, counted across
/// every call of a run (guards against actors that set timers forever).
pub const MAX_EVENTS: u64 = 10_000_000;

/// Errors surfaced by [`Simulation::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The [`MAX_EVENTS`] cap was reached before quiescence.
    EventCapExceeded,
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
            SimError::EventCapExceeded => write!(
                f,
                "event cap of {MAX_EVENTS} events exceeded before quiescence"
            ),
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
    /// Number of events processed, across every call of the run.
    pub events: u64,
    /// Real time of the last processed event.
    pub end_time: SimTime,
    /// Items left on the nodes' agendas and invocation queues when the
    /// run loop returned: zero on every quiescent run.
    pub leaked_payloads: u64,
}

/// Read-only view of one schedulable event, as presented to a
/// [`SchedulePolicy`] by [`Simulation::run_scheduled`].
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
    /// Delivery of a message batch at `pid`: the messages of one send, a
    /// single send being a batch of one.
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
    /// A timer expiry at `pid`.
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
            | EventView::DeliverBatch { seq, .. }
            | EventView::Timer { seq, .. } => *seq,
        }
    }

    /// The process at which the event takes place.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        match self {
            EventView::Invoke { pid, .. }
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
    /// Abandon the whole run; [`Simulation::run_scheduled`] returns
    /// [`SimError::PolicyAbort`].
    Abort,
    /// Fire nothing yet: [`Simulation::run_scheduled`] returns `Ok(None)`
    /// with the batch still on the agendas, and the next call shows the
    /// policy the same batch again. An explorer pauses here to keep a
    /// [`Simulation::fork`] of the run before it commits to a branch.
    Yield,
}

/// Chooses which of the events enabled at the current instant runs next.
///
/// [`Simulation::run_scheduled`] consults the policy with the batch
/// of *all* agenda items sharing the minimal real time, across every
/// node, in the engine's default `seq` order — index 0 reproduces the
/// default run.
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
/// event. `run_scheduled(&mut FifoPolicy)` reproduces `run`.
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
    transport: Transport<D, Outbox<A>>,
    now: SimTime,
    started: bool,
    history: History<A::Op, A::Resp>,
    /// Each node's operation in flight, by its id in `history`.
    pending: Vec<Option<OpId>>,
    trace: Option<Box<dyn TraceSink>>,
    /// Events fired so far, across every call that paused and resumed
    /// the run.
    events: u64,
    /// The run loop's batch buffer between calls, empty, kept for its
    /// allocation (see [`Parked`]).
    spare: Vec<EventView<'static, Parked>>,
}

/// The element type of the batch buffer between two calls of
/// [`Simulation::run_scheduled`]. Views borrow the agendas, so the
/// buffer cannot be kept under their own type; an actor whose every type
/// is `()` lays its views out as any actor's are (a seq, pids, an id, a
/// reference and a slice), so [`recycle`] moves the allocation between
/// the two in place.
enum Parked {}

impl Actor for Parked {
    type Msg = ();
    type Op = ();
    type Resp = ();
    type Timer = ();

    fn on_invoke(&mut self, (): (), _: &mut crate::actor::Context<'_, Self>) {
        match *self {}
    }

    fn on_message(&mut self, _: ProcessId, (): (), _: &mut crate::actor::Context<'_, Self>) {
        match *self {}
    }

    fn on_timer(&mut self, (): (), _: &mut crate::actor::Context<'_, Self>) {
        match *self {}
    }
}

/// The engine's [`Link`]: each batch a node sends waits here, keyed on
/// its delivery instant and seq, until the activation that sent it
/// returns and the engine files it onto the destination's agenda.
struct Outbox<A: Actor> {
    sent: Vec<(ProcessId, u64, u64, Item<A, ()>)>,
}

// `A` itself need not be `Clone`, only what it sends.
crate::clone_fields!([A: Actor] Outbox<A> { sent });

impl<A: Actor> Link<A::Msg> for Outbox<A> {
    fn hand_off(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        first_id: MsgId,
        sent: u64,
        delay: u64,
        seq: u64,
        msgs: Vec<A::Msg>,
    ) -> Result<(), TransportError> {
        let recv_at = SimTime::from_ticks(sent) + SimDuration::from_ticks(delay);
        let batch = Due::Batch {
            from,
            first_id,
            msgs,
        };
        self.sent.push((to, recv_at.as_ticks(), seq, batch));
        Ok(())
    }
}

impl<A: Actor, D: DelayModel> core::fmt::Debug for Simulation<A, D> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.nodes.len())
            .field("now", &self.now)
            .field("queued_events", &self.backlog())
            .field("ops_recorded", &self.history.len())
            .finish_non_exhaustive()
    }
}

impl<A: Actor, D: DelayModel> Simulation<A, D> {
    /// Creates a simulation. `actors[i]` runs as process `p_i`.
    ///
    /// # Panics
    ///
    /// Panics if `actors` does not have one process per clock of `clocks`
    /// ([`ClockAssignment::assert_covers`]).
    #[must_use]
    pub fn new(actors: Vec<A>, clocks: ClockAssignment, delays: D) -> Self {
        clocks.assert_covers(actors.len());
        let n = actors.len();
        let outbox = Outbox {
            sent: Vec::with_capacity(n),
        };
        Simulation {
            nodes: ProcessId::all(n)
                .zip(actors)
                .map(|(pid, actor)| NodeCore::new(pid, n, actor))
                .collect(),
            transport: Transport::virtual_time(outbox, clocks, delays),
            now: SimTime::ZERO,
            started: false,
            history: History::new(),
            pending: vec![None; n],
            trace: None,
            events: 0,
            spare: Vec::new(),
        }
    }

    /// Attaches a [`TraceSink`]; every subsequent node event (invoke,
    /// send, deliver, timer-set, timer-fire, respond) is
    /// emitted to it, stamped with real time, local clock reading and
    /// process id, followed by the end-of-run counters. Replaces any
    /// previously attached sink. To read an in-memory sink back, attach
    /// an `Rc<RefCell<_>>` clone (see [`crate::trace`]).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detaches and returns the attached [`TraceSink`], if any.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
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

    /// The delay model — e.g. to inspect an enumerated model's state
    /// after a run (did the run stay within its assignment?).
    #[must_use]
    pub fn delays(&self) -> &D {
        &self.transport.delays
    }

    /// Current simulated real time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an operation invocation at process `pid` at real time
    /// `at`: an agenda item of the node at that instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past or `pid` is out of range.
    pub fn schedule_invoke(&mut self, pid: ProcessId, at: SimTime, op: A::Op) {
        assert!(pid.index() < self.n(), "{pid} out of range");
        assert!(at >= self.now, "cannot schedule an invocation in the past");
        let seq = self.transport.seq();
        self.nodes[pid.index()].file(at.as_ticks(), seq, Due::Invoke(((), op)));
    }

    /// Runs to quiescence with no closed-loop driver.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventCapExceeded`] if the [`MAX_EVENTS`] cap
    /// is hit first.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        self.run_with(&mut NoDriver)
    }

    /// Runs to quiescence, consulting `driver` for closed-loop workloads:
    /// each response may trigger a follow-up invocation. The engine's
    /// one run loop with no policy: it fires the least `(instant, seq)`
    /// head and builds no [`EventView`]s.
    ///
    /// The driver's initial invocations are scheduled once, when the run
    /// starts (before the nodes' `on_start` hooks); a later call on a run
    /// already started only continues it. The report's event count and
    /// the [`MAX_EVENTS`] cap both span every call of the run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventCapExceeded`] if the [`MAX_EVENTS`] cap
    /// is hit first.
    pub fn run_with<Dr>(&mut self, driver: &mut Dr) -> Result<SimReport, SimError>
    where
        Dr: Driver<A::Op, A::Resp> + ?Sized,
    {
        let report = self.run_loop(driver, None::<&mut FifoPolicy>, MAX_EVENTS)?;
        Ok(report.expect("only a policy pauses a run"))
    }

    /// Runs to quiescence with no driver, consulting `policy` for the
    /// order of same-time events — the replayable scheduler hook for
    /// model-checking explorers. It is the one run loop of
    /// [`Simulation::run_with`], shown the policy at every step.
    ///
    /// At every step the policy is shown *every* node's agenda items at
    /// the minimal real time, in the engine's `seq` order, and the one
    /// it picks is fired; the rest never leave their agendas. With
    /// [`FifoPolicy`] this path produces exactly the run
    /// [`Simulation::run`] does.
    ///
    /// Returns `Ok(Some(report))` at quiescence and `Ok(None)` when the
    /// policy yields ([`ScheduleDecision::Yield`]); calling again resumes
    /// at the batch it yielded on. As for [`Simulation::run_with`], the
    /// report's event count and the [`MAX_EVENTS`] cap span every call.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventCapExceeded`] if the [`MAX_EVENTS`] cap
    /// is hit first, or [`SimError::PolicyAbort`] if the policy abandons
    /// the run.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns an out-of-range index.
    pub fn run_scheduled<P>(&mut self, policy: &mut P) -> Result<Option<SimReport>, SimError>
    where
        P: SchedulePolicy<A> + ?Sized,
    {
        self.run_loop(&mut NoDriver, Some(policy), MAX_EVENTS)
    }

    /// The engine's one run loop, with the event cap as an argument so
    /// the cap's error path can be tested without ten million events.
    /// With no `policy` it fires the least head; with one, it fires the
    /// event the policy picks from the same-time batch, or stops where the
    /// policy yields or aborts.
    fn run_loop<Dr, P>(
        &mut self,
        driver: &mut Dr,
        mut policy: Option<&mut P>,
        cap: u64,
    ) -> Result<Option<SimReport>, SimError>
    where
        Dr: Driver<A::Op, A::Resp> + ?Sized,
        P: SchedulePolicy<A> + ?Sized,
    {
        self.start(driver)?;
        // One batch buffer for the whole run: each step fills it, and
        // `recycle` hands its allocation on to the next step's borrow, or
        // back to `self.spare` for the next call.
        let mut spare: Vec<EventView<'_, A>> = recycle(core::mem::take(&mut self.spare));
        while let Some((mut key, mut i)) = self.next_event() {
            if let Some(policy) = policy.as_deref_mut() {
                let mut enabled = recycle(spare);
                enabled.extend(self.nodes.iter().flat_map(|node| {
                    let pid = node.pid();
                    node.agenda()
                        .at(key.0)
                        .map(move |(seq, item)| view(pid, seq, item))
                }));
                enabled.sort_unstable_by_key(EventView::seq);
                let decision = policy.choose(SimTime::from_ticks(key.0), &enabled);
                let picked = match decision {
                    ScheduleDecision::Take(i) => {
                        let chosen = enabled.get(i).unwrap_or_else(|| {
                            panic!("schedule policy chose event {i} of {}", enabled.len())
                        });
                        Some((chosen.pid().index(), chosen.seq()))
                    }
                    ScheduleDecision::Abort | ScheduleDecision::Yield => None,
                };
                spare = recycle(enabled);
                let Some(picked) = picked else {
                    self.spare = recycle(spare);
                    return match decision {
                        ScheduleDecision::Yield => Ok(None),
                        _ => Err(SimError::PolicyAbort),
                    };
                };
                (i, key.1) = picked;
            }
            self.events += 1;
            if self.events > cap {
                return Err(SimError::EventCapExceeded);
            }
            self.fire(i, key, driver)?;
        }
        self.spare = recycle(spare);
        Ok(Some(self.finish()))
    }

    /// The key of the least `(instant, seq)` agenda head across the
    /// nodes, with the node's index: the run's next event.
    fn next_event(&self) -> Option<((u64, u64), usize)> {
        let heads = self.nodes.iter().enumerate();
        heads
            .filter_map(|(i, node)| Some((node.agenda().head()?, i)))
            .min()
    }

    /// Items left on the nodes' agendas and queues.
    fn backlog(&self) -> u64 {
        self.nodes.iter().map(|node| node.backlog() as u64).sum()
    }

    /// Emits the end-of-run counters and builds the report.
    fn finish(&mut self) -> SimReport {
        let (events, leaked) = (self.events, self.backlog());
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.counter("engine", "events", events);
            sink.counter("engine", "messages", self.transport.next_msg);
            // Zero on every quiescent run; the offline trace auditor
            // turns a nonzero reading into an SB105 diagnostic.
            sink.counter("engine", "leaked_payloads", leaked);
        }
        SimReport {
            events,
            end_time: self.now,
            leaked_payloads: leaked,
        }
    }

    /// Starts the run at the first run call, and only then: schedules the
    /// driver's initial invocations, then runs every node's `on_start`
    /// hook.
    fn start<Dr>(&mut self, driver: &mut Dr) -> Result<(), SimError>
    where
        Dr: Driver<A::Op, A::Resp> + ?Sized,
    {
        if self.started {
            return Ok(());
        }
        self.started = true;
        for (pid, at, op) in driver.initial() {
            self.schedule_invoke(pid, at, op);
        }
        for i in 0..self.nodes.len() {
            let trace = self.trace.as_deref_mut();
            let now = self.now.as_ticks();
            self.nodes[i].start(now, &mut self.transport, trace)?;
            file_sent(&mut self.nodes, &mut self.transport.link);
        }
        Ok(())
    }

    /// Advances time to the item under `key` at node `i` and fires it,
    /// then files what it sent. Records an invocation at the instant it
    /// fires and a response when the node hands one back. If it completed
    /// an operation, consults the driver for the follow-up invocation of
    /// the closed loop; the operation and response are borrowed from the
    /// history — no per-response clones on the hot path.
    fn fire<Dr>(&mut self, i: usize, key: (u64, u64), driver: &mut Dr) -> Result<(), SimError>
    where
        Dr: Driver<A::Op, A::Resp> + ?Sized,
    {
        self.now = SimTime::from_ticks(key.0);
        let node = &mut self.nodes[i];
        let pid = node.pid();
        let item = node.take(key).expect("an item is filed under the key");
        if let Due::Invoke(((), op)) = &item {
            self.pending[i] = Some(self.history.record_invoke(pid, op.clone(), self.now));
        }
        let trace = self.trace.as_deref_mut();
        let completed = node.fire(key.0, item, &mut self.transport, trace)?;
        file_sent(&mut self.nodes, &mut self.transport.link);
        let Some(((), resp, at)) = completed else {
            return Ok(());
        };
        let op_id = self.pending[i].take().expect("recorded at invocation");
        self.history.record_response(op_id, resp, at);
        let rec = self.history.get(op_id).expect("recorded at invocation");
        let resp = rec.resp().expect("just recorded");
        if let Some((gap, next_op)) = driver.next(pid, &rec.op, resp, self.now) {
            self.schedule_invoke(pid, self.now + gap, next_op);
        }
        Ok(())
    }
}

impl<A: Actor + Clone, D: DelayModel + Clone> Simulation<A, D> {
    /// A copy of the run as it stands, without its trace sink: the nodes,
    /// the transport (delay model, id and seq counters), the history, the
    /// clock and the event count. Both copies continue identically under
    /// identical inputs, so an explorer can keep a fork at a branching
    /// point and resume it on another branch later instead of replaying
    /// the run up to that point. The fork records no messages: attach a
    /// sink to it to trace the rest of its run.
    #[must_use]
    pub fn fork(&self) -> Self {
        Simulation {
            nodes: self.nodes.clone(),
            transport: self.transport.clone(),
            now: self.now,
            started: self.started,
            history: self.history.clone(),
            pending: self.pending.clone(),
            trace: None,
            events: self.events,
            spare: Vec::new(),
        }
    }

    /// Turns `self` into a [`Simulation::fork`] of `source`, whatever run
    /// it held before, reusing its buffers (`clone_from` all the way
    /// down), and detaches its trace sink. An explorer that refills
    /// retired runs this way forks without allocating once the buffers
    /// have grown to the runs it explores.
    pub fn fork_from(&mut self, source: &Self) {
        self.nodes.clone_from(&source.nodes);
        self.transport.clone_from(&source.transport);
        self.history.clone_from(&source.history);
        self.pending.clone_from(&source.pending);
        (self.now, self.started, self.events) = (source.now, source.started, source.events);
        self.trace = None;
    }
}

/// Empties `views` and returns its allocation under a fresh borrow (and
/// possibly another actor type, see [`Parked`]), so
/// [`Simulation::run_scheduled`] allocates its batch buffer once per run
/// instead of once per event. The collect reuses the buffer in place: the
/// element type only changes its lifetime, or nothing of its layout.
fn recycle<'b, A: Actor, B: Actor>(mut views: Vec<EventView<'_, A>>) -> Vec<EventView<'b, B>> {
    views.clear();
    views.into_iter().map(|_| unreachable!()).collect()
}

/// Files every batch waiting in `outbox` onto its destination's agenda.
fn file_sent<A: Actor>(nodes: &mut [NodeCore<A>], outbox: &mut Outbox<A>) {
    for (to, at, seq, batch) in outbox.sent.drain(..) {
        nodes[to.index()].file(at, seq, batch);
    }
}

/// The policy's view of the agenda item `item` of `pid` under `seq`.
fn view<A: Actor>(pid: ProcessId, seq: u64, item: &Item<A, ()>) -> EventView<'_, A> {
    match item {
        Due::Invoke(((), op)) => EventView::Invoke { seq, pid, op },
        Due::Batch {
            from,
            first_id,
            msgs,
        } => EventView::DeliverBatch {
            seq,
            pid,
            from: *from,
            first_id: *first_id,
            msgs,
        },
        Due::Timer(..) => EventView::Timer { seq, pid },
    }
}

/// Runs `actors` under `clocks` and `delays` with `driver` until
/// quiescence and returns the complete history: the virtual-time
/// backend of the one harness signature the thread runtime
/// ([`crate::rt::run_history`]) and the socket mesh
/// (`skewbound_net::runtime::run_history`) share. Go to [`Simulation`]
/// for the final actor states or a trace (which carries the messages).
///
/// # Errors
///
/// Propagates [`SimError`] from the engine (event-cap exceeded).
///
/// # Panics
///
/// Panics if the run ends with an incomplete history, which would indicate
/// an actor that failed to respond to an invocation — a correctness bug
/// worth failing loudly on — or if the driver overlaps invocations at one
/// process.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::delay::{DelayBounds, FixedDelay};
    use crate::time::SimDuration;
    use crate::workload::ClosedLoop;

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
        let trace = shared_trace();
        sim.set_trace_sink(Box::new(std::rc::Rc::clone(&trace)));
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, ());
        let report = sim.run().unwrap();
        assert!(sim.history().is_complete());
        let rec = &sim.history().records()[0];
        assert_eq!(rec.resp(), Some(&2));
        // Round trip at delay d = 10 each way.
        assert_eq!(rec.latency().unwrap().as_ticks(), 20);
        assert_eq!(report.end_time, SimTime::from_ticks(20));
        let messages = trace.borrow().messages();
        assert_eq!(messages.len(), 2);
        assert_eq!(messages[0].delay.as_ticks(), 10);
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

    /// Re-arms a one-tick timer forever.
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

    /// A run that never quiesces: one [`Looper`], invoked at t = 0.
    fn looping() -> Simulation<Looper, FixedDelay> {
        let mut sim = Simulation::new(
            vec![Looper],
            ClockAssignment::zero(1),
            FixedDelay::maximal(bounds()),
        );
        sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, ());
        sim
    }

    #[test]
    fn event_cap_reported() {
        assert_eq!(
            looping().run_loop(&mut NoDriver, None::<&mut FifoPolicy>, 100),
            Err(SimError::EventCapExceeded)
        );
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

        // Interleaved times, heavy same-tick ties and instants at the top
        // of the time domain (clock readings are `i64`, so that is
        // `i64::MAX`): the pop order is ascending time, then schedule
        // order, with and without a policy.
        let last = i64::MAX as u64;
        let script = [
            (7, 1),
            (5, 2),
            (last, 3),
            (7, 4),
            (5, 5),
            (last - 1, 6),
            (5, 7),
            (last, 8),
            (7, 9),
            (last - 1, 10),
        ];
        let expected = vec![2, 5, 7, 1, 4, 9, 6, 10, 3, 8];
        for scheduled in [false, true] {
            let mut sim = Simulation::new(
                vec![Recorder::default()],
                ClockAssignment::zero(1),
                FixedDelay::maximal(bounds()),
            );
            for (at, op) in script {
                sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(at), op);
            }
            if scheduled {
                sim.run_scheduled(&mut FifoPolicy).unwrap();
            } else {
                sim.run().unwrap();
            }
            assert_eq!(sim.actor(ProcessId::new(0)).seen, expected);
        }
    }

    #[test]
    fn scheduled_fifo_reproduces_the_default_run() {
        let build = || {
            let mut sim = Simulation::new(
                vec![PingPong::default(), PingPong::default()],
                ClockAssignment::zero(2),
                FixedDelay::maximal(bounds()),
            );
            let trace = shared_trace();
            sim.set_trace_sink(Box::new(std::rc::Rc::clone(&trace)));
            sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, ());
            (sim, trace)
        };
        let (mut plain, plain_trace) = build();
        let plain_report = plain.run().unwrap();
        let (mut hooked, hooked_trace) = build();
        let hooked_report = hooked.run_scheduled(&mut FifoPolicy).unwrap();
        assert_eq!(Some(plain_report), hooked_report);
        assert_eq!(
            plain_trace.borrow().messages(),
            hooked_trace.borrow().messages()
        );
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
        // The unchosen events of a batch stay on their agendas: they come
        // back in schedule order, ahead of the later event, so taking the
        // last one each time inverts the tie.
        for op in 1..=5 {
            sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(5), op);
        }
        sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(6), 6);
        sim.run_scheduled(&mut TakeLast).unwrap();
        assert_eq!(
            sim.actor(ProcessId::new(0)).seen,
            vec![5, 4, 3, 2, 1, 6],
            "the policy must be able to invert the default order"
        );
    }

    /// The history is recorded as the run fires, not as it is scheduled:
    /// of two invocations at one instant at different processes, the one
    /// a policy fires first is record 0, with id 0 and its firing instant.
    #[test]
    fn history_ids_follow_fire_order() {
        struct TakeSecond;
        impl<A: Actor> SchedulePolicy<A> for TakeSecond {
            fn choose(&mut self, _: SimTime, enabled: &[EventView<'_, A>]) -> ScheduleDecision {
                ScheduleDecision::Take(enabled.len().min(2) - 1)
            }
        }
        let mut sim = Simulation::new(
            vec![Recorder::default(), Recorder::default()],
            ClockAssignment::zero(2),
            FixedDelay::maximal(bounds()),
        );
        sim.schedule_invoke(ProcessId::new(0), SimTime::from_ticks(5), 1);
        sim.schedule_invoke(ProcessId::new(1), SimTime::from_ticks(5), 2);
        sim.run_scheduled(&mut TakeSecond).unwrap();
        let records = sim.history().records();
        let fired: Vec<_> = (records.iter())
            .map(|r| (r.id, r.pid, r.op, r.invoked_at))
            .collect();
        let at = SimTime::from_ticks(5);
        assert_eq!(
            fired,
            [
                (OpId::new(0), ProcessId::new(1), 2, at),
                (OpId::new(1), ProcessId::new(0), 1, at)
            ]
        );
        assert!(sim.history().is_complete());
    }

    /// Every process broadcasts its operation and answers, one timer
    /// later, with what it has received: fixed delays make every
    /// broadcast of a wave land in one same-time batch.
    #[derive(Debug, Clone, Default)]
    struct Flood {
        seen: Vec<u32>,
    }

    impl Actor for Flood {
        type Msg = u32;
        type Op = u32;
        type Resp = Vec<u32>;
        type Timer = ();

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            ctx.broadcast(op);
            ctx.set_timer(SimDuration::from_ticks(20), ());
        }

        fn on_message(&mut self, _: ProcessId, msg: u32, _: &mut Context<'_, Self>) {
            self.seen.push(msg);
        }

        fn on_timer(&mut self, (): (), ctx: &mut Context<'_, Self>) {
            ctx.respond(self.seen.clone());
        }
    }

    /// Two waves of three concurrent broadcasts.
    fn flood() -> Simulation<Flood, FixedDelay> {
        flood_waves(2)
    }

    /// `waves` waves of three concurrent broadcasts, 50 ticks apart.
    fn flood_waves(waves: u32) -> Simulation<Flood, FixedDelay> {
        let mut sim = Simulation::new(
            vec![Flood::default(); 3],
            ClockAssignment::zero(3),
            FixedDelay::maximal(bounds()),
        );
        for wave in 0..waves {
            for (i, pid) in ProcessId::all(3).enumerate() {
                let i = u32::try_from(i).unwrap();
                let at = SimTime::from_ticks(50 * u64::from(wave));
                sim.schedule_invoke(pid, at, 10 * wave + i);
            }
        }
        sim
    }

    /// Yields once, before the batch after `after` fired events.
    struct YieldAfter {
        after: u64,
        seen: u64,
    }

    impl<A: Actor> SchedulePolicy<A> for YieldAfter {
        fn choose(&mut self, _: SimTime, _: &[EventView<'_, A>]) -> ScheduleDecision {
            self.seen += 1;
            if self.seen == self.after + 1 {
                ScheduleDecision::Yield
            } else {
                ScheduleDecision::Take(0)
            }
        }
    }

    /// Takes the first event of every batch, logging the seq of every
    /// event it is shown.
    #[derive(Default)]
    struct SeqLog(Vec<u64>);

    impl<A: Actor> SchedulePolicy<A> for SeqLog {
        fn choose(&mut self, _: SimTime, enabled: &[EventView<'_, A>]) -> ScheduleDecision {
            self.0.extend(enabled.iter().map(EventView::seq));
            ScheduleDecision::Take(0)
        }
    }

    /// A sink that keeps its events for the test to read back.
    fn shared_trace() -> std::rc::Rc<std::cell::RefCell<crate::trace::Trace>> {
        std::rc::Rc::new(std::cell::RefCell::new(crate::trace::Trace::new()))
    }

    /// Yields on every batch, then takes its first event when shown it
    /// again.
    #[derive(Default)]
    struct PauseEach {
        yielded: bool,
    }

    impl<A: Actor> SchedulePolicy<A> for PauseEach {
        fn choose(&mut self, _: SimTime, _: &[EventView<'_, A>]) -> ScheduleDecision {
            self.yielded = !self.yielded;
            if self.yielded {
                ScheduleDecision::Yield
            } else {
                ScheduleDecision::Take(0)
            }
        }
    }

    /// A closed loop over the three [`Flood`] processes, three operations
    /// each: every response invokes the process's next broadcast.
    fn flood_loop() -> impl Driver<u32, Vec<u32>> {
        ClosedLoop::new(ProcessId::all(3).collect(), 3, 7, |pid, i, _| {
            u32::try_from(10 * i + pid.index()).unwrap()
        })
    }

    #[test]
    fn a_run_paused_at_every_batch_equals_the_uninterrupted_run() {
        // A scripted run, and a closed-loop one: a driver and a policy
        // together, the driver's first operations filed at the first call
        // only and its follow-ups from inside the paused loop.
        type Input = (
            Simulation<Flood, FixedDelay>,
            Box<dyn Driver<u32, Vec<u32>>>,
        );
        let inputs: [(fn() -> Input, usize); 2] = [
            (|| (flood(), Box::new(NoDriver)), 6),
            (|| (flood_waves(0), Box::new(flood_loop())), 9),
        ];
        for (input, ops) in inputs {
            let (mut plain, mut driver) = input();
            let plain_trace = shared_trace();
            plain.set_trace_sink(Box::new(std::rc::Rc::clone(&plain_trace)));
            let plain_report = plain.run_with(&mut *driver).unwrap();
            let (mut paused, mut driver) = input();
            let trace = shared_trace();
            paused.set_trace_sink(Box::new(std::rc::Rc::clone(&trace)));
            let mut policy = PauseEach::default();
            let mut pauses = 0;
            let report = loop {
                match paused.run_loop(&mut *driver, Some(&mut policy), MAX_EVENTS) {
                    Ok(Some(report)) => break report,
                    end => assert_eq!(end, Ok(None)),
                }
                pauses += 1;
            };
            assert_eq!(report, plain_report);
            assert_eq!(pauses, report.events, "one pause per fired event");
            assert!(paused.history().is_complete());
            assert_eq!(paused.history().len(), ops);
            assert_eq!(paused.history(), plain.history());
            assert_eq!(trace.borrow().messages(), plain_trace.borrow().messages());
        }
    }

    #[test]
    fn a_finished_closed_loop_run_is_not_restarted() {
        let mut sim = flood_waves(0);
        let mut driver = flood_loop();
        let report = sim.run_with(&mut driver).unwrap();
        let history = sim.history().clone();
        assert_eq!(history.len(), 9);
        // The driver's first operations are filed once, when the run
        // starts: a second call finds nothing left to fire.
        assert_eq!(sim.run_with(&mut driver), Ok(report));
        assert_eq!(sim.history(), &history);
    }

    #[test]
    fn the_batch_buffer_outlives_a_paused_call() {
        let mut sim = flood();
        let mut policy = PauseEach::default();
        assert_eq!(sim.run_scheduled(&mut policy), Ok(None));
        let buffer =
            |sim: &Simulation<Flood, FixedDelay>| (sim.spare.as_ptr(), sim.spare.capacity());
        let mut kept = buffer(&sim);
        assert!(kept.1 > 0, "the paused call hands its buffer back");
        while sim.run_scheduled(&mut policy).unwrap().is_none() {
            // Only a larger batch than any before moves the buffer.
            let now = buffer(&sim);
            assert!(now == kept || now.1 > kept.1, "{now:?} after {kept:?}");
            kept = now;
        }
        assert_eq!(buffer(&sim), kept, "the last call keeps it too");
    }

    #[test]
    fn a_refilled_fork_continues_as_a_fresh_fork() {
        let mut source = flood();
        let mut policy = YieldAfter { after: 7, seen: 0 };
        assert_eq!(source.run_scheduled(&mut policy), Ok(None));
        // The destination ran another, longer run to its end, tracing
        // every event into a sink.
        let mut refilled = flood_waves(4);
        let trace = shared_trace();
        refilled.set_trace_sink(Box::new(std::rc::Rc::clone(&trace)));
        refilled.run_scheduled(&mut FifoPolicy).unwrap().unwrap();
        assert!(refilled.history().len() > source.history().len());
        let traced = trace.borrow().len();

        refilled.fork_from(&source);
        assert!(refilled.take_trace_sink().is_none());
        let mut fresh = source.fork();
        let (rest, fresh_rest) = (shared_trace(), shared_trace());
        refilled.set_trace_sink(Box::new(std::rc::Rc::clone(&rest)));
        fresh.set_trace_sink(Box::new(std::rc::Rc::clone(&fresh_rest)));
        let (mut seqs, mut fresh_seqs) = (SeqLog::default(), SeqLog::default());
        let fresh_report = fresh.run_scheduled(&mut fresh_seqs).unwrap().unwrap();
        let report = refilled.run_scheduled(&mut seqs).unwrap().unwrap();
        assert_eq!(report, fresh_report);
        assert_eq!(seqs.0, fresh_seqs.0, "events keep their identities");
        assert_eq!(refilled.history(), fresh.history());
        assert!(!rest.borrow().messages().is_empty());
        assert_eq!(rest.borrow().messages(), fresh_rest.borrow().messages());
        for pid in ProcessId::all(3) {
            assert_eq!(refilled.actor(pid).seen, fresh.actor(pid).seen);
        }
        assert_eq!(trace.borrow().len(), traced, "the old sink hears nothing");
    }

    #[test]
    fn a_fork_continues_as_its_original_does() {
        let mut original = flood();
        let trace = shared_trace();
        original.set_trace_sink(Box::new(std::rc::Rc::clone(&trace)));
        let mut policy = YieldAfter { after: 7, seen: 0 };
        assert_eq!(original.run_scheduled(&mut policy), Ok(None));
        let mut fork = original.fork();
        let traced = trace.borrow().len();
        let fork_rest = shared_trace();
        fork.set_trace_sink(Box::new(std::rc::Rc::clone(&fork_rest)));
        let fork_report = fork.run_scheduled(&mut FifoPolicy).unwrap().unwrap();
        assert_eq!(
            trace.borrow().len(),
            traced,
            "a fork leaves the sink behind"
        );
        // The original keeps its sink; a fresh one hears the rest of its
        // run.
        assert!(original.take_trace_sink().is_some());
        let rest = shared_trace();
        original.set_trace_sink(Box::new(std::rc::Rc::clone(&rest)));
        let report = original.run_scheduled(&mut FifoPolicy).unwrap().unwrap();
        assert_eq!(fork_report, report);
        assert_eq!(fork.history(), original.history());
        assert!(!rest.borrow().messages().is_empty());
        assert_eq!(fork_rest.borrow().messages(), rest.borrow().messages());
        for pid in ProcessId::all(3) {
            assert_eq!(fork.actor(pid).seen, original.actor(pid).seen);
        }
        // And both are the run that never paused.
        let mut plain = flood();
        assert_eq!(plain.run_scheduled(&mut FifoPolicy), Ok(Some(report)));
        assert_eq!(plain.history(), original.history());
    }

    #[test]
    fn the_event_cap_spans_resumed_calls() {
        let mut sim = looping();
        // Each call after the first fires exactly one event, so a count
        // that restarted with every call would never reach the cap.
        let mut policy = PauseEach::default();
        let mut calls = 0;
        let end = loop {
            calls += 1;
            assert!(calls <= 1_000, "the cap was never reached");
            match sim.run_loop(&mut NoDriver, Some(&mut policy), 100) {
                Ok(None) => {}
                end => break end,
            }
        };
        assert_eq!(end, Err(SimError::EventCapExceeded));
        assert_eq!(
            calls, 102,
            "the 101st event, in the 102nd call, breaks the cap"
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
}
