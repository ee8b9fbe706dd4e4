//! The node: one process of the system, the same on every backend.
//!
//! Chapter III's model is one actor state machine per process; this
//! module is the one place that executes it. A [`NodeCore`] owns the
//! actor, its [`TimerSlab`], the at-most-one-pending-operation
//! bookkeeping, its [`Agenda`] of armed timers, held deliveries and
//! scheduled invocations keyed on `(instant, seq)`, and its queue of
//! invocations waiting for admission. It reads no clock: every entry
//! takes the instant to act at, and the [`Transport`] it is handed says
//! what time an activation reads and where its sends go.
//!
//! For every activation (start-of-run, invocation, delivery batch,
//! timer expiry) the node performs, in a fixed order:
//!
//! 1. invariant enforcement (one pending operation per process);
//! 2. structured trace emission ([`TraceEventKind`]) stamped with the
//!    activation's real time and local clock reading, into the
//!    `Option<&mut dyn TraceSink>` every entry takes — with `None` the
//!    node builds no event and no `Debug` string, so the untraced path
//!    allocates nothing for tracing;
//! 3. the actor handler itself, through a [`Context`];
//! 4. draining the resulting effects: sends go to the transport, timers
//!    get their slab ids and are armed on the agenda at the activation's
//!    instant plus their delay, and a response ends the pending
//!    operation and is handed back with its token and instant. The node
//!    records no history: whoever runs it observes the run (the engine
//!    records each invocation and response, a served node only counts).
//!
//! [`NodeCore::step`] is the node's one step: fire every agenda item
//! due by `now`, each anchored at its own instant, then admit one queued
//! invocation. The wall-clock loop ([`WallNode::run`](crate::deadline::WallNode::run))
//! calls it with the wall clock's reading; the discrete-event engine
//! ([`crate::engine`]) runs `n` nodes on one virtual clock and fires
//! the least `(instant, seq)` item across them with [`NodeCore::fire`].
//! No backend re-implements any of the steps above, so the backends
//! cannot drift in effect application, invariants, timer lifecycle,
//! due order or trace schema.

use core::fmt;
use std::collections::VecDeque;

use crate::actor::{Actor, Context, Effects};
use crate::deadline::{Agenda, Due};
use crate::delay::DelayModel;
use crate::ids::{MsgId, ProcessId};
use crate::time::{ClockTime, SimTime};
use crate::timers::TimerSlab;
use crate::trace::{TraceEvent, TraceEventKind, TraceSink};
use crate::transport::{Link, Transport, TransportError};

/// The one failure of a driver that invokes at `pid` while its previous
/// operation is still pending, the same on every backend.
pub(crate) fn overlapping_invocation(pid: ProcessId) -> ! {
    panic!(
        "{pid}: invocation while another operation is pending \
         (the application layer allows one pending operation per process)"
    )
}

/// The time stamp of one activation: the real time at which it happens
/// and the local clock reading of the process at that instant. Local
/// processing takes zero time, so every effect of one activation
/// carries the same stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Real time of the activation.
    pub now: SimTime,
    /// The process's local clock reading at `now`.
    pub clock: ClockTime,
}

/// A node's agenda item: a timer expiry, a held delivery batch or an
/// invocation scheduled at its instant, with its caller's token.
pub type Item<A, T> = Due<<A as Actor>::Timer, <A as Actor>::Msg, (T, <A as Actor>::Op)>;

/// One process of the system; see the [module docs](self).
///
/// `T` is the token each invocation carries back to its caller with its
/// response: nothing in process, the client's connection and request id
/// on the socket mesh.
///
/// A clone is the node as it stands between two activations: the actor,
/// its timer ids, its agenda, its queue and its pending operation.
/// `clone_from` refills a node in place, keeping its buffers.
pub struct NodeCore<A: Actor, T = ()> {
    pid: ProcessId,
    n: usize,
    actor: A,
    /// Mints the ids of the node's timers (see [`crate::timers`]).
    timers: TimerSlab,
    /// Reused effect buffer: every activation borrows it, fills it and
    /// hands it back drained, so steady-state activations allocate
    /// nothing for their effects.
    scratch: Effects<A>,
    agenda: Agenda<A::Timer, A::Msg, (T, A::Op)>,
    /// Invocations not yet admitted, in arrival order, with their tokens.
    queue: VecDeque<(T, A::Op)>,
    /// The token of the pending operation: the
    /// at-most-one-pending-operation invariant of Chapter III §A.
    in_flight: Option<T>,
}

crate::clone_fields!([A: Actor + Clone, T: Clone] NodeCore<A, T> {
    pid, n, actor, timers, scratch, agenda, queue, in_flight
});

impl<A: Actor, T> fmt::Debug for NodeCore<A, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeCore")
            .field("pid", &self.pid)
            .field("pending", &self.in_flight.is_some())
            .field("agenda", &self.agenda.len())
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl<A: Actor, T> NodeCore<A, T> {
    /// Wraps `actor` as process `pid` of an `n`-process system.
    #[must_use]
    pub fn new(pid: ProcessId, n: usize, actor: A) -> Self {
        NodeCore {
            pid,
            n,
            actor,
            timers: TimerSlab::with_capacity(2),
            scratch: Effects::new(),
            agenda: Agenda::new(),
            queue: VecDeque::new(),
            in_flight: None,
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

    /// Mutable access to the actor state, for the wall-clock loop's
    /// [`Actor::forget_past`].
    pub(crate) fn actor_mut(&mut self) -> &mut A {
        &mut self.actor
    }

    /// `true` while an operation is in flight at this process.
    #[must_use]
    pub fn is_pending(&self) -> bool {
        self.in_flight.is_some()
    }

    /// The node's agenda.
    #[must_use]
    pub fn agenda(&self) -> &Agenda<A::Timer, A::Msg, (T, A::Op)> {
        &self.agenda
    }

    /// Files `item` on the agenda at tick `at` under `seq`.
    pub fn file(&mut self, at: u64, seq: u64, item: Item<A, T>) {
        self.agenda.file(at, seq, item);
    }

    /// Queues an invocation of `op`, to be answered with `token`.
    pub fn enqueue(&mut self, token: T, op: A::Op) {
        self.queue.push_back((token, op));
    }

    /// Agenda items and queued invocations: zero once the node is
    /// quiescent.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.agenda.len() + self.queue.len()
    }

    /// Runs the start-of-run hook ([`Actor::on_start`]) at tick `now`.
    ///
    /// # Errors
    ///
    /// Propagates the transport's send failures.
    pub fn start<D: DelayModel, L: Link<A::Msg>>(
        &mut self,
        now: u64,
        transport: &mut Transport<D, L>,
        trace: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<(), TransportError> {
        let stamp = transport.stamp(self.pid, now);
        self.run(stamp.clock, |actor, ctx| actor.on_start(ctx));
        self.apply_effects(now, stamp, transport, trace)?;
        Ok(())
    }

    /// The node's one step at tick `now`: fires every agenda item due by
    /// `now`, in `(instant, seq)` order and each anchored at its own
    /// instant, then admits the first queued invocation if no operation
    /// is pending. Every completion is handed to `done` with its
    /// invocation's token, its response and its response instant.
    /// Returns the next tick at which the node has something to do —
    /// `now` itself while an admissible invocation is still queued.
    ///
    /// # Errors
    ///
    /// Propagates the transport's send failures.
    pub fn step<D: DelayModel, L: Link<A::Msg>>(
        &mut self,
        now: u64,
        transport: &mut Transport<D, L>,
        mut trace: Option<&mut (dyn TraceSink + '_)>,
        mut done: impl FnMut(T, A::Resp, SimTime),
    ) -> Result<Option<u64>, TransportError> {
        let mut report = |completed: Option<_>| {
            if let Some((token, resp, at)) = completed {
                done(token, resp, at);
            }
        };
        while let Some((at, item)) = self.agenda.pop_due(now) {
            report(self.fire(at, item, transport, trace.as_deref_mut())?);
        }
        if !self.is_pending() {
            if let Some(invocation) = self.queue.pop_front() {
                report(self.fire(now, Due::Invoke(invocation), transport, trace)?);
            }
        }
        let admissible = !self.is_pending() && !self.queue.is_empty();
        Ok(if admissible {
            Some(now)
        } else {
            self.agenda.head().map(|(at, _)| at)
        })
    }

    /// Takes the agenda item under `key` off the agenda, for
    /// [`NodeCore::fire`].
    pub fn take(&mut self, key: (u64, u64)) -> Option<Item<A, T>> {
        self.agenda.take(key)
    }

    /// Runs `item` — one taken off the agenda, or an admitted invocation —
    /// as one activation anchored at tick `anchor`. Returns the token, the
    /// response and the response instant of the operation it completed,
    /// if any.
    ///
    /// # Errors
    ///
    /// Propagates the transport's send failures.
    ///
    /// # Panics
    ///
    /// Panics if the item is an invocation while another operation is
    /// pending.
    pub fn fire<D: DelayModel, L: Link<A::Msg>>(
        &mut self,
        anchor: u64,
        item: Item<A, T>,
        transport: &mut Transport<D, L>,
        mut trace: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<Option<(T, A::Resp, SimTime)>, TransportError> {
        let stamp = transport.stamp(self.pid, anchor);
        match item {
            Due::Invoke((token, op)) => {
                if self.is_pending() {
                    overlapping_invocation(self.pid);
                }
                if let Some(sink) = trace.as_deref_mut() {
                    let op = format!("{op:?}");
                    emit(sink, self.pid, stamp, TraceEventKind::Invoke { op });
                }
                self.in_flight = Some(token);
                self.run(stamp.clock, |actor, ctx| actor.on_invoke(op, ctx));
            }
            Due::Batch {
                from,
                first_id,
                msgs,
            } => {
                // One Recv trace event per message, so per-message
                // send/deliver pairing survives batching.
                if let Some(sink) = trace.as_deref_mut() {
                    for i in 0..msgs.len() as u64 {
                        let msg = MsgId::new(first_id.as_u64() + i);
                        emit(sink, self.pid, stamp, TraceEventKind::Recv { from, msg });
                    }
                }
                self.run(stamp.clock, |actor, ctx| {
                    actor.on_message_batch(from, msgs, ctx);
                });
            }
            Due::Timer(id, timer) => {
                self.timers.fire(id);
                if let Some(sink) = trace.as_deref_mut() {
                    let tag = format!("{timer:?}");
                    emit(sink, self.pid, stamp, TraceEventKind::Timer { id, tag });
                }
                self.run(stamp.clock, |actor, ctx| actor.on_timer(timer, ctx));
            }
        }
        self.apply_effects(anchor, stamp, transport, trace)
    }

    /// Runs one handler against the reusable scratch [`Effects`] buffer,
    /// so steady-state activations allocate nothing for their effects.
    fn run<F>(&mut self, clock: ClockTime, f: F)
    where
        F: FnOnce(&mut A, &mut Context<'_, A>),
    {
        self.scratch.clear();
        let mut ctx = Context::new(self.pid, self.n, clock, &mut self.scratch);
        f(&mut self.actor, &mut ctx);
    }

    /// Drains the activation's effects in the model's fixed order:
    /// sends, timer arms, then the response. Sends and arms draw their
    /// agenda sequence numbers from the transport in that order, and
    /// each arm mints its timer's id in [`Context::set_timer`] order.
    /// Returns the token, response and instant of the operation the
    /// activation completed, if any.
    ///
    /// On the first transport failure the error propagates and the rest
    /// of the activation's effects are dropped by the next `run` (a
    /// partially applied activation cannot be meaningfully resumed). The
    /// in-process links never fail.
    fn apply_effects<D: DelayModel, L: Link<A::Msg>>(
        &mut self,
        anchor: u64,
        stamp: Stamp,
        transport: &mut Transport<D, L>,
        mut trace: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<Option<(T, A::Resp, SimTime)>, TransportError> {
        let pid = self.pid;
        for (to, msgs) in self.scratch.batches.drain(..) {
            let Some(sink) = trace.as_deref_mut() else {
                transport.send_batch(pid, to, stamp.now, msgs)?;
                continue;
            };
            // One Send trace event per message; ids are consecutive
            // from the batch's first id.
            let payloads: Vec<String> = msgs.iter().map(|m| format!("{m:?}")).collect();
            let first = transport.send_batch(pid, to, stamp.now, msgs)?;
            for (i, payload) in payloads.into_iter().enumerate() {
                let msg = MsgId::new(first.as_u64() + i as u64);
                emit(sink, pid, stamp, TraceEventKind::Send { to, msg, payload });
            }
        }

        for (delay, timer) in self.scratch.timers.drain(..) {
            let id = self.timers.alloc();
            if let Some(sink) = trace.as_deref_mut() {
                let tag = format!("{timer:?}");
                emit(
                    sink,
                    pid,
                    stamp,
                    TraceEventKind::TimerSet { id, tag, delay },
                );
            }
            let at = transport.expiry(pid, anchor, delay);
            self.agenda.file(at, transport.seq(), Due::Timer(id, timer));
        }

        let Some(resp) = self.scratch.response.take() else {
            return Ok(None);
        };
        let token = self
            .in_flight
            .take()
            .unwrap_or_else(|| panic!("{pid}: response with no pending operation"));
        if let Some(sink) = trace {
            let resp = format!("{resp:?}");
            emit(sink, pid, stamp, TraceEventKind::Respond { resp });
        }
        Ok(Some((token, resp, stamp.now)))
    }
}

/// Emits one trace event of `pid`, stamped with `stamp`.
fn emit(sink: &mut dyn TraceSink, pid: ProcessId, stamp: Stamp, kind: TraceEventKind) {
    sink.event(&TraceEvent {
        at: stamp.now,
        clock: stamp.clock,
        pid,
        kind,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Remembers every invocation it sees.
    #[derive(Debug, Clone, Default)]
    struct Tally {
        seen: Vec<u32>,
    }

    impl Actor for Tally {
        type Msg = u8;
        type Op = u32;
        type Resp = u32;
        type Timer = &'static str;

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            self.seen.push(op);
            ctx.respond(op);
        }

        fn on_message(&mut self, _: ProcessId, _: u8, _: &mut Context<'_, Self>) {}

        fn on_timer(&mut self, _: &'static str, _: &mut Context<'_, Self>) {}
    }

    /// A node with `k` items of each kind on its agenda (each timer on a
    /// slot retired once before), `k` queued invocations and, for odd
    /// `k`, an operation pending.
    fn node(k: u32) -> NodeCore<Tally, u8> {
        let actor = Tally {
            seen: (0..k).collect(),
        };
        let mut node = NodeCore::new(ProcessId::new(1), 3, actor);
        for i in 0..k {
            let (at, seq, token) = (u64::from(i), 3 * u64::from(i), u8::try_from(i).unwrap());
            let fired = node.timers.alloc();
            node.timers.fire(fired);
            let armed = node.timers.alloc();
            node.file(at, seq, Due::Timer(armed, "t"));
            let msgs = vec![7; i as usize + 1];
            let first_id = MsgId::new(at);
            let from = ProcessId::new(0);
            node.file(
                at,
                seq + 1,
                Due::Batch {
                    from,
                    first_id,
                    msgs,
                },
            );
            node.file(at, seq + 2, Due::Invoke((token, i)));
            node.enqueue(token, i);
        }
        if k % 2 == 1 {
            node.in_flight = Some(9);
        }
        node
    }

    #[test]
    fn a_refilled_node_equals_a_cloned_one() {
        let nodes = [node(0), node(1), node(2), node(5)];
        crate::assert_clone_from_is_clone(&nodes, |node| {
            format!(
                "{:?} {} {:?} {:?} {:?} {:?} {:?} {:?}",
                node.pid,
                node.n,
                node.actor,
                node.timers,
                node.scratch,
                node.agenda,
                node.queue,
                node.in_flight
            )
        });
    }
}
