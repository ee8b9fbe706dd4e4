//! The process state machine abstraction.
//!
//! Chapter III models each process as a state machine whose transition
//! function consumes `(current state, input event, clock time)` and emits
//! `(new state, output events)`, where input events are operation
//! invocations, message receipts and timer expirations, and output events
//! are at most one operation response plus at most one message per peer and
//! new timer settings.
//!
//! [`Actor`] is that transition function in sans-io form: handlers mutate
//! `self` (the state) and record outputs through a [`Context`], which
//! offers exactly the model's three kinds: a response
//! ([`Context::respond`]), sends, and timer settings
//! ([`Context::set_timer`]; a timer once set always fires). The same
//! actor therefore runs unchanged under the deterministic discrete-event
//! engine ([`crate::engine`]) and the real-thread runtime ([`crate::rt`]).

use core::fmt;

use crate::ids::ProcessId;
use crate::time::{ClockTime, SimDuration};

/// A process in the message-passing system.
///
/// Handlers must be deterministic functions of the actor state, the input
/// event and the local clock reading — exactly the model in which the
/// thesis's bounds are proved. In particular they must not read wall-clock
/// time or other ambient state.
///
/// Local processing takes zero simulated time, matching the model.
pub trait Actor: Sized {
    /// Messages exchanged between processes.
    type Msg: Clone + fmt::Debug;
    /// Operation invocations from the application layer.
    type Op: Clone + fmt::Debug;
    /// Operation responses to the application layer.
    type Resp: Clone + fmt::Debug;
    /// Timer tags. The thesis attaches `⟨op, arg, ts⟩` plus an action to
    /// each timer; actors encode that here.
    type Timer: Clone + fmt::Debug;

    /// Called once at real time zero, before any other event.
    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        let _ = ctx;
    }

    /// The application layer invoked `op` at this process.
    ///
    /// The runtime guarantees at most one operation is pending per process
    /// (the application-layer constraint of Chapter III §A).
    fn on_invoke(&mut self, op: Self::Op, ctx: &mut Context<'_, Self>);

    /// A message from `from` was delivered.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut Context<'_, Self>);

    /// A delivery batch from `from` arrived: the messages of one
    /// [`Context::send_batch`] call, delivered together after one shared
    /// delay draw. A single [`Context::send`] arrives as a batch of one.
    ///
    /// The default unrolls the batch through [`Actor::on_message`] in send
    /// order within a single activation, which is behaviorally identical
    /// to `k` back-to-back deliveries at the same instant. Actors that can
    /// amortize per-message work (e.g. arming one hold timer for a whole
    /// mutator batch) override this.
    fn on_message_batch(
        &mut self,
        from: ProcessId,
        msgs: Vec<Self::Msg>,
        ctx: &mut Context<'_, Self>,
    ) {
        for msg in msgs {
            self.on_message(from, msg, ctx);
        }
    }

    /// A timer set earlier via [`Context::set_timer`] went off.
    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut Context<'_, Self>);

    /// Drops what the actor keeps only so that a finished run can be
    /// checked, such as a replica's execution order. The wall-clock loop
    /// ([`WallNode::run`](crate::deadline::WallNode::run)) calls it after
    /// every step, so a node that serves for as long as it runs does not
    /// grow; the engine never calls it, so its checks see everything.
    /// The default keeps everything.
    fn forget_past(&mut self) {}
}

/// Output buffer filled by one handler activation.
#[derive(Debug)]
pub(crate) struct Effects<A: Actor> {
    /// One delivery batch per send, in send order.
    pub(crate) batches: Vec<(ProcessId, Vec<A::Msg>)>,
    pub(crate) timers: Vec<(SimDuration, A::Timer)>,
    pub(crate) response: Option<A::Resp>,
}

impl<A: Actor> Effects<A> {
    pub(crate) fn new() -> Self {
        Effects {
            batches: Vec::new(),
            timers: Vec::new(),
            response: None,
        }
    }

    /// Empties the buffer in place, keeping the allocations — the node
    /// core reuses one `Effects` across activations.
    pub(crate) fn clear(&mut self) {
        self.batches.clear();
        self.timers.clear();
        self.response = None;
    }
}

// Manual impl: `A` itself need not be `Default`.
impl<A: Actor> Default for Effects<A> {
    fn default() -> Self {
        Effects::new()
    }
}

/// A copy is a fresh, empty buffer: effects never outlive the activation
/// that produced them, so between activations there is nothing to copy.
impl<A: Actor> Clone for Effects<A> {
    fn clone(&self) -> Self {
        Effects::new()
    }

    fn clone_from(&mut self, _source: &Self) {
        self.clear();
    }
}

/// Handler-side view of the runtime: local clock, message sends, timers and
/// the operation response.
///
/// A `Context` is only valid for the duration of one handler call; all
/// effects take place after the handler returns, at the same instant of
/// simulated time (local processing is instantaneous).
pub struct Context<'a, A: Actor> {
    pid: ProcessId,
    n: usize,
    clock: ClockTime,
    effects: &'a mut Effects<A>,
}

impl<A: Actor> fmt::Debug for Context<'_, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("pid", &self.pid)
            .field("n", &self.n)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl<'a, A: Actor> Context<'a, A> {
    pub(crate) fn new(
        pid: ProcessId,
        n: usize,
        clock: ClockTime,
        effects: &'a mut Effects<A>,
    ) -> Self {
        Context {
            pid,
            n,
            clock,
            effects,
        }
    }

    /// This process's id.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Total number of processes in the system.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The local clock reading (real time plus this process's offset).
    ///
    /// This is the *only* notion of time a process may observe.
    #[must_use]
    pub fn clock(&self) -> ClockTime {
        self.clock
    }

    /// Sends `msg` to process `to`, as a delivery batch of one.
    ///
    /// # Panics
    ///
    /// Panics if `to` is this process (the model has no self-messages;
    /// Algorithm 1 uses a `d − u` self-add timer instead) or out of range.
    pub fn send(&mut self, to: ProcessId, msg: A::Msg) {
        assert!(to != self.pid, "{to}: processes do not send to themselves");
        assert!(to.index() < self.n, "{to} out of range (n = {})", self.n);
        self.effects.batches.push((to, vec![msg]));
    }

    /// Sends `msg` to every *other* process (self excluded, per the
    /// model), as one delivery batch of one per destination.
    // Inlined everywhere: see `Agenda::file`.
    #[inline]
    pub fn broadcast(&mut self, msg: A::Msg)
    where
        A::Msg: Clone,
    {
        for to in ProcessId::all(self.n) {
            if to != self.pid {
                self.effects.batches.push((to, vec![msg.clone()]));
            }
        }
    }

    /// Sends `msgs` to process `to` as one delivery batch: the transport
    /// charges one delay draw for the whole batch and the receiver gets a
    /// single [`Actor::on_message_batch`] activation, with the messages
    /// delivered in order.
    ///
    /// # Panics
    ///
    /// Panics if `to` is this process, out of range, or `msgs` is empty
    /// (an empty batch has no delivery event to schedule).
    pub fn send_batch(&mut self, to: ProcessId, msgs: Vec<A::Msg>) {
        assert!(to != self.pid, "{to}: processes do not send to themselves");
        assert!(to.index() < self.n, "{to} out of range (n = {})", self.n);
        assert!(!msgs.is_empty(), "{}: empty delivery batch", self.pid);
        self.effects.batches.push((to, msgs));
    }

    /// Sends a copy of the batch `msgs` to every *other* process (self
    /// excluded, per the model). Per-destination framing matches
    /// [`Context::send_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `msgs` is empty.
    pub fn broadcast_batch(&mut self, msgs: &[A::Msg])
    where
        A::Msg: Clone,
    {
        assert!(!msgs.is_empty(), "{}: empty delivery batch", self.pid);
        for to in ProcessId::all(self.n) {
            if to != self.pid {
                self.effects.batches.push((to, msgs.to_vec()));
            }
        }
    }

    /// Sets a timer that fires `delay` later (clocks have no drift, so a
    /// clock-time delay equals a real-time delay). Timers are only set:
    /// as in the model, a timer once set always fires.
    ///
    /// A zero delay fires at the current instant, after all effects of the
    /// current handler are applied.
    pub fn set_timer(&mut self, delay: SimDuration, timer: A::Timer) {
        self.effects.timers.push((delay, timer));
    }

    /// Responds to the pending operation at this process.
    ///
    /// # Panics
    ///
    /// Panics if the handler already responded in this activation. The
    /// engine additionally verifies an operation is actually pending.
    pub fn respond(&mut self, resp: A::Resp) {
        assert!(
            self.effects.response.is_none(),
            "{}: handler produced two responses in one step",
            self.pid
        );
        self.effects.response = Some(resp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Echo;

    impl Actor for Echo {
        type Msg = u32;
        type Op = u32;
        type Resp = u32;
        type Timer = ();

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            ctx.respond(op);
        }

        fn on_message(&mut self, _from: ProcessId, _msg: u32, _ctx: &mut Context<'_, Self>) {}

        fn on_timer(&mut self, _timer: (), _ctx: &mut Context<'_, Self>) {}
    }

    fn ctx_harness<F: FnOnce(&mut Context<'_, Echo>)>(f: F) -> Effects<Echo> {
        let mut effects = Effects::new();
        f(&mut Context::new(
            ProcessId::new(0),
            3,
            ClockTime::from_ticks(5),
            &mut effects,
        ));
        effects
    }

    #[test]
    fn broadcast_excludes_self() {
        let effects = ctx_harness(|ctx| ctx.broadcast(7));
        let sends: Vec<_> = effects
            .batches
            .iter()
            .map(|(to, msgs)| (to.index(), msgs.clone()))
            .collect();
        assert_eq!(sends, vec![(1, vec![7]), (2, vec![7])]);
    }

    #[test]
    #[should_panic(expected = "do not send to themselves")]
    fn self_send_rejected() {
        ctx_harness(|ctx| ctx.send(ProcessId::new(0), 1));
    }

    #[test]
    #[should_panic(expected = "two responses")]
    fn double_response_rejected() {
        ctx_harness(|ctx| {
            ctx.respond(1);
            ctx.respond(2);
        });
    }

    #[test]
    fn clock_visible_to_handler() {
        ctx_harness(|ctx| assert_eq!(ctx.clock(), ClockTime::from_ticks(5)));
    }

    #[test]
    fn broadcast_batch_excludes_self_and_keeps_order() {
        let effects = ctx_harness(|ctx| ctx.broadcast_batch(&[7, 8, 9]));
        let targets: Vec<_> = effects.batches.iter().map(|(to, _)| to.index()).collect();
        assert_eq!(targets, vec![1, 2]);
        for (_, msgs) in &effects.batches {
            assert_eq!(msgs, &vec![7, 8, 9]);
        }
    }

    #[test]
    #[should_panic(expected = "empty delivery batch")]
    fn empty_batch_rejected() {
        ctx_harness(|ctx| ctx.send_batch(ProcessId::new(1), Vec::new()));
    }

    #[test]
    fn default_batch_handler_unrolls_in_order() {
        #[derive(Debug, Default)]
        struct Collect(Vec<u32>);
        impl Actor for Collect {
            type Msg = u32;
            type Op = u32;
            type Resp = u32;
            type Timer = ();
            fn on_invoke(&mut self, _op: u32, _ctx: &mut Context<'_, Self>) {}
            fn on_message(&mut self, _from: ProcessId, msg: u32, _ctx: &mut Context<'_, Self>) {
                self.0.push(msg);
            }
            fn on_timer(&mut self, _timer: (), _ctx: &mut Context<'_, Self>) {}
        }
        let mut actor = Collect::default();
        let mut effects = Effects::new();
        let mut ctx = Context::new(ProcessId::new(1), 3, ClockTime::from_ticks(0), &mut effects);
        actor.on_message_batch(ProcessId::new(0), vec![3, 1, 2], &mut ctx);
        assert_eq!(actor.0, vec![3, 1, 2]);
    }
}
