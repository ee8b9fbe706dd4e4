//! The wall-clock backend core: the run-loop pieces the real-thread
//! runtime ([`crate::rt`]) and the socket backend (`skewbound-net`)
//! share.
//!
//! The discrete-event engine schedules on *nominal* time: a timer set
//! with delay `δ` inside an activation at virtual time `t` expires at
//! exactly `t + δ`, however long the host took to run the handler. The
//! wall-clock backends get the same rule from the pieces here:
//!
//! * [`TimeBase`] is the run clock: ticks are µs since the run epoch.
//! * [`Agenda`] holds a node's armed timers and the delivery batches
//!   waiting out their injected delay under absolute [`Instant`]s, and
//!   pops them in one nominal-time order: instant first, timers before
//!   deliveries on a tie, then id.
//! * [`WallNode`] is one node: its [`NodeCore`], its [`WallTransport`]
//!   and its drain state. Its one fire-due step anchors each activation
//!   at the item's own instant — a timer's deadline, a batch's
//!   `deliver_at` — so a timer armed while handling it is due at
//!   `instant + δ` and the lateness of one wake-up is not inherited by
//!   the next. Its one drain rule says when the run loop may exit.
//! * [`wait`] blocks on an inbox until an arrival or a deadline. It
//!   never reports a timeout early, and when the caller says a late
//!   wake-up would cost latency it trades a bounded slice of CPU for
//!   punctuality: sleep to one margin (150 µs) short of the deadline,
//!   then poll.

use core::fmt;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::actor::Actor;
use crate::ids::{MsgId, OpId, ProcessId, TimerId};
use crate::node::{Activation, HistorySink, NodeCore, Stamp, TraceOutput};
use crate::time::{ClockOffset, SimTime};
use crate::transport::{Link, TransportError, WallTransport};

/// The shared run clock: ticks are µs since the run epoch.
#[derive(Debug, Clone, Copy)]
pub struct TimeBase {
    pub(crate) start_instant: Instant,
    pub(crate) start_ticks: u64,
}

impl TimeBase {
    /// Anchors the timebase: samples the wall clock once against
    /// `epoch_micros` (unix µs) and advances monotonically from there.
    #[must_use]
    pub fn new(epoch_micros: u64) -> Self {
        TimeBase {
            start_instant: Instant::now(),
            start_ticks: Self::epoch_now_micros().saturating_sub(epoch_micros),
        }
    }

    /// An epoch value for "now" — what a launcher passes to every
    /// process of a fresh run.
    #[must_use]
    pub fn epoch_now_micros() -> u64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock is before the unix epoch")
            .as_micros() as u64
    }

    /// The current tick count (µs since the epoch).
    #[must_use]
    pub fn now_ticks(&self) -> u64 {
        self.start_ticks + self.start_instant.elapsed().as_micros() as u64
    }

    /// The [`Instant`] at which tick `t` is (or was) reached. Ticks
    /// before startup clamp to the start instant — they are already due.
    #[must_use]
    pub fn instant_for(&self, t: u64) -> Instant {
        self.start_instant + Duration::from_micros(t.saturating_sub(self.start_ticks))
    }
}

/// One [`Agenda`] item.
#[derive(Debug, PartialEq, Eq)]
pub enum Due<T, M> {
    /// Timer `id` expires.
    Timer(TimerId, T),
    /// A batch from `from`, holding the ids `first_id..first_id + k`,
    /// is delivered.
    Batch {
        /// The sender.
        from: ProcessId,
        /// The id of the first message.
        first_id: MsgId,
        /// The messages, in send order.
        msgs: Vec<M>,
    },
}

/// A node's timers and held deliveries, popped in one nominal-time
/// order.
///
/// One order for both kinds is what makes anchored arming safe after a
/// stall: a wake-up that finds a delivery and a younger timer both
/// overdue replays them as the model prescribes, instead of letting a
/// cascade of overdue timers run ahead of the older delivery. Keys are
/// `(instant, is a delivery, id)`, so the map's order is the pop order.
#[derive(Debug)]
pub struct Agenda<T, M> {
    items: BTreeMap<(Instant, bool, u64), Due<T, M>>,
}

impl<T, M> Default for Agenda<T, M> {
    fn default() -> Self {
        Agenda {
            items: BTreeMap::new(),
        }
    }
}

impl<T, M> Agenda<T, M> {
    /// An empty agenda.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms timer `id` to expire at `at`.
    pub fn arm(&mut self, at: Instant, id: TimerId, timer: T) {
        self.insert((at, false, id.as_u64()), Due::Timer(id, timer));
    }

    /// Holds a delivery batch until `at`.
    pub fn hold(&mut self, at: Instant, from: ProcessId, first_id: MsgId, msgs: Vec<M>) {
        let due = Due::Batch {
            from,
            first_id,
            msgs,
        };
        self.insert((at, true, first_id.as_u64()), due);
    }

    fn insert(&mut self, key: (Instant, bool, u64), due: Due<T, M>) {
        let clash = self.items.insert(key, due);
        assert!(
            clash.is_none(),
            "two agenda items share an instant and an id"
        );
    }

    /// Removes timer `id` if it is still armed.
    pub fn cancel(&mut self, id: TimerId) {
        self.items
            .retain(|&(_, batch, raw), _| batch || raw != id.as_u64());
    }

    /// Pops the first item in agenda order if its instant is `≤ now`,
    /// with that instant — the nominal instant of its activation.
    pub fn pop_due(&mut self, now: Instant) -> Option<(Instant, Due<T, M>)> {
        let first = self.items.first_entry().filter(|e| e.key().0 <= now)?;
        let ((at, _, _), due) = first.remove_entry();
        Some((at, due))
    }

    /// The earliest instant on the agenda.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        self.items.keys().next().map(|&(at, _, _)| at)
    }

    /// `true` when nothing is armed or held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// How long a node with no deadline ahead waits between looks at its
/// state.
const IDLE_POLL: Duration = Duration::from_millis(10);

/// One node of a wall-clock backend: a [`NodeCore`], its
/// [`WallTransport`] and the state of its drain.
///
/// The run loops around it differ only in their inboxes: a worker's
/// channel on threads, a socket mesh across processes. Both start the
/// node, call [`WallNode::fire_due`] until nothing is due, hand it
/// arrivals, and exit when [`WallNode::drain_wait`] says so.
pub struct WallNode<A: Actor, L> {
    core: NodeCore<A>,
    transport: WallTransport<A, L>,
    offset: ClockOffset,
    /// The drain's grace period, once the node has been told to stop.
    grace: Option<Duration>,
    /// The last arrival or activation, for the drain's quiet period.
    last_activity: Instant,
    timers_fired: u64,
}

impl<A: Actor, L> fmt::Debug for WallNode<A, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WallNode")
            .field("core", &self.core)
            .field("grace", &self.grace)
            .finish_non_exhaustive()
    }
}

impl<A: Actor, L: Link<A::Msg>> WallNode<A, L> {
    /// Wraps `core` around `transport`; every activation is stamped on
    /// the transport's [`TimeBase`] with the local clock at `offset`.
    pub fn new(core: NodeCore<A>, transport: WallTransport<A, L>, offset: ClockOffset) -> Self {
        WallNode {
            core,
            transport,
            offset,
            grace: None,
            last_activity: Instant::now(),
            timers_fired: 0,
        }
    }

    /// The pending operation, if one is in flight at this node.
    #[must_use]
    pub fn pending_op(&self) -> Option<OpId> {
        self.core.pending_op()
    }

    /// The earliest instant on the agenda: the run loop's next deadline.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Instant> {
        self.transport.agenda.next_deadline()
    }

    /// Timer activations that ran (stale expiries excluded).
    #[must_use]
    pub fn timers_fired(&self) -> u64 {
        self.timers_fired
    }

    /// Runs one activation with nominal instant `anchor`, stamped now.
    fn activate<R>(
        &mut self,
        anchor: Instant,
        run: impl FnOnce(&mut NodeCore<A>, Stamp, &mut WallTransport<A, L>) -> R,
    ) -> R {
        self.transport.anchor = anchor;
        self.last_activity = Instant::now();
        let now = SimTime::from_ticks(self.transport.base.now_ticks());
        let clock = now.to_clock(self.offset);
        run(&mut self.core, Stamp { now, clock }, &mut self.transport)
    }

    /// Runs the start-of-run hook, anchored now.
    ///
    /// # Errors
    ///
    /// Propagates the transport's send failures.
    pub fn start<TO: TraceOutput, H: HistorySink<A>>(
        &mut self,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Activation, TransportError> {
        self.activate(Instant::now(), |core, stamp, t| {
            core.on_start(stamp, t, trace, history)
        })
    }

    /// Runs an invocation, anchored now. `recorded` is its history id
    /// when the caller recorded it already (the thread clients do, at
    /// the call site); otherwise the node records it.
    ///
    /// # Errors
    ///
    /// Propagates the transport's send failures.
    pub fn invoke<TO: TraceOutput, H: HistorySink<A>>(
        &mut self,
        recorded: Option<OpId>,
        op: A::Op,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Activation, TransportError> {
        self.activate(Instant::now(), |core, stamp, t| match recorded {
            Some(id) => core.on_invoke_recorded(stamp, id, op, t, trace, history),
            None => core.on_invoke(stamp, op, t, trace, history),
        })
    }

    /// The one fire-due step: runs the first agenda item that is due,
    /// anchored at its own instant, or returns `Ok(None)` when nothing
    /// is. An activation may arm a timer that is already due; the next
    /// call finds it in its place.
    ///
    /// # Errors
    ///
    /// Propagates the transport's send failures.
    pub fn fire_due<TO: TraceOutput, H: HistorySink<A>>(
        &mut self,
        trace: &mut TO,
        history: &mut H,
    ) -> Result<Option<Activation>, TransportError> {
        let Some((at, due)) = self.transport.agenda.pop_due(Instant::now()) else {
            return Ok(None);
        };
        let is_timer = matches!(due, Due::Timer(..));
        let act = self.activate(at, |core, stamp, t| match due {
            Due::Timer(id, timer) => core.on_timer(stamp, id, timer, t, trace, history),
            Due::Batch {
                from,
                first_id,
                msgs,
            } => core.on_message_batch(stamp, from, first_id, msgs, t, trace, history),
        })?;
        self.timers_fired += u64::from(is_timer && act != Activation::Stale);
        Ok(Some(act))
    }

    /// Holds an arrived batch until tick `deliver_at` of the run's
    /// [`TimeBase`].
    pub fn hold(&mut self, deliver_at: u64, from: ProcessId, first_id: MsgId, msgs: Vec<A::Msg>) {
        let at = self.transport.base.instant_for(deliver_at);
        self.transport.agenda.hold(at, from, first_id, msgs);
        self.touch();
    }

    /// Records an arrival the node did not activate on.
    pub fn touch(&mut self) {
        self.last_activity = Instant::now();
    }

    /// Tells the node to stop once drained, after `grace` of quiet.
    pub fn stop(&mut self, grace: Duration) {
        self.grace = Some(grace);
        self.touch();
    }

    /// The one drain rule. A node exits once it has been told to stop,
    /// its agenda is empty, no operation is pending — neither here nor,
    /// as the caller reports through `busy`, anywhere it still has to
    /// answer for — and it has been quiet for the grace period: then
    /// `None`. Otherwise, how long the run loop may wait before looking
    /// again.
    #[must_use]
    pub fn drain_wait(&self, busy: bool) -> Option<Duration> {
        let idle = !busy && self.pending_op().is_none() && self.transport.agenda.is_empty();
        match self.grace {
            Some(grace) if idle => grace
                .checked_sub(self.last_activity.elapsed())
                .filter(|left| !left.is_zero()),
            _ => Some(IDLE_POLL),
        }
    }
}

/// How far ahead of a deadline [`wait`] stops sleeping and starts
/// polling. Sized at the p90 of the wake-up latency of a
/// `recv_timeout` under a 1 ns timer slack on the 2-vCPU Firecracker
/// host the benchmark bounds were sized on (p50 ≈ 100 µs, p90 ≈ 150 µs:
/// an idle vCPU has to be woken by the host first), so nine sleeps in
/// ten are awake before the deadline and the poll ends on it.
const SPIN_MARGIN: Duration = Duration::from_micros(150);

/// A wait must be at least this many margins long before [`wait`]
/// polls at its end, which bounds the polling duty cycle without any
/// state: a poll of at most one margin always follows a sleep of at
/// least seven. (Polling before *every* deadline was measured and
/// rejected: on a write-heavy mesh whose timers are 500 µs apart it
/// keeps both vCPUs busy and every cross-thread wake-up on the host
/// gets dearer — see EXPERIMENTS.md.)
const MIN_MARGINS_TO_SPIN: u32 = 8;

/// For a wait of `left` up to its deadline: how long to sleep before
/// polling, or `None` to sleep all the way.
fn sleep_before_spin(left: Duration, may_spin: bool) -> Option<Duration> {
    (may_spin && left >= SPIN_MARGIN * MIN_MARGINS_TO_SPIN).then(|| left - SPIN_MARGIN)
}

/// Waits on `rx` until an event arrives or the wait ends, whichever is
/// first. The wait ends at `deadline`, or `cap` from now if that is
/// sooner (or there is no deadline). An arrival returns at once;
/// `Err(Timeout)` is never returned before the end of the wait.
///
/// With `may_spin`, a wait that ends on its deadline and is at least
/// eight margins long sleeps to one margin before the deadline and
/// polls the rest, so the timeout is reported within a microsecond or
/// so of the deadline instead of a scheduler wake-up later. Callers
/// pass `may_spin` only while a late wake-up costs somebody latency (an
/// operation is pending at this node).
///
/// # Errors
///
/// [`RecvTimeoutError::Timeout`] at the end of the wait,
/// [`RecvTimeoutError::Disconnected`] as soon as every sender is gone.
pub fn wait<E>(
    rx: &Receiver<E>,
    deadline: Option<Instant>,
    cap: Duration,
    may_spin: bool,
) -> Result<E, RecvTimeoutError> {
    let Some(deadline) = deadline else {
        return rx.recv_timeout(cap);
    };
    let left = deadline.saturating_duration_since(Instant::now());
    if left > cap {
        return rx.recv_timeout(cap);
    }
    let Some(sleep) = sleep_before_spin(left, may_spin) else {
        return rx.recv_timeout(left);
    };
    match rx.recv_timeout(sleep) {
        Err(RecvTimeoutError::Timeout) => poll_until(rx, deadline),
        arrived_or_closed => arrived_or_closed,
    }
}

/// The polling end of [`wait`]: looks at `rx` without blocking until an
/// event arrives or `deadline` passes.
fn poll_until<E>(rx: &Receiver<E>, deadline: Instant) -> Result<E, RecvTimeoutError> {
    loop {
        match rx.try_recv() {
            Ok(event) => return Ok(event),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => {}
        }
        if Instant::now() >= deadline {
            return Err(RecvTimeoutError::Timeout);
        }
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Context;
    use crate::time::SimDuration;
    use rand::rngs::StdRng;
    use std::sync::mpsc::channel;
    use std::thread;

    fn id(raw: u64) -> TimerId {
        TimerId::new(raw)
    }

    fn msg(raw: u64) -> MsgId {
        MsgId::new(raw)
    }

    const MS: Duration = Duration::from_millis(1);
    const P: ProcessId = ProcessId::new(1);

    /// An agenda of `&str` timers and `u8` messages.
    type TestAgenda = Agenda<&'static str, u8>;

    fn batch(first_id: u64) -> Due<&'static str, u8> {
        Due::Batch {
            from: P,
            first_id: msg(first_id),
            msgs: vec![0],
        }
    }

    #[test]
    fn pop_due_orders_by_deadline_then_id() {
        let t0 = Instant::now();
        let mut agenda = TestAgenda::new();
        agenda.arm(t0 + 2 * MS, id(7), "late");
        agenda.arm(t0 + MS, id(5), "tie, larger id");
        agenda.arm(t0 + MS, id(3), "tie, smaller id");
        let now = t0 + 10 * MS;
        let order: Vec<_> = std::iter::from_fn(|| agenda.pop_due(now)).collect();
        assert_eq!(
            order,
            vec![
                (t0 + MS, Due::Timer(id(3), "tie, smaller id")),
                (t0 + MS, Due::Timer(id(5), "tie, larger id")),
                (t0 + 2 * MS, Due::Timer(id(7), "late")),
            ]
        );
        assert!(agenda.is_empty());
    }

    /// A late wake-up finds an older delivery and a younger timer both
    /// overdue: the delivery goes first, as the model orders them.
    #[test]
    fn late_wakeup_replays_the_older_delivery_before_the_younger_timer() {
        let t0 = Instant::now();
        let mut agenda = TestAgenda::new();
        agenda.hold(t0 + 3 * MS, P, msg(9), vec![0]);
        agenda.hold(t0 + MS, P, msg(4), vec![0]);
        agenda.arm(t0 + 2 * MS, id(1), "timer");
        let now = t0 + 50 * MS; // the stall
        let order: Vec<_> = std::iter::from_fn(|| agenda.pop_due(now)).collect();
        assert_eq!(
            order,
            vec![
                (t0 + MS, batch(4)),
                (t0 + 2 * MS, Due::Timer(id(1), "timer")),
                (t0 + 3 * MS, batch(9)),
            ]
        );
    }

    #[test]
    fn ties_go_to_the_timer_then_to_the_smaller_message_id() {
        let at = Instant::now() + MS;
        let mut agenda = TestAgenda::new();
        agenda.hold(at, P, msg(7), vec![0]);
        agenda.hold(at, P, msg(2), vec![0]);
        agenda.arm(at, id(9), "timer");
        let order: Vec<_> = std::iter::from_fn(|| agenda.pop_due(at)).collect();
        assert_eq!(
            order,
            vec![
                (at, Due::Timer(id(9), "timer")),
                (at, batch(2)),
                (at, batch(7))
            ]
        );
    }

    #[test]
    fn nothing_pops_before_its_deadline() {
        let t0 = Instant::now();
        let mut agenda = TestAgenda::new();
        agenda.hold(t0 + 2 * MS, P, msg(1), vec![0]);
        agenda.arm(t0 + 3 * MS, id(1), "timer");
        assert_eq!(agenda.next_deadline(), Some(t0 + 2 * MS));
        assert!(agenda.pop_due(t0).is_none());
        assert!(agenda
            .pop_due(t0 + 2 * MS - Duration::from_nanos(1))
            .is_none());
        // Exactly on its instant the batch is due; the timer is not yet.
        assert_eq!(agenda.pop_due(t0 + 2 * MS), Some((t0 + 2 * MS, batch(1))));
        assert!(agenda.pop_due(t0 + 2 * MS).is_none());
        assert_eq!(agenda.next_deadline(), Some(t0 + 3 * MS));
        assert!(!agenda.is_empty());
    }

    #[test]
    fn cancel_removes_only_the_named_timer() {
        let t0 = Instant::now();
        let mut agenda = TestAgenda::new();
        agenda.arm(t0, id(1), "a");
        agenda.arm(t0, id(2), "b");
        // A batch whose first id equals a timer id is not a timer.
        agenda.hold(t0, P, msg(1), vec![0]);
        agenda.cancel(id(1));
        agenda.cancel(id(9)); // never armed: a no-op
        assert_eq!(agenda.pop_due(t0), Some((t0, Due::Timer(id(2), "b"))));
        assert_eq!(agenda.pop_due(t0), Some((t0, batch(1))));
        assert!(agenda.is_empty());
        assert_eq!(agenda.next_deadline(), None);
    }

    /// A chain armed at `anchor + delay` lands on the sum of its
    /// delays, however late each link was popped.
    #[test]
    fn anchored_chain_lands_on_the_sum_of_its_delays() {
        let a = Instant::now();
        let (d1, d2) = (5 * MS, 7 * MS);
        for lateness in [Duration::ZERO, 2 * MS, 400 * MS] {
            let mut agenda = TestAgenda::new();
            agenda.arm(a + d1, id(1), "first");
            let now = a + d1 + lateness;
            let (anchor, _) = agenda.pop_due(now).expect("first link is due");
            assert_eq!(anchor, a + d1, "the popped deadline is the anchor");
            agenda.arm(anchor + d2, id(2), "second");
            assert_eq!(agenda.next_deadline(), Some(a + d1 + d2));
        }
    }

    /// Arms a timer of `delay` ticks when a message is delivered.
    #[derive(Debug)]
    struct ArmOnDelivery {
        delay: u64,
    }

    impl Actor for ArmOnDelivery {
        type Msg = ();
        type Op = ();
        type Resp = ();
        type Timer = ();

        fn on_invoke(&mut self, _op: (), _ctx: &mut Context<'_, Self>) {}
        fn on_message(&mut self, _from: ProcessId, _msg: (), ctx: &mut Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(self.delay), ());
        }
        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    /// A link nobody sends through.
    struct NoLink;

    impl Link<()> for NoLink {
        fn hand_off(
            &mut self,
            _: ProcessId,
            _: ProcessId,
            _: MsgId,
            _: u64,
            _: u64,
            _: Vec<()>,
        ) -> Result<(), TransportError> {
            unreachable!("the test actor never sends")
        }
    }

    /// A timer armed while handling a held delivery is due at
    /// `deliver_at + δ`, even when the delivery is popped late.
    #[test]
    fn a_timer_armed_by_a_late_delivery_is_due_at_deliver_at_plus_its_delay() {
        use crate::history::History;
        use crate::node::NoTrace;
        use rand::SeedableRng;

        let base = TimeBase::new(TimeBase::epoch_now_micros());
        let transport = WallTransport::new(P, NoLink, base, StdRng::seed_from_u64(1), (1, 1));
        let actor = ArmOnDelivery { delay: 3_000 };
        let mut node = WallNode::new(NodeCore::new(P, 2, actor), transport, ClockOffset::ZERO);
        let deliver_at = base.now_ticks() + 1_000;
        node.hold(deliver_at, ProcessId::new(0), msg(1), vec![()]);
        let held_until = base.instant_for(deliver_at);
        assert_eq!(node.next_deadline(), Some(held_until));
        // Pop the delivery well after its instant.
        thread::sleep(held_until.saturating_duration_since(Instant::now()) + 5 * MS);
        let mut history = History::new();
        let act = node.fire_due(&mut NoTrace, &mut history).unwrap();
        assert_eq!(act, Some(Activation::Ran));
        assert_eq!(node.next_deadline(), Some(held_until + 3 * MS));
    }

    /// An event sent while `wait` polls is returned at once. The
    /// polling phase is entered directly, with a deadline far enough out
    /// that only the arrival can end it; the sender holds back until the
    /// poller says it is about to start.
    #[test]
    fn an_event_sent_during_the_spin_phase_is_returned_at_once() {
        let (tx, rx) = channel::<u32>();
        let (ready_tx, ready_rx) = channel::<()>();
        let sender = thread::spawn(move || {
            ready_rx.recv().unwrap();
            tx.send(42).unwrap();
        });
        let start = Instant::now();
        ready_tx.send(()).unwrap();
        let got = poll_until(&rx, start + Duration::from_secs(30));
        sender.join().unwrap();
        assert_eq!(got, Ok(42));
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn wait_never_times_out_before_the_deadline() {
        let (_tx, rx) = channel::<u32>();
        for may_spin in [false, true] {
            // Long enough to take the sleep-then-spin branch when allowed.
            let deadline = Instant::now() + SPIN_MARGIN * (MIN_MARGINS_TO_SPIN + 1);
            let got = wait(&rx, Some(deadline), Duration::from_secs(1), may_spin);
            assert_eq!(got, Err(RecvTimeoutError::Timeout));
            assert!(Instant::now() >= deadline, "timed out early");
        }
        // A deadline already in the past times out at once.
        let past = Instant::now();
        assert_eq!(
            wait(&rx, Some(past), Duration::from_secs(1), true),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn wait_is_capped_and_the_cap_never_spins() {
        let (_tx, rx) = channel::<u32>();
        let start = Instant::now();
        // No deadline: the cap is the whole wait.
        assert_eq!(
            wait(&rx, None, 2 * MS, true),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= 2 * MS);
        // A deadline beyond the cap: the cap ends the wait first.
        let start = Instant::now();
        let far = start + Duration::from_secs(60);
        assert_eq!(
            wait(&rx, Some(far), 2 * MS, true),
            Err(RecvTimeoutError::Timeout)
        );
        let took = start.elapsed();
        assert!(took >= 2 * MS && took < Duration::from_secs(1));
    }

    #[test]
    fn waits_under_eight_margins_take_the_plain_sleep_branch() {
        let threshold = SPIN_MARGIN * MIN_MARGINS_TO_SPIN;
        let just_under = threshold - Duration::from_nanos(1);
        assert_eq!(sleep_before_spin(just_under, true), None);
        assert_eq!(sleep_before_spin(Duration::ZERO, true), None);
        // At the threshold the sleep is seven margins, the poll one.
        assert_eq!(
            sleep_before_spin(threshold, true),
            Some(SPIN_MARGIN * (MIN_MARGINS_TO_SPIN - 1))
        );
        // Nobody waiting on the result: never poll, however long.
        assert_eq!(sleep_before_spin(threshold * 100, false), None);

        // Through `wait` itself: a short wait still returns a queued
        // event and still does not time out early.
        let (tx, rx) = channel::<u32>();
        tx.send(1).unwrap();
        let deadline = Instant::now() + just_under;
        assert_eq!(
            wait(&rx, Some(deadline), Duration::from_secs(1), true),
            Ok(1)
        );
        let deadline = Instant::now() + just_under;
        assert_eq!(
            wait(&rx, Some(deadline), Duration::from_secs(1), true),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(Instant::now() >= deadline);
    }

    #[test]
    fn wait_reports_a_closed_channel() {
        let (tx, rx) = channel::<u32>();
        drop(tx);
        let deadline = Instant::now() + Duration::from_secs(5);
        let start = Instant::now();
        assert_eq!(
            wait(&rx, Some(deadline), Duration::from_secs(5), true),
            Err(RecvTimeoutError::Disconnected)
        );
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
