//! The wall-clock side of a node: the run clock, the agenda every node
//! keeps, and the one wall-clock run loop the real-thread runtime
//! ([`crate::rt`]) and the socket backend (`skewbound-net`) share.
//!
//! A node's due order is the model's on every backend: a timer set with
//! delay `δ` inside an activation at instant `t` expires at exactly
//! `t + δ`, however long the host took to run the handler. The pieces:
//!
//! * [`TimeBase`] is the run clock: ticks are µs since the run epoch.
//! * [`Agenda`] holds a node's armed timers, the delivery batches
//!   waiting out their injected delay and (on the engine) the
//!   invocations scheduled at an instant, keyed on `(tick, seq)`, and
//!   pops them in that one order: instant first, then the sequence
//!   number the transport drew when the item was sent, armed or held.
//! * [`WallNode`] is one node on the wall clock: its [`NodeCore`], its
//!   own [`Transport`], the count of the operations it served and its
//!   drain state. [`WallNode::run`] is the one wall-clock run loop; the
//!   backends differ only in its [`Inbox`]. Each pass files the
//!   arrivals, runs the node's one step ([`NodeCore::step`]) at the wall
//!   clock's tick — every due item anchored at its own instant, so the
//!   lateness of one wake-up is not inherited by the next — counts what
//!   the step completed, applies the drain rule, and waits for the next
//!   deadline. The wait never reports a timeout early, and while an
//!   operation is pending at the node it trades a bounded slice of CPU
//!   for punctuality: sleep to one margin (150 µs) short of the
//!   deadline, then poll.

use core::fmt;
use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
/// The errors of an [`Inbox`]'s waits: [`Receiver`]'s own.
pub use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::actor::Actor;
use crate::delay::DelayModel;
use crate::ids::{MsgId, ProcessId, TimerId};
use crate::node::NodeCore;
use crate::time::{instant_to_sim, SimTime};
use crate::trace::TraceSink;
use crate::transport::{Link, Transport, TransportError};

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
        self.start_ticks + instant_to_sim(self.start_instant, Instant::now()).as_ticks()
    }

    /// The [`Instant`] at which tick `t` is (or was) reached. Ticks
    /// before startup clamp to the start instant — they are already due.
    /// `None` when `t` lies beyond what an [`Instant`] can represent.
    #[must_use]
    pub fn instant_for(&self, t: u64) -> Option<Instant> {
        self.start_instant
            .checked_add(Duration::from_micros(t.saturating_sub(self.start_ticks)))
    }
}

/// One [`Agenda`] item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Due<T, M, O> {
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
    /// An invocation scheduled at its instant.
    Invoke(O),
}

/// A node's timers, held deliveries and scheduled invocations, popped in
/// one order: `(tick, seq)`.
///
/// One order for every kind is what makes anchored arming safe after a
/// stall: a wake-up that finds a delivery and a younger timer both
/// overdue replays them as the model prescribes, instead of letting a
/// cascade of overdue timers run ahead of the older delivery. The engine
/// draws every `seq` from one run-wide counter, so the least head
/// across its nodes is the run's next event.
///
/// The items sit in a ring buffer sorted by key. An agenda holds a few
/// items, and a new one is almost always due after all of them, so
/// filing is a push at the back, popping one at the front, and a
/// node's buffer is allocated once per run.
#[derive(Debug)]
pub struct Agenda<T, M, O> {
    items: VecDeque<(Key, Due<T, M, O>)>,
}

impl<T: Clone, M: Clone, O: Clone> Clone for Agenda<T, M, O> {
    fn clone(&self) -> Self {
        Agenda {
            items: self.items.clone(),
        }
    }

    /// Refills the ring in place: the items both agendas have are
    /// overwritten item by item (a batch over a batch keeps its payload
    /// vector), then the rest are dropped or appended.
    fn clone_from(&mut self, source: &Self) {
        self.items.truncate(source.items.len());
        let kept = self.items.len();
        for ((key, item), (k, i)) in self.items.iter_mut().zip(&source.items) {
            *key = *k;
            match (item, i) {
                (
                    Due::Batch {
                        from,
                        first_id,
                        msgs,
                    },
                    Due::Batch {
                        from: f,
                        first_id: id,
                        msgs: m,
                    },
                ) => {
                    (*from, *first_id) = (*f, *id);
                    msgs.clone_from(m);
                }
                (item, i) => *item = i.clone(),
            }
        }
        self.items.extend(source.items.range(kept..).cloned());
    }
}

/// An agenda key: the tick an item is due at, then its seq.
type Key = (u64, u64);

impl<T, M, O> Default for Agenda<T, M, O> {
    fn default() -> Self {
        Agenda {
            items: VecDeque::new(),
        }
    }
}

impl<T, M, O> Agenda<T, M, O> {
    /// An empty agenda.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Files `item` at tick `at` under `seq`.
    ///
    /// # Panics
    ///
    /// Panics if an item is already filed under `(at, seq)`.
    // `#[inline]` here, on `at` and on `Context::broadcast` puts a copy in
    // every codegen unit that calls them. Left to how rustc partitions a
    // downstream crate, whether the engine's per-event path inlined them
    // moved `mc-register` by ≈ 10 % after changes elsewhere in the binary.
    #[inline]
    pub fn file(&mut self, at: u64, seq: u64, item: Due<T, M, O>) {
        let Err(i) = self.position((at, seq)) else {
            panic!("two agenda items share an instant and a seq");
        };
        self.items.insert(i, ((at, seq), item));
    }

    /// The key `(tick, seq)` of the first item in agenda order.
    #[must_use]
    pub fn head(&self) -> Option<(u64, u64)> {
        self.items.front().map(|&(key, _)| key)
    }

    /// Takes the item filed under `key` off the agenda.
    pub fn take(&mut self, key: (u64, u64)) -> Option<Due<T, M, O>> {
        let i = self.position(key).ok()?;
        self.items.remove(i).map(|(_, item)| item)
    }

    /// Pops the first item in agenda order if its tick is `≤ now`, with
    /// that tick — the anchor of its activation.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, Due<T, M, O>)> {
        let ((at, _), item) = self.items.pop_front_if(|((at, _), _)| *at <= now)?;
        Some((at, item))
    }

    /// The items filed at tick `at`, in seq order, with their seqs.
    // Inlined everywhere: see `Agenda::file`.
    #[inline]
    pub fn at(&self, at: u64) -> impl Iterator<Item = (u64, &Due<T, M, O>)> {
        let first = self.items.partition_point(|&(key, _)| key < (at, 0));
        let items = self.items.range(first..);
        items
            .take_while(move |((t, _), _)| *t == at)
            .map(|&((_, seq), ref item)| (seq, item))
    }

    /// The number of items on the agenda.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is filed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Where `key` is filed, or where it would go.
    fn position(&self, key: (u64, u64)) -> Result<usize, usize> {
        self.items.binary_search_by_key(&key, |&(key, _)| key)
    }
}

/// How often a draining node looks at `busy` while an operation it has
/// to answer for is pending elsewhere: the thread runtime's in-flight
/// flags clear without a message.
const IDLE_POLL: Duration = Duration::from_millis(10);

/// One node on the wall clock: a [`NodeCore`], its [`Transport`] on a
/// [`TimeBase`], the count of the operations it served and the state of
/// its drain. Nothing it keeps grows with the operations it serves: a
/// run's checked history is recorded by its invoker
/// ([`workload::drive`](crate::workload::drive) on threads and on the
/// mesh's loopback harness).
///
/// [`WallNode::run`] is the one wall-clock run loop. Its callers differ
/// only in their [`Inbox`] — a worker's channel on threads, the node's
/// own sockets across processes — and in the token each invocation
/// carries back to its caller: nothing on threads, the client's
/// connection and request id on the mesh.
pub struct WallNode<A: Actor, L, D, T> {
    core: NodeCore<A, T>,
    transport: Transport<D, L>,
    base: TimeBase,
    /// The operations this node has answered.
    served: u64,
    /// The drain's grace period, once the node has been told to stop.
    grace: Option<Duration>,
    /// Since when the node has been idle with no arrival, for the
    /// drain's quiet period.
    quiet_since: Option<Instant>,
}

impl<A: Actor, L, D, T> fmt::Debug for WallNode<A, L, D, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WallNode")
            .field("core", &self.core)
            .field("grace", &self.grace)
            .finish_non_exhaustive()
    }
}

impl<A: Actor, L: Link<A::Msg>, D: DelayModel, T> WallNode<A, L, D, T> {
    /// Runs `core` over `transport`, a wall-clock transport
    /// ([`Transport::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `transport` runs on virtual time.
    pub fn new(core: NodeCore<A, T>, transport: Transport<D, L>) -> Self {
        WallNode {
            core,
            base: transport.base.expect("a wall node runs on a time base"),
            transport,
            served: 0,
            grace: None,
            quiet_since: None,
        }
    }

    /// The number of operations this node has answered.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// `true` when no operation is pending or queued here and nothing is
    /// on the agenda: what the drain rule waits for.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        !self.core.is_pending() && self.core.backlog() == 0
    }

    /// The one wall-clock run loop: starts the node, then serves
    /// `inbox` until the drain rule lets it exit. Each pass
    ///
    /// 1. hands every arrival to `file` — an arrival that starts an
    ///    operation goes to [`WallNode::enqueue`], a delivery to
    ///    [`WallNode::hold`], an order to stop to [`WallNode::stop`] —
    ///    so the step sees every delivery it has to place;
    /// 2. runs the node's one step ([`NodeCore::step`]) at the wall
    ///    clock's tick: every due agenda item, then the first queued
    ///    invocation once no operation is pending (the model's one
    ///    pending operation per process);
    /// 3. counts the operations the step completed, and has the actor
    ///    forget its past ([`Actor::forget_past`]);
    /// 4. exits by the drain rule, where `busy` reports whether an
    ///    operation this node still has to answer for is pending
    ///    elsewhere;
    /// 5. waits for the next arrival or the step's next deadline,
    ///    polling the last stretch only while an operation is pending
    ///    here. With neither a deadline nor a drain to watch, it blocks
    ///    until the next arrival.
    ///
    /// Every completion is handed to `done` with its invocation's token,
    /// its response and its response instant.
    ///
    /// # Errors
    ///
    /// Propagates the transport's send failures.
    pub fn run<I: Inbox + ?Sized>(
        &mut self,
        inbox: &I,
        mut sink: Option<&mut (dyn TraceSink + '_)>,
        mut file: impl FnMut(&mut Self, I::Event),
        busy: impl Fn() -> bool,
        mut done: impl FnMut(T, A::Resp, SimTime),
    ) -> Result<(), TransportError> {
        let base = self.base;
        self.core
            .start(base.now_ticks(), &mut self.transport, sink.as_deref_mut())?;
        let mut woken_by = None;
        loop {
            let arrived = std::iter::from_fn(|| inbox.try_take().ok());
            for event in woken_by.take().into_iter().chain(arrived) {
                file(self, event);
            }
            let served = &mut self.served;
            let next = self.core.step(
                base.now_ticks(),
                &mut self.transport,
                sink.as_deref_mut(),
                |token, resp, at| {
                    *served += 1;
                    done(token, resp, at);
                },
            )?;
            self.core.actor_mut().forget_past();
            let Some(cap) = self.drain_wait(busy()) else {
                return Ok(());
            };
            let may_spin = self.core.is_pending();
            let deadline = next.and_then(|t| base.instant_for(t));
            woken_by = wait(inbox, deadline, cap, may_spin).ok();
        }
    }

    /// Queues an invocation of `op`, to be answered with `token`.
    pub fn enqueue(&mut self, token: T, op: A::Op) {
        self.core.enqueue(token, op);
        self.quiet_since = None;
    }

    /// Holds an arrived batch until tick `deliver_at` of the run's
    /// [`TimeBase`]. Returns `false`, holding nothing, when that tick
    /// lies beyond any representable instant or a batch with the same
    /// first id is already held for it: ids are unique per run, so only
    /// a forged or replayed frame can bring one.
    pub fn hold(
        &mut self,
        deliver_at: u64,
        from: ProcessId,
        first_id: MsgId,
        msgs: Vec<A::Msg>,
    ) -> bool {
        let held = (self.core.agenda().at(deliver_at))
            .any(|(_, item)| matches!(item, Due::Batch { first_id: f, .. } if *f == first_id));
        if held || self.base.instant_for(deliver_at).is_none() {
            return false;
        }
        self.quiet_since = None;
        let seq = self.transport.seq();
        let batch = Due::Batch {
            from,
            first_id,
            msgs,
        };
        self.core.file(deliver_at, seq, batch);
        true
    }

    /// Tells the node to stop once drained, after `grace` of quiet.
    pub fn stop(&mut self, grace: Duration) {
        self.grace = Some(grace);
        self.quiet_since = None;
    }

    /// The one drain rule. A node exits once it has been told to stop,
    /// its agenda and its queue are empty, no operation is pending —
    /// neither here nor, as the caller reports through `busy`, anywhere
    /// it still has to answer for — and it has been quiet for the grace
    /// period since its last arrival or activity: then `None`.
    ///
    /// Otherwise, the cap on the run loop's wait before it looks again:
    /// the rest of the grace period while quiet, [`IDLE_POLL`] while
    /// draining on `busy`, and `Duration::MAX`, no cap, when only an
    /// arrival or the step's next deadline can change anything.
    fn drain_wait(&mut self, busy: bool) -> Option<Duration> {
        let idle = !busy && self.is_idle();
        if !idle {
            self.quiet_since = None;
        }
        match self.grace {
            Some(grace) if idle => grace
                .checked_sub(self.quiet_since.get_or_insert_with(Instant::now).elapsed())
                .filter(|left| !left.is_zero()),
            Some(_) if busy => Some(IDLE_POLL),
            _ => Some(Duration::MAX),
        }
    }
}

/// How far ahead of a deadline [`wait`] stops sleeping and starts
/// polling. Sized at the p90 of the wake-up latency of a timed inbox
/// wait — measured on a channel's `recv_timeout`; the mesh's `ppoll`
/// sleeps on the same kernel timer — under a 1 ns timer slack on the
/// 2-vCPU Firecracker host the benchmark bounds were sized on
/// (p50 ≈ 100 µs, p90 ≈ 150 µs: an idle vCPU has to be woken by the
/// host first), so nine sleeps in ten are awake before the deadline and
/// the poll ends on it.
const SPIN_MARGIN: Duration = Duration::from_micros(150);

/// A wait must be at least this many margins long before [`wait`]
/// polls at its end, which bounds the polling duty cycle without any
/// state: a poll of at most one margin always follows a sleep of at
/// least seven. (Polling before *every* deadline was measured and
/// rejected: on a write-heavy mesh whose timers are 500 µs apart it
/// keeps both vCPUs busy and every cross-thread wake-up on the host
/// gets dearer — see EXPERIMENTS.md.)
const MIN_MARGINS_TO_SPIN: u32 = 8;

/// What [`WallNode::run`] waits on: a worker's channel on threads, the
/// node's own sockets on the mesh. An inbox offers the two primitive
/// waits, with the errors of [`Receiver`]'s; [`wait`] is the one policy
/// over them.
pub trait Inbox {
    /// One arrival.
    type Event;

    /// Waits up to `timeout` for the next arrival; `Duration::MAX` waits
    /// without limit. Never reports a timeout before `timeout` has
    /// passed.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] once `timeout` has passed,
    /// [`RecvTimeoutError::Disconnected`] when nothing can arrive any
    /// more.
    fn recv_within(&self, timeout: Duration) -> Result<Self::Event, RecvTimeoutError>;

    /// Takes an arrival that is already here, without waiting.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when there is none,
    /// [`TryRecvError::Disconnected`] when nothing can arrive any more.
    fn try_take(&self) -> Result<Self::Event, TryRecvError>;
}

impl<E> Inbox for Receiver<E> {
    type Event = E;

    fn recv_within(&self, timeout: Duration) -> Result<E, RecvTimeoutError> {
        self.recv_timeout(timeout)
    }

    fn try_take(&self) -> Result<E, TryRecvError> {
        self.try_recv()
    }
}

/// For a wait of `left` up to its deadline: how long to sleep before
/// polling, or `None` to sleep all the way.
fn sleep_before_spin(left: Duration, may_spin: bool) -> Option<Duration> {
    (may_spin && left >= SPIN_MARGIN * MIN_MARGINS_TO_SPIN).then(|| left - SPIN_MARGIN)
}

/// Waits on `inbox` until an event arrives or the wait ends, whichever
/// is first: the one wait of [`WallNode::run`], whatever its inbox. The
/// wait ends at `deadline`, or `cap` from now if that is sooner (or
/// there is no deadline). A `cap` of `Duration::MAX` never ends it: the
/// inbox then blocks until an arrival. An arrival returns at once;
/// `Err(Timeout)` is never returned before the end of the wait.
///
/// With `may_spin`, a wait that ends on its deadline and is at least
/// eight margins long sleeps to one margin before the deadline and
/// polls the rest ([`poll_until`]), so the timeout is reported within a
/// microsecond or so of the deadline instead of a scheduler wake-up
/// later. Callers pass `may_spin` only while a late wake-up costs
/// somebody latency (an operation is pending at this node).
///
/// # Errors
///
/// [`RecvTimeoutError::Timeout`] at the end of the wait,
/// [`RecvTimeoutError::Disconnected`] as soon as the inbox reports it.
pub fn wait<I: Inbox + ?Sized>(
    inbox: &I,
    deadline: Option<Instant>,
    cap: Duration,
    may_spin: bool,
) -> Result<I::Event, RecvTimeoutError> {
    // No deadline, or one beyond the cap: the cap ends the wait.
    let within_cap = |d: &Instant| d.saturating_duration_since(Instant::now()) <= cap;
    let Some(deadline) = deadline.filter(within_cap) else {
        return inbox.recv_within(cap);
    };
    let left = deadline.saturating_duration_since(Instant::now());
    let Some(sleep) = sleep_before_spin(left, may_spin) else {
        return inbox.recv_within(left);
    };
    match inbox.recv_within(sleep) {
        Err(RecvTimeoutError::Timeout) => poll_until(inbox, deadline),
        arrived_or_closed => arrived_or_closed,
    }
}

/// The polling end of [`wait`]: looks at `inbox` without blocking until
/// an event arrives or `deadline` passes.
///
/// # Errors
///
/// [`RecvTimeoutError::Timeout`] once `deadline` has passed,
/// [`RecvTimeoutError::Disconnected`] as soon as the inbox reports it.
pub fn poll_until<I: Inbox + ?Sized>(
    inbox: &I,
    deadline: Instant,
) -> Result<I::Event, RecvTimeoutError> {
    loop {
        match inbox.try_take() {
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
    use crate::clock::ClockAssignment;
    use crate::delay::{DelayBounds, FixedDelay};
    use crate::time::SimDuration;
    use std::sync::mpsc::channel;
    use std::thread;

    fn id(raw: u64) -> TimerId {
        TimerId::new(raw)
    }

    fn msg(raw: u64) -> MsgId {
        MsgId::new(raw)
    }

    const MS: u64 = 1_000;
    const WAIT: Duration = Duration::from_millis(1);
    const P: ProcessId = ProcessId::new(1);

    /// An agenda of `&str` timers and `u8` messages.
    type TestAgenda = Agenda<&'static str, u8, ()>;

    fn batch(first_id: u64) -> Due<&'static str, u8, ()> {
        Due::Batch {
            from: P,
            first_id: msg(first_id),
            msgs: vec![0],
        }
    }

    fn timer(raw: u64, tag: &'static str) -> Due<&'static str, u8, ()> {
        Due::Timer(id(raw), tag)
    }

    fn drain(agenda: &mut TestAgenda, now: u64) -> Vec<(u64, Due<&'static str, u8, ()>)> {
        std::iter::from_fn(|| agenda.pop_due(now)).collect()
    }

    #[test]
    fn a_refilled_agenda_equals_a_cloned_one() {
        let filled = |items: &[(u64, Due<&'static str, u8, ()>)]| {
            let mut agenda = TestAgenda::new();
            for (seq, (at, item)) in (0..).zip(items) {
                agenda.file(*at, seq, item.clone());
            }
            agenda
        };
        let long = Due::Batch {
            from: P,
            first_id: msg(9),
            msgs: vec![1, 2, 3, 4],
        };
        let agendas = [
            TestAgenda::new(),
            filled(&[(MS, batch(1))]),
            filled(&[
                (MS, timer(2, "t")),
                (MS, long.clone()),
                (2 * MS, Due::Invoke(())),
            ]),
            filled(&[
                (MS, long.clone()),
                (2 * MS, batch(3)),
                (3 * MS, timer(5, "u")),
                (3 * MS, Due::Invoke(())),
                (4 * MS, long),
            ]),
        ];
        crate::assert_clone_from_is_clone(&agendas, |agenda| format!("{agenda:?}"));
        // A batch refilled from a batch keeps its payload vector.
        let first_payload = |agenda: &TestAgenda| match agenda.items.front() {
            Some((_, Due::Batch { msgs, .. })) => msgs.as_ptr(),
            other => panic!("{other:?} is not a batch"),
        };
        let mut refilled = agendas[3].clone();
        let kept = first_payload(&refilled);
        refilled.clone_from(&agendas[1]);
        assert_eq!(first_payload(&refilled), kept);
    }

    #[test]
    fn pop_due_orders_by_instant_then_seq() {
        let mut agenda = TestAgenda::new();
        agenda.file(2 * MS, 0, timer(7, "late"));
        agenda.file(MS, 2, timer(3, "tie, larger seq"));
        agenda.file(MS, 1, timer(5, "tie, smaller seq"));
        assert_eq!(
            drain(&mut agenda, 10 * MS),
            vec![
                (MS, timer(5, "tie, smaller seq")),
                (MS, timer(3, "tie, larger seq")),
                (2 * MS, timer(7, "late")),
            ]
        );
        assert!(agenda.is_empty());
    }

    /// A late wake-up finds an older delivery and a younger timer both
    /// overdue: the delivery goes first, as the model orders them.
    #[test]
    fn late_wakeup_replays_the_older_delivery_before_the_younger_timer() {
        let mut agenda = TestAgenda::new();
        agenda.file(3 * MS, 0, batch(9));
        agenda.file(MS, 1, batch(4));
        agenda.file(2 * MS, 2, timer(1, "timer"));
        assert_eq!(
            drain(&mut agenda, 50 * MS), // the stall
            vec![
                (MS, batch(4)),
                (2 * MS, timer(1, "timer")),
                (3 * MS, batch(9))
            ]
        );
    }

    /// On one instant the smaller seq goes first, whatever the kind or
    /// the id: the order in which the items were sent, armed or held.
    #[test]
    fn ties_go_to_the_smaller_seq() {
        let mut agenda = TestAgenda::new();
        agenda.file(MS, 0, batch(7));
        agenda.file(MS, 1, timer(9, "timer"));
        agenda.file(MS, 2, batch(2));
        assert_eq!(
            drain(&mut agenda, MS),
            vec![(MS, batch(7)), (MS, timer(9, "timer")), (MS, batch(2))]
        );
    }

    #[test]
    fn nothing_pops_before_its_deadline() {
        let mut agenda = TestAgenda::new();
        agenda.file(2 * MS, 0, batch(1));
        agenda.file(3 * MS, 1, timer(1, "timer"));
        assert_eq!(agenda.head(), Some((2 * MS, 0)));
        assert!(agenda.pop_due(0).is_none());
        assert!(agenda.pop_due(2 * MS - 1).is_none());
        // Exactly on its instant the batch is due; the timer is not yet.
        assert_eq!(agenda.pop_due(2 * MS), Some((2 * MS, batch(1))));
        assert!(agenda.pop_due(2 * MS).is_none());
        assert_eq!(agenda.head(), Some((3 * MS, 1)));
        assert!(!agenda.is_empty());
    }

    /// Arms a timer of `delay` ticks when a message is delivered, and
    /// responds to an invocation when its timer of `delay` ticks fires.
    #[derive(Debug)]
    struct Arming {
        delay: u64,
    }

    impl Actor for Arming {
        type Msg = ();
        type Op = u32;
        type Resp = u32;
        type Timer = Option<u32>;

        fn on_invoke(&mut self, op: u32, ctx: &mut Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(self.delay), Some(op));
        }
        fn on_message(&mut self, _from: ProcessId, _msg: (), ctx: &mut Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(self.delay), None);
        }
        fn on_timer(&mut self, op: Option<u32>, ctx: &mut Context<'_, Self>) {
            if let Some(op) = op {
                ctx.respond(op);
            }
        }
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
            _: u64,
            _: Vec<()>,
        ) -> Result<(), TransportError> {
            unreachable!("the test actor never sends")
        }
    }

    fn one_tick() -> FixedDelay {
        FixedDelay::maximal(DelayBounds::new(
            SimDuration::from_ticks(1),
            SimDuration::ZERO,
        ))
    }

    /// A node of `actor` at process 1 of two on virtual time, with its
    /// transport.
    type Virtual<A> = (NodeCore<A, u32>, Transport<FixedDelay, NoLink>);

    /// A delivery of one message from process 0.
    fn delivery<Tm, O>() -> Due<Tm, (), O> {
        Due::Batch {
            from: ProcessId::new(0),
            first_id: msg(1),
            msgs: vec![()],
        }
    }

    fn virtual_node<A: Actor<Msg = ()>>(actor: A) -> Virtual<A> {
        let transport = Transport::virtual_time(NoLink, ClockAssignment::zero(2), one_tick());
        (NodeCore::new(P, 2, actor), transport)
    }

    /// One step of `node` at `now`; returns the next deadline and the
    /// tokens of the operations it completed.
    fn step<A: Actor<Msg = ()>>(node: &mut Virtual<A>, now: u64) -> (Option<u64>, Vec<u32>) {
        let mut done = Vec::new();
        let (core, transport) = node;
        let next = core
            .step(now, transport, None, |token, _, _| done.push(token))
            .unwrap();
        (next, done)
    }

    /// A timer armed while handling a held delivery is due at
    /// `deliver_at + δ`, even when the delivery is popped late.
    #[test]
    fn a_timer_armed_by_a_late_delivery_is_due_at_deliver_at_plus_its_delay() {
        let mut node = virtual_node(Arming { delay: 30 * MS });
        let deliver_at = MS;
        node.0.file(deliver_at, 0, delivery());
        assert_eq!(step(&mut node, 0).0, Some(deliver_at));
        // Pop the delivery 5 ms after its instant.
        assert_eq!(
            step(&mut node, deliver_at + 5 * MS).0,
            Some(deliver_at + 30 * MS)
        );
    }

    /// Arms a timer of 5 ms at start, and one of 500 ms when it fires.
    #[derive(Debug)]
    struct Chain;

    impl Actor for Chain {
        type Msg = ();
        type Op = ();
        type Resp = ();
        type Timer = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(5 * MS), 500 * MS);
        }
        fn on_invoke(&mut self, _op: (), _ctx: &mut Context<'_, Self>) {}
        fn on_message(&mut self, _from: ProcessId, _msg: (), _ctx: &mut Context<'_, Self>) {}
        fn on_timer(&mut self, next: u64, ctx: &mut Context<'_, Self>) {
            if next > 0 {
                ctx.set_timer(SimDuration::from_ticks(next), 0);
            }
        }
    }

    /// A chain armed at `anchor + delay` lands on the sum of its
    /// delays, however late each link was popped.
    #[test]
    fn anchored_chain_lands_on_the_sum_of_its_delays() {
        for lateness in [0, 2 * MS, 400 * MS] {
            let mut node = virtual_node(Chain);
            let (core, transport) = &mut node;
            core.start(0, transport, None).unwrap();
            assert_eq!(step(&mut node, 0).0, Some(5 * MS));
            assert_eq!(step(&mut node, 5 * MS + lateness).0, Some(505 * MS));
        }
    }

    /// Arms one far-off timer at start; ignores deliveries.
    #[derive(Debug)]
    struct FarTimer;

    impl Actor for FarTimer {
        type Msg = ();
        type Op = ();
        type Resp = ();
        type Timer = ();

        fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(60_000_000), ());
        }
        fn on_invoke(&mut self, _op: (), _ctx: &mut Context<'_, Self>) {}
        fn on_message(&mut self, _from: ProcessId, _msg: (), _ctx: &mut Context<'_, Self>) {}
        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    /// The step runs neither a held batch nor a timer before its
    /// instant; on the batch's instant the batch runs and the later timer
    /// stays armed.
    #[test]
    fn nothing_is_due_before_its_instant() {
        let mut node = virtual_node(FarTimer);
        let (core, transport) = &mut node;
        core.start(0, transport, None).unwrap();
        let deliver_at = 200 * MS;
        node.0.file(deliver_at, 1, delivery());
        assert_eq!(step(&mut node, deliver_at - 1).0, Some(deliver_at));
        assert_eq!(node.0.backlog(), 2);
        // The batch comes due first; the timer is not yet.
        assert_eq!(step(&mut node, deliver_at).0, Some(60_000_000));
        assert_eq!(node.0.backlog(), 1);
    }

    /// The admission rule: invocations queued while one is pending wait.
    /// The next is admitted in the step that files the pending one's
    /// response, and never before; the one after it waits again.
    #[test]
    fn a_queued_invocation_is_admitted_in_the_step_that_files_the_response() {
        let mut node = virtual_node(Arming { delay: MS });
        node.0.enqueue(1, 10);
        assert_eq!(step(&mut node, 0), (Some(MS), vec![]));
        node.0.enqueue(2, 20);
        node.0.enqueue(3, 30);
        for now in [0, MS / 2, MS - 1] {
            assert_eq!(step(&mut node, now), (Some(MS), vec![]));
            assert_eq!(node.0.backlog(), 3, "admitted while an op was pending");
        }
        // The first responds at MS; the second starts in the same step,
        // so its timer is due a delay later.
        assert_eq!(step(&mut node, MS), (Some(2 * MS), vec![1]));
        assert_eq!(node.0.backlog(), 2, "the third waits on the second");
        assert_eq!(step(&mut node, 2 * MS), (Some(3 * MS), vec![2]));
        assert_eq!(step(&mut node, 3 * MS), (None, vec![3]));
        assert!(!node.0.is_pending());
    }

    /// A wall node of `FarTimer` at process 1 of two that never sends.
    fn wall_node(base: TimeBase) -> WallNode<FarTimer, NoLink, FixedDelay, ()> {
        let clocks = ClockAssignment::zero(2);
        let transport = Transport::new(P, NoLink, base, clocks, one_tick());
        WallNode::new(NodeCore::new(P, 2, FarTimer), transport)
    }

    /// A second batch with the first id of one already held for the same
    /// instant is rejected and holds nothing: ids are unique per run, so
    /// only a forged or replayed frame brings one. The same id at another
    /// instant, or another id at the same instant, is held.
    #[test]
    fn a_second_batch_with_a_held_first_id_at_the_same_instant_is_rejected() {
        let base = TimeBase::new(TimeBase::epoch_now_micros());
        let mut node = wall_node(base);
        let at = base.now_ticks();
        let from = ProcessId::new(0);
        assert!(node.hold(at, from, msg(1), vec![()]));
        assert!(!node.hold(at, from, msg(1), vec![()]), "duplicate held");
        assert!(node.hold(at, from, msg(2), vec![()]));
        assert!(node.hold(at + 1, from, msg(1), vec![()]));
        assert_eq!(node.core.backlog(), 3, "the rejected duplicate is held");
    }

    /// Tells `admitted` of every invocation it starts and answers it
    /// when the next delivery arrives; remembers what it answered until
    /// it is told to forget its past.
    #[derive(Debug)]
    struct Gate {
        admitted: std::sync::mpsc::Sender<u32>,
        pending: Option<u32>,
        answered: Vec<u32>,
    }

    impl Actor for Gate {
        type Msg = ();
        type Op = u32;
        type Resp = u32;
        type Timer = ();

        fn on_invoke(&mut self, op: u32, _ctx: &mut Context<'_, Self>) {
            self.pending = Some(op);
            self.admitted.send(op).unwrap();
        }
        fn on_message(&mut self, _from: ProcessId, _msg: (), ctx: &mut Context<'_, Self>) {
            let op = self.pending.take().expect("a pending op");
            self.answered.push(op);
            ctx.respond(op);
        }
        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
        fn forget_past(&mut self) {
            self.answered.clear();
        }
    }

    /// What the test's client thread puts in a [`Gate`] node's inbox.
    enum GateEvent {
        Invoke(u32),
        /// Checks the node while its operation is pending, having served
        /// this many.
        Probe(u64),
        /// A delivery with this first id, which answers the pending op.
        Release(u64),
        Stop,
    }

    /// `N` operations through the wall-clock loop on a channel inbox,
    /// each queued while the one before is pending, so the node is never
    /// idle until the last: it is not idle while one is queued or
    /// pending, it counts what it served, and the actor has forgotten its
    /// past. At exit it is idle and has served `N`.
    #[test]
    fn a_wall_node_keeps_only_the_record_in_flight() {
        const N: u32 = 50;
        let (tx, rx) = channel();
        let (admitted_tx, admitted_rx) = channel();
        let (done_tx, done_rx) = channel();
        let base = TimeBase::new(TimeBase::epoch_now_micros());
        let transport = Transport::new(P, NoLink, base, ClockAssignment::zero(2), one_tick());
        let gate = Gate {
            admitted: admitted_tx,
            pending: None,
            answered: Vec::new(),
        };
        let mut node = WallNode::new(NodeCore::new(P, 2, gate), transport);
        assert!(node.is_idle());
        let client = thread::spawn(move || {
            tx.send(GateEvent::Invoke(0)).unwrap();
            for op in 0..N {
                assert_eq!(admitted_rx.recv().unwrap(), op);
                if op + 1 < N {
                    tx.send(GateEvent::Invoke(op + 1)).unwrap();
                }
                tx.send(GateEvent::Probe(op.into())).unwrap();
                tx.send(GateEvent::Release(op.into())).unwrap();
                assert_eq!(done_rx.recv().unwrap(), op);
            }
            tx.send(GateEvent::Stop).unwrap();
        });
        let file = |node: &mut WallNode<Gate, NoLink, FixedDelay, u32>, event| match event {
            GateEvent::Invoke(op) => {
                node.enqueue(op, op);
                assert!(!node.is_idle(), "an operation is queued");
            }
            GateEvent::Probe(served) => {
                assert!(node.core.is_pending());
                assert!(!node.is_idle(), "an operation is pending");
                assert_eq!(node.served(), served);
                assert!(node.core.actor().answered.is_empty(), "the past is kept");
            }
            GateEvent::Release(id) => {
                let at = node.base.now_ticks();
                assert!(node.hold(at, ProcessId::new(0), msg(id), vec![()]));
            }
            GateEvent::Stop => node.stop(Duration::ZERO),
        };
        let done = |token, resp, _| {
            assert_eq!(token, resp);
            done_tx.send(token).unwrap();
        };
        node.run(&rx, None, file, || false, done).unwrap();
        client.join().unwrap();
        assert_eq!(node.served(), u64::from(N));
        assert!(node.is_idle());
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
            wait(&rx, None, 2 * WAIT, true),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= 2 * WAIT);
        // A deadline beyond the cap: the cap ends the wait first.
        let start = Instant::now();
        let far = start + Duration::from_secs(60);
        assert_eq!(
            wait(&rx, Some(far), 2 * WAIT, true),
            Err(RecvTimeoutError::Timeout)
        );
        let took = start.elapsed();
        assert!(took >= 2 * WAIT && took < Duration::from_secs(1));
    }

    /// With no deadline and a cap of `Duration::MAX` nothing times out:
    /// the wait ends at the arrival, however late.
    #[test]
    fn an_uncapped_wait_without_a_deadline_ends_only_at_an_arrival() {
        let (tx, rx) = channel::<u32>();
        let start = Instant::now();
        let sender = thread::spawn(move || {
            thread::sleep(20 * WAIT);
            tx.send(7).unwrap();
        });
        assert_eq!(wait(&rx, None, Duration::MAX, true), Ok(7));
        assert!(start.elapsed() >= 20 * WAIT);
        sender.join().unwrap();
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
        assert_eq!(
            wait(&rx, None, Duration::MAX, true),
            Err(RecvTimeoutError::Disconnected)
        );
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
