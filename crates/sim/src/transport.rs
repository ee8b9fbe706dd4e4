//! The pluggable transport layer: deliver-at-time semantics for
//! messages and timers.
//!
//! Both runtimes execute the same [`Actor`] state
//! machines through the same [`NodeCore`](crate::node::NodeCore); what
//! differs is *when and how* an enqueued message or timer expiry comes
//! back to a node. A [`Transport`] captures exactly that difference:
//!
//! * the discrete-event engine implements it with a virtual-time
//!   event heap — a send is assigned a delay by the [`DelayModel`] and
//!   popped back at `sent_at + delay` in deterministic `(time, seq)`
//!   order;
//! * the two wall-clock backends — the real-thread runtime and the
//!   socket mesh — share one [`WallTransport`]: a send is assigned a
//!   delay by the run's [`DelayModel`], checked against its bounds as
//!   on the engine, and handed through a [`Link`] to the destination,
//!   which holds it on its [`Agenda`] until the wall clock reaches
//!   `sent_at + delay`.
//!
//! On every backend a send is one delivery: whatever one activation
//! sends to one peer, a single message being a batch of one. Every
//! message and timer a node produces passes through this single
//! choke point, which is what makes delay injection, trace pairing and
//! future drop/duplicate fault hooks land once for every backend.

use core::cmp::Ordering;
use core::fmt;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::actor::Actor;
use crate::clock::ClockAssignment;
use crate::deadline::{Agenda, TimeBase};
use crate::delay::{assert_admissible, DelayBounds, DelayModel, MsgMeta};
use crate::engine::{EventKind, MsgEvent};
use crate::ids::{MsgId, ProcessId, TimerId};
use crate::slab::{Slab, SlabRef};
use crate::time::{ticks_to_duration, SimDuration, SimTime};

/// Why a transport failed to accept a send.
///
/// The in-process backends (the engine's `VirtualTransport`, the
/// thread runtime's worker channels)
/// never fail — their queues are unbounded and intra-process — so every
/// path through them returns `Ok` unconditionally and stays
/// bit-identical to the infallible days. The socket mesh surfaces the
/// one real failure it has: a peer it holds no writer for. Encoding
/// cannot fail, and a send after shutdown finds no writer either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No live connection to `to` and reconnection is not (yet)
    /// possible.
    PeerUnreachable {
        /// The unreachable destination.
        to: ProcessId,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::PeerUnreachable { to } => {
                write!(f, "peer {to} is unreachable")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// A backend that schedules message deliveries and timer expiries.
///
/// Implementations decide the *delivery time* of each message (the
/// delay model of the run) and own the queue/heap/channel machinery
/// that eventually hands the event back to the destination node. The
/// [`NodeCore`](crate::node::NodeCore) calls these methods while
/// draining one activation's effects; it never schedules anything
/// behind the transport's back.
///
/// Sends are fallible: in-process backends always return `Ok` (their
/// queues cannot fail), while cross-process backends report
/// [`TransportError`]s which the node core propagates to its scheduler.
pub trait Transport<A: Actor> {
    /// Assigns one delay to the delivery `msgs` and enqueues it at `to`
    /// (deliver-at-time semantics): the messages travel together and
    /// arrive as a single [`Actor::on_message_batch`] activation; a single
    /// [`Context::send`](crate::actor::Context::send) is a batch of one.
    /// Returns the run-unique id of the first message. The batch holds
    /// the ids `first..first + msgs.len()`, allocated in global send
    /// order, so every `send` trace event pairs with exactly one later
    /// `deliver` carrying the same id.
    ///
    /// # Panics
    ///
    /// Panics if `msgs` is empty.
    fn send_batch(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msgs: Vec<A::Msg>,
    ) -> Result<MsgId, TransportError>;

    /// Enqueues the expiry of timer `id` at `pid`, `delay` *local
    /// clock* ticks from now. The id is already live in the node's
    /// [`TimerSlab`](crate::timers::TimerSlab); the transport only
    /// schedules the expiry event (converting clock to real time if the
    /// backend models clock drift).
    fn set_timer(&mut self, pid: ProcessId, id: TimerId, delay: SimDuration, timer: A::Timer);

    /// Informs the backend that a previously scheduled timer was
    /// cancelled, so eager backends can prune its expiry from their
    /// schedule. The node has already retired the id in its slab, so a
    /// backend may also ignore this and drop the stale expiry when it
    /// comes due (the engine does; [`WallTransport`] prunes so a drain
    /// never waits on cancelled timers).
    fn cancel_timer(&mut self, pid: ProcessId, id: TimerId) {
        let _ = (pid, id);
    }
}

/// The byte-oriented half of the transport split: a carrier of
/// already-encoded frames.
///
/// [`Transport`] is generic over the actor — ideal in-process, where
/// messages move by value and never touch bytes — but a cross-process
/// backend (`skewbound-net`'s TCP mesh) can't be: it moves opaque
/// frames, and its codec lives above it. `WireTransport` is that lower
/// layer. The mesh's [`Link`] encodes each batch into a frame (the
/// `wire` codec in `skewbound-net`) and hands the bytes here; the
/// receiver decodes frames arriving from peers back into typed
/// messages.
pub trait WireTransport: Send {
    /// Queues one encoded frame for delivery to `to`. Queuing is
    /// asynchronous: `Ok` means the frame was accepted for
    /// (re)transmission, not that the peer received it. Delivery is
    /// at-least-once under reconnects; receivers deduplicate by the
    /// frame header's message id.
    fn send_frame(&mut self, to: ProcessId, frame: &[u8]) -> Result<(), TransportError>;
}

/// Which payload slab a queued [`EvTag`] resolves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvSlot {
    Invoke,
    DeliverBatch,
    Timer,
}

/// One queued event in columnar form: the destination process, the
/// payload kind and the slab handle of the payload. 16 bytes of `Copy`
/// data — this, with its key, is all the event heap moves around.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvTag {
    pub(crate) pid: ProcessId,
    pub(crate) kind: EvSlot,
    pub(crate) slot: SlabRef,
}

/// One entry of the engine's event heap. The key `(at, seq)` is unique
/// (`seq` comes from a per-run counter), so the pop order is total and
/// the same on every run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) tag: EvTag,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap: invert so the earliest
        // `(at, seq)` pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Queued {}

/// Slab payload of an in-flight delivery batch: one queue entry and one
/// slab slot carry the whole batch, whose messages hold the consecutive
/// ids `first_id..first_id + msgs.len()`.
pub(crate) struct BatchPayload<M> {
    pub(crate) from: ProcessId,
    pub(crate) first_id: MsgId,
    pub(crate) msgs: Vec<M>,
}

/// The engine's [`Transport`]: a virtual-time event heap over
/// struct-of-arrays event storage.
///
/// A send is assigned a delay by the [`DelayModel`] (validated against
/// the bounds once at construction and asserted per call, in release
/// builds too), and
/// queued for delivery at `sent_at + delay`; a timer arm is converted
/// from local clock ticks to real time under the [`ClockAssignment`]
/// and queued at its expiry instant. The heap itself carries only
/// [`EvTag`]s — payloads live in per-kind generation-stamped
/// [`Slab`]s whose slots recycle, so steady-state scheduling allocates
/// nothing. Events pop back in deterministic `(time, seq)` order.
/// Cancelled timers are *not* pruned from the queue — the node core's
/// slab generation filters the stale expiry when it pops.
pub(crate) struct VirtualTransport<A: Actor, D: DelayModel> {
    pub(crate) clocks: ClockAssignment,
    pub(crate) delays: D,
    /// The model's admissible delay interval, hoisted at construction.
    bounds: DelayBounds,
    pub(crate) queue: BinaryHeap<Queued>,
    pub(crate) ops: Slab<A::Op>,
    pub(crate) batches: Slab<BatchPayload<A::Msg>>,
    pub(crate) timer_payloads: Slab<(TimerId, A::Timer)>,
    pub(crate) seq: u64,
    pub(crate) now: SimTime,
    pub(crate) n: usize,
    pub(crate) next_msg_id: u64,
    /// Send metadata, recorded only while [`Self::log_messages`] — the
    /// log grows with every send, which checkers need and sweeps do not.
    pub(crate) msg_log: Vec<MsgEvent>,
    pub(crate) log_messages: bool,
}

impl<A: Actor, D: DelayModel> VirtualTransport<A, D> {
    pub(crate) fn new(clocks: ClockAssignment, delays: D, n: usize) -> Self {
        let bounds = delays.bounds();
        VirtualTransport {
            clocks,
            // Pre-size the hot collections: a typical run keeps a
            // handful of events per process queued at any instant.
            queue: BinaryHeap::with_capacity(4 * n),
            ops: Slab::with_capacity(4),
            // Sized like the old event heap (8n + 16): a broadcast keeps
            // n - 1 deliveries in flight per concurrent writer, and growth
            // past capacity is a realloc-copy on the hot path.
            batches: Slab::with_capacity(8 * n + 16),
            timer_payloads: Slab::with_capacity(2 * n + 16),
            delays,
            bounds,
            seq: 0,
            now: SimTime::ZERO,
            n,
            next_msg_id: 0,
            msg_log: Vec::new(),
            log_messages: false,
        }
    }

    /// Turns on message-metadata logging, pre-sizing the log.
    pub(crate) fn enable_msg_log(&mut self) {
        self.log_messages = true;
        if self.msg_log.capacity() == 0 {
            // Every broadcast appends n − 1 entries.
            self.msg_log.reserve(16 * self.n);
        }
    }

    /// Queues the event whose payload sits in `slot` for `pid` at `at`,
    /// keyed on the next `seq`.
    fn enqueue(&mut self, at: SimTime, pid: ProcessId, kind: EvSlot, slot: SlabRef) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Queued {
            at,
            seq,
            tag: EvTag { pid, kind, slot },
        });
    }

    /// Takes the payload of a popped tag out of its slab.
    pub(crate) fn resolve(&mut self, tag: EvTag) -> EventKind<A> {
        match tag.kind {
            EvSlot::Invoke => EventKind::Invoke {
                op: self.ops.take(tag.slot),
            },
            EvSlot::DeliverBatch => {
                let p = self.batches.take(tag.slot);
                EventKind::DeliverBatch {
                    from: p.from,
                    first_id: p.first_id,
                    msgs: p.msgs,
                }
            }
            EvSlot::Timer => {
                let (id, timer) = self.timer_payloads.take(tag.slot);
                EventKind::Timer { id, timer }
            }
        }
    }

    /// Payloads currently live across all three event arenas. Every pop
    /// takes its payload out of the owning slab (stale timers included),
    /// so this must be zero whenever the event queue is empty — the
    /// end-of-run leak check the engine asserts and reports.
    pub(crate) fn live_payloads(&self) -> usize {
        self.ops.live_count() + self.batches.live_count() + self.timer_payloads.live_count()
    }

    pub(crate) fn push_invoke(&mut self, pid: ProcessId, at: SimTime, op: A::Op) {
        let slot = self.ops.insert(op);
        self.enqueue(at, pid, EvSlot::Invoke, slot);
    }
}

impl<A: Actor, D: DelayModel> Transport<A> for VirtualTransport<A, D> {
    fn send_batch(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msgs: Vec<A::Msg>,
    ) -> Result<MsgId, TransportError> {
        assert!(!msgs.is_empty(), "empty delivery batch {from}->{to}");
        // One delay draw for the whole batch: the batch is one
        // wire-level message as far as the delay model is concerned.
        let delay = self.delays.delay(MsgMeta { from, to });
        assert_admissible(self.bounds, delay, from, to);
        let recv_at = self.now + delay;
        let first_id = MsgId::new(self.next_msg_id);
        self.next_msg_id += msgs.len() as u64;
        if self.log_messages {
            // The log stays per-message (checkers pair ids one-to-one);
            // all entries of a batch share the send/recv instants.
            for i in 0..msgs.len() {
                self.msg_log.push(MsgEvent {
                    id: MsgId::new(first_id.as_u64() + i as u64),
                    from,
                    to,
                    sent_at: self.now,
                    delay,
                    recv_at,
                });
            }
        }
        let slot = self.batches.insert(BatchPayload {
            from,
            first_id,
            msgs,
        });
        self.enqueue(recv_at, to, EvSlot::DeliverBatch, slot);
        Ok(first_id)
    }

    fn set_timer(&mut self, pid: ProcessId, id: TimerId, delay: SimDuration, timer: A::Timer) {
        // Timer delays are in clock units; under drift (a non-unit
        // clock rate) convert to real time.
        let real_delay = self.clocks.clock_to_real(pid, delay);
        let slot = self.timer_payloads.insert((id, timer));
        self.enqueue(self.now + real_delay, pid, EvSlot::Timer, slot);
    }
}

/// Where a [`WallTransport`] hands a delivery batch: the destination
/// worker's inbox on threads, an encoded frame on the socket mesh.
pub trait Link<M> {
    /// Hands `msgs`, holding the ids `first_id..first_id + msgs.len()`,
    /// to `to`, to be delivered at tick `sent + delay` of the run's
    /// [`TimeBase`].
    ///
    /// # Errors
    ///
    /// Whatever the link cannot carry: an unreachable peer, a closed
    /// mesh.
    fn hand_off(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        first_id: MsgId,
        sent: u64,
        delay: u64,
        msgs: Vec<M>,
    ) -> Result<(), TransportError>;
}

/// The wall-clock backends' [`Transport`]: the thread runtime and the
/// socket mesh both send and arm through it.
///
/// A send asks the run's [`DelayModel`] for its delay (µs ticks), with
/// the same [`MsgMeta`] the engine builds, and checks it against the
/// model's bounds as the engine does. It then allocates the message ids and hands the
/// batch to the [`Link`]. Ids are `prefix | seq`, monotone per sender
/// and disjoint across senders, so every `send` trace event pairs with
/// exactly one `deliver` cluster-wide. Timers are armed on the node's
/// [`Agenda`] at `anchor + delay`, where the anchor is the nominal
/// instant of the running activation, as the engine arms at
/// `virtual now + delay`.
pub struct WallTransport<A: Actor, L, D> {
    link: L,
    pub(crate) base: TimeBase,
    delays: D,
    /// The model's admissible delay interval, hoisted at construction.
    bounds: DelayBounds,
    msg_prefix: u64,
    next_seq: u64,
    pub(crate) agenda: Agenda<A::Timer, A::Msg>,
    /// The nominal instant of the running activation, set by
    /// [`WallNode`](crate::deadline::WallNode) before every node call.
    pub(crate) anchor: Instant,
}

impl<A: Actor, L, D> fmt::Debug for WallTransport<A, L, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WallTransport")
            .field("bounds", &self.bounds)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl<A: Actor, L, D: DelayModel> WallTransport<A, L, D> {
    /// The transport of process `pid`: delays come from `delays`, send
    /// instants from `base`.
    #[must_use]
    pub fn new(pid: ProcessId, link: L, base: TimeBase, delays: D) -> Self {
        WallTransport {
            link,
            base,
            bounds: delays.bounds(),
            delays,
            // +1 keeps process 0's ids out of the low range so a frame
            // id can never collide with a client request id.
            msg_prefix: (u64::from(pid.as_u32()) + 1) << 40,
            next_seq: 0,
            agenda: Agenda::new(),
            anchor: Instant::now(),
        }
    }
}

impl<A: Actor, L: Link<A::Msg>, D: DelayModel> Transport<A> for WallTransport<A, L, D> {
    fn send_batch(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msgs: Vec<A::Msg>,
    ) -> Result<MsgId, TransportError> {
        assert!(!msgs.is_empty(), "empty delivery batch {from}->{to}");
        let first_id = MsgId::new(self.msg_prefix | self.next_seq);
        self.next_seq += msgs.len() as u64;
        let sent = self.base.now_ticks();
        let delay = self.delays.delay(MsgMeta { from, to });
        assert_admissible(self.bounds, delay, from, to);
        self.link
            .hand_off(from, to, first_id, sent, delay.as_ticks(), msgs)?;
        Ok(first_id)
    }

    fn set_timer(&mut self, _pid: ProcessId, id: TimerId, delay: SimDuration, timer: A::Timer) {
        self.agenda
            .arm(self.anchor + ticks_to_duration(delay), id, timer);
    }

    fn cancel_timer(&mut self, _pid: ProcessId, id: TimerId) {
        self.agenda.cancel(id);
    }
}
