//! The transport: where a node's sends go and what time it is.
//!
//! Every backend runs the same [`NodeCore`](crate::node::NodeCore)
//! through the same [`Transport`]; what differs is only the [`Link`] a
//! delivery batch is handed to and the clock an activation reads:
//!
//! * the discrete-event engine runs every node over one shared
//!   transport on virtual time: an activation happens at its item's
//!   instant, message ids count from 0 across the run, and its link
//!   files each batch straight onto the destination node's agenda;
//! * the two wall-clock backends — the real-thread runtime and the
//!   socket mesh — give each node its own transport on a [`TimeBase`]:
//!   an activation reads the wall clock, message ids are `prefix | seq`
//!   per sender, and the link is the destination worker's inbox or an
//!   encoded frame, which the destination holds on its agenda until
//!   `sent + delay`.
//!
//! On every backend a send asks the run's [`DelayModel`] for its delay,
//! checked against the model's bounds, and a send is one delivery:
//! whatever one activation sends to one peer, a single message being a
//! batch of one. Every message and timer a node produces passes through
//! this single choke point, which is what makes delay injection, trace
//! pairing and future drop/duplicate fault hooks land once for every
//! backend.

use core::fmt;

use crate::clock::ClockAssignment;
use crate::deadline::TimeBase;
use crate::delay::{assert_admissible, DelayBounds, DelayModel, MsgMeta};
use crate::ids::{MsgId, ProcessId};
use crate::node::Stamp;
use crate::time::{SimDuration, SimTime};

/// Why a transport failed to accept a send.
///
/// The in-process links (the engine's agendas, the thread runtime's
/// worker channels) never fail — their queues are unbounded and
/// intra-process. The socket mesh surfaces the one real failure it has:
/// a destination that is not one of its peers. Encoding cannot fail, and
/// a send to a peer that is down is queued for its next connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// `to` is not a destination the link can reach: on the socket mesh,
    /// not one of its peers.
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

/// The byte-oriented carrier under the socket mesh's [`Link`]: it moves
/// already-encoded frames. The mesh's link encodes each batch into a
/// frame (the `wire` codec in `skewbound-net`) and hands the bytes
/// here; the receiver decodes frames arriving from peers back into
/// typed messages.
pub trait WireTransport {
    /// Queues one encoded frame for delivery to `to`. Queuing is
    /// asynchronous: `Ok` means the frame was accepted for
    /// (re)transmission, not that the peer received it. Delivery is
    /// at-least-once under reconnects; receivers deduplicate by the
    /// frame header's message id.
    fn send_frame(&mut self, to: ProcessId, frame: &[u8]) -> Result<(), TransportError>;
}

/// Where a [`Transport`] hands a delivery batch: the destination node's
/// agenda on the engine, the destination worker's inbox on threads, an
/// encoded frame on the socket mesh.
pub trait Link<M> {
    /// Hands `msgs`, holding the ids `first_id..first_id + msgs.len()`,
    /// to `to`, to be delivered at tick `sent + delay` under the agenda
    /// sequence number `seq` (which only a link that files onto the
    /// destination's agenda itself has a use for).
    ///
    /// # Errors
    ///
    /// Whatever the link cannot carry: an unreachable peer, a closed
    /// mesh.
    #[allow(clippy::too_many_arguments)] // one parameter per header field
    fn hand_off(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        first_id: MsgId,
        sent: u64,
        delay: u64,
        seq: u64,
        msgs: Vec<M>,
    ) -> Result<(), TransportError>;
}

/// The one transport every node sends and arms through.
///
/// A send asks the run's [`DelayModel`] for its delay (ticks) and checks
/// it against the model's bounds, allocates the message ids and hands
/// the batch to the [`Link`]. Ids are run-unique, so every `send` trace
/// event pairs with exactly one `deliver`. The transport also draws the
/// agenda sequence numbers — one counter for sends and timer arms, in
/// the node's effect order — and tells an activation its time: on
/// virtual time the activation's own instant, on a [`TimeBase`] the
/// wall clock's reading, each read through the process's clock in the
/// [`ClockAssignment`].
pub struct Transport<D, L> {
    pub(crate) link: L,
    pub(crate) clocks: ClockAssignment,
    /// `None` on virtual time.
    pub(crate) base: Option<TimeBase>,
    pub(crate) delays: D,
    /// The model's admissible delay interval, hoisted at construction.
    bounds: DelayBounds,
    msg_prefix: u64,
    pub(crate) next_msg: u64,
    next_seq: u64,
}

crate::clone_fields!([D: Clone, L: Clone] Transport<D, L> {
    link, clocks, base, delays, bounds, msg_prefix, next_msg, next_seq
});

impl<D, L> fmt::Debug for Transport<D, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transport")
            .field("bounds", &self.bounds)
            .field("next_msg", &self.next_msg)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl<D: DelayModel, L> Transport<D, L> {
    /// The wall-clock transport of process `pid`: activations read the
    /// time from `base` and the clock at `pid`'s offset in `clocks`;
    /// delays come from `delays`.
    #[must_use]
    pub fn new(
        pid: ProcessId,
        link: L,
        base: TimeBase,
        clocks: ClockAssignment,
        delays: D,
    ) -> Self {
        Transport {
            base: Some(base),
            // +1 keeps process 0's ids out of the low range so a frame
            // id can never collide with a client request id.
            msg_prefix: (u64::from(pid.as_u32()) + 1) << 40,
            ..Self::virtual_time(link, clocks, delays)
        }
    }

    /// The engine's transport, shared by every node of a run on virtual
    /// time: message ids count from 0 across the run.
    pub(crate) fn virtual_time(link: L, clocks: ClockAssignment, delays: D) -> Self {
        Transport {
            link,
            clocks,
            base: None,
            bounds: delays.bounds(),
            delays,
            msg_prefix: 0,
            next_msg: 0,
            next_seq: 0,
        }
    }

    /// The next agenda sequence number.
    pub(crate) fn seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// The stamp of an activation at `pid` anchored at tick `anchor`.
    pub(crate) fn stamp(&self, pid: ProcessId, anchor: u64) -> Stamp {
        let now = SimTime::from_ticks(self.base.map_or(anchor, |base| base.now_ticks()));
        Stamp {
            now,
            clock: self.clocks.clock_at(pid, now),
        }
    }

    /// The tick at which a timer of `delay` local clock ticks, armed at
    /// `pid` by an activation anchored at `anchor`, expires: under drift
    /// (a non-unit clock rate) the delay is converted to real time.
    pub(crate) fn expiry(&self, pid: ProcessId, anchor: u64, delay: SimDuration) -> u64 {
        (SimTime::from_ticks(anchor) + self.clocks.clock_to_real(pid, delay)).as_ticks()
    }

    /// Assigns one delay to the delivery `msgs`, sent at `sent`, and
    /// hands it to the link: the messages travel together and arrive as
    /// a single [`Actor::on_message_batch`](crate::actor::Actor::on_message_batch)
    /// activation. Returns the id of the first message.
    ///
    /// # Panics
    ///
    /// Panics if `msgs` is empty or the model draws outside its bounds.
    pub(crate) fn send_batch<M>(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        sent: SimTime,
        msgs: Vec<M>,
    ) -> Result<MsgId, TransportError>
    where
        L: Link<M>,
    {
        assert!(!msgs.is_empty(), "empty delivery batch {from}->{to}");
        let first_id = MsgId::new(self.msg_prefix | self.next_msg);
        self.next_msg += msgs.len() as u64;
        // One delay draw for the whole batch: the batch is one
        // wire-level message as far as the delay model is concerned.
        let delay = self.delays.delay(MsgMeta { from, to });
        assert_admissible(self.bounds, delay, from, to);
        let seq = self.seq();
        self.link.hand_off(
            from,
            to,
            first_id,
            sent.as_ticks(),
            delay.as_ticks(),
            seq,
            msgs,
        )?;
        Ok(first_id)
    }
}
