//! # skewbound-net
//!
//! The cross-process backend: the same [`Replica`](skewbound_core::replica::Replica)
//! state machines the discrete-event engine and the real-thread runtime
//! drive, run as separate OS processes over TCP.
//!
//! Three layers:
//!
//! * [`wire`] — the hand-rolled codec: length-prefixed frames with a
//!   versioned header (message id, send timestamp, injected delay,
//!   batch count), the [`wire::FrameBuf`] that reassembles them from a
//!   byte stream, and [`wire::Encode`]/[`wire::Decode`] for the
//!   messages of the served objects (register, queue, kv). No serde;
//!   the byte layout is part of the protocol.
//! * [`tcp`] — the socket mesh, run by the node thread alone: as the
//!   byte-oriented [`WireTransport`](skewbound_sim::transport::WireTransport)
//!   half of the transport split, a send writes a peer's frame at once
//!   and keeps what the socket does not take; as its
//!   [`Inbox`](skewbound_sim::deadline::Inbox), one `ppoll` over the
//!   listener, every inbound connection and every peer with bytes left,
//!   after which that thread itself writes on, redials, accepts, reads,
//!   sorts connections into peers and clients by their hello frame, and
//!   dedups by per-sender watermark, making reconnect resends
//!   exactly-once.
//! * [`runtime`] — the typed layer: the [`Link`](skewbound_sim::transport::Link)
//!   that encodes each outgoing batch into one frame for the node the
//!   engine and the real-thread runtime run too
//!   ([`NodeCore`](skewbound_sim::node::NodeCore): one agenda of
//!   timers and held deliveries, one queue of invocations, one step),
//!   in the one wall-clock run loop,
//!   [`WallNode::run`](skewbound_sim::deadline::WallNode::run),
//!   the server — that loop waiting on the mesh itself, which files
//!   them and answers each client request; generic over the actor and
//!   the delay model, shared by the `skewbound-serve` binary and the
//!   loopback harness `runtime::run_history` — and the blocking client
//!   used by `skewbound-load`.
//!
//! Timebase: all processes of a run share one epoch (a unix-µs instant
//! passed on the command line); one tick is one microsecond, exactly as
//! in the real-thread runtime. Senders stamp each frame with its send
//! tick and an artificial delay from the run's delay model, which draws
//! within `[d − u, d − headroom]`;
//! the receiver holds the frame until `sent_at + delay` on its own
//! clock, so the observed delivery window matches the model's even
//! though the wire itself is far faster.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod runtime;
pub mod tcp;
pub mod wire;
