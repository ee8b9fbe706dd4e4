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
//! * [`tcp`] — the socket mesh implementing the byte-oriented
//!   [`WireTransport`](skewbound_sim::transport::WireTransport) half of
//!   the transport split: one writer thread per peer with coalesced
//!   (writev-style) sends and reconnect-with-backoff, an acceptor that
//!   sorts inbound connections into peers and clients by their hello
//!   frame, and per-sender watermark dedup making reconnect resends
//!   exactly-once.
//! * [`runtime`] — the typed layer: the [`Link`](skewbound_sim::transport::Link)
//!   that encodes each outgoing batch into one frame for the wall-clock
//!   core the real-thread runtime runs too
//!   ([`WallNode`](skewbound_sim::deadline::WallNode): one agenda of
//!   timers and held deliveries, one fire-due step, one drain rule), the
//!   server event loop around it — generic over the actor, shared by the
//!   `skewbound-serve` binary and the in-test cluster — and the
//!   blocking client used by `skewbound-load`.
//!
//! Timebase: all processes of a run share one epoch (a unix-µs instant
//! passed on the command line); one tick is one microsecond, exactly as
//! in the real-thread runtime. Senders stamp each frame with its send
//! tick and a seeded artificial delay drawn from `[d − u, d − headroom]`;
//! the receiver holds the frame until `sent_at + delay` on its own
//! clock, so the observed delivery window matches the model's even
//! though the wire itself is far faster.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod runtime;
pub mod tcp;
pub mod wire;
