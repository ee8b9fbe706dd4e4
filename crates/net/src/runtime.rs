//! The typed layer over the socket mesh: the [`Link`] that frames
//! outgoing batches, the server — the one wall-clock run loop,
//! [`WallNode::run`], over the mesh's arrivals — the blocking client,
//! and the loopback harness.
//!
//! ## Timebase
//!
//! Every process of a run is handed the same *epoch* — a unix-µs
//! instant, picked once by whoever launches the run. A process's
//! [`TimeBase`] samples `unix_µs_now − epoch` once at startup and then
//! advances by a monotonic clock, so ticks are immune to wall clock
//! steps after startup but directly comparable across processes on the
//! same machine (one tick = one µs, exactly as in the real-thread
//! runtime). A server's local clock is that tick count plus its offset
//! in the run's [`ClockAssignment`].
//!
//! ## Delay injection
//!
//! A loopback TCP hop takes tens of µs; the model wants delays in
//! `[d − u, d]` ticks. The server runs the node the engine and the
//! real-thread runtime run, in the wall-clock loop the thread runtime
//! runs too ([`WallNode`] over a [`Transport`] on the run's
//! [`TimeBase`]):
//! the *sender* asks the run's [`DelayModel`] for a delay, stamps it
//! into the frame header, and the *receiver* holds the decoded batch on
//! its agenda until `sent_at + delay` on the shared timebase. The one
//! mesh rule, checked by [`run_server`], is that the model draws within
//! [`ServerConfig::delay_draw_bounds`], `[d − u, d − headroom]`: the
//! headroom absorbs the real wire-and-scheduling latency so the total
//! observed delay stays within `[d − u, d]` even when a frame
//! physically arrives late.
//!
//! ## Harness
//!
//! [`run_history`] runs a whole group over loopback with the argument
//! list of the engine's and the thread runtime's `run_history`:
//! `(actors, clocks, delays, driver)`. Its history is [`drive`]'s, as
//! on threads: the driver records each invocation as it dispatches it
//! and each response as its client receives it.

use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use skewbound_sim::actor::Actor;
use skewbound_sim::clock::ClockAssignment;
pub use skewbound_sim::deadline::TimeBase;
use skewbound_sim::deadline::WallNode;
use skewbound_sim::delay::{DelayBounds, DelayBoundsError, DelayModel};
use skewbound_sim::engine::SimError;
use skewbound_sim::history::History;
use skewbound_sim::ids::{MsgId, ProcessId};
use skewbound_sim::node::NodeCore;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_sim::trace::TraceSink;
use skewbound_sim::transport::{Link, Transport, TransportError, WireTransport};
use skewbound_sim::workload::{drive, Driver};

use crate::tcp::{client_hello, next_frame, MeshListener, PeerSender, RawEvent, TcpMesh};
use crate::wire::{
    decode_batch, decode_frame, encode_batch, encode_frame, from_bytes, to_bytes, Decode, Encode,
    FrameBuf, FrameHeader, FrameKind,
};

/// Asks the kernel for exact timer expiries: writes `1` (ns) to
/// `/proc/self/timerslack_ns`. The default slack lets the kernel defer
/// every sleeping thread's wake-up by up to 50 µs to batch timer
/// interrupts; a replica's deadlines are the latency the paper bounds
/// (`timer_late_p50_us` 152 → 106 µs from this line alone). Call it
/// first thing in `main`: threads inherit the slack of their creator.
/// Off Linux, or where `/proc` is read-only, the write fails and the
/// default stays — slower, never wrong.
pub fn tighten_timer_slack() {
    let _ = std::fs::write("/proc/self/timerslack_ns", "1");
}

/// The mesh's [`Transport`]: the wall-clock transport the thread
/// runtime uses too, handing each batch to a [`PeerSender`] as one
/// encoded frame, which the node thread writes to the peer's socket
/// itself.
pub type NetTransport<'a, D> = Transport<D, PeerSender<'a>>;

/// A batch travels as one [`FrameKind::Peer`] frame stamped with its
/// send tick and injected delay; the receiver holds it until their sum.
impl<M: Encode> Link<M> for PeerSender<'_> {
    fn hand_off(
        &mut self,
        _from: ProcessId,
        to: ProcessId,
        first_id: MsgId,
        sent: u64,
        delay: u64,
        _seq: u64,
        msgs: Vec<M>,
    ) -> Result<(), TransportError> {
        let header = FrameHeader {
            kind: FrameKind::Peer,
            msg_id: first_id.as_u64(),
            sent_at_micros: sent,
            delay_micros: u32::try_from(delay).expect("injected delay fits u32"),
            batch: u32::try_from(msgs.len()).expect("batch length fits u32"),
        };
        self.send_frame(to, &encode_frame(&header, &encode_batch(&msgs)))
    }
}

/// Everything a server process needs besides its actor, its clocks,
/// its delay model and its mesh: identity, the network's delay bounds
/// and the shared epoch.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// This process's id.
    pub pid: ProcessId,
    /// Total number of replica processes.
    pub n: usize,
    /// The network's delay bounds `[d − u, d]`, in µs-ticks.
    pub bounds: DelayBounds,
    /// The run epoch, unix µs, shared by every process of the run.
    pub epoch_micros: u64,
    /// Headroom subtracted from `d` for the injected-delay ceiling, so
    /// injected delay plus real wire latency stays `≤ d`. Clamped to
    /// keep the draw interval non-empty.
    pub headroom_micros: u64,
}

impl ServerConfig {
    /// A config with the default headroom (`d / 8`, at least 500 µs).
    #[must_use]
    pub fn new(pid: ProcessId, n: usize, bounds: DelayBounds, epoch_micros: u64) -> Self {
        ServerConfig {
            pid,
            n,
            bounds,
            epoch_micros,
            headroom_micros: (bounds.max().as_ticks() / 8).max(500),
        }
    }

    /// The injected-delay draw interval `[d − u, max(d − headroom, d − u)]`:
    /// the bounds a served delay model must draw within.
    ///
    /// # Errors
    ///
    /// [`DelayBoundsError::ZeroMax`] when the interval is `[0, 0]`.
    pub fn delay_draw_bounds(&self) -> Result<DelayBounds, DelayBoundsError> {
        let lo = self.bounds.min().as_ticks();
        let hi = self
            .bounds
            .max()
            .as_ticks()
            .saturating_sub(self.headroom_micros)
            .max(lo);
        DelayBounds::try_new(
            SimDuration::from_ticks(hi),
            SimDuration::from_ticks(hi - lo),
        )
    }
}

/// Files one raw mesh arrival on `node`: a peer batch on its agenda
/// until `sent_at + delay`, a client request in its queue under the
/// token `(connection, request id)`, a `Bye` as the order to stop after
/// `grace` of quiet. Returns the connection to hang up on when the
/// arrival is malformed: a client operation that does not decode, or a
/// peer batch whose messages do not decode or whose delivery tick is
/// not at most `latest`. Anyone can open a connection and claim a pid,
/// so that is input to reject, never a reason to stop serving.
fn accept<A, L, D>(
    event: RawEvent,
    node: &mut WallNode<A, L, D, (u64, u64)>,
    grace: Duration,
    latest: u64,
) -> Option<u64>
where
    A: Actor,
    A::Msg: Decode,
    A::Op: Decode,
    L: Link<A::Msg>,
    D: DelayModel,
{
    match event {
        RawEvent::Peer {
            conn,
            from,
            header,
            payload,
        } => {
            let deliver_at = (header.sent_at_micros)
                .checked_add(u64::from(header.delay_micros))
                .filter(|&at| at <= latest);
            let held = decode_batch(&payload, header.batch as usize)
                .ok()
                .zip(deliver_at)
                .is_some_and(|(msgs, at)| node.hold(at, from, MsgId::new(header.msg_id), msgs));
            (!held).then_some(conn)
        }
        RawEvent::Client {
            conn,
            header,
            payload,
        } => match header.kind {
            FrameKind::ClientReq => {
                let Ok(op) = from_bytes(&payload) else {
                    return Some(conn);
                };
                node.enqueue((conn, header.msg_id), op);
                None
            }
            FrameKind::Bye => {
                node.stop(grace);
                None
            }
            _ => None,
        },
    }
}

/// Runs `actor` as one server process over `mesh` until it has been
/// told to stop (a [`FrameKind::Bye`] frame) *and* has drained: nothing
/// on its agenda, no queued or in-flight client operation, and `2·d` of
/// quiet (`d` the model's maximum delay) — by which point every frame
/// another replica sent before its own drain has long arrived. Its local
/// clock runs at its offset in `clocks`; its sends draw from `delays`.
/// Returns the number of operations it answered. It exits only through
/// the drain, so no operation is left pending or queued; it keeps no
/// record of an operation it has answered, so its memory does not grow
/// with the operations it serves.
///
/// The server is the one wall-clock loop, [`WallNode::run`], with the
/// mesh as its inbox: the calling thread waits on the mesh's sockets and
/// reads them itself. Client requests queue on the node and are admitted
/// one at a time, timers and held batches fire in one `(instant, seq)`
/// order, each anchored at its own instant, and each response goes back
/// to the connection and request id it answers. Trace stamps stay
/// actual time.
///
/// A malformed arrival — a client operation or a peer batch that does
/// not decode, or a peer batch due more than `2·d` past the receiver's
/// tick (`d` the network's [`ServerConfig::bounds`] maximum) — drops that
/// frame and its connection, and the server keeps serving. An honest
/// batch is due at most `d` after its send, so only a forged one is
/// dropped, which could otherwise hold the drain for as long as its
/// `u32` delay says: up to 71 minutes. With a sink attached, their
/// number is reported as the `net`/`dropped_conns` counter when nonzero.
///
/// # Panics
///
/// Panics if `delays` may draw outside [`ServerConfig::delay_draw_bounds`]
/// (the mesh's headroom rule) or draws an inadmissible delay, and on
/// transport failures: a replica that cannot reach a peer is broken.
pub fn run_server<A, D>(
    actor: A,
    cfg: &ServerConfig,
    clocks: &ClockAssignment,
    delays: D,
    mesh: &TcpMesh,
    mut sink: Option<&mut dyn TraceSink>,
) -> u64
where
    A: Actor,
    A::Msg: Encode + Decode,
    A::Op: Decode,
    A::Resp: Encode,
    D: DelayModel,
{
    let draw = cfg.delay_draw_bounds().expect("the draw interval is empty");
    let bounds = delays.bounds();
    assert!(
        draw.contains(bounds.min()) && draw.contains(bounds.max()),
        "the delay model draws from [{:?}, {:?}], outside the mesh's [{:?}, {:?}]",
        bounds.min(),
        bounds.max(),
        draw.min(),
        draw.max()
    );
    let grace = Duration::from_micros(2 * bounds.max().as_ticks());
    let horizon = 2 * cfg.bounds.max().as_ticks();
    let base = TimeBase::new(cfg.epoch_micros);
    let transport = NetTransport::new(cfg.pid, mesh.peer_sender(), base, clocks.clone(), delays);
    let mut node = WallNode::new(NodeCore::new(cfg.pid, cfg.n, actor), transport);
    let mut dropped = 0;
    node.run(
        mesh,
        sink.as_deref_mut(),
        |node, event| {
            if let Some(conn) = accept(event, node, grace, base.now_ticks() + horizon) {
                mesh.drop_conn(conn);
                dropped += 1;
            }
        },
        || false,
        |(conn, req_id), resp, _| {
            let header = FrameHeader {
                kind: FrameKind::ClientResp,
                msg_id: req_id,
                sent_at_micros: 0,
                delay_micros: 0,
                batch: 0,
            };
            // A vanished client is not a server error; the operation
            // still executed and is counted.
            let _ = mesh.send_to_client(conn, &encode_frame(&header, &to_bytes(&resp)));
        },
    )
    .expect("transport failed");
    if let Some(sink) = sink.filter(|_| dropped > 0) {
        sink.counter("net", "dropped_conns", dropped);
    }
    assert!(node.is_idle(), "the drain left an operation behind");
    node.served()
}

/// A blocking closed-loop client of one server: one operation in
/// flight at a time, matched to its response by request id.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    frames: FrameBuf,
    next_id: u64,
}

impl NetClient {
    /// Connects and identifies as a client session.
    ///
    /// # Errors
    ///
    /// Propagates connection and handshake I/O failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&client_hello())?;
        Ok(NetClient {
            stream,
            frames: FrameBuf::default(),
            next_id: 1,
        })
    }

    /// Invokes one operation and blocks until its response arrives.
    ///
    /// # Errors
    ///
    /// Propagates socket failures; a server that closes the connection
    /// mid-operation surfaces as [`ErrorKind::UnexpectedEof`], an
    /// undecodable response as [`ErrorKind::InvalidData`].
    pub fn invoke<Op: Encode, Resp: Decode>(&mut self, op: &Op) -> io::Result<Resp> {
        let req_id = self.next_id;
        self.next_id += 1;
        let frame = encode_frame(
            &FrameHeader {
                kind: FrameKind::ClientReq,
                msg_id: req_id,
                sent_at_micros: 0,
                delay_micros: 0,
                batch: 0,
            },
            &to_bytes(op),
        );
        self.stream.write_all(&frame)?;
        loop {
            let Some(body) = next_frame(&mut self.stream, &mut self.frames)? else {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection before responding",
                ));
            };
            let (header, payload) = decode_frame(&body)
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
            if header.kind == FrameKind::ClientResp && header.msg_id == req_id {
                return from_bytes(payload)
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()));
            }
        }
    }

    /// Tells the server to drain and stop once quiet.
    ///
    /// # Errors
    ///
    /// Propagates the socket write failure.
    pub fn bye(&mut self) -> io::Result<()> {
        let frame = encode_frame(
            &FrameHeader {
                kind: FrameKind::Bye,
                msg_id: 0,
                sent_at_micros: 0,
                delay_micros: 0,
                batch: 0,
            },
            &[],
        );
        self.stream.write_all(&frame)
    }
}

/// Runs `actors` as one server each on a TCP loopback mesh, under
/// `clocks` and `delays`, with `driver` issuing invocations through one
/// [`NetClient`] per process, and returns the client-observed history:
/// the argument list and result of the engine's and the thread
/// runtime's `run_history`.
///
/// Every server draws from the one shared model and injects its delays
/// as drawn: the loopback harness reserves no headroom, so a caller
/// whose `[d − u, d]` must also cover the loopback hop narrows the
/// model's bounds instead. Client `i` talks only to server `i` (the
/// model's "operation invoked at process `i`"). The history is
/// [`drive`]'s: an invocation is stamped when it is dispatched to its
/// client, a response when the client receives it, both on the shared
/// timebase, so the history reflects true real-time order across
/// processes.
///
/// # Errors
///
/// None: every failure below is a panic. The `Result` is the engine's,
/// so the backends share one signature.
///
/// # Panics
///
/// Panics if `actors` does not have one process per clock of `clocks`
/// ([`ClockAssignment::assert_covers`]), if the clocks drift, on the
/// driver overlapping invocations at one process, and on any socket,
/// protocol or thread failure.
pub fn run_history<A, D, Dr>(
    actors: Vec<A>,
    clocks: ClockAssignment,
    delays: D,
    driver: &mut Dr,
) -> Result<History<A::Op, A::Resp>, SimError>
where
    A: Actor + Send,
    A::Msg: Encode + Decode + Send,
    A::Op: Encode + Decode + Send,
    A::Resp: Encode + Decode + Send,
    A::Timer: Send,
    D: DelayModel + Send,
    Dr: Driver<A::Op, A::Resp> + ?Sized,
{
    clocks.assert_covers(actors.len());
    assert!(
        clocks.is_drift_free(),
        "the loopback mesh does not emulate clock drift"
    );
    let n = actors.len();
    let epoch = TimeBase::epoch_now_micros();
    let base = TimeBase::new(epoch);
    // Bind first so every process can be told all addresses.
    let listeners: Vec<MeshListener> = ProcessId::all(n)
        .map(|pid| MeshListener::bind(pid, "127.0.0.1:0").expect("bind loopback listener"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("query listener address"))
        .collect();
    let mut cfg = ServerConfig::new(ProcessId::new(0), n, delays.bounds(), epoch);
    cfg.headroom_micros = 0;
    let delays = Mutex::new(delays);
    let (done_tx, done_rx) = channel();
    let history = thread::scope(|scope| {
        for ((pid, actor), listener) in ProcessId::all(n).zip(actors).zip(listeners) {
            let peers: Vec<_> = ProcessId::all(n)
                .filter(|&q| q != pid)
                .map(|q| (q, addrs[q.index()]))
                .collect();
            let cfg = ServerConfig { pid, ..cfg };
            let (clocks, delays) = (&clocks, &delays);
            scope.spawn(move || {
                let mesh = listener.start(&peers).expect("start mesh");
                run_server(actor, &cfg, clocks, delays, &mesh, None);
                mesh.shutdown();
            });
        }
        // One client per server; dropping its sender (after the driver
        // returns, or while a driver panic unwinds) tells it to say bye.
        let clients: Vec<Sender<A::Op>> = ProcessId::all(n)
            .map(|pid| {
                let (tx, rx) = channel::<A::Op>();
                let (addr, done_tx) = (addrs[pid.index()], done_tx.clone());
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connect client");
                    for op in rx {
                        let resp = client.invoke(&op).expect("invoke over loopback");
                        let at = SimTime::from_ticks(base.now_ticks());
                        let _ = done_tx.send((pid, resp, at));
                    }
                    client.bye().expect("send bye");
                });
                tx
            })
            .collect();
        drop(done_tx);
        drive(driver, base, &done_rx, |pid, op| {
            clients[pid.index()]
                .send(op)
                .expect("a client thread exited with work left");
        })
    });
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use skewbound_core::params::Params;
    use skewbound_core::replica::{OpMsg, Replica};
    use skewbound_core::timestamp::Timestamp;
    use skewbound_sim::actor::Context;
    use skewbound_sim::delay::{FixedDelay, UniformDelay};
    use skewbound_sim::time::ClockTime;
    use skewbound_sim::trace::{Trace, TraceEvent, TraceEventKind};
    use skewbound_spec::namespace::{Namespace, NsOp};
    use skewbound_spec::register::{RegOp, RegResp, RwRegister};

    /// A link nobody sends through.
    struct NoLink;

    impl<M> Link<M> for NoLink {
        fn hand_off(
            &mut self,
            _: ProcessId,
            _: ProcessId,
            _: MsgId,
            _: u64,
            _: u64,
            _: u64,
            _: Vec<M>,
        ) -> Result<(), TransportError> {
            unreachable!("the test actor never sends")
        }
    }

    /// A server node of `actor` at process 0 of two that never sends.
    fn lone_node<A: Actor>(
        actor: A,
        base: TimeBase,
    ) -> WallNode<A, NoLink, FixedDelay, (u64, u64)> {
        let pid = ProcessId::new(0);
        let one = DelayBounds::new(SimDuration::from_ticks(1), SimDuration::ZERO);
        let clocks = ClockAssignment::zero(2);
        let transport = Transport::new(pid, NoLink, base, clocks, FixedDelay::maximal(one));
        WallNode::new(NodeCore::new(pid, 2, actor), transport)
    }

    /// A server's trace: its events and its counters.
    #[derive(Default)]
    struct Recorded {
        trace: Trace,
        counters: Vec<(&'static str, &'static str, u64)>,
    }

    impl TraceSink for Recorded {
        fn event(&mut self, event: &TraceEvent) {
            self.trace.event(event);
        }
        fn counter(&mut self, stage: &'static str, name: &'static str, value: u64) {
            self.counters.push((stage, name, value));
        }
    }

    /// Serves `actors` on a loopback mesh, server `i` recording into the
    /// `i`-th [`Recorded`] that [`stop_all`] returns. The servers are
    /// plain spawns, joined by [`stop_all`] on the success path only:
    /// were a server under test to die, a scope would wait forever on
    /// the others' drain instead of letting the test's assertions fail.
    fn serve<A>(actors: Vec<A>, bounds: DelayBounds) -> Mesh
    where
        A: Actor + Send + 'static,
        A::Msg: Encode + Decode,
        A::Op: Decode,
        A::Resp: Encode,
    {
        let n = actors.len();
        let epoch = TimeBase::epoch_now_micros();
        let listeners: Vec<_> = ProcessId::all(n)
            .map(|pid| MeshListener::bind(pid, "127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let servers = ProcessId::all(n)
            .zip(actors)
            .zip(listeners)
            .map(|((pid, actor), listener)| {
                let peers: Vec<_> = ProcessId::all(n)
                    .filter(|&q| q != pid)
                    .map(|q| (q, addrs[q.index()]))
                    .collect();
                let cfg = ServerConfig::new(pid, n, bounds, epoch);
                let model = UniformDelay::new(cfg.delay_draw_bounds().unwrap(), 7);
                std::thread::spawn(move || {
                    let mesh = listener.start(&peers).expect("start mesh");
                    let mut recorded = Recorded::default();
                    let clocks = ClockAssignment::zero(n);
                    run_server(actor, &cfg, &clocks, model, &mesh, Some(&mut recorded));
                    mesh.shutdown();
                    recorded
                })
            })
            .collect();
        Mesh { addrs, servers }
    }

    /// A running test mesh: the servers' addresses and threads.
    struct Mesh {
        addrs: Vec<SocketAddr>,
        servers: Vec<std::thread::JoinHandle<Recorded>>,
    }

    /// Tells every server to stop; each must exit without a panic.
    /// Returns what they recorded.
    fn stop_all(mesh: Mesh) -> Vec<Recorded> {
        for addr in &mesh.addrs {
            NetClient::connect(addr).unwrap().bye().unwrap();
        }
        let servers = mesh.servers.into_iter();
        servers
            .map(|s| s.join().expect("server thread panicked"))
            .collect()
    }

    /// Starts a two-process `RwRegister<i64>` mesh on loopback.
    fn two_register_servers() -> Mesh {
        let params = Params::with_optimal_skew(
            2,
            SimDuration::from_ticks(2_000),
            SimDuration::from_ticks(1_000),
            SimDuration::ZERO,
        )
        .unwrap();
        let actors = Replica::group(RwRegister::<i64>::default(), &params);
        serve(actors, params.delay_bounds())
    }

    /// Waits up to 5 s for the server to close `stream`: EOF, or a reset
    /// when it closed with bytes of ours still unread.
    fn hangs_up(stream: &mut TcpStream) -> bool {
        use std::io::Read;

        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match stream.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == ErrorKind::ConnectionReset,
        }
    }

    /// A write through server 0 still completes; then both servers are
    /// told to stop, and both must exit without a panic. Returns the
    /// counters server 0 reported.
    fn write_then_stop(mesh: Mesh) -> Vec<(&'static str, &'static str, u64)> {
        let mut client = NetClient::connect(mesh.addrs[0]).unwrap();
        let resp: RegResp<i64> = client.invoke(&RegOp::Write(5i64)).unwrap();
        assert_eq!(resp, RegResp::Ack);
        stop_all(mesh).swap_remove(0).counters
    }

    fn header(kind: FrameKind, batch: u32) -> FrameHeader {
        FrameHeader {
            kind,
            msg_id: 1,
            sent_at_micros: 0,
            delay_micros: 0,
            batch,
        }
    }

    /// Anyone can open a client session, so a request that does not
    /// decode costs that client its connection and nothing else.
    #[test]
    fn undecodable_client_operation_drops_the_client_not_the_server() {
        let mesh = two_register_servers();
        let mut hostile = TcpStream::connect(mesh.addrs[0]).unwrap();
        hostile.write_all(&client_hello()).unwrap();
        let frame = encode_frame(&header(FrameKind::ClientReq, 0), &[0xEE]);
        hostile.write_all(&frame).unwrap();
        assert!(
            hangs_up(&mut hostile),
            "the server did not hang up on the malformed session"
        );
        assert_eq!(write_then_stop(mesh), [("net", "dropped_conns", 1)]);
    }

    /// A peer hello naming a pid outside the mesh is dropped. That
    /// connection would have no dedup watermark, so a resent frame would
    /// reach the agenda twice.
    #[test]
    fn peer_hello_from_outside_the_mesh_is_dropped() {
        let mesh = two_register_servers();
        let frame = encode_frame(&header(FrameKind::Peer, 0), &[]);
        let mut bytes = crate::tcp::hello_frame(crate::tcp::ROLE_PEER, ProcessId::new(99));
        bytes.extend_from_slice(&frame);
        bytes.extend_from_slice(&frame);
        let mut forged = TcpStream::connect(mesh.addrs[0]).unwrap();
        forged.write_all(&bytes).unwrap();
        assert!(
            hangs_up(&mut forged),
            "the server did not hang up on the forged peer"
        );
        // The mesh turned it away before the server saw a frame.
        assert_eq!(write_then_stop(mesh), []);
    }

    /// A connection that says hello as an in-mesh pid and then sends a
    /// well-formed `Peer` header over a payload that does not decode
    /// costs that connection, not the server: the frame is dropped, and
    /// a write still completes afterwards.
    #[test]
    fn garbage_peer_batch_drops_the_connection_not_the_server() {
        let mesh = two_register_servers();
        let mut bytes = crate::tcp::hello_frame(crate::tcp::ROLE_PEER, ProcessId::new(1));
        bytes.extend_from_slice(&encode_frame(&header(FrameKind::Peer, 1), &[0xEE; 3]));
        let mut forged = TcpStream::connect(mesh.addrs[0]).unwrap();
        forged.write_all(&bytes).unwrap();
        assert!(
            hangs_up(&mut forged),
            "the server did not hang up on the garbage batch"
        );
        assert_eq!(write_then_stop(mesh), [("net", "dropped_conns", 1)]);
    }

    /// A connection that says hello as an in-mesh pid and then sends a
    /// batch that decodes but is due `u32::MAX` µs after its send, 71
    /// minutes, costs that connection: held, it would keep the server
    /// from draining until then.
    #[test]
    fn peer_batch_due_past_twice_d_drops_the_connection() {
        let mesh = two_register_servers();
        let msg: OpMsg<RwRegister<i64>> = OpMsg {
            op: RegOp::Write(5),
            ts: Timestamp::with_seq(ClockTime::from_ticks(1_000), ProcessId::new(1), 1),
        };
        let header = FrameHeader {
            delay_micros: u32::MAX,
            ..header(FrameKind::Peer, 1)
        };
        let mut bytes = crate::tcp::hello_frame(crate::tcp::ROLE_PEER, ProcessId::new(1));
        bytes.extend_from_slice(&encode_frame(&header, &encode_batch(&[msg])));
        let mut forged = TcpStream::connect(mesh.addrs[0]).unwrap();
        forged.write_all(&bytes).unwrap();
        assert!(
            hangs_up(&mut forged),
            "the server did not hang up on the far-future batch"
        );
        assert_eq!(write_then_stop(mesh), [("net", "dropped_conns", 1)]);
    }

    /// The replica-to-replica golden of `wire_props.rs` (one namespaced
    /// register write), and the same message as a three-message batch.
    fn golden_peer_frames() -> Vec<Vec<u8>> {
        type RegisterNs = Namespace<RwRegister<i64>>;
        let msg: OpMsg<RegisterNs> = OpMsg {
            op: NsOp::new(3, RegOp::Write(5)),
            ts: Timestamp::with_seq(ClockTime::from_ticks(1_000), ProcessId::new(2), 7),
        };
        [1, 3]
            .map(|batch| {
                let header = FrameHeader {
                    kind: FrameKind::Peer,
                    msg_id: (1 << 40) | 5,
                    sent_at_micros: 1_000_000,
                    delay_micros: 15_000,
                    batch,
                };
                let msgs = vec![msg.clone(); batch as usize];
                encode_frame(&header, &encode_batch(&msgs))
            })
            .to_vec()
    }

    /// Seeded mutation fuzzing of the peer receive path: the golden
    /// frames with bytes flipped, cut short or extended go through
    /// [`FrameBuf`], [`decode_frame`] and [`accept`] on a register
    /// replica's [`WallNode`]. Whatever the bytes, `accept` files the
    /// batch or names the connection to drop; it never panics.
    #[test]
    fn mutated_peer_frames_never_panic_the_server() {
        type RegisterNs = Namespace<RwRegister<i64>>;
        let params = Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(20_000),
            SimDuration::from_ticks(8_000),
            SimDuration::ZERO,
        )
        .unwrap();
        let goldens = golden_peer_frames();
        let (mut held, mut dropped) = (0, 0);
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // The goldens were sent at tick 1 000 000: start the clock
            // there, so that a frame is held or dropped by its bytes.
            let base = TimeBase::new(TimeBase::epoch_now_micros() - 1_000_000);
            let replica = Replica::new(RegisterNs::default(), &params);
            let mut node = lone_node(replica, base);
            for _ in 0..8 {
                let mut bytes = goldens[rng.gen_range(0..goldens.len())].clone();
                match rng.gen_range(0..3) {
                    0 => {
                        for _ in 0..rng.gen_range(1..4) {
                            let at = rng.gen_range(0..bytes.len());
                            bytes[at] ^= 1u8 << rng.gen_range(0..8);
                        }
                    }
                    1 => bytes.truncate(rng.gen_range(0..bytes.len())),
                    _ => bytes.extend((0..rng.gen_range(1..16)).map(|_| rng.gen_range(0u8..=255))),
                }
                let mut frames = FrameBuf::default();
                frames.feed(&bytes);
                while let Ok(Some(body)) = frames.pop() {
                    let Ok((header, payload)) = decode_frame(&body) else {
                        continue;
                    };
                    let event = RawEvent::Peer {
                        conn: 1,
                        from: ProcessId::new(1),
                        header,
                        payload: payload.to_vec(),
                    };
                    let latest = base.now_ticks() + 2 * params.delay_bounds().max().as_ticks();
                    match accept(event, &mut node, Duration::ZERO, latest) {
                        Some(_) => dropped += 1,
                        None => held += 1,
                    }
                }
            }
        }
        // Both outcomes occur: the mutations are neither all benign nor
        // all fatal to the frame.
        assert!(held > 0 && dropped > 0, "held {held}, dropped {dropped}");
    }

    /// Each process forwards its op value to the next process and
    /// responds when the ring token returns to process 0.
    #[derive(Debug, Default)]
    struct Ring;

    impl Actor for Ring {
        type Msg = i64;
        type Op = i64;
        type Resp = i64;
        type Timer = ();

        fn on_invoke(&mut self, op: i64, ctx: &mut Context<'_, Self>) {
            let next = ProcessId::new((ctx.pid().as_u32() + 1) % ctx.n() as u32);
            ctx.send(next, op);
        }

        fn on_message(&mut self, _from: ProcessId, msg: i64, ctx: &mut Context<'_, Self>) {
            if ctx.pid() == ProcessId::new(0) {
                ctx.respond(msg);
            } else {
                let next = ProcessId::new((ctx.pid().as_u32() + 1) % ctx.n() as u32);
                ctx.send(next, msg);
            }
        }

        fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
    }

    /// Responds to `op` with `op + 1` after a 1 ms timer.
    #[derive(Debug, Default)]
    struct TimerEcho;

    impl Actor for TimerEcho {
        type Msg = i64;
        type Op = i64;
        type Resp = i64;
        type Timer = i64;

        fn on_invoke(&mut self, op: i64, ctx: &mut Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(1000), op);
        }
        fn on_message(&mut self, _: ProcessId, _: i64, _: &mut Context<'_, Self>) {}
        fn on_timer(&mut self, t: i64, ctx: &mut Context<'_, Self>) {
            ctx.respond(t + 1);
        }
    }

    fn ms_bounds() -> DelayBounds {
        DelayBounds::new(
            SimDuration::from_ticks(4_000),
            SimDuration::from_ticks(2_000),
        )
    }

    /// On the wall-clock core behind a socket, every `send` trace event
    /// pairs with exactly one later `deliver` carrying the same message
    /// id, at the process the send addressed.
    #[test]
    fn traced_cluster_pairs_sends_with_deliveries() {
        let mesh = serve(vec![Ring, Ring, Ring], ms_bounds());
        let mut client = NetClient::connect(mesh.addrs[0]).unwrap();
        assert_eq!(client.invoke::<i64, i64>(&42).unwrap(), 42);
        let recorded = stop_all(mesh);
        let mut merged = Trace::new();
        for e in recorded.iter().flat_map(|r| r.trace.events()) {
            merged.event(e);
        }
        let count = |want: &str| {
            let events = merged.events().iter();
            events.filter(|e| e.kind.label() == want).count()
        };
        assert_eq!(count("invoke"), 1);
        assert_eq!(count("respond"), 1);
        assert_eq!(count("send"), 3);
        assert_eq!(count("deliver"), 3);
        // Three pairs out of three sends and three deliveries: each send
        // is delivered exactly once (`messages` panics on a delivery
        // stamped before its send).
        let messages = merged.messages();
        assert_eq!(messages.len(), 3);
        for m in &messages {
            let at_recipient = recorded[m.to.index()].trace.events().iter().any(|e| {
                e.at == m.recv_at
                    && matches!(e.kind, TraceEventKind::Recv { msg, .. } if msg == m.id)
            });
            assert!(at_recipient, "{m:?} should deliver at {}", m.to);
        }
    }

    #[test]
    fn traced_cluster_records_timer_events() {
        let mesh = serve(vec![TimerEcho], ms_bounds());
        let mut client = NetClient::connect(mesh.addrs[0]).unwrap();
        assert_eq!(client.invoke::<i64, i64>(&5).unwrap(), 6);
        let recorded = stop_all(mesh);
        let labels: Vec<_> = recorded[0]
            .trace
            .events()
            .iter()
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(labels, ["invoke", "timer-set", "timer-fire", "respond"]);
    }

    /// Two requests sent back to back on one connection are admitted one
    /// at a time: each is answered under its own request id, in request
    /// order, and the second starts at the server only once the first
    /// has responded.
    #[test]
    fn back_to_back_requests_on_one_connection_are_admitted_in_turn() {
        let mesh = serve(vec![TimerEcho], ms_bounds());
        let mut stream = TcpStream::connect(mesh.addrs[0]).unwrap();
        let mut bytes = client_hello();
        for (req_id, op) in [(1, 5i64), (2, 7)] {
            let header = FrameHeader {
                msg_id: req_id,
                ..header(FrameKind::ClientReq, 0)
            };
            bytes.extend_from_slice(&encode_frame(&header, &to_bytes(&op)));
        }
        stream.write_all(&bytes).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut frames = FrameBuf::default();
        for (req_id, want) in [(1, 6i64), (2, 8)] {
            let body = loop {
                if let Some(body) = frames.pop().unwrap() {
                    break body;
                }
                let mut chunk = [0u8; 256];
                let n = std::io::Read::read(&mut stream, &mut chunk).expect("no response in 10 s");
                assert!(n > 0, "the server hung up");
                frames.feed(&chunk[..n]);
            };
            let (header, payload) = decode_frame(&body).unwrap();
            assert_eq!(
                (header.kind, header.msg_id),
                (FrameKind::ClientResp, req_id)
            );
            assert_eq!(from_bytes::<i64>(payload).unwrap(), want);
        }
        let recorded = stop_all(mesh);
        let at = |label: &str| -> Vec<SimTime> {
            let events = recorded[0].trace.events().iter();
            events
                .filter(|e| e.kind.label() == label)
                .map(|e| e.at)
                .collect()
        };
        let (invoked, responded) = (at("invoke"), at("respond"));
        assert_eq!((invoked.len(), responded.len()), (2, 2));
        assert!(
            invoked[1] >= responded[0],
            "the second op started at {:?}, before the first responded at {:?}",
            invoked[1],
            responded[0]
        );
    }
}
