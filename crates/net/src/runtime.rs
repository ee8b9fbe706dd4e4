//! The typed layer over the socket mesh: the [`Link`] that frames
//! outgoing batches, the server event loop, and the blocking client.
//!
//! ## Timebase
//!
//! Every process of a run is handed the same *epoch* — a unix-µs
//! instant, picked once by whoever launches the run. A process's
//! [`TimeBase`] samples `unix_µs_now − epoch` once at startup and then
//! advances by a monotonic clock, so ticks are immune to wall clock
//! steps after startup but directly comparable across processes on the
//! same machine (one tick = one µs, exactly as in the real-thread
//! runtime).
//!
//! ## Delay injection
//!
//! A loopback TCP hop takes tens of µs; the model wants delays in
//! `[d − u, d]` ticks. The server runs the wall-clock core the
//! real-thread runtime runs ([`WallNode`] over a [`WallTransport`]):
//! the *sender* draws a seeded delay — here from `[d − u, d − headroom]`,
//! stamped into the frame header — and the *receiver* holds the decoded
//! batch on its agenda until `sent_at + delay` on the shared timebase.
//! The headroom absorbs the real wire-and-scheduling latency so total
//! observed delay stays within `[d − u, d]` even when a frame physically
//! arrives late.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_sim::actor::Actor;
pub use skewbound_sim::deadline::TimeBase;
use skewbound_sim::deadline::WallNode;
use skewbound_sim::history::History;
use skewbound_sim::ids::{MsgId, ProcessId};
use skewbound_sim::node::{Activation, NodeCore, TraceOutput};
use skewbound_sim::time::{ClockOffset, SimTime};
use skewbound_sim::trace::{TraceEvent, TraceSink};
use skewbound_sim::transport::{Link, TransportError, WallTransport, WireTransport};
use skewbound_spec::seqspec::SequentialSpec;

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

/// The mesh's [`Transport`](skewbound_sim::transport::Transport): the
/// wall-clock transport the thread runtime uses too, handing each batch
/// to a [`PeerSender`] as one encoded frame.
pub type NetTransport<A> = WallTransport<A, PeerSender>;

/// A batch travels as one [`FrameKind::Peer`] frame stamped with its
/// send tick and injected delay; the receiver holds it until their sum.
impl<M: Encode> Link<M> for PeerSender {
    fn hand_off(
        &mut self,
        _from: ProcessId,
        to: ProcessId,
        first_id: MsgId,
        sent: u64,
        delay: u64,
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

/// Everything a server process needs besides its object spec and its
/// mesh: identity, model parameters, determinism seed and the shared
/// epoch.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// This process's id.
    pub pid: ProcessId,
    /// Total number of replica processes.
    pub n: usize,
    /// The model parameters (`d`, `u`, `ε`, `X`) in µs-ticks.
    pub params: Params,
    /// Seed for the per-process delay draws.
    pub seed: u64,
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
    pub fn new(pid: ProcessId, n: usize, params: Params, seed: u64, epoch_micros: u64) -> Self {
        ServerConfig {
            pid,
            n,
            params,
            seed,
            epoch_micros,
            headroom_micros: (params.d().as_ticks() / 8).max(500),
        }
    }

    /// The injected-delay draw interval `[d − u, max(d − headroom, d − u)]`.
    #[must_use]
    pub fn delay_draw_bounds(&self) -> (u64, u64) {
        let d = self.params.d().as_ticks();
        let lo = d - self.params.u().as_ticks();
        let hi = d.saturating_sub(self.headroom_micros).max(lo);
        (lo, hi)
    }
}

/// Adapts an optional [`TraceSink`] to the node core's [`TraceOutput`].
struct SinkOutput<'a> {
    sink: Option<&'a mut dyn TraceSink>,
}

impl TraceOutput for SinkOutput<'_> {
    fn active(&self) -> bool {
        self.sink.is_some()
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.event(&event);
        }
    }
}

/// One queued client request.
struct ClientReq<O> {
    conn: u64,
    req_id: u64,
    op: O,
}

/// Files one raw mesh arrival: a peer batch on `node`'s agenda until
/// `sent_at + delay`, a client request in `client_q`, a `Bye` as the
/// order to stop after `grace` of quiet. A client whose operation does
/// not decode loses its connection on `mesh`; anyone can open a client
/// session, so that is input to reject, not a reason to stop serving.
fn accept<A>(
    event: RawEvent,
    node: &mut WallNode<A, PeerSender>,
    client_q: &mut VecDeque<ClientReq<A::Op>>,
    mesh: &TcpMesh,
    grace: Duration,
) where
    A: Actor,
    A::Msg: Encode + Decode,
    A::Op: Decode,
{
    match event {
        RawEvent::Peer {
            from,
            header,
            payload,
        } => {
            let msgs = decode_batch(&payload, header.batch as usize)
                .expect("peer sent an undecodable message batch");
            let deliver_at = header.sent_at_micros + u64::from(header.delay_micros);
            node.hold(deliver_at, from, MsgId::new(header.msg_id), msgs);
        }
        RawEvent::Client {
            conn,
            header,
            payload,
        } => match header.kind {
            FrameKind::ClientReq => match from_bytes(&payload) {
                Ok(op) => {
                    let req_id = header.msg_id;
                    client_q.push_back(ClientReq { conn, req_id, op });
                    node.touch();
                }
                Err(_) => mesh.drop_client(conn),
            },
            FrameKind::Bye => node.stop(grace),
            _ => {}
        },
        RawEvent::ClientGone { .. } => {}
    }
}

/// Runs `actor` as one server process over `mesh` until it has been
/// told to stop (a [`FrameKind::Bye`] frame) *and* has drained: nothing
/// on its agenda, no queued or in-flight client operation, and a full
/// `2d` of quiet — by which point every frame another replica sent
/// before its own drain has long arrived. Returns the server-side
/// history.
///
/// The node is the [`WallNode`] the thread runtime runs too: timers and
/// held batches fire in one nominal-time order, each anchored at its own
/// instant, and each deadline is reached by [`TcpMesh::wait`], which
/// polls the last stretch while an operation is pending here. Trace
/// stamps stay actual time.
///
/// # Panics
///
/// Panics on peer protocol violations (undecodable peer frames) and on
/// transport failures — for a replica process both are fatal. A client's
/// undecodable operation is neither: that client is disconnected and the
/// server keeps serving.
pub fn run_server<A>(
    actor: A,
    cfg: &ServerConfig,
    mesh: &TcpMesh,
    sink: Option<&mut dyn TraceSink>,
) -> History<A::Op, A::Resp>
where
    A: Actor,
    A::Msg: Encode + Decode,
    A::Op: Decode,
    A::Resp: Encode,
{
    let base = TimeBase::new(cfg.epoch_micros);
    let rng = StdRng::seed_from_u64(cfg.seed ^ u64::from(cfg.pid.as_u32()));
    let delays = cfg.delay_draw_bounds();
    let transport = NetTransport::new(cfg.pid, mesh.peer_sender(), base, rng, delays);
    let core = NodeCore::new(cfg.pid, cfg.n, actor);
    let mut node = WallNode::new(core, transport, ClockOffset::ZERO);
    let (trace, mut history) = (&mut SinkOutput { sink }, History::new());
    let mut client_q = VecDeque::new();
    // The (connection, request id) awaiting the pending op's response.
    let mut in_flight: Option<(u64, u64)> = None;
    let grace = Duration::from_micros(2 * cfg.params.d().as_ticks());

    node.start(trace, &mut history)
        .expect("transport failed during start");
    loop {
        // File everything that has physically arrived, so the fire-due
        // step sees every delivery it has to place.
        while let Some(event) = mesh.try_recv() {
            accept(event, &mut node, &mut client_q, mesh, grace);
        }
        while let Some(act) = node
            .fire_due(trace, &mut history)
            .expect("transport failed")
        {
            reply_if_completed(act, &mut in_flight, &history, mesh);
        }
        // Start the next client operation once the previous one is done
        // (the model's one-pending-operation-per-process rule).
        if node.pending_op().is_none() {
            if let Some(req) = client_q.pop_front() {
                in_flight = Some((req.conn, req.req_id));
                let act = node.invoke(None, req.op, trace, &mut history);
                let act = act.expect("transport failed during invoke");
                reply_if_completed(act, &mut in_flight, &history, mesh);
                continue; // the invoke may have armed immediately-due timers
            }
        }
        let Some(cap) = node.drain_wait(!client_q.is_empty()) else {
            break;
        };
        // A late wake-up costs latency only while an operation waits here.
        if let Some(event) = mesh.wait(node.next_deadline(), cap, node.pending_op().is_some()) {
            accept(event, &mut node, &mut client_q, mesh, grace);
        }
    }
    history
}

/// If the activation completed the pending operation, encode its
/// response and push it to the waiting client connection.
fn reply_if_completed<O, R: Encode>(
    act: Activation,
    in_flight: &mut Option<(u64, u64)>,
    history: &History<O, R>,
    mesh: &TcpMesh,
) {
    let Activation::Completed(op_id) = act else {
        return;
    };
    let Some((conn, req_id)) = in_flight.take() else {
        return;
    };
    let rec = history.get(op_id).expect("completed op is in the history");
    let (resp, _) = rec.response.as_ref().expect("completed op has a response");
    let frame = encode_frame(
        &FrameHeader {
            kind: FrameKind::ClientResp,
            msg_id: req_id,
            sent_at_micros: 0,
            delay_micros: 0,
            batch: 0,
        },
        &to_bytes(resp),
    );
    // A vanished client is not a server error; the operation still
    // executed and is in the history.
    let _ = mesh.send_to_client(conn, &frame);
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
            let Some(body) = next_frame(&mut self.stream, &mut self.frames, None)? else {
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

/// Runs a complete `n`-process workload over TCP loopback and returns
/// the *client-observed* history — the socket backend's analogue of the
/// engine's `run_history` and the real-thread runtime's
/// `run_history_rt`, for three-way parity testing.
///
/// One server and one closed-loop client per process; client `i` talks
/// only to server `i` (the model's "operation invoked at process `i`").
/// Invocation and response instants are client-side ticks on the shared
/// timebase, so the merged history reflects true real-time order across
/// processes.
///
/// # Panics
///
/// Panics on any socket, protocol or thread failure — in the parity
/// tests all of these are hard errors.
pub fn run_history_net<S, F, G>(
    make_spec: F,
    params: &Params,
    seed: u64,
    ops_per_process: usize,
    gen: G,
) -> History<S::Op, S::Resp>
where
    S: SequentialSpec + Send,
    S::State: Send,
    S::Op: Encode + Decode + Send + Sync,
    S::Resp: Encode + Decode + Send,
    F: Fn() -> S + Sync,
    G: Fn(ProcessId, usize) -> S::Op + Sync,
{
    let n = params.n();
    let epoch = TimeBase::epoch_now_micros();
    let base = TimeBase::new(epoch);

    // Bind first so every process can be told all addresses.
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for pid in 0..n {
        let l = MeshListener::bind(ProcessId::new(pid as u32), "127.0.0.1:0")
            .expect("bind loopback listener");
        addrs.push(l.local_addr().expect("query listener address"));
        listeners.push(l);
    }

    type Rec<S> = (
        ProcessId,
        <S as SequentialSpec>::Op,
        u64,
        <S as SequentialSpec>::Resp,
        u64,
    );
    let records: Mutex<Vec<Rec<S>>> = Mutex::new(Vec::with_capacity(n * ops_per_process));
    let all_done = Barrier::new(n);

    std::thread::scope(|scope| {
        for (pid, listener) in listeners.into_iter().enumerate() {
            let pid = ProcessId::new(pid as u32);
            let peers: Vec<_> = addrs
                .iter()
                .enumerate()
                .filter(|&(q, _)| q != pid.index())
                .map(|(q, &a)| (ProcessId::new(q as u32), a))
                .collect();
            let mut cfg = ServerConfig::new(pid, n, *params, seed, epoch);
            // The test mesh shares the host (often a single core) with
            // its own clients, so reserve most of u as scheduling-jitter
            // allowance: a delivery processed later than `d` after its
            // send breaks the partial-synchrony assumption Algorithm 1's
            // replica agreement rests on.
            cfg.headroom_micros = cfg.headroom_micros.max(params.u().as_ticks() * 7 / 8);
            let make_spec = &make_spec;
            scope.spawn(move || {
                let mesh = listener.start(&peers).expect("start mesh");
                run_server(Replica::new(make_spec(), &cfg.params), &cfg, &mesh, None);
                mesh.shutdown();
            });
        }
        for pid in 0..n {
            let pid = ProcessId::new(pid as u32);
            let addr = addrs[pid.index()];
            let (gen, records, base, all_done) = (&gen, &records, &base, &all_done);
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect client");
                for k in 0..ops_per_process {
                    let op = gen(pid, k);
                    let invoked = base.now_ticks();
                    let resp: S::Resp = client.invoke(&op).expect("invoke over loopback");
                    let responded = base.now_ticks();
                    records
                        .lock()
                        .unwrap()
                        .push((pid, op, invoked, resp, responded));
                }
                // Every client must finish before any server is told to
                // drain, else a still-active client would block on a
                // server that has already exited.
                all_done.wait();
                client.bye().expect("send bye");
            });
        }
    });

    let mut records = records.into_inner().unwrap();
    records.sort_by_key(|&(pid, _, invoked, _, _)| (invoked, pid.as_u32()));
    let mut history = History::with_capacity(records.len());
    for (pid, op, invoked, resp, responded) in records {
        let id = history.record_invoke(pid, op, SimTime::from_ticks(invoked));
        history.record_response(id, resp, SimTime::from_ticks(responded));
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_sim::time::SimDuration;

    /// Arms one far-off timer at start; ignores deliveries.
    #[derive(Debug)]
    struct FarTimer;

    impl Actor for FarTimer {
        type Msg = ();
        type Op = ();
        type Resp = ();
        type Timer = ();

        fn on_start(&mut self, ctx: &mut skewbound_sim::actor::Context<'_, Self>) {
            ctx.set_timer(SimDuration::from_ticks(60_000_000), ());
        }
        fn on_invoke(&mut self, _op: (), _ctx: &mut skewbound_sim::actor::Context<'_, Self>) {}
        fn on_message(
            &mut self,
            _from: ProcessId,
            _msg: (),
            _ctx: &mut skewbound_sim::actor::Context<'_, Self>,
        ) {
        }
        fn on_timer(&mut self, _t: (), _ctx: &mut skewbound_sim::actor::Context<'_, Self>) {}
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

    /// The server's fire-due step runs neither a held batch nor a timer
    /// before its instant; on the batch's instant the batch runs and
    /// the later timer stays armed.
    #[test]
    fn nothing_is_due_before_its_instant() {
        use skewbound_sim::node::NoTrace;

        let pid = ProcessId::new(0);
        let base = TimeBase::new(TimeBase::epoch_now_micros());
        let transport = WallTransport::new(pid, NoLink, base, StdRng::seed_from_u64(1), (1, 1));
        let core = NodeCore::new(pid, 2, FarTimer);
        let mut node = WallNode::new(core, transport, ClockOffset::ZERO);
        let mut history = History::new();
        node.start(&mut NoTrace, &mut history).unwrap();
        let deliver_at = base.now_ticks() + 200_000;
        node.hold(deliver_at, ProcessId::new(1), MsgId::new(1), vec![()]);
        let held_until = base.instant_for(deliver_at);
        assert_eq!(node.next_deadline(), Some(held_until));
        assert_eq!(node.fire_due(&mut NoTrace, &mut history).unwrap(), None);
        std::thread::sleep(held_until.saturating_duration_since(std::time::Instant::now()));
        // The batch comes due first; the timer is not yet.
        assert_eq!(
            node.fire_due(&mut NoTrace, &mut history).unwrap(),
            Some(Activation::Ran)
        );
        assert_eq!(node.fire_due(&mut NoTrace, &mut history).unwrap(), None);
        assert_eq!(node.timers_fired(), 0);
        assert!(node.next_deadline().unwrap() > std::time::Instant::now());
    }

    /// Anyone can open a client session, so a request that does not
    /// decode costs that client its connection and nothing else.
    #[test]
    fn undecodable_client_operation_drops_the_client_not_the_server() {
        use skewbound_spec::register::{RegOp, RegResp, RwRegister};
        use std::io::Read;

        let params = Params::with_optimal_skew(
            2,
            SimDuration::from_ticks(2_000),
            SimDuration::from_ticks(1_000),
            SimDuration::ZERO,
        )
        .unwrap();
        let epoch = TimeBase::epoch_now_micros();
        let pids = [ProcessId::new(0), ProcessId::new(1)];
        let listeners = pids.map(|pid| MeshListener::bind(pid, "127.0.0.1:0").unwrap());
        let addrs = [0, 1].map(|i| listeners[i].local_addr().unwrap());
        // Plain spawns, joined on the success path only: were the server
        // under test to die, a scope would wait forever on the other
        // server's drain instead of letting the assertions below fail.
        let servers: Vec<_> = listeners
            .into_iter()
            .zip(pids)
            .map(|(listener, pid)| {
                let other = 1 - pid.index();
                let peers = [(pids[other], addrs[other])];
                let cfg = ServerConfig::new(pid, 2, params, 7, epoch);
                std::thread::spawn(move || {
                    let mesh = listener.start(&peers).expect("start mesh");
                    run_server(
                        Replica::new(RwRegister::<i64>::default(), &params),
                        &cfg,
                        &mesh,
                        None,
                    );
                    mesh.shutdown();
                })
            })
            .collect();

        let mut hostile = TcpStream::connect(addrs[0]).unwrap();
        hostile.write_all(&client_hello()).unwrap();
        let header = FrameHeader {
            kind: FrameKind::ClientReq,
            msg_id: 1,
            sent_at_micros: 0,
            delay_micros: 0,
            batch: 0,
        };
        hostile.write_all(&encode_frame(&header, &[0xEE])).unwrap();
        hostile
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(
            hostile.read(&mut [0u8; 1]).ok(),
            Some(0),
            "the server did not hang up on the malformed session"
        );

        let mut client = NetClient::connect(addrs[0]).unwrap();
        let resp: RegResp<i64> = client.invoke(&RegOp::Write(5i64)).unwrap();
        assert_eq!(resp, RegResp::Ack);
        client.bye().unwrap();
        NetClient::connect(addrs[1]).unwrap().bye().unwrap();
        for server in servers {
            server.join().expect("server thread panicked");
        }
    }
}
