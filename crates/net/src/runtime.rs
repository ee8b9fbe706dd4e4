//! The typed layer over the socket mesh: frame encoding/decoding for
//! replica messages, the receiver-side delay hold, the server event
//! loop, and the blocking client.
//!
//! ## Timebase
//!
//! Every process of a run is handed the same *epoch* — a unix-µs
//! instant, picked once by whoever launches the run. A process's tick
//! counter is `unix_µs_now − epoch` sampled once at startup and then
//! advanced by a monotonic [`Instant`], so ticks are immune to wall
//! clock steps after startup but directly comparable across processes
//! on the same machine (one tick = one µs, exactly as in the
//! real-thread runtime).
//!
//! ## Delay injection
//!
//! A loopback TCP hop takes tens of µs; the model wants delays in
//! `[d − u, d]` ticks. As in the real-thread runtime the *sender* draws
//! a seeded delay — here from `[d − u, d − headroom]`, stamped into the
//! frame header — and the *receiver* holds the decoded batch until
//! `sent_at + delay` on the shared timebase. The headroom absorbs the
//! real wire-and-scheduling latency so total observed delay stays
//! within `[d − u, d]` even when a frame physically arrives late.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skewbound_core::params::Params;
use skewbound_core::replica::{OpMsg, Replica, ReplicaTimer};
use skewbound_sim::deadline::PendingTimers;
use skewbound_sim::history::History;
use skewbound_sim::ids::{MsgId, ProcessId, TimerId};
use skewbound_sim::node::{Activation, NodeCore, Stamp, TraceOutput};
use skewbound_sim::time::{ClockOffset, SimDuration, SimTime};
use skewbound_sim::trace::{TraceEvent, TraceSink};
use skewbound_sim::transport::{Transport, TransportError, WireTransport};
use skewbound_spec::seqspec::SequentialSpec;

use crate::tcp::{client_hello, next_frame, MeshListener, RawEvent, TcpMesh};
use crate::wire::{
    decode_batch, decode_frame, encode_batch, encode_frame, from_bytes, to_bytes, Decode, Encode,
    FrameBuf, FrameHeader, FrameKind,
};

/// The shared run clock: ticks are µs since the run epoch.
#[derive(Debug, Clone, Copy)]
pub struct TimeBase {
    start_instant: Instant,
    start_ticks: u64,
}

impl TimeBase {
    /// Anchors the timebase: samples the wall clock once against
    /// `epoch_micros` (unix µs) and advances monotonically from there.
    #[must_use]
    pub fn new(epoch_micros: u64) -> Self {
        let unix_now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock is before the unix epoch")
            .as_micros() as u64;
        TimeBase {
            start_instant: Instant::now(),
            start_ticks: unix_now.saturating_sub(epoch_micros),
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

/// The typed [`Transport`] adapter over a byte-oriented
/// [`WireTransport`]: outgoing replica messages are encoded into one
/// frame per destination, stamped with a send tick and a seeded delay
/// draw; timers wait in a [`PendingTimers`] exactly as in the
/// real-thread runtime, armed relative to the running activation's
/// nominal instant.
pub struct NetTransport<S: SequentialSpec> {
    wire: Box<dyn WireTransport>,
    base: TimeBase,
    rng: StdRng,
    /// Injected-delay draw bounds, in µs (`[d − u, d − headroom]`).
    delay_lo: u64,
    delay_hi: u64,
    /// High bits of every message id this process allocates; ids are
    /// `prefix | seq`, monotone per sender, disjoint across senders.
    msg_prefix: u64,
    next_seq: u64,
    timers: PendingTimers<ReplicaTimer<S>>,
    /// The nominal instant of the running activation, set by
    /// [`run_server`] before every node call: a timer's own deadline, a
    /// held batch's `deliver_at`, "now" for an invoke. Timers arm at
    /// `anchor + delay`, as the engine arms at `virtual now + delay`.
    anchor: Instant,
}

impl<S: SequentialSpec> core::fmt::Debug for NetTransport<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NetTransport")
            .field("delay_lo", &self.delay_lo)
            .field("delay_hi", &self.delay_hi)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl<S: SequentialSpec> NetTransport<S> {
    /// Builds the adapter for one server process. `base` is the
    /// server's one timebase: send stamps taken here and delivery
    /// instants computed by [`run_server`] must come from the same
    /// wall-clock/monotonic sample pair.
    #[must_use]
    pub fn new(wire: Box<dyn WireTransport>, cfg: &ServerConfig, base: TimeBase) -> Self {
        let (delay_lo, delay_hi) = cfg.delay_draw_bounds();
        NetTransport {
            wire,
            base,
            rng: StdRng::seed_from_u64(cfg.seed ^ u64::from(cfg.pid.as_u32())),
            delay_lo,
            delay_hi,
            // +1 keeps process 0's ids out of the low range so a frame
            // id can never collide with a client request id.
            msg_prefix: (u64::from(cfg.pid.as_u32()) + 1) << 40,
            next_seq: 0,
            timers: PendingTimers::new(),
            anchor: Instant::now(),
        }
    }

    fn send_encoded(
        &mut self,
        to: ProcessId,
        payload: Vec<u8>,
        batch: u32,
    ) -> Result<MsgId, TransportError> {
        let first = MsgId::new(self.msg_prefix | self.next_seq);
        self.next_seq += u64::from(batch);
        let header = FrameHeader {
            kind: FrameKind::Peer,
            msg_id: first.as_u64(),
            sent_at_micros: self.base.now_ticks(),
            delay_micros: self.rng.gen_range(self.delay_lo..=self.delay_hi) as u32,
            batch,
        };
        let frame = encode_frame(&header, &payload);
        self.wire.send_frame(to, &frame)?;
        Ok(first)
    }
}

impl<S> Transport<Replica<S>> for NetTransport<S>
where
    S: SequentialSpec,
    S::Op: Encode,
{
    fn send(
        &mut self,
        _from: ProcessId,
        to: ProcessId,
        msg: OpMsg<S>,
    ) -> Result<MsgId, TransportError> {
        let payload = encode_batch(std::slice::from_ref(&msg));
        self.send_encoded(to, payload, 1)
    }

    fn send_batch(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msgs: Vec<OpMsg<S>>,
    ) -> Result<MsgId, TransportError> {
        assert!(!msgs.is_empty(), "empty delivery batch {from}->{to}");
        let payload = encode_batch(&msgs);
        let batch = u32::try_from(msgs.len()).expect("batch length fits u32");
        self.send_encoded(to, payload, batch)
    }

    fn set_timer(
        &mut self,
        _pid: ProcessId,
        id: TimerId,
        delay: SimDuration,
        timer: ReplicaTimer<S>,
    ) {
        self.timers.arm(
            id,
            self.anchor + Duration::from_micros(delay.as_ticks()),
            timer,
        );
    }

    fn cancel_timer(&mut self, _pid: ProcessId, id: TimerId) {
        self.timers.cancel(id);
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

/// A decoded peer batch waiting out its injected delay.
struct Held<S: SequentialSpec> {
    deliver_at: Instant,
    from: ProcessId,
    first_id: MsgId,
    msgs: Vec<OpMsg<S>>,
}

/// One queued client request.
struct ClientReq<O> {
    conn: u64,
    req_id: u64,
    op: O,
}

/// Everything that has physically arrived at a server and not yet been
/// handed to its node.
struct Inbox<S: SequentialSpec> {
    held: Vec<Held<S>>,
    client_q: VecDeque<ClientReq<S::Op>>,
    /// A client has said [`FrameKind::Bye`].
    draining: bool,
    /// The last arrival or activation, for the drain's quiet period.
    last_activity: Instant,
}

impl<S> Inbox<S>
where
    S: SequentialSpec,
    S::Op: Decode,
{
    /// Files one raw mesh arrival: a peer batch under its delivery
    /// instant, a client request in the queue, a `Bye` as the drain flag.
    /// A client whose operation does not decode loses its connection on
    /// `mesh`; anyone can open a client session, so that is input to
    /// reject, not a reason to stop serving.
    fn accept(&mut self, event: RawEvent, base: &TimeBase, mesh: &TcpMesh) {
        match event {
            RawEvent::Peer {
                from,
                header,
                payload,
            } => {
                let msgs: Vec<OpMsg<S>> = decode_batch(&payload, header.batch as usize)
                    .expect("peer sent an undecodable message batch");
                self.held.push(Held {
                    deliver_at: base
                        .instant_for(header.sent_at_micros + u64::from(header.delay_micros)),
                    from,
                    first_id: MsgId::new(header.msg_id),
                    msgs,
                });
            }
            RawEvent::Client {
                conn,
                header,
                payload,
            } => match header.kind {
                FrameKind::ClientReq => match from_bytes(&payload) {
                    Ok(op) => self.client_q.push_back(ClientReq {
                        conn,
                        req_id: header.msg_id,
                        op,
                    }),
                    Err(_) => mesh.drop_client(conn),
                },
                FrameKind::Bye => self.draining = true,
                _ => {}
            },
            RawEvent::ClientGone { .. } => return,
        }
        self.last_activity = Instant::now();
    }
}

/// What [`run_server`] fires next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Due {
    /// The earliest pending timer.
    Timer,
    /// The held batch at this index.
    Held(usize),
}

/// The earliest item due at `now` across the pending timers (of which
/// only the earliest deadline matters) and the held batches, ordered by
/// nominal instant, timers before deliveries on a tie, then message id.
///
/// One order for both kinds is what makes anchored arming safe after a
/// stall: a wake-up that finds a delivery and a younger timer both
/// overdue replays them as the model prescribes, instead of letting a
/// cascade of overdue timers run ahead of the older delivery.
fn next_due(
    now: Instant,
    next_timer: Option<Instant>,
    held: impl Iterator<Item = (Instant, MsgId)>,
) -> Option<Due> {
    let timer = next_timer.filter(|&at| at <= now);
    let batch = held
        .enumerate()
        .filter(|&(_, (at, _))| at <= now)
        .min_by_key(|&(_, key)| key);
    match (timer, batch) {
        (Some(t), Some((i, (at, _)))) => Some(if t <= at { Due::Timer } else { Due::Held(i) }),
        (Some(_), None) => Some(Due::Timer),
        (None, Some((i, _))) => Some(Due::Held(i)),
        (None, None) => None,
    }
}

/// How long a server with no deadline ahead sleeps between looks at its
/// state.
const IDLE_POLL: Duration = Duration::from_millis(10);

/// Runs one replica server over `mesh` until it has been told to stop
/// (a [`FrameKind::Bye`] frame) *and* has drained: no held peer
/// batches, no queued or in-flight client operation, no armed timer,
/// and a full `2d` of quiet — by which point every frame another
/// replica sent before its own drain has long arrived. Returns the
/// server-side history.
///
/// The loop schedules as the virtual engine does. Every activation has
/// a *nominal instant* — a timer's deadline, a held batch's
/// `deliver_at`, "now" for an invoke — and timers it arms are due at
/// `nominal + delay`; due timers and due batches fire in one
/// nominal-time order (`next_due`); and each deadline is reached by
/// [`TcpMesh::wait`], which polls the last stretch while an operation
/// is pending here. Trace stamps stay actual time.
///
/// # Panics
///
/// Panics on peer protocol violations (undecodable peer frames) and on
/// transport failures — for a replica process both are fatal. A client's
/// undecodable operation is neither: that client is disconnected and the
/// server keeps serving.
pub fn run_server<S>(
    spec: S,
    cfg: &ServerConfig,
    mesh: &TcpMesh,
    mut sink: Option<&mut dyn TraceSink>,
) -> History<S::Op, S::Resp>
where
    S: SequentialSpec,
    S::Op: Encode + Decode,
    S::Resp: Encode,
{
    let base = TimeBase::new(cfg.epoch_micros);
    let mut node = NodeCore::new(cfg.pid, cfg.n, Replica::new(spec, &cfg.params));
    let mut transport: NetTransport<S> = NetTransport::new(Box::new(mesh.peer_sender()), cfg, base);
    let mut trace = SinkOutput {
        sink: sink.take().map(|s| s as &mut dyn TraceSink),
    };
    let mut history: History<S::Op, S::Resp> = History::new();
    let mut inbox: Inbox<S> = Inbox {
        held: Vec::new(),
        client_q: VecDeque::new(),
        draining: false,
        last_activity: Instant::now(),
    };
    // The (connection, request id) awaiting the pending op's response.
    let mut in_flight: Option<(u64, u64)> = None;
    let grace = Duration::from_micros(2 * cfg.params.d().as_ticks());

    let stamp_now = || {
        let now = SimTime::from_ticks(base.now_ticks());
        Stamp {
            now,
            clock: now.to_clock(ClockOffset::ZERO),
        }
    };

    transport.anchor = Instant::now();
    node.on_start(stamp_now(), &mut transport, &mut trace, &mut history)
        .expect("transport failed during start");

    loop {
        // 1. File everything that has physically arrived, so the due
        // order below sees every delivery it has to place.
        while let Some(event) = mesh.try_recv() {
            inbox.accept(event, &base, mesh);
        }

        // 2. Fire what is due, timers and held batches alike, earliest
        // nominal instant first. An activation may arm a timer that is
        // already due; it takes its place in the same order.
        loop {
            let now = Instant::now();
            let held_keys = inbox.held.iter().map(|h| (h.deliver_at, h.first_id));
            let act = match next_due(now, transport.timers.next_deadline(), held_keys) {
                Some(Due::Timer) => {
                    let (deadline, id, timer) =
                        transport.timers.pop_due(now).expect("a timer is due");
                    transport.anchor = deadline;
                    node.on_timer(
                        stamp_now(),
                        id,
                        timer,
                        &mut transport,
                        &mut trace,
                        &mut history,
                    )
                    .expect("transport failed during timer")
                }
                Some(Due::Held(i)) => {
                    let h = inbox.held.swap_remove(i);
                    transport.anchor = h.deliver_at;
                    node.on_message_batch(
                        stamp_now(),
                        h.from,
                        h.first_id,
                        h.msgs,
                        &mut transport,
                        &mut trace,
                        &mut history,
                    )
                    .expect("transport failed during delivery")
                }
                None => break,
            };
            inbox.last_activity = Instant::now();
            reply_if_completed::<S>(act, &mut in_flight, &history, mesh);
        }

        // 3. Start the next client operation once the previous one is
        // done (the model's one-pending-operation-per-process rule).
        if node.pending_op().is_none() {
            if let Some(req) = inbox.client_q.pop_front() {
                in_flight = Some((req.conn, req.req_id));
                transport.anchor = Instant::now();
                let act = node
                    .on_invoke(
                        stamp_now(),
                        req.op,
                        &mut transport,
                        &mut trace,
                        &mut history,
                    )
                    .expect("transport failed during invoke");
                inbox.last_activity = Instant::now();
                reply_if_completed::<S>(act, &mut in_flight, &history, mesh);
                continue; // the invoke may have armed immediately-due timers
            }
        }

        // 4. Drained and quiet? Then stop.
        let idle = inbox.held.is_empty()
            && inbox.client_q.is_empty()
            && node.pending_op().is_none()
            && transport.timers.is_empty();
        let quiet_for = inbox.last_activity.elapsed();
        if inbox.draining && idle && quiet_for >= grace {
            break;
        }

        // 5. Wait for the next deadline (timer or held batch) or the
        // next mesh arrival, whichever is first. A late wake-up costs
        // latency only while an operation is waiting at this replica.
        let deadline = transport
            .timers
            .next_deadline()
            .into_iter()
            .chain(inbox.held.iter().map(|h| h.deliver_at))
            .min();
        let cap = if inbox.draining && idle {
            grace.saturating_sub(quiet_for)
        } else {
            IDLE_POLL
        };
        if let Some(event) = mesh.wait(deadline, cap, node.pending_op().is_some()) {
            inbox.accept(event, &base, mesh);
        }
    }
    history
}

/// If the activation completed the pending operation, encode its
/// response and push it to the waiting client connection.
fn reply_if_completed<S>(
    act: Activation,
    in_flight: &mut Option<(u64, u64)>,
    history: &History<S::Op, S::Resp>,
    mesh: &TcpMesh,
) where
    S: SequentialSpec,
    S::Resp: Encode,
{
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
                run_server(make_spec(), &cfg, &mesh, None);
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

    const MS: Duration = Duration::from_millis(1);

    fn msg(raw: u64) -> MsgId {
        MsgId::new(raw)
    }

    /// A late wake-up finds an older delivery and a younger timer both
    /// overdue: the delivery goes first, as the model orders them.
    #[test]
    fn late_wakeup_replays_the_older_delivery_before_the_younger_timer() {
        let t0 = Instant::now();
        let now = t0 + 50 * MS; // the stall
        let held = [(t0 + 3 * MS, msg(9)), (t0 + MS, msg(4))];
        let timer = Some(t0 + 2 * MS);
        assert_eq!(
            next_due(now, timer, held.iter().copied()),
            Some(Due::Held(1))
        );
        // With that delivery gone the timer is next, then the last batch.
        let held = [(t0 + 3 * MS, msg(9))];
        assert_eq!(next_due(now, timer, held.iter().copied()), Some(Due::Timer));
        assert_eq!(
            next_due(now, None, held.iter().copied()),
            Some(Due::Held(0))
        );
    }

    #[test]
    fn ties_go_to_the_timer_then_to_the_smaller_message_id() {
        let t0 = Instant::now();
        let at = t0 + MS;
        let held = [(at, msg(7)), (at, msg(2))];
        assert_eq!(
            next_due(at, Some(at), held.iter().copied()),
            Some(Due::Timer)
        );
        assert_eq!(next_due(at, None, held.iter().copied()), Some(Due::Held(1)));
    }

    #[test]
    fn nothing_is_due_before_its_instant() {
        let t0 = Instant::now();
        let held = [(t0 + 2 * MS, msg(1))];
        let timer = Some(t0 + 3 * MS);
        assert_eq!(next_due(t0, timer, held.iter().copied()), None);
        assert_eq!(next_due(t0, None, std::iter::empty()), None);
        // The batch comes due first; the timer is not yet.
        assert_eq!(
            next_due(t0 + 2 * MS, timer, held.iter().copied()),
            Some(Due::Held(0))
        );
    }

    /// Anyone can open a client session, so a request that does not
    /// decode costs that client its connection and nothing else.
    #[test]
    fn undecodable_client_operation_drops_the_client_not_the_server() {
        use skewbound_spec::register::{RmwOp, RmwRegister, RmwResp};
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
                    run_server(RmwRegister::default(), &cfg, &mesh, None);
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
        let resp: RmwResp = client.invoke(&RmwOp::Write(5)).unwrap();
        assert_eq!(resp, RmwResp::Ack);
        client.bye().unwrap();
        NetClient::connect(addrs[1]).unwrap().bye().unwrap();
        for server in servers {
            server.join().expect("server thread panicked");
        }
    }
}
