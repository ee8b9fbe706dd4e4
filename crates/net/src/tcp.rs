//! The TCP socket mesh: the byte-oriented [`WireTransport`] backend.
//!
//! Topology is a full mesh of *directed* connections: every process
//! dials every peer for its own outbound traffic, so each ordered pair
//! has one connection and per-channel FIFO falls out of TCP's stream
//! order. Inbound connections are sorted by their first frame (a
//! [`FrameKind::Hello`]): peer replicas announce their process id,
//! client sessions get a locally assigned connection id.
//!
//! Per peer, a dedicated **writer thread** owns the socket: frames
//! queue on an in-memory channel and the writer drains everything
//! available into a single `write_all` (writev-style coalescing — one
//! syscall carries many frames under load). The writer dials lazily and
//! reconnects with doubling backoff; a frame is only dropped from its
//! queue after a successful write, so delivery is at-least-once across
//! reconnects. The read side deduplicates by the frame header's
//! monotone per-sender message id (a watermark that survives
//! reconnects), upgrading at-least-once to exactly-once.
//!
//! The mesh is deliberately *dumb*: it moves opaque frames. Decoding,
//! delay holds, and replica semantics live in [`crate::runtime`].

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use skewbound_sim::deadline;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::transport::{TransportError, WireTransport};

use crate::wire::{decode_frame, encode_frame, FrameBuf, FrameHeader, FrameKind, Rd, Wr};

/// Hello-payload role tag: the dialer is a peer replica.
const ROLE_PEER: u8 = 0;
/// Hello-payload role tag: the dialer is a client session.
const ROLE_CLIENT: u8 = 1;

/// Initial reconnect backoff; doubles per failed dial up to
/// [`BACKOFF_MAX`].
const BACKOFF_START: Duration = Duration::from_millis(20);
/// Reconnect backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_millis(500);
/// Poll interval for the non-blocking acceptor and idle read loops.
const POLL: Duration = Duration::from_millis(20);
/// Bytes asked of a socket per read; a larger burst takes several.
const READ_CHUNK: usize = 4096;

/// One raw, undecoded arrival surfaced by the mesh.
#[derive(Debug)]
pub enum RawEvent {
    /// A frame from peer replica `from` (already watermark-deduped).
    Peer {
        /// The sending process.
        from: ProcessId,
        /// The decoded frame header.
        header: FrameHeader,
        /// The frame payload (encoded message batch).
        payload: Vec<u8>,
    },
    /// A frame from client connection `conn`.
    Client {
        /// The locally assigned client connection id.
        conn: u64,
        /// The decoded frame header.
        header: FrameHeader,
        /// The frame payload (one encoded operation, or empty).
        payload: Vec<u8>,
    },
    /// Client connection `conn` closed.
    ClientGone {
        /// The closed connection's id.
        conn: u64,
    },
}

/// A bound-but-not-yet-connected mesh: the listener exists (so peers
/// can already dial us and park in the OS accept queue) and its
/// ephemeral port is known, but no threads run yet. Two-phase startup
/// lets a test bind `n` listeners on port 0 first, then hand every
/// process the full address list.
#[derive(Debug)]
pub struct MeshListener {
    pid: ProcessId,
    listener: TcpListener,
}

impl MeshListener {
    /// Binds the listening socket for process `pid`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(pid: ProcessId, addr: A) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(MeshListener { pid, listener })
    }

    /// The bound address (with the OS-assigned port when bound to 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the mesh: spawns the acceptor and one writer thread per
    /// entry of `peers` (every *other* process and its address).
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn start(self, peers: &[(ProcessId, SocketAddr)]) -> std::io::Result<TcpMesh> {
        let MeshListener { pid, listener } = self;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let (event_tx, event_rx) = channel::<RawEvent>();
        let clients: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        // Watermarks are indexed by sender pid and shared across the
        // read loops of successive reconnects.
        let max_pid = peers
            .iter()
            .map(|(p, _)| p.index())
            .max()
            .unwrap_or(0)
            .max(pid.index());
        let watermarks: Arc<Vec<AtomicU64>> =
            Arc::new((0..=max_pid).map(|_| AtomicU64::new(0)).collect());

        let mut handles = Vec::new();
        let mut peer_txs: Vec<Option<Sender<Vec<u8>>>> = vec![None; max_pid + 1];
        for &(peer, addr) in peers {
            let (tx, rx) = channel::<Vec<u8>>();
            peer_txs[peer.index()] = Some(tx);
            let stop = Arc::clone(&stop);
            handles.push(
                thread::Builder::new()
                    .name(format!("net-writer-{pid}-to-{peer}"))
                    .spawn(move || writer_loop(pid, addr, &rx, &stop))
                    .expect("spawn writer thread"),
            );
        }

        {
            let stop = Arc::clone(&stop);
            let clients = Arc::clone(&clients);
            let watermarks = Arc::clone(&watermarks);
            handles.push(
                thread::Builder::new()
                    .name(format!("net-accept-{pid}"))
                    .spawn(move || {
                        acceptor_loop(&listener, &event_tx, &clients, &watermarks, &stop)
                    })
                    .expect("spawn acceptor thread"),
            );
        }

        Ok(TcpMesh {
            pid,
            peer_txs,
            clients,
            event_rx,
            stop,
            handles,
        })
    }
}

/// A running socket mesh for one process: writer threads to every peer,
/// an acceptor sorting inbound connections, and the raw-event queue the
/// server loop drains.
pub struct TcpMesh {
    pid: ProcessId,
    peer_txs: Vec<Option<Sender<Vec<u8>>>>,
    clients: Arc<Mutex<HashMap<u64, TcpStream>>>,
    event_rx: Receiver<RawEvent>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl core::fmt::Debug for TcpMesh {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TcpMesh")
            .field("pid", &self.pid)
            .field(
                "peers",
                &self.peer_txs.iter().filter(|t| t.is_some()).count(),
            )
            .finish_non_exhaustive()
    }
}

impl TcpMesh {
    /// The local process id.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// A detachable peer-frame sender implementing
    /// [`WireTransport`] — the half the server's transport holds while
    /// the server loop keeps the mesh itself for receiving.
    #[must_use]
    pub fn peer_sender(&self) -> PeerSender {
        PeerSender {
            pid: self.pid,
            peer_txs: self.peer_txs.clone(),
        }
    }

    /// Waits up to `timeout` for the next raw arrival.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<RawEvent> {
        self.event_rx.recv_timeout(timeout).ok()
    }

    /// The next raw arrival the read loops have already queued, without
    /// waiting.
    pub fn try_recv(&self) -> Option<RawEvent> {
        self.event_rx.try_recv().ok()
    }

    /// Waits for the next raw arrival until `deadline` (or `cap` from
    /// now, whichever is sooner) with [`deadline::wait`]'s guarantees:
    /// `None` is never returned early, and with `may_spin` a long
    /// enough wait ends on its deadline rather than a wake-up after it.
    pub fn wait(
        &self,
        deadline: Option<Instant>,
        cap: Duration,
        may_spin: bool,
    ) -> Option<RawEvent> {
        deadline::wait(&self.event_rx, deadline, cap, may_spin).ok()
    }

    /// Writes one already-encoded frame to client connection `conn`.
    /// Returns `false` (and forgets the connection) if the client is
    /// gone — a vanished client is not an error for the server.
    pub fn send_to_client(&self, conn: u64, frame: &[u8]) -> bool {
        let mut clients = self.clients.lock().unwrap();
        let Some(stream) = clients.get_mut(&conn) else {
            return false;
        };
        if stream.write_all(frame).is_err() {
            clients.remove(&conn);
            return false;
        }
        true
    }

    /// Closes client connection `conn` and forgets it — the session-level
    /// counterpart of dropping a connection whose frames do not decode.
    pub(crate) fn drop_client(&self, conn: u64) {
        if let Some(stream) = self.clients.lock().unwrap().remove(&conn) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Stops every mesh thread and joins them. Called on server exit
    /// after the drain; queued-but-unwritten peer frames are abandoned
    /// at this point (the drain protocol guarantees there are none).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        self.peer_txs.clear(); // disconnect writer channels
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The sending half of a [`TcpMesh`]: cloneable channel ends into the
/// per-peer writer threads.
pub struct PeerSender {
    pid: ProcessId,
    peer_txs: Vec<Option<Sender<Vec<u8>>>>,
}

impl core::fmt::Debug for PeerSender {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PeerSender")
            .field("pid", &self.pid)
            .finish()
    }
}

impl WireTransport for PeerSender {
    fn send_frame(&mut self, to: ProcessId, frame: &[u8]) -> Result<(), TransportError> {
        let tx = self
            .peer_txs
            .get(to.index())
            .and_then(Option::as_ref)
            .ok_or(TransportError::PeerUnreachable { to })?;
        tx.send(frame.to_vec())
            .map_err(|_| TransportError::PeerUnreachable { to })
    }
}

/// Reads `stream` into `frames` until a whole frame body is buffered
/// and pops it: the one reassembly path of the mesh's readers and of
/// [`NetClient`](crate::runtime::NetClient). A read timeout only
/// re-checks `stop`; the partial frame stays in `frames`, so a timeout in
/// the middle of a frame loses no bytes. `Ok(None)` means EOF or `stop`.
///
/// # Errors
///
/// Propagates socket errors; a length prefix over
/// [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN) surfaces as
/// [`ErrorKind::InvalidData`].
pub(crate) fn next_frame(
    stream: &mut TcpStream,
    frames: &mut FrameBuf,
    stop: Option<&AtomicBool>,
) -> io::Result<Option<Vec<u8>>> {
    loop {
        if let Some(body) = frames
            .pop()
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?
        {
            return Ok(Some(body));
        }
        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            return Ok(None);
        }
        let mut chunk = [0u8; READ_CHUNK];
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => frames.feed(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// The hello frame a dialer sends first: role tag plus (for peers) the
/// dialer's process id.
fn hello_frame(role: u8, pid: ProcessId) -> Vec<u8> {
    let mut payload = Wr::with_capacity(5);
    payload.u8(role);
    if role == ROLE_PEER {
        payload.u32(pid.as_u32());
    }
    encode_frame(
        &FrameHeader {
            kind: FrameKind::Hello,
            msg_id: 0,
            sent_at_micros: 0,
            delay_micros: 0,
            batch: 0,
        },
        payload.bytes(),
    )
}

/// Encodes a client hello (used by [`crate::runtime::NetClient`]).
#[must_use]
pub fn client_hello() -> Vec<u8> {
    hello_frame(ROLE_CLIENT, ProcessId::new(0))
}

/// One peer writer thread: dial with backoff, send the hello, then
/// drain the frame queue — coalescing everything already buffered into
/// a single write. On a write failure the unwritten tail is carried
/// into the next connection, giving at-least-once delivery.
fn writer_loop(pid: ProcessId, addr: SocketAddr, rx: &Receiver<Vec<u8>>, stop: &AtomicBool) {
    let mut backoff = BACKOFF_START;
    // Frames accepted from the channel but not yet written.
    let mut unsent: Vec<u8> = Vec::new();
    'reconnect: while !stop.load(Ordering::Acquire) {
        let mut stream = match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
            Ok(s) => s,
            Err(_) => {
                // Keep draining the queue into the retry buffer while the
                // peer is down so senders never block; bound the sleep so
                // shutdown stays responsive.
                while let Ok(frame) = rx.try_recv() {
                    unsent.extend_from_slice(&frame);
                }
                thread::sleep(backoff.min(POLL));
                backoff = (backoff * 2).min(BACKOFF_MAX);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        backoff = BACKOFF_START;
        if stream.write_all(&hello_frame(ROLE_PEER, pid)).is_err() {
            continue;
        }
        loop {
            // Block for the next frame, then opportunistically coalesce
            // everything else already queued into the same write.
            if unsent.is_empty() {
                match rx.recv_timeout(POLL) {
                    Ok(frame) => unsent.extend_from_slice(&frame),
                    Err(RecvTimeoutError::Timeout) => {
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
            while let Ok(frame) = rx.try_recv() {
                unsent.extend_from_slice(&frame);
            }
            match stream.write_all(&unsent) {
                Ok(()) => unsent.clear(),
                // Keep `unsent` for the next connection: the receiver
                // discards the torn tail of this one and dedups any
                // fully received prefix by message id.
                Err(_) => continue 'reconnect,
            }
        }
    }
}

/// The acceptor: polls the non-blocking listener, reads each inbound
/// connection's hello, and spawns the matching read loop.
fn acceptor_loop(
    listener: &TcpListener,
    event_tx: &Sender<RawEvent>,
    clients: &Arc<Mutex<HashMap<u64, TcpStream>>>,
    watermarks: &Arc<Vec<AtomicU64>>,
    stop: &Arc<AtomicBool>,
) {
    let mut next_conn: u64 = 1;
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let conn = next_conn;
                next_conn += 1;
                let event_tx = event_tx.clone();
                let clients = Arc::clone(clients);
                let watermarks = Arc::clone(watermarks);
                let stop = Arc::clone(stop);
                readers.push(
                    thread::Builder::new()
                        .name(format!("net-read-{conn}"))
                        .spawn(move || {
                            read_connection(stream, conn, &event_tx, &clients, &watermarks, &stop);
                        })
                        .expect("spawn read thread"),
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
    }
    for h in readers {
        let _ = h.join();
    }
}

/// Reads one inbound connection: hello first, then frames forever.
fn read_connection(
    mut stream: TcpStream,
    conn: u64,
    event_tx: &Sender<RawEvent>,
    clients: &Arc<Mutex<HashMap<u64, TcpStream>>>,
    watermarks: &Arc<Vec<AtomicU64>>,
    stop: &Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(POLL));
    // One buffer for the connection's life: bytes that arrive with the
    // hello belong to the frames after it.
    let mut frames = FrameBuf::default();
    // The hello decides the connection's role.
    let Ok(Some(hello)) = next_frame(&mut stream, &mut frames, Some(stop)) else {
        return;
    };
    let Ok((header, payload)) = decode_frame(&hello) else {
        return;
    };
    if header.kind != FrameKind::Hello {
        return;
    }
    let mut rd = Rd::new(payload);
    match rd.u8("hello role") {
        Ok(ROLE_PEER) => {
            let Ok(raw_pid) = rd.u32("hello pid") else {
                return;
            };
            let from = ProcessId::new(raw_pid);
            read_peer_frames(&mut stream, &mut frames, from, event_tx, watermarks, stop);
        }
        Ok(ROLE_CLIENT) => {
            if let Ok(write_half) = stream.try_clone() {
                clients.lock().unwrap().insert(conn, write_half);
            }
            read_client_frames(&mut stream, &mut frames, conn, event_tx, stop);
            clients.lock().unwrap().remove(&conn);
            let _ = event_tx.send(RawEvent::ClientGone { conn });
        }
        _ => {}
    }
}

/// Forwards peer frames, dropping watermark-stale duplicates (reconnect
/// resends). Message ids are monotone per sender and a batch spans
/// `msg_id .. msg_id + batch`, so the watermark is the highest id seen.
fn read_peer_frames(
    stream: &mut TcpStream,
    frames: &mut FrameBuf,
    from: ProcessId,
    event_tx: &Sender<RawEvent>,
    watermarks: &[AtomicU64],
    stop: &AtomicBool,
) {
    while let Ok(Some(body)) = next_frame(stream, frames, Some(stop)) {
        let Ok((header, payload)) = decode_frame(&body) else {
            return; // corrupt stream; drop the connection
        };
        let top = header.msg_id + u64::from(header.batch.max(1)) - 1;
        if let Some(mark) = watermarks.get(from.index()) {
            // The watermark only ever advances; `fetch_max` returns the
            // previous value, so a stale frame is detected atomically.
            if mark.fetch_max(top, Ordering::AcqRel) >= top {
                continue;
            }
        }
        if event_tx
            .send(RawEvent::Peer {
                from,
                header,
                payload: payload.to_vec(),
            })
            .is_err()
        {
            return;
        }
    }
}

/// Forwards client frames until the session closes.
fn read_client_frames(
    stream: &mut TcpStream,
    frames: &mut FrameBuf,
    conn: u64,
    event_tx: &Sender<RawEvent>,
    stop: &AtomicBool,
) {
    while let Ok(Some(body)) = next_frame(stream, frames, Some(stop)) {
        let Ok((header, payload)) = decode_frame(&body) else {
            return;
        };
        if event_tx
            .send(RawEvent::Client {
                conn,
                header,
                payload: payload.to_vec(),
            })
            .is_err()
        {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A raw peer connection says hello, then sends one `Peer` frame in
    /// two writes split at `split` with a pause of three read timeouts
    /// between them; the mesh must still surface the frame intact.
    fn frame_survives_a_pause_at(split: Option<usize>) {
        let listener = MeshListener::bind(ProcessId::new(0), "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mesh = listener.start(&[]).unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_nodelay(true).unwrap();
        raw.write_all(&hello_frame(ROLE_PEER, ProcessId::new(1)))
            .unwrap();
        let header = FrameHeader {
            kind: FrameKind::Peer,
            msg_id: 1,
            sent_at_micros: 77,
            delay_micros: 12_000,
            batch: 1,
        };
        let payload: Vec<u8> = (0..40).collect();
        let frame = encode_frame(&header, &payload);
        let (first, rest) = frame.split_at(split.unwrap_or(frame.len()));
        raw.write_all(first).unwrap();
        thread::sleep(3 * POLL);
        raw.write_all(rest).unwrap();

        let got = mesh.recv_timeout(Duration::from_secs(1));
        drop(raw);
        mesh.shutdown();
        match got {
            Some(RawEvent::Peer {
                from,
                header: h,
                payload: p,
            }) => {
                assert_eq!((from, h, p), (ProcessId::new(1), header, payload));
            }
            other => panic!("split at {split:?}: expected the peer frame, got {other:?}"),
        }
    }

    #[test]
    fn read_timeout_inside_the_length_prefix_loses_nothing() {
        frame_survives_a_pause_at(Some(2));
    }

    #[test]
    fn read_timeout_inside_the_header_loses_nothing() {
        frame_survives_a_pause_at(Some(10));
    }

    #[test]
    fn unsplit_frame_after_a_pause_is_delivered() {
        frame_survives_a_pause_at(None);
    }
}
