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
//! syscall carries many frames under load). The writer dials when it
//! starts and redials every `REDIAL` (20 ms) while the peer is down; a frame is only
//! dropped from its queue after a successful write, so delivery is
//! at-least-once across reconnects. The read side deduplicates by the
//! frame header's monotone per-sender message id (a watermark that
//! survives reconnects), upgrading at-least-once to exactly-once.
//!
//! Every thread blocks on the one thing it serves and stops when that
//! thing closes: a reader in `read` on its connection, a writer in
//! `recv` on its queue, the acceptor in `accept`. [`TcpMesh::shutdown`]
//! closes each of them: it shuts every inbound connection down, sends
//! every writer a stop through its own queue (behind the frames already
//! queued, which are written first), and dials the listener so the
//! acceptor sees the mesh closing.
//!
//! The mesh is deliberately *dumb*: it moves opaque frames. Decoding,
//! delay holds, and replica semantics live in [`crate::runtime`].

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use skewbound_sim::ids::ProcessId;
use skewbound_sim::transport::{TransportError, WireTransport};

use crate::wire::{decode_frame, encode_frame, FrameBuf, FrameHeader, FrameKind, Rd, Wr};

/// Hello-payload role tag: the dialer is a peer replica.
pub(crate) const ROLE_PEER: u8 = 0;
/// Hello-payload role tag: the dialer is a client session.
const ROLE_CLIENT: u8 = 1;

/// How long a writer waits before dialing a peer it could not reach
/// again, and the acceptor before accepting again after an error.
const REDIAL: Duration = Duration::from_millis(20);
/// How many times shutdown dials its own listener to wake the acceptor,
/// `REDIAL` apart, before it gives up on joining it.
const WAKE_DIALS: u32 = 25;
/// Bytes asked of a socket per read; a larger burst takes several.
const READ_CHUNK: usize = 4096;

/// What a writer's queue carries: a frame to write, or `None`, stop.
type WriterTx = Sender<Option<Vec<u8>>>;

/// One raw, undecoded arrival surfaced by the mesh.
#[derive(Debug)]
pub enum RawEvent {
    /// A frame from peer replica `from` (already watermark-deduped).
    Peer {
        /// The locally assigned id of the connection it arrived on.
        conn: u64,
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
}

/// What the acceptor and the readers share with the mesh.
struct Inbound {
    /// The write half of every open inbound connection, peer or client,
    /// hello or not; `None` once the mesh is closing.
    conns: Mutex<Option<HashMap<u64, TcpStream>>>,
    /// Per sender pid, the highest message id forwarded from it, shared
    /// by the readers of its successive connections.
    watermarks: Vec<AtomicU64>,
}

impl Inbound {
    /// Forgets connection `conn` and returns its write half.
    fn remove(&self, conn: u64) -> Option<TcpStream> {
        let mut conns = self.conns.lock().expect("connection map poisoned");
        conns.as_mut()?.remove(&conn)
    }
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
    /// Propagates the listener's address query failure.
    pub fn start(self, peers: &[(ProcessId, SocketAddr)]) -> std::io::Result<TcpMesh> {
        let MeshListener { pid, listener } = self;
        // Shutdown dials this address to wake the acceptor; a listener
        // bound to every interface is reached on loopback.
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let (event_tx, event_rx) = channel::<RawEvent>();
        // Watermarks are indexed by sender pid.
        let max_pid = peers
            .iter()
            .map(|(p, _)| p.index())
            .max()
            .unwrap_or(0)
            .max(pid.index());
        let inbound = Arc::new(Inbound {
            conns: Mutex::new(Some(HashMap::new())),
            watermarks: (0..=max_pid).map(|_| AtomicU64::new(0)).collect(),
        });

        let mut writers = Vec::new();
        let mut peer_txs: Vec<Option<WriterTx>> = vec![None; max_pid + 1];
        for &(peer, addr) in peers {
            let (tx, rx) = channel();
            peer_txs[peer.index()] = Some(tx);
            writers.push(
                thread::Builder::new()
                    .name(format!("net-writer-{pid}-to-{peer}"))
                    .spawn(move || writer_loop(pid, addr, &rx))
                    .expect("spawn writer thread"),
            );
        }

        let acceptor = {
            let inbound = Arc::clone(&inbound);
            thread::Builder::new()
                .name(format!("net-accept-{pid}"))
                .spawn(move || acceptor_loop(pid, &listener, &event_tx, &inbound))
                .expect("spawn acceptor thread")
        };

        Ok(TcpMesh {
            pid,
            peer_txs,
            inbound,
            wake_addr,
            event_rx,
            writers,
            acceptor,
        })
    }
}

/// A running socket mesh for one process: writer threads to every peer,
/// an acceptor sorting inbound connections, and the raw-event queue the
/// server loop drains.
pub struct TcpMesh {
    pid: ProcessId,
    peer_txs: Vec<Option<WriterTx>>,
    inbound: Arc<Inbound>,
    /// The listener's address, dialed once by [`TcpMesh::shutdown`].
    wake_addr: SocketAddr,
    /// Every raw arrival, in arrival order: the server loop's inbox.
    pub(crate) event_rx: Receiver<RawEvent>,
    writers: Vec<JoinHandle<()>>,
    acceptor: JoinHandle<()>,
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

    /// Writes one already-encoded frame to client connection `conn`.
    /// Returns `false` (and forgets the connection) if the client is
    /// gone — a vanished client is not an error for the server.
    pub fn send_to_client(&self, conn: u64, frame: &[u8]) -> bool {
        let mut conns = self.inbound.conns.lock().expect("connection map poisoned");
        let Some(conns) = conns.as_mut() else {
            return false;
        };
        let Some(stream) = conns.get_mut(&conn) else {
            return false;
        };
        if stream.write_all(frame).is_err() {
            conns.remove(&conn);
            return false;
        }
        true
    }

    /// Closes inbound connection `conn`, peer or client, and forgets it:
    /// what the server does to a connection whose frames do not decode.
    pub(crate) fn drop_conn(&self, conn: u64) {
        if let Some(stream) = self.inbound.remove(conn) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Stops every mesh thread and joins them. Called on server exit
    /// after the drain. Peer frames queued before the call are still
    /// written to peers that are up; those for a peer that is down are
    /// abandoned. A [`PeerSender`] that outlives the mesh only fails
    /// its sends.
    pub fn shutdown(self) {
        let open = self
            .inbound
            .conns
            .lock()
            .expect("connection map poisoned")
            .take();
        for stream in open.into_iter().flat_map(HashMap::into_values) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for tx in self.peer_txs.iter().flatten() {
            let _ = tx.send(None);
        }
        for h in self.writers {
            let _ = h.join();
        }
        // The acceptor sees the closed map at its next accept. If no
        // dial gets through (say, the process is out of descriptors), it
        // stays blocked in `accept` and is left running, not joined.
        let woke = (0..WAKE_DIALS).any(|i| {
            if i > 0 {
                thread::sleep(REDIAL);
            }
            TcpStream::connect(self.wake_addr).is_ok()
        });
        if woke {
            let _ = self.acceptor.join();
        }
    }
}

/// The sending half of a [`TcpMesh`]: cloneable channel ends into the
/// per-peer writer threads.
pub struct PeerSender {
    pid: ProcessId,
    peer_txs: Vec<Option<WriterTx>>,
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
        tx.send(Some(frame.to_vec()))
            .map_err(|_| TransportError::PeerUnreachable { to })
    }
}

/// Reads `stream` into `frames` until a whole frame body is buffered
/// and pops it: the one reassembly path of the mesh's readers and of
/// [`NetClient`](crate::runtime::NetClient). A frame split across reads
/// stays in `frames` until its last byte arrives. `Ok(None)` means EOF.
///
/// # Errors
///
/// Propagates socket errors; a length prefix over
/// [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN) surfaces as
/// [`ErrorKind::InvalidData`].
pub(crate) fn next_frame(
    stream: &mut TcpStream,
    frames: &mut FrameBuf,
) -> io::Result<Option<Vec<u8>>> {
    loop {
        if let Some(body) = frames
            .pop()
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?
        {
            return Ok(Some(body));
        }
        let mut chunk = [0u8; READ_CHUNK];
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => frames.feed(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The hello frame a dialer sends first: role tag plus (for peers) the
/// dialer's process id.
pub(crate) fn hello_frame(role: u8, pid: ProcessId) -> Vec<u8> {
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

/// One peer writer thread: dial, send the hello, then drain the frame
/// queue — coalescing everything already buffered into a single write —
/// until a stop arrives. On a write failure the unwritten tail is
/// carried into the next connection, giving at-least-once delivery.
/// Frames queued before the stop are written before the writer returns,
/// unless the peer is down; then they are abandoned with it.
fn writer_loop(pid: ProcessId, addr: SocketAddr, rx: &Receiver<Option<Vec<u8>>>) {
    // Frames accepted from the channel but not yet written.
    let mut unsent: Vec<u8> = Vec::new();
    'redial: loop {
        let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_secs(1)) else {
            // Keep taking frames while the peer is down so senders never
            // block, and see a stop at once.
            let redial_at = Instant::now() + REDIAL;
            loop {
                match rx.recv_timeout(redial_at.saturating_duration_since(Instant::now())) {
                    Ok(Some(frame)) => unsent.extend_from_slice(&frame),
                    Err(RecvTimeoutError::Timeout) => continue 'redial,
                    Ok(None) | Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        };
        let _ = stream.set_nodelay(true);
        if stream.write_all(&hello_frame(ROLE_PEER, pid)).is_err() {
            continue;
        }
        loop {
            // Block for the next frame, then opportunistically coalesce
            // everything else already queued into the same write.
            if unsent.is_empty() {
                match rx.recv() {
                    Ok(Some(frame)) => unsent.extend_from_slice(&frame),
                    Ok(None) | Err(_) => return,
                }
            }
            let mut stop = false;
            while let Ok(next) = rx.try_recv() {
                match next {
                    Some(frame) => unsent.extend_from_slice(&frame),
                    None => {
                        // The stop comes after the frames queued before
                        // it; write those first.
                        stop = true;
                        break;
                    }
                }
            }
            let written = stream.write_all(&unsent);
            if stop {
                return;
            }
            match written {
                Ok(()) => unsent.clear(),
                // Keep `unsent` for the next connection: the receiver
                // discards the torn tail of this one and dedups any
                // fully received prefix by message id.
                Err(_) => continue 'redial,
            }
        }
    }
}

/// The acceptor: registers each inbound connection, then spawns its
/// reader; exits at the first accept after the mesh starts closing, and
/// joins the readers.
fn acceptor_loop(
    pid: ProcessId,
    listener: &TcpListener,
    event_tx: &Sender<RawEvent>,
    inbound: &Arc<Inbound>,
) {
    let mut next_conn: u64 = 1;
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        let mut conns = inbound.conns.lock().expect("connection map poisoned");
        let Some(open) = conns.as_mut() else {
            break;
        };
        let Ok((stream, _)) = accepted else {
            // An accept that fails (say, out of descriptors) is retried
            // after a pause, not at once.
            drop(conns);
            thread::sleep(REDIAL);
            continue;
        };
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let conn = next_conn;
        next_conn += 1;
        open.insert(conn, handle);
        drop(conns);
        let _ = stream.set_nodelay(true);
        let event_tx = event_tx.clone();
        let inbound = Arc::clone(inbound);
        readers.push(
            thread::Builder::new()
                .name(format!("net-read-{conn}"))
                .spawn(move || {
                    read_connection(pid, stream, conn, &event_tx, &inbound);
                    inbound.remove(conn);
                })
                .expect("spawn read thread"),
        );
    }
    for h in readers {
        let _ = h.join();
    }
}

/// Reads one inbound connection of process `pid`: hello first, then
/// frames until EOF, a socket error or a frame that does not decode.
/// A peer's frames pass its watermark first: message ids are monotone
/// per sender and a batch spans `msg_id .. msg_id + batch`, so the
/// watermark is the highest id seen and a reconnect resend falls at or
/// under it.
fn read_connection(
    pid: ProcessId,
    mut stream: TcpStream,
    conn: u64,
    event_tx: &Sender<RawEvent>,
    inbound: &Inbound,
) {
    // One buffer for the connection's life: bytes that arrive with the
    // hello belong to the frames after it.
    let mut frames = FrameBuf::default();
    // The hello decides the connection's role.
    let Ok(Some(hello)) = next_frame(&mut stream, &mut frames) else {
        return;
    };
    let Ok((header, payload)) = decode_frame(&hello) else {
        return;
    };
    if header.kind != FrameKind::Hello {
        return;
    }
    let mut rd = Rd::new(payload);
    let peer = match rd.u8("hello role") {
        Ok(ROLE_PEER) => {
            let Ok(raw_pid) = rd.u32("hello pid") else {
                return;
            };
            let from = ProcessId::new(raw_pid);
            // Only a peer of the mesh has a watermark. Without one, a
            // resent frame would skip dedup and reach the agenda twice.
            // No process dials itself.
            let Some(mark) = inbound.watermarks.get(from.index()).filter(|_| from != pid) else {
                return;
            };
            Some((from, mark))
        }
        Ok(ROLE_CLIENT) => None,
        _ => return,
    };
    while let Ok(Some(body)) = next_frame(&mut stream, &mut frames) {
        let Ok((header, payload)) = decode_frame(&body) else {
            return; // corrupt stream; drop the connection
        };
        let payload = payload.to_vec();
        let event = match peer {
            Some((from, mark)) => {
                let top = header
                    .msg_id
                    .saturating_add(u64::from(header.batch.max(1)) - 1);
                // The watermark only ever advances; `fetch_max` returns
                // the previous value, so a stale frame is detected
                // atomically.
                if mark.fetch_max(top, Ordering::AcqRel) >= top {
                    continue;
                }
                RawEvent::Peer {
                    conn,
                    from,
                    header,
                    payload,
                }
            }
            None => RawEvent::Client {
                conn,
                header,
                payload,
            },
        };
        if event_tx.send(event).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How long a raw connection pauses between the two halves of a
    /// frame: well past any scheduling hiccup, so the reader has
    /// certainly consumed the first half on its own.
    const PAUSE: Duration = Duration::from_millis(60);

    /// A peer frame with message id `msg_id` and a one-byte payload.
    fn peer_frame(msg_id: u64) -> Vec<u8> {
        let header = FrameHeader {
            kind: FrameKind::Peer,
            msg_id,
            sent_at_micros: 0,
            delay_micros: 0,
            batch: 1,
        };
        encode_frame(&header, &[msg_id as u8])
    }

    /// A raw peer connection says hello, then sends one `Peer` frame in
    /// two writes split at `split` with a pause between them; the mesh
    /// must still surface the frame intact.
    fn frame_survives_a_pause_at(split: Option<usize>) {
        let listener = MeshListener::bind(ProcessId::new(0), "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Process 1 must be a peer of the mesh for its hello to count;
        // nothing reads from its listener.
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let mesh = listener
            .start(&[(ProcessId::new(1), peer.local_addr().unwrap())])
            .unwrap();
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
        thread::sleep(PAUSE);
        raw.write_all(rest).unwrap();

        let got = mesh.recv_timeout(Duration::from_secs(1));
        drop(raw);
        mesh.shutdown();
        match got {
            Some(RawEvent::Peer {
                from,
                header: h,
                payload: p,
                ..
            }) => {
                assert_eq!((from, h, p), (ProcessId::new(1), header, payload));
            }
            other => panic!("split at {split:?}: expected the peer frame, got {other:?}"),
        }
    }

    #[test]
    fn pause_inside_the_length_prefix_loses_nothing() {
        frame_survives_a_pause_at(Some(2));
    }

    #[test]
    fn pause_inside_the_header_loses_nothing() {
        frame_survives_a_pause_at(Some(10));
    }

    #[test]
    fn unsplit_frame_after_a_pause_is_delivered() {
        frame_survives_a_pause_at(None);
    }

    /// Process 0's mesh starts before process 1 listens, and three
    /// frames queue while its dials fail. Once process 1 is up they
    /// arrive there exactly once and in order: the writer carries them
    /// across failed dials.
    #[test]
    fn frames_sent_before_the_peer_listens_arrive_once_in_order() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        // Reserve an address for process 1, and free it until it binds.
        let addr1 = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let l0 = MeshListener::bind(p0, "127.0.0.1:0").unwrap();
        let addr0 = l0.local_addr().unwrap();
        let m0 = l0.start(&[(p1, addr1)]).unwrap();
        let mut tx = m0.peer_sender();
        for id in 1..=3 {
            tx.send_frame(p1, &peer_frame(id)).unwrap();
        }
        thread::sleep(Duration::from_millis(100));
        let m1 = MeshListener::bind(p1, addr1)
            .unwrap()
            .start(&[(p0, addr0)])
            .unwrap();
        let mut got = Vec::new();
        while let Some(event) = m1.recv_timeout(Duration::from_secs(2)) {
            match event {
                RawEvent::Peer { from, header, .. } => got.push((from, header.msg_id)),
                other => panic!("expected peer frames, got {other:?}"),
            }
            if got.len() == 3 {
                // Anything more would be a duplicate.
                if let Some(extra) = m1.recv_timeout(4 * REDIAL) {
                    panic!("a fourth arrival: {extra:?}");
                }
                break;
            }
        }
        m0.shutdown();
        m1.shutdown();
        assert_eq!(got, vec![(p0, 1), (p0, 2), (p0, 3)]);
    }

    /// A peer's resend on a new connection falls under the watermark its
    /// earlier connection left: frames 1 and 2, then 2 and 3 after a
    /// reconnect, surface as 1, 2, 3.
    #[test]
    fn a_resend_on_a_new_connection_falls_under_the_watermark() {
        let p1 = ProcessId::new(1);
        let listener = MeshListener::bind(ProcessId::new(0), "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Process 1 must be a peer of the mesh for its hello to count;
        // nothing reads from its listener.
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let mesh = listener.start(&[(p1, peer.local_addr().unwrap())]).unwrap();
        let mut got = Vec::new();
        for (ids, fresh) in [([1, 2], 2), ([2, 3], 1)] {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(&hello_frame(ROLE_PEER, p1)).unwrap();
            for id in ids {
                raw.write_all(&peer_frame(id)).unwrap();
            }
            // The first connection's frames are in before the second
            // one opens, as when a writer redials after a torn write.
            for _ in 0..fresh {
                match mesh.recv_timeout(Duration::from_secs(2)) {
                    Some(RawEvent::Peer { from, header, .. }) => got.push((from, header.msg_id)),
                    other => panic!("expected a peer frame, got {other:?}"),
                }
            }
        }
        let extra = mesh.recv_timeout(PAUSE);
        mesh.shutdown();
        assert!(extra.is_none(), "a resent frame got through: {extra:?}");
        assert_eq!(got, vec![(p1, 1), (p1, 2), (p1, 3)]);
    }

    /// A frame queued just before `shutdown` still reaches its peer:
    /// the writer's stop waits behind it in the queue. This is a
    /// ping-pong whose echo side shuts down right after its last echo;
    /// rounds repeat the race between the writer's wake-up and the stop.
    #[test]
    fn a_frame_sent_just_before_shutdown_arrives() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        for round in 0..20 {
            let l0 = MeshListener::bind(p0, "127.0.0.1:0").unwrap();
            let l1 = MeshListener::bind(p1, "127.0.0.1:0").unwrap();
            let (a0, a1) = (l0.local_addr().unwrap(), l1.local_addr().unwrap());
            let m0 = l0.start(&[(p1, a1)]).unwrap();
            let m1 = l1.start(&[(p0, a0)]).unwrap();
            let mut tx = m0.peer_sender();
            // The first frame sets the connection up, so the writer is
            // blocked in `recv` when the last one is queued.
            tx.send_frame(p1, &peer_frame(1)).unwrap();
            assert!(matches!(
                m1.recv_timeout(Duration::from_secs(2)),
                Some(RawEvent::Peer { .. })
            ));
            tx.send_frame(p1, &peer_frame(2)).unwrap();
            m0.shutdown();
            let got = m1.recv_timeout(Duration::from_secs(2));
            m1.shutdown();
            match got {
                Some(RawEvent::Peer { header, .. }) if header.msg_id == 2 => {}
                other => panic!("round {round}: expected frame 2, got {other:?}"),
            }
        }
    }

    /// Runs `shutdown` on a thread and asserts that it returns within a
    /// second.
    fn shuts_down_within_a_second(mesh: TcpMesh) {
        let (done_tx, done_rx) = channel();
        thread::spawn(move || {
            mesh.shutdown();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
            "shutdown did not return within a second"
        );
    }

    /// A writer stops on its stop message, not on its queue closing: a
    /// `PeerSender` clone that outlives the mesh must not hold shutdown.
    #[test]
    fn shutdown_returns_while_a_peer_sender_lives() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let l0 = MeshListener::bind(p0, "127.0.0.1:0").unwrap();
        let l1 = MeshListener::bind(p1, "127.0.0.1:0").unwrap();
        let (a0, a1) = (l0.local_addr().unwrap(), l1.local_addr().unwrap());
        let m0 = l0.start(&[(p1, a1)]).unwrap();
        let m1 = l1.start(&[(p0, a0)]).unwrap();
        let mut tx = m0.peer_sender();
        tx.send_frame(p1, &peer_frame(1)).unwrap();
        assert!(matches!(
            m1.recv_timeout(Duration::from_secs(2)),
            Some(RawEvent::Peer { .. })
        ));
        shuts_down_within_a_second(m1);
        shuts_down_within_a_second(m0);
        // The sender outlived the mesh: its sends now fail.
        assert!(tx.send_frame(p1, &peer_frame(2)).is_err());
    }

    /// A connection that never says hello is registered all the same,
    /// so shutdown closes it and joins its reader.
    #[test]
    fn shutdown_returns_while_a_silent_connection_is_open() {
        let listener = MeshListener::bind(ProcessId::new(0), "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mesh = listener.start(&[]).unwrap();
        let silent = TcpStream::connect(addr).unwrap();
        // Let the acceptor take it and its reader block in `read`.
        thread::sleep(Duration::from_millis(50));
        shuts_down_within_a_second(mesh);
        drop(silent);
    }
}
