//! The TCP socket mesh: the byte-oriented [`WireTransport`] backend.
//!
//! Topology is a full mesh of *directed* connections: every process
//! dials every peer for its own outbound traffic, so each ordered pair
//! has one connection and per-channel FIFO falls out of TCP's stream
//! order. Inbound connections are sorted by their first frame (a
//! [`FrameKind::Hello`]): peer replicas announce their process id,
//! client sessions get a locally assigned connection id.
//!
//! The mesh runs no thread: the one thread that uses it reads and writes
//! every socket. A send ([`PeerSender`]) appends its frame to the peer's
//! outbound buffer and writes at once what the nonblocking socket takes.
//! A wait ([`Inbox`]) is one `ppoll(2)` over the listener, every inbound
//! connection and every peer with bytes left (for `POLLOUT`), with the
//! deadline as a nanosecond `timespec`; the thread that waited then
//! accepts, reads, reassembles and dedups what is ready, and writes on
//! to the peers that take more. A send or a wait dials a peer with no
//! connection once its redial instant has passed, at most once every
//! `REDIAL` (20 ms), and a wait ends by that instant.
//!
//! A peer's buffer clears once the kernel has taken all of it. Until
//! then it survives a failed write and is resent whole, after the hello,
//! on the next connection, so delivery is at-least-once across
//! reconnects. The read side deduplicates by the frame header's monotone
//! per-sender message id (a watermark that survives reconnects),
//! upgrading at-least-once to exactly-once.
//!
//! The mesh is deliberately *dumb*: it moves opaque frames. Decoding,
//! delay holds, and replica semantics live in [`crate::runtime`].
//!
//! `ppoll` is declared here by hand: this module holds the crate's one
//! `unsafe` block, the call itself.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use skewbound_sim::deadline::{Inbox, RecvTimeoutError, TryRecvError};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::transport::{TransportError, WireTransport};

use crate::wire::{decode_frame, encode_frame, FrameBuf, FrameHeader, FrameKind, Rd, Wr};

/// Hello-payload role tag: the dialer is a peer replica.
pub(crate) const ROLE_PEER: u8 = 0;
/// Hello-payload role tag: the dialer is a client session.
const ROLE_CLIENT: u8 = 1;

/// How long the mesh waits before dialing a peer again, or accepting
/// again after an accept error; and the longest one dial may block the
/// thread that makes it. A loopback dial is refused or accepted within
/// microseconds, so the bound only matters for an address that does not
/// answer: that dial is given up after one redial period instead of
/// stalling the node's timers for as long as the network stays silent.
const REDIAL: Duration = Duration::from_millis(20);
/// Bytes asked of a socket per read; a larger burst takes several.
const READ_CHUNK: usize = 4096;

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

impl RawEvent {
    /// The connection it arrived on.
    fn conn(&self) -> u64 {
        match *self {
            RawEvent::Peer { conn, .. } | RawEvent::Client { conn, .. } => conn,
        }
    }
}

/// A bound-but-not-yet-connected mesh: the listener exists (so peers
/// can already dial us and park in the OS accept queue) and its
/// ephemeral port is known, but nothing is dialed yet. Two-phase startup
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

    /// Starts the mesh with one outbound entry per element of `peers`
    /// (every *other* process and its address), each due for a dial at
    /// once: the first send or wait on the mesh makes it.
    ///
    /// # Errors
    ///
    /// Propagates the failure to make the listener nonblocking.
    pub fn start(self, peers: &[(ProcessId, SocketAddr)]) -> std::io::Result<TcpMesh> {
        let MeshListener { pid, listener } = self;
        listener.set_nonblocking(true)?;
        // Watermarks are indexed by sender pid.
        let max_pid = peers
            .iter()
            .map(|(p, _)| p.index())
            .max()
            .unwrap_or(0)
            .max(pid.index());
        let now = Instant::now();
        let sockets = Sockets {
            pid,
            listener,
            accept_after: None,
            conns: Vec::new(),
            next_conn: 1,
            watermarks: vec![0; max_pid + 1],
            arrived: VecDeque::new(),
            just_polled: false,
            fds: Vec::new(),
            peers: peers
                .iter()
                .map(|&(to, addr)| Peer {
                    to,
                    addr,
                    stream: None,
                    unsent: Vec::new(),
                    written: 0,
                    dial_at: now,
                })
                .collect(),
        };
        Ok(TcpMesh {
            sockets: RefCell::new(sockets),
        })
    }
}

/// A running socket mesh for one process: its listener, its inbound
/// connections and a connection to every peer, all read and written by
/// the thread that uses the mesh.
pub struct TcpMesh {
    /// Borrowed by one wait, one send, one client write or one hang-up
    /// at a time.
    sockets: RefCell<Sockets>,
}

impl core::fmt::Debug for TcpMesh {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TcpMesh")
            .field("pid", &self.pid())
            .finish_non_exhaustive()
    }
}

impl TcpMesh {
    /// The local process id.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.sockets.borrow().pid
    }

    /// The [`WireTransport`] that writes this mesh's peer frames: the
    /// half the server's transport holds while the server loop waits on
    /// the mesh itself.
    #[must_use]
    pub fn peer_sender(&self) -> PeerSender<'_> {
        PeerSender { mesh: self }
    }

    /// Waits up to `timeout` for the next raw arrival, reading the
    /// sockets on the calling thread.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<RawEvent> {
        self.recv_within(timeout).ok()
    }

    /// Writes one already-encoded frame to client connection `conn`.
    /// Returns `false` (and forgets the connection) if the client is
    /// gone — a vanished client is not an error for the server. The
    /// socket is nonblocking, so a client that leaves its responses
    /// unread until its socket buffer fills is gone too: the node never
    /// blocks on a client.
    pub fn send_to_client(&self, conn: u64, frame: &[u8]) -> bool {
        let conns = &mut self.sockets.borrow_mut().conns;
        let Some(i) = conns.iter().position(|c| c.id == conn) else {
            return false;
        };
        if conns[i].stream.write_all(frame).is_err() {
            conns.swap_remove(i);
            return false;
        }
        true
    }

    /// Closes inbound connection `conn`, peer or client, and forgets it
    /// with the arrivals read from it and not yet taken: what the server
    /// does to a connection whose frames do not decode.
    pub(crate) fn drop_conn(&self, conn: u64) {
        let mut sockets = self.sockets.borrow_mut();
        sockets.conns.retain(|c| c.id != conn);
        sockets.arrived.retain(|e| e.conn() != conn);
    }

    /// Closes the listener and every inbound connection, then writes
    /// out, blocking, what is still queued to each peer it is connected
    /// to; what is queued to a peer that is down is abandoned. Called on
    /// server exit after the drain.
    pub fn shutdown(self) {
        let Sockets { peers, .. } = self.sockets.into_inner();
        for peer in peers {
            if let Some(mut stream) = peer.stream {
                let left = &peer.unsent[peer.written..];
                let _ = stream
                    .set_nonblocking(false)
                    .and_then(|()| stream.write_all(left));
            }
        }
    }
}

/// The node thread's inbox on the mesh. Arrivals already read are taken
/// first; otherwise a wait is one `ppoll` over the listener, every
/// inbound connection and every peer with bytes left, after which the
/// waiting thread reads and writes what is ready, and so is a take,
/// except right after a wait, which has just looked. Nothing disconnects
/// it: it only times out.
impl Inbox for TcpMesh {
    type Event = RawEvent;

    fn recv_within(&self, timeout: Duration) -> Result<RawEvent, RecvTimeoutError> {
        // `None`: a timeout past any instant, which never ends the wait.
        let end = Instant::now().checked_add(timeout);
        let mut sockets = self.sockets.borrow_mut();
        loop {
            if let Some(event) = sockets.arrived.pop_front() {
                return Ok(event);
            }
            if end.is_some_and(|end| Instant::now() >= end) {
                return Err(RecvTimeoutError::Timeout);
            }
            sockets.read_ready(end);
            sockets.just_polled = true;
        }
    }

    fn try_take(&self) -> Result<RawEvent, TryRecvError> {
        let mut sockets = self.sockets.borrow_mut();
        if sockets.arrived.is_empty() && !std::mem::take(&mut sockets.just_polled) {
            sockets.read_ready(Some(Instant::now()));
        }
        sockets.arrived.pop_front().ok_or(TryRecvError::Empty)
    }
}

/// Every socket of a mesh: its listener, every open inbound connection,
/// the arrivals read but not yet taken, and the outbound side.
struct Sockets {
    pid: ProcessId,
    listener: TcpListener,
    /// Set after an accept error: the listener sits out of the waits
    /// until then, instead of waking each one at once.
    accept_after: Option<Instant>,
    /// Every open inbound connection, peer or client, hello or not.
    conns: Vec<Conn>,
    next_conn: u64,
    /// Per sender pid, the highest message id surfaced from it, kept
    /// across its successive connections.
    watermarks: Vec<u64>,
    arrived: VecDeque<RawEvent>,
    /// Set when a wait has just read every socket its `ppoll` reported.
    /// The take that finds nothing left then skips a second `ppoll`
    /// (0.5 µs): the drain [`WallNode::run`] makes after each wait,
    /// which sits on every timer's path.
    ///
    /// [`WallNode::run`]: skewbound_sim::deadline::WallNode::run
    just_polled: bool,
    /// The wait's poll set: the listener, then `conns` in order, then
    /// the peers with bytes left in order.
    fds: Vec<PollFd>,
    /// One outbound entry per peer.
    peers: Vec<Peer>,
}

impl Sockets {
    /// Dials the peers that are due, then waits until the listener, a
    /// connection or a peer with bytes left is ready or `end` passes
    /// (`None`: no end), then reads every ready connection once, writes
    /// on to every ready peer and accepts every waiting connection. A
    /// wait may end early, with nothing read, when a paused listener or
    /// a redial is due.
    fn read_ready(&mut self, end: Option<Instant>) {
        let Sockets {
            pid,
            listener,
            accept_after,
            conns,
            watermarks,
            arrived,
            fds,
            peers,
            ..
        } = self;
        for peer in peers.iter_mut().filter(|p| p.stream.is_none()) {
            peer.flush(*pid);
        }
        let now = Instant::now();
        *accept_after = accept_after.filter(|&at| at > now);
        let redial = (peers.iter().filter(|p| p.stream.is_none()))
            .map(|p| p.dial_at)
            .min();
        // `None` is no end, so the wait ends at the earliest of the rest.
        let end = [end, *accept_after, redial].into_iter().flatten().min();
        fds.clear();
        // poll(2) skips a negative descriptor.
        let listening = accept_after.map_or(listener.as_raw_fd(), |_| -1);
        fds.push(PollFd::new(listening, POLLIN));
        fds.extend(
            conns
                .iter()
                .map(|c| PollFd::new(c.stream.as_raw_fd(), POLLIN)),
        );
        fds.extend(
            peers
                .iter()
                .filter_map(Peer::writing)
                .map(|fd| PollFd::new(fd, POLLOUT)),
        );
        if ready_within(fds, end, ppoll_fds) == 0 {
            return;
        }
        let mut revents = fds[1..].iter().map(|fd| fd.revents);
        conns.retain_mut(|conn| revents.next() == Some(0) || conn.read(*pid, watermarks, arrived));
        for peer in peers.iter_mut().filter(|p| p.writing().is_some()) {
            if revents.next() != Some(0) {
                peer.flush(*pid);
            }
        }
        if fds[0].revents != 0 {
            self.accept_waiting();
        }
    }

    /// Accepts every connection waiting on the listener.
    fn accept_waiting(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.conns.push(Conn {
                        id: self.next_conn,
                        stream,
                        frames: FrameBuf::default(),
                        role: Role::Hello,
                    });
                    self.next_conn += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                    ) => {}
                Err(_) => {
                    // Out of descriptors, say: retry after a pause, not
                    // at every wait.
                    self.accept_after = Some(Instant::now() + REDIAL);
                    return;
                }
            }
        }
    }
}

/// One peer's outbound side: its connection, if any, and the frames the
/// kernel has not yet taken all of.
struct Peer {
    to: ProcessId,
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Whole frames, the first starting at byte 0: kept until the kernel
    /// has taken every byte, and resent whole on the next connection.
    unsent: Vec<u8>,
    /// How much of `unsent` the kernel has taken on `stream`.
    written: usize,
    /// When a peer with no connection is dialed next.
    dial_at: Instant,
}

impl Peer {
    /// The descriptor to wait on for `POLLOUT`: a connection with bytes
    /// left to write.
    fn writing(&self) -> Option<c_int> {
        let stream = self.stream.as_ref()?;
        (self.written < self.unsent.len()).then(|| stream.as_raw_fd())
    }

    /// Dials the peer if it has no connection and its redial instant has
    /// passed, then writes of `unsent` what the kernel takes without
    /// blocking. A failed write drops the connection; it is dialed again
    /// once `REDIAL` has passed since its own dial.
    fn flush(&mut self, pid: ProcessId) {
        if self.stream.is_none() {
            if Instant::now() < self.dial_at {
                return;
            }
            self.stream = dial(self.addr, pid);
            self.written = 0;
            self.dial_at = Instant::now() + REDIAL;
        }
        let Some(stream) = &mut self.stream else {
            return;
        };
        while self.written < self.unsent.len() {
            match stream.write(&self.unsent[self.written..]) {
                Ok(n) if n > 0 => self.written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                _ => {
                    self.stream = None;
                    return;
                }
            }
        }
        self.unsent.clear();
        self.written = 0;
    }
}

/// Connects to `addr` within `REDIAL` and says hello as peer `pid`.
/// Returns the connection, nonblocking, or `None` if any step fails.
fn dial(addr: SocketAddr, pid: ProcessId) -> Option<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, REDIAL).ok()?;
    let _ = stream.set_nodelay(true);
    stream.write_all(&hello_frame(ROLE_PEER, pid)).ok()?;
    stream.set_nonblocking(true).ok()?;
    Some(stream)
}

/// What an inbound connection has said it is.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// Nothing yet: its first frame must be a hello.
    Hello,
    /// A peer replica of the mesh.
    Peer(ProcessId),
    /// A client session.
    Client,
}

/// One inbound connection and the bytes of its next frame.
struct Conn {
    id: u64,
    stream: TcpStream,
    /// One buffer for the connection's life: a frame split across reads
    /// waits here for its last byte, and bytes that arrive with the
    /// hello belong to the frames after it.
    frames: FrameBuf,
    role: Role,
}

impl Conn {
    /// Reads what the socket has once and files every whole frame in
    /// `arrived`. Returns `false` when the connection is to be dropped:
    /// EOF, a socket error, a frame that does not decode, or a first
    /// frame that is not the hello of a client or of a peer of process
    /// `pid`'s mesh. A peer's frames pass its watermark first: message
    /// ids are monotone per sender and a batch spans
    /// `msg_id .. msg_id + batch`, so the watermark is the highest id
    /// seen and a reconnect resend falls at or under it.
    fn read(
        &mut self,
        pid: ProcessId,
        watermarks: &mut [u64],
        arrived: &mut VecDeque<RawEvent>,
    ) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        match self.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => self.frames.feed(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return true
            }
            Err(_) => return false,
        }
        loop {
            let Ok(popped) = self.frames.pop() else {
                return false;
            };
            let Some(body) = popped else {
                return true;
            };
            let Ok((header, payload)) = decode_frame(&body) else {
                return false; // corrupt stream; drop the connection
            };
            let conn = self.id;
            match self.role {
                Role::Hello => match hello_role(pid, watermarks.len(), header, payload) {
                    Some(role) => self.role = role,
                    None => return false,
                },
                Role::Peer(from) => {
                    let top = header
                        .msg_id
                        .saturating_add(u64::from(header.batch.max(1)) - 1);
                    let mark = &mut watermarks[from.index()];
                    if *mark >= top {
                        continue;
                    }
                    *mark = top;
                    arrived.push_back(RawEvent::Peer {
                        conn,
                        from,
                        header,
                        payload: payload.to_vec(),
                    });
                }
                Role::Client => arrived.push_back(RawEvent::Client {
                    conn,
                    header,
                    payload: payload.to_vec(),
                }),
            }
        }
    }
}

/// The role a connection's first frame gives it at process `pid`, whose
/// watermarks cover pids below `peers`: `None` unless the frame is a
/// client hello or the hello of a peer of the mesh. Only a peer of the
/// mesh has a watermark; without one, a resent frame would skip dedup
/// and reach the agenda twice. No process dials itself.
fn hello_role(pid: ProcessId, peers: usize, header: FrameHeader, payload: &[u8]) -> Option<Role> {
    if header.kind != FrameKind::Hello {
        return None;
    }
    let mut rd = Rd::new(payload);
    match rd.u8("hello role").ok()? {
        ROLE_PEER => {
            let from = ProcessId::new(rd.u32("hello pid").ok()?);
            (from.index() < peers && from != pid).then_some(Role::Peer(from))
        }
        ROLE_CLIENT => Some(Role::Client),
        _ => None,
    }
}

/// `struct pollfd` of poll(2).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `POLLIN`: there is data to read (or, on a listener, a connection to
/// accept). Errors and hang-ups are reported whatever is asked.
const POLLIN: c_short = 0x001;
/// `POLLOUT`: a write would not block.
const POLLOUT: c_short = 0x004;

impl PollFd {
    /// Watches `fd` for `events`.
    fn new(fd: c_int, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// `struct timespec`: `time_t` and `long` are both `long` on the 64-bit
/// Linux targets.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    /// ppoll(2): waits until an entry of `fds` is ready, `timeout` (null:
    /// no limit) passes, or a signal interrupts it; a null `sigmask`
    /// keeps the thread's signal mask.
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// One `ppoll` over `fds` for up to `timeout` (`None`: no limit), to the
/// nanosecond: `poll`'s whole milliseconds would make every
/// sub-millisecond timer up to a millisecond late. Returns the number of
/// ready entries, 0 on a timeout, which may come up to 0.1 % early.
///
/// The kernel lets a `ppoll` timeout fire late by its own slack estimate,
/// 0.1 % of the timeout (20 µs on a 20 ms wait; a futex wait keeps the
/// thread's 1 ns timer slack instead). Asking for 1000/1001 of the wait
/// puts that latest wake-up on the deadline; [`ready_within`] waits out
/// the rest of one that comes earlier.
fn ppoll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout = timeout.map(|t| t - t / 1001).map(|t| Timespec {
        tv_sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(t.subsec_nanos()),
    });
    let timeout_ptr = timeout
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    let nfds = c_ulong::try_from(fds.len()).expect("a poll set fits nfds_t");
    // SAFETY: `fds` is a live, exclusively borrowed slice of `nfds`
    // `#[repr(C)]` pollfd entries, which ppoll only reads and whose
    // `revents` it writes; `timeout_ptr` is null or points to a
    // `timespec` that outlives the call; a null `sigmask` is allowed.
    // Nothing is kept past the call.
    let ready = unsafe { ppoll(fds.as_mut_ptr(), nfds, timeout_ptr, std::ptr::null()) };
    usize::try_from(ready).map_err(|_| io::Error::last_os_error())
}

/// Waits through `sys` (ppoll(2) outside the tests) until an entry of
/// `fds` is ready or `end` passes (`None`: no end), and returns the
/// number ready: 0 only once `end` has passed. A wait a signal
/// interrupts, or one that returns empty before `end`, is restarted for
/// what is left of it.
///
/// # Panics
///
/// Panics if `sys` fails otherwise: the poll set itself is wrong.
fn ready_within(
    fds: &mut [PollFd],
    end: Option<Instant>,
    mut sys: impl FnMut(&mut [PollFd], Option<Duration>) -> io::Result<usize>,
) -> usize {
    loop {
        let left = end.map(|end| end.saturating_duration_since(Instant::now()));
        match sys(fds, left) {
            Ok(0) if end.is_some_and(|end| Instant::now() < end) => {}
            Ok(ready) => return ready,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("ppoll over {} sockets failed: {e}", fds.len()),
        }
    }
}

/// The sending half of a [`TcpMesh`]: it borrows the mesh, so it sends
/// from the thread that waits on the mesh.
#[derive(Debug)]
pub struct PeerSender<'a> {
    mesh: &'a TcpMesh,
}

impl WireTransport for PeerSender<'_> {
    fn send_frame(&mut self, to: ProcessId, frame: &[u8]) -> Result<(), TransportError> {
        let mut sockets = self.mesh.sockets.borrow_mut();
        let pid = sockets.pid;
        let peer = (sockets.peers.iter_mut().find(|p| p.to == to))
            .ok_or(TransportError::PeerUnreachable { to })?;
        peer.unsent.extend_from_slice(frame);
        peer.flush(pid);
        Ok(())
    }
}

/// Reads `stream` into `frames` until a whole frame body is buffered
/// and pops it: the blocking reassembly path of
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::thread;

    /// How long a raw connection pauses between the two halves of a
    /// frame: well past any scheduling hiccup, so the reader has
    /// certainly consumed the first half on its own.
    const PAUSE: Duration = Duration::from_millis(60);

    /// A peer frame with message id `msg_id` and a payload of `len`
    /// bytes, each the id's low byte.
    fn peer_frame(msg_id: u64, len: usize) -> Vec<u8> {
        let header = FrameHeader {
            kind: FrameKind::Peer,
            msg_id,
            sent_at_micros: 0,
            delay_micros: 0,
            batch: 1,
        };
        encode_frame(&header, &vec![msg_id as u8; len])
    }

    /// Moves `mesh` to a thread that waits on it, and so dials, redials
    /// and writes on, until the returned sender says stop; then the
    /// thread shuts the mesh down.
    fn keep_waiting(mesh: TcpMesh) -> (std::sync::mpsc::Sender<()>, thread::JoinHandle<()>) {
        let (stop_tx, stop_rx) = channel();
        let waiter = thread::spawn(move || {
            while stop_rx.try_recv().is_err() {
                assert!(mesh.recv_timeout(PAUSE).is_none(), "nothing is sent here");
            }
            mesh.shutdown();
        });
        (stop_tx, waiter)
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
    /// arrive there exactly once and in order: the waits on process 0's
    /// mesh redial and carry them across the failed dials.
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
            tx.send_frame(p1, &peer_frame(id, 1)).unwrap();
        }
        let (stop, waiter) = keep_waiting(m0);
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
        stop.send(()).unwrap();
        waiter.join().unwrap();
        m1.shutdown();
        assert_eq!(got, vec![(p0, 1), (p0, 2), (p0, 3)]);
    }

    /// A burst larger than the socket buffers, 8 MB of 64 KB frames, is
    /// sent while the receiving mesh does not read: the sends write what
    /// the kernel takes and keep the rest. Once the receiver reads, and
    /// the waits on the sender's mesh write on at each `POLLOUT`, every
    /// frame arrives whole, in order and exactly once.
    #[test]
    fn a_burst_past_the_socket_buffers_arrives_whole_in_order_once() {
        const FRAMES: u64 = 128;
        const LEN: usize = 64 * 1024;
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let l0 = MeshListener::bind(p0, "127.0.0.1:0").unwrap();
        let l1 = MeshListener::bind(p1, "127.0.0.1:0").unwrap();
        let (a0, a1) = (l0.local_addr().unwrap(), l1.local_addr().unwrap());
        let m0 = l0.start(&[(p1, a1)]).unwrap();
        let m1 = l1.start(&[(p0, a0)]).unwrap();
        let mut tx = m0.peer_sender();
        for id in 1..=FRAMES {
            tx.send_frame(p1, &peer_frame(id, LEN)).unwrap();
        }
        let left = m0.sockets.borrow().peers[0].writing().is_some();
        assert!(left, "the socket buffers took the whole burst");
        let (stop, waiter) = keep_waiting(m0);
        for id in 1..=FRAMES {
            match m1.recv_timeout(Duration::from_secs(5)) {
                Some(RawEvent::Peer {
                    from,
                    header,
                    payload,
                    ..
                }) => {
                    assert_eq!((from, header.msg_id), (p0, id));
                    assert!(payload == vec![id as u8; LEN], "frame {id} arrived torn");
                }
                other => panic!("expected frame {id}, got {other:?}"),
            }
        }
        let extra = m1.recv_timeout(PAUSE);
        stop.send(()).unwrap();
        waiter.join().unwrap();
        m1.shutdown();
        assert!(extra.is_none(), "a frame arrived twice: {extra:?}");
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
                raw.write_all(&peer_frame(id, 1)).unwrap();
            }
            // The first connection's frames are in before the second
            // one opens, as when a peer redials after a failed write.
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

    /// A frame sent just before `shutdown` still reaches its peer: the
    /// send writes it, and shutdown writes out whatever the socket had
    /// not taken. This is a ping-pong whose echo side shuts down right
    /// after its last echo, repeated over rounds.
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
            // The first frame dials and sets the connection up.
            tx.send_frame(p1, &peer_frame(1, 1)).unwrap();
            assert!(matches!(
                m1.recv_timeout(Duration::from_secs(2)),
                Some(RawEvent::Peer { .. })
            ));
            tx.send_frame(p1, &peer_frame(2, 1)).unwrap();
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

    /// A connection that never says hello is accepted all the same, so
    /// shutdown closes it with the rest.
    #[test]
    fn shutdown_returns_while_a_silent_connection_is_open() {
        let listener = MeshListener::bind(ProcessId::new(0), "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mesh = listener.start(&[]).unwrap();
        let silent = TcpStream::connect(addr).unwrap();
        // Let a wait accept it.
        thread::sleep(Duration::from_millis(50));
        assert!(mesh.recv_timeout(Duration::from_millis(10)).is_none());
        shuts_down_within_a_second(mesh);
        drop(silent);
    }

    /// The socket wait's contract is the channel wait's
    /// (`skewbound_sim::deadline`'s tests), through the same
    /// [`wait`](skewbound_sim::deadline::wait) over a mesh with no peers.
    mod socket_wait {
        use super::*;
        use skewbound_sim::deadline::{poll_until, wait};

        /// Long enough for `wait` to sleep, then spin: at least eight
        /// margins of 150 µs.
        const SPIN_BRANCH: Duration = Duration::from_millis(5);
        const WAIT: Duration = Duration::from_millis(1);

        /// A mesh of process 0 with no peers, and its address.
        fn lone_mesh() -> (TcpMesh, SocketAddr) {
            let listener = MeshListener::bind(ProcessId::new(0), "127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            (listener.start(&[]).unwrap(), addr)
        }

        /// A client request frame with request id `req_id`.
        fn request(req_id: u64) -> Vec<u8> {
            let header = FrameHeader {
                kind: FrameKind::ClientReq,
                msg_id: req_id,
                sent_at_micros: 0,
                delay_micros: 0,
                batch: 0,
            };
            encode_frame(&header, &[req_id as u8; 3])
        }

        /// Takes the next arrival, which must be client request `req_id`
        /// on connection `conn`.
        fn expect_request(mesh: &TcpMesh, conn: u64, req_id: u64) {
            match mesh.recv_timeout(Duration::from_secs(2)) {
                Some(RawEvent::Client {
                    conn: c,
                    header,
                    payload,
                }) => {
                    assert_eq!((c, header.msg_id), (conn, req_id));
                    assert_eq!(payload, [req_id as u8; 3]);
                }
                other => panic!("expected request {req_id} on {conn}, got {other:?}"),
            }
        }

        #[test]
        fn never_times_out_before_its_deadline() {
            let (mesh, _) = lone_mesh();
            for may_spin in [false, true] {
                let deadline = Instant::now() + SPIN_BRANCH;
                let got = wait(&mesh, Some(deadline), Duration::from_secs(1), may_spin);
                assert!(matches!(got, Err(RecvTimeoutError::Timeout)), "{got:?}");
                assert!(Instant::now() >= deadline, "timed out early");
            }
            // Under a millisecond too: the timeout is not rounded to one.
            let deadline = Instant::now() + Duration::from_micros(300);
            let got = wait(&mesh, Some(deadline), Duration::from_secs(1), false);
            assert!(matches!(got, Err(RecvTimeoutError::Timeout)), "{got:?}");
            assert!(Instant::now() >= deadline, "timed out early");
            // A deadline already in the past times out at once.
            let past = Instant::now();
            let got = wait(&mesh, Some(past), Duration::from_secs(1), true);
            assert!(matches!(got, Err(RecvTimeoutError::Timeout)), "{got:?}");
            mesh.shutdown();
        }

        /// A request sent while the wait polls is returned at once. The
        /// polling phase is entered directly, with a deadline far enough
        /// out that only the arrival can end it; the client holds back
        /// until the poller says it is about to start.
        #[test]
        fn an_arrival_during_the_spin_phase_returns_at_once() {
            let (mesh, addr) = lone_mesh();
            let (ready_tx, ready_rx) = channel::<()>();
            let client = thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                ready_rx.recv().unwrap();
                stream.write_all(&client_hello()).unwrap();
                stream.write_all(&request(42)).unwrap();
                stream
            });
            let start = Instant::now();
            ready_tx.send(()).unwrap();
            let got = poll_until(&mesh, start + Duration::from_secs(30));
            let _stream = client.join().unwrap();
            assert!(
                matches!(got, Ok(RawEvent::Client { header, .. }) if header.msg_id == 42),
                "{got:?}"
            );
            assert!(start.elapsed() < Duration::from_secs(10));
            mesh.shutdown();
        }

        #[test]
        fn a_cap_ends_a_wait_without_a_deadline() {
            let (mesh, _) = lone_mesh();
            let start = Instant::now();
            let got = wait(&mesh, None, 2 * WAIT, true);
            assert!(matches!(got, Err(RecvTimeoutError::Timeout)), "{got:?}");
            assert!(start.elapsed() >= 2 * WAIT);
            // A deadline beyond the cap: the cap ends the wait first.
            let start = Instant::now();
            let far = start + Duration::from_secs(60);
            let got = wait(&mesh, Some(far), 2 * WAIT, true);
            assert!(matches!(got, Err(RecvTimeoutError::Timeout)), "{got:?}");
            let took = start.elapsed();
            assert!(took >= 2 * WAIT && took < Duration::from_secs(1));
            mesh.shutdown();
        }

        /// A signal interrupting `ppoll` (`EINTR`) restarts the wait for
        /// what is left of it, and so does a wake-up that comes back
        /// empty before the end: the wait still ends on its deadline.
        /// The interruptions are injected in front of the real call.
        #[test]
        fn an_interrupted_wait_is_restarted() {
            let mut calls = 0;
            let interrupted = |fds: &mut [PollFd], left: Option<Duration>| {
                calls += 1;
                match calls {
                    1 | 2 => Err(io::Error::from(ErrorKind::Interrupted)),
                    3 => Ok(0),
                    _ => ppoll_fds(fds, left),
                }
            };
            let end = Instant::now() + 20 * WAIT;
            assert_eq!(ready_within(&mut [], Some(end), interrupted), 0);
            assert!(Instant::now() >= end, "an interrupted wait ended early");
            assert_eq!(calls, 4);

            // Interrupted while a socket is ready: the restart finds it.
            let (mesh, addr) = lone_mesh();
            let _pending = TcpStream::connect(addr).unwrap();
            let listener = mesh.sockets.borrow().listener.as_raw_fd();
            let mut fds = [PollFd::new(listener, POLLIN)];
            let mut calls = 0;
            let once = |fds: &mut [PollFd], left: Option<Duration>| {
                calls += 1;
                if calls == 1 {
                    return Err(io::Error::from(ErrorKind::Interrupted));
                }
                ppoll_fds(fds, left)
            };
            let end = Instant::now() + Duration::from_secs(5);
            assert_eq!(ready_within(&mut fds, Some(end), once), 1);
            assert_ne!(fds[0].revents, 0);
            mesh.shutdown();
        }

        /// Two client sessions whose frames arrive split inside their
        /// headers, interleaved with each other, are each reassembled on
        /// their own connection.
        #[test]
        fn interleaved_split_frames_of_two_sessions_are_each_reassembled() {
            let (mesh, addr) = lone_mesh();
            let mut a = TcpStream::connect(addr).unwrap();
            a.write_all(&client_hello()).unwrap();
            let mut b = TcpStream::connect(addr).unwrap();
            b.write_all(&client_hello()).unwrap();
            let (fa, fb) = (request(1), request(2));
            let (a1, a2) = fa.split_at(10);
            let (b1, b2) = fb.split_at(7);
            // Each wait reads the half sent before it, and nothing
            // surfaces until a frame is whole.
            for (stream, half) in [(&mut a, a1), (&mut b, b1)] {
                stream.write_all(half).unwrap();
                assert!(mesh.recv_timeout(PAUSE).is_none(), "half a frame surfaced");
            }
            b.write_all(b2).unwrap();
            expect_request(&mesh, 2, 2);
            a.write_all(a2).unwrap();
            expect_request(&mesh, 1, 1);
            mesh.shutdown();
        }

        /// A session that sends half a frame and closes is dropped; the
        /// other session keeps being served.
        #[test]
        fn half_a_frame_then_close_drops_only_that_connection() {
            let (mesh, addr) = lone_mesh();
            let mut torn = TcpStream::connect(addr).unwrap();
            torn.write_all(&client_hello()).unwrap();
            let mut kept = TcpStream::connect(addr).unwrap();
            kept.write_all(&client_hello()).unwrap();
            kept.write_all(&request(1)).unwrap();
            expect_request(&mesh, 2, 1);
            torn.write_all(&request(9)[..12]).unwrap();
            drop(torn);
            assert!(mesh.recv_timeout(PAUSE).is_none(), "a torn frame surfaced");
            let open: Vec<u64> = mesh.sockets.borrow().conns.iter().map(|c| c.id).collect();
            assert_eq!(open, [2], "the torn connection is still open");
            kept.write_all(&request(2)).unwrap();
            expect_request(&mesh, 2, 2);
            mesh.shutdown();
        }
    }
}
