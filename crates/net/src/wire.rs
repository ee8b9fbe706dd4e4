//! The hand-rolled wire codec: length-prefixed frames with a versioned
//! header, and [`Encode`]/[`Decode`] for what `skewbound-serve` serves —
//! the register, queue and kv operations and responses, namespaced and
//! timestamped as replica messages. Another object goes on the wire by
//! adding its two impls here.
//!
//! No serde: like `lint::json`, the format is written out by hand so the
//! byte layout is an auditable part of the protocol, not an artifact of
//! a derive. Everything is little-endian and fixed-width; enums are a
//! one-byte tag followed by their fields in declaration order. No served
//! value has a variable-length field, so no length is decoded below the
//! frame: a frame's length prefix and its header's `batch` are the only
//! ones.
//!
//! ## Frame grammar
//!
//! ```text
//! frame   := len:u32 body            (len = |body|, ≤ MAX_FRAME_LEN)
//! body    := header payload
//! header  := magic:u16 version:u8 kind:u8 msg_id:u64
//!            sent_at_micros:u64 delay_micros:u32 batch:u32
//! payload := kind-specific bytes (batch-many encoded values for
//!            peer/client frames, hello fields for handshakes)
//! ```
//!
//! The header carries everything the transport layer needs without
//! decoding the payload: the sender-allocated message id (receivers
//! deduplicate on it after reconnect resends), the send timestamp and
//! injected delay (receivers hold the frame until
//! `sent_at + delay` on the shared timebase, reproducing the
//! `[d − u, d]` window of the in-process backends), and the batch count
//! (how many payload values follow).
//!
//! Decoding never panics: every read is bounds-checked and returns a
//! typed [`WireError`].

use skewbound_core::replica::OpMsg;
use skewbound_core::timestamp::Timestamp;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::ClockTime;
use skewbound_spec::prelude::*;

/// First two bytes of every frame body.
pub const MAGIC: u16 = 0x5BD7;

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Upper bound on one frame's body length. A corrupt or hostile length
/// prefix must not make a reader allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Typed decode failures. Decoding returns these — it never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic(u16),
    /// The frame's version byte is not [`VERSION`].
    BadVersion(u8),
    /// An enum tag byte has no corresponding variant.
    BadTag {
        /// The enum being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A count field does not fit this platform's `usize`.
    BadLen(u64),
    /// Bytes remained after the value was fully decoded.
    TrailingBytes(usize),
    /// A frame body exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated while reading {what}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            WireError::BadLen(len) => write!(f, "count {len} does not fit usize"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after value"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame body of {n} bytes exceeds {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Byte writer: a thin `Vec<u8>` wrapper with fixed-width little-endian
/// primitives.
#[derive(Debug, Default)]
pub struct Wr {
    buf: Vec<u8>,
}

impl Wr {
    /// A fresh writer.
    #[must_use]
    pub fn new() -> Self {
        Wr::default()
    }

    /// A fresh writer with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Wr {
            buf: Vec::with_capacity(cap),
        }
    }

    /// The bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far, borrowed.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends raw bytes (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked byte reader over a borrowed buffer.
#[derive(Debug)]
pub struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    /// A reader over `buf`, positioned at its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`WireError::TrailingBytes`] unless the buffer was
    /// consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, WireError> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Serializes a value into a [`Wr`].
pub trait Encode {
    /// Appends this value's canonical byte form.
    fn encode(&self, w: &mut Wr);
}

/// Deserializes a value from a [`Rd`]. Must consume exactly the bytes
/// [`Encode::encode`] produced and never panic on corrupt input.
pub trait Decode: Sized {
    /// Reads one value.
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError>;
}

/// Encodes `v` to a standalone byte vector.
pub fn to_bytes<T: Encode>(v: &T) -> Vec<u8> {
    let mut w = Wr::new();
    v.encode(&mut w);
    w.into_bytes()
}

/// Decodes exactly one `T` from `bytes` (trailing bytes are an error).
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Rd::new(bytes);
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

// ---------------------------------------------------------------- primitives

impl Encode for i64 {
    fn encode(&self, w: &mut Wr) {
        w.i64(*self);
    }
}
impl Decode for i64 {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        r.i64("i64")
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut Wr) {
        w.len(*self);
    }
}
impl Decode for usize {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        let v = r.u64("usize")?;
        usize::try_from(v).map_err(|_| WireError::BadLen(v))
    }
}

impl Encode for bool {
    fn encode(&self, w: &mut Wr) {
        w.u8(u8::from(*self));
    }
}
impl Decode for bool {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        match r.u8("bool")? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Wr) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        match r.u8("Option")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

// ------------------------------------------------------------- id/time types

impl Encode for ProcessId {
    fn encode(&self, w: &mut Wr) {
        w.u32(self.as_u32());
    }
}
impl Decode for ProcessId {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        Ok(ProcessId::new(r.u32("ProcessId")?))
    }
}

impl Encode for ClockTime {
    fn encode(&self, w: &mut Wr) {
        w.i64(self.as_ticks());
    }
}
impl Decode for ClockTime {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        Ok(ClockTime::from_ticks(r.i64("ClockTime")?))
    }
}

impl Encode for Timestamp {
    fn encode(&self, w: &mut Wr) {
        self.time.encode(w);
        self.pid.encode(w);
        w.u32(self.seq);
    }
}
impl Decode for Timestamp {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        let time = ClockTime::decode(r)?;
        let pid = ProcessId::decode(r)?;
        let seq = r.u32("Timestamp::seq")?;
        Ok(Timestamp::with_seq(time, pid, seq))
    }
}

impl<S: SequentialSpec> Encode for OpMsg<S>
where
    S::Op: Encode,
{
    fn encode(&self, w: &mut Wr) {
        self.op.encode(w);
        self.ts.encode(w);
    }
}
impl<S: SequentialSpec> Decode for OpMsg<S>
where
    S::Op: Decode,
{
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        let op = S::Op::decode(r)?;
        let ts = Timestamp::decode(r)?;
        Ok(OpMsg { op, ts })
    }
}

// ------------------------------------------------------------- spec messages

/// Declares the wire form of one enum: `wire_enum!{ Name { 0 =>
/// Variant(binders...) encode {..} decode {..}, ... } }` would be more
/// macro than clarity; the impls are written out by hand instead so the
/// tag table below is the documentation of record.
macro_rules! tag_err {
    ($what:literal, $tag:expr) => {
        Err(WireError::BadTag {
            what: $what,
            tag: $tag,
        })
    };
}

impl<V: Encode> Encode for RegOp<V> {
    fn encode(&self, w: &mut Wr) {
        match self {
            RegOp::Read => w.u8(0),
            RegOp::Write(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
}
impl<V: Decode> Decode for RegOp<V> {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        match r.u8("RegOp")? {
            0 => Ok(RegOp::Read),
            1 => Ok(RegOp::Write(V::decode(r)?)),
            tag => tag_err!("RegOp", tag),
        }
    }
}

impl<V: Encode> Encode for RegResp<V> {
    fn encode(&self, w: &mut Wr) {
        match self {
            RegResp::Value(v) => {
                w.u8(0);
                v.encode(w);
            }
            RegResp::Ack => w.u8(1),
        }
    }
}
impl<V: Decode> Decode for RegResp<V> {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        match r.u8("RegResp")? {
            0 => Ok(RegResp::Value(V::decode(r)?)),
            1 => Ok(RegResp::Ack),
            tag => tag_err!("RegResp", tag),
        }
    }
}

impl<V: Encode> Encode for QueueOp<V> {
    fn encode(&self, w: &mut Wr) {
        match self {
            QueueOp::Enqueue(v) => {
                w.u8(0);
                v.encode(w);
            }
            QueueOp::Dequeue => w.u8(1),
            QueueOp::Peek => w.u8(2),
            QueueOp::Len => w.u8(3),
        }
    }
}
impl<V: Decode> Decode for QueueOp<V> {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        match r.u8("QueueOp")? {
            0 => Ok(QueueOp::Enqueue(V::decode(r)?)),
            1 => Ok(QueueOp::Dequeue),
            2 => Ok(QueueOp::Peek),
            3 => Ok(QueueOp::Len),
            tag => tag_err!("QueueOp", tag),
        }
    }
}

impl<V: Encode> Encode for QueueResp<V> {
    fn encode(&self, w: &mut Wr) {
        match self {
            QueueResp::Ack => w.u8(0),
            QueueResp::Value(v) => {
                w.u8(1);
                v.encode(w);
            }
            QueueResp::Count(n) => {
                w.u8(2);
                w.len(*n);
            }
        }
    }
}
impl<V: Decode> Decode for QueueResp<V> {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        match r.u8("QueueResp")? {
            0 => Ok(QueueResp::Ack),
            1 => Ok(QueueResp::Value(Option::decode(r)?)),
            2 => Ok(QueueResp::Count(usize::decode(r)?)),
            tag => tag_err!("QueueResp", tag),
        }
    }
}

impl Encode for KvOp {
    fn encode(&self, w: &mut Wr) {
        match self {
            KvOp::Put { key, value } => {
                w.u8(0);
                w.i64(*key);
                w.i64(*value);
            }
            KvOp::Remove { key } => {
                w.u8(1);
                w.i64(*key);
            }
            KvOp::Get { key } => {
                w.u8(2);
                w.i64(*key);
            }
            KvOp::ContainsKey { key } => {
                w.u8(3);
                w.i64(*key);
            }
            KvOp::Len => w.u8(4),
        }
    }
}
impl Decode for KvOp {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        match r.u8("KvOp")? {
            0 => Ok(KvOp::Put {
                key: r.i64("Put::key")?,
                value: r.i64("Put::value")?,
            }),
            1 => Ok(KvOp::Remove {
                key: r.i64("Remove::key")?,
            }),
            2 => Ok(KvOp::Get {
                key: r.i64("Get::key")?,
            }),
            3 => Ok(KvOp::ContainsKey {
                key: r.i64("ContainsKey::key")?,
            }),
            4 => Ok(KvOp::Len),
            tag => tag_err!("KvOp", tag),
        }
    }
}

impl Encode for KvResp {
    fn encode(&self, w: &mut Wr) {
        match self {
            KvResp::Ack => w.u8(0),
            KvResp::Value(v) => {
                w.u8(1);
                v.encode(w);
            }
            KvResp::Present(p) => {
                w.u8(2);
                p.encode(w);
            }
            KvResp::Count(n) => {
                w.u8(3);
                w.len(*n);
            }
        }
    }
}
impl Decode for KvResp {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        match r.u8("KvResp")? {
            0 => Ok(KvResp::Ack),
            1 => Ok(KvResp::Value(Option::decode(r)?)),
            2 => Ok(KvResp::Present(bool::decode(r)?)),
            3 => Ok(KvResp::Count(usize::decode(r)?)),
            tag => tag_err!("KvResp", tag),
        }
    }
}

impl<O: Encode> Encode for NsOp<O> {
    fn encode(&self, w: &mut Wr) {
        w.u64(self.key);
        self.op.encode(w);
    }
}
impl<O: Decode> Decode for NsOp<O> {
    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        let key = r.u64("NsOp::key")?;
        let op = O::decode(r)?;
        Ok(NsOp::new(key, op))
    }
}

// ----------------------------------------------------------------- framing

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection handshake: the payload identifies the dialer (peer
    /// replica or client session).
    Hello,
    /// Replica-to-replica protocol messages; `batch` payload values
    /// follow, holding the consecutive ids `msg_id..msg_id + batch`.
    Peer,
    /// A client operation request; the payload is one encoded op.
    ClientReq,
    /// A client operation response; the payload is one encoded response.
    ClientResp,
    /// Administrative shutdown: the receiver drains and exits.
    Bye,
}

impl FrameKind {
    fn as_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::Peer => 1,
            FrameKind::ClientReq => 2,
            FrameKind::ClientResp => 3,
            FrameKind::Bye => 4,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(FrameKind::Hello),
            1 => Ok(FrameKind::Peer),
            2 => Ok(FrameKind::ClientReq),
            3 => Ok(FrameKind::ClientResp),
            4 => Ok(FrameKind::Bye),
            tag => tag_err!("FrameKind", tag),
        }
    }
}

/// The fixed-size versioned frame header (see the module docs for the
/// grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload discriminator.
    pub kind: FrameKind,
    /// Sender-allocated message id (first id of a batch). Receivers
    /// deduplicate on it: reconnect resends are at-least-once, and the
    /// per-sender watermark makes delivery exactly-once.
    pub msg_id: u64,
    /// Send instant in microseconds on the cluster's shared timebase.
    pub sent_at_micros: u64,
    /// Injected artificial delay: the receiver holds the frame until
    /// `sent_at_micros + delay_micros`, reproducing the `[d − u, d]`
    /// admissible window over a much faster wire. Zero for
    /// client/handshake frames.
    pub delay_micros: u32,
    /// Number of payload values following the header.
    pub batch: u32,
}

/// Bytes of the encoded header.
pub const HEADER_LEN: usize = 28;

impl FrameHeader {
    fn encode(&self, w: &mut Wr) {
        w.u16(MAGIC);
        w.u8(VERSION);
        w.u8(self.kind.as_u8());
        w.u64(self.msg_id);
        w.u64(self.sent_at_micros);
        w.u32(self.delay_micros);
        w.u32(self.batch);
    }

    fn decode(r: &mut Rd<'_>) -> Result<Self, WireError> {
        let magic = r.u16("magic")?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.u8("version")?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = FrameKind::from_u8(r.u8("kind")?)?;
        Ok(FrameHeader {
            kind,
            msg_id: r.u64("msg_id")?,
            sent_at_micros: r.u64("sent_at_micros")?,
            delay_micros: r.u32("delay_micros")?,
            batch: r.u32("batch")?,
        })
    }
}

/// Encodes a complete frame — length prefix, header, payload — ready
/// for the socket.
///
/// # Panics
///
/// Panics if the body would exceed [`MAX_FRAME_LEN`] (a programming
/// error on the send side; the receive side returns
/// [`WireError::FrameTooLarge`] instead).
#[must_use]
pub fn encode_frame(header: &FrameHeader, payload: &[u8]) -> Vec<u8> {
    let body_len = HEADER_LEN + payload.len();
    assert!(
        body_len <= MAX_FRAME_LEN,
        "frame body of {body_len} bytes exceeds MAX_FRAME_LEN"
    );
    let mut w = Wr::with_capacity(4 + body_len);
    w.u32(u32::try_from(body_len).expect("bounded by MAX_FRAME_LEN"));
    header.encode(&mut w);
    w.raw(payload);
    w.into_bytes()
}

/// Decodes a frame *body* (the bytes after the length prefix) into its
/// header and payload slice.
pub fn decode_frame(body: &[u8]) -> Result<(FrameHeader, &[u8]), WireError> {
    if body.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(body.len()));
    }
    let mut r = Rd::new(body);
    let header = FrameHeader::decode(&mut r)?;
    let payload = &body[HEADER_LEN..];
    Ok((header, payload))
}

/// Reassembles length-prefixed frames from a byte stream that arrives
/// split at arbitrary points: bytes go in through [`FrameBuf::feed`],
/// whole frame bodies come out of [`FrameBuf::pop`], and a partial frame
/// waits here for the rest, however many reads that takes.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` that were already popped.
    popped: usize,
}

impl FrameBuf {
    /// Appends bytes read from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.popped);
        self.popped = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next whole frame body (the bytes after the length
    /// prefix), or `None` until all of it has been fed.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] as soon as a length prefix exceeds
    /// [`MAX_FRAME_LEN`], before anything is allocated for the body. The
    /// stream cannot be resynchronised after that.
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let pending = &self.buf[self.popped..];
        let Some(prefix) = pending.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge(len));
        }
        let Some(body) = pending.get(4..4 + len) else {
            return Ok(None);
        };
        let body = body.to_vec();
        self.popped += 4 + len;
        Ok(Some(body))
    }
}

/// Encodes `values` back-to-back (the payload of a `batch`-count frame).
#[must_use]
pub fn encode_batch<T: Encode>(values: &[T]) -> Vec<u8> {
    let mut w = Wr::new();
    for v in values {
        v.encode(&mut w);
    }
    w.into_bytes()
}

/// Decodes exactly `count` back-to-back values (a frame payload).
pub fn decode_batch<T: Decode>(payload: &[u8], count: usize) -> Result<Vec<T>, WireError> {
    let mut r = Rd::new(payload);
    let mut out = Vec::with_capacity(count.min(payload.len() + 1));
    for _ in 0..count {
        out.push(T::decode(&mut r)?);
    }
    r.finish()?;
    Ok(out)
}
