//! The wire format and buffer lifecycle: length-prefixed binary frames.
//!
//! Every FRAME transport speaks the same framing: a little-endian `u32`
//! length prefix followed by a binary body whose first byte is a message
//! tag. This module owns that format end to end — the message vocabulary
//! ([`WireMsg`], [`BackupEffect`]), the one encoder
//! ([`WireMsg::append_frame`]) and the one decoder ([`WireMsg::decode`]) —
//! and makes the byte lifecycle around it explicit:
//!
//! - [`EncodedFrame`] — one frame, fully assembled (prefix + body) in a
//!   refcounted [`Bytes`]. Produced **once** per outbound message and
//!   shared by every write path that carries it: a fan-out of N
//!   subscribers clones the handle (a refcount bump), never re-encodes.
//! - [`WireCodec`] — the encoder. Owns one reusable scratch buffer so a
//!   warm codec encodes without growing the heap; the buffer can be
//!   rented from a [`BufferPool`] and returned when a connection closes.
//! - [`FrameSink`] — the one queueing API both delivery write paths
//!   (the threaded per-connection writer and the reactor's byte-bounded
//!   write queues) implement, so drop accounting and flush semantics have
//!   a single surface.
//! - [`FrameWriteQueue`] — the [`FrameSink`] implementation: a FIFO of
//!   [`EncodedFrame`]s flushed with `writev`-style vectored writes
//!   ([`FrameWriteQueue::write_vectored_some`]), resuming cleanly across
//!   partial writes.
//! - [`BufferPool`] — a fixed free-list of scratch buffers with counted,
//!   graceful fallback to the global allocator when exhausted.
//!
//! # Layout
//!
//! A frame is `[u32 LE body len][u8 tag][fields]`; every integer is
//! little-endian at its Rust width. A [`Message`] is `topic u32,
//! publisher u32, seq u64, created_at u64 (ns), trace flag u8` (0 or 1),
//! then five `u64` span stamps when the flag is 1, then `payload len u32`
//! and the raw payload bytes. DESIGN.md §15 has the tag table.
//!
//! Decoding is total: every read is bounds-checked, every length or count
//! is checked against the bytes left in the body before anything is
//! reserved, and an unknown tag, a short body or trailing bytes is a
//! [`DecodeError`] — never a panic.
//!
//! This crate stays passive — no threads, no sockets; the queue writes
//! into any [`std::io::Write`] the runtime hands it.

use std::collections::VecDeque;
use std::io::{IoSlice, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;

use crate::ids::{PublisherId, SeqNo, SubscriberId, TopicId};
use crate::message::{Message, MessageKey};
use crate::time::Time;
use crate::trace::{SpanPoint, TraceCtx};

/// Sanity limit on a frame body: a length prefix above this is treated as
/// stream corruption, not a real frame. Shared by every encoder and
/// decoder in the workspace.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Messages on the wire: the broker's channel protocol plus the
/// subscriber-side and control-plane frames.
#[derive(Debug, PartialEq)]
pub enum WireMsg {
    /// Publisher → broker: a published message.
    Publish(Message),
    /// Publisher → broker: a retention re-send during fail-over.
    Resend(Message),
    /// Primary → Backup: a replica.
    Replica(Message),
    /// Primary → Backup: a prune request.
    Prune(MessageKey),
    /// Primary → Backup: a coalesced run of replicas/prunes, in the
    /// Primary's emission order. One frame (one syscall) instead of one
    /// per effect when the replication channel runs hot.
    ReplicaBatch(Vec<BackupEffect>),
    /// Liveness poll with a correlation token.
    Poll(u64),
    /// Poll acknowledgement.
    PollAck(u64),
    /// Client → broker: subscribe this connection for a subscriber id
    /// (deliveries flow back as [`WireMsg::Deliver`]).
    Subscribe(SubscriberId),
    /// Broker → subscriber connection: a delivery.
    Deliver(Message),
    /// Control plane: promote this (Backup) broker to Primary. Sent by a
    /// fail-over coordinator once the Primary is declared crashed.
    Promote,
    /// Control plane: acknowledgement of a promotion (number of recovery
    /// dispatches created).
    Promoted(u64),
    /// Control plane: request the broker's live telemetry snapshot.
    Stats,
    /// Control plane: the telemetry snapshot as compact JSON text
    /// (`frame_telemetry::to_json`), carried as raw UTF-8 — parse with
    /// `frame_telemetry::from_json` and render in any format client-side.
    StatsJson(String),
    /// Control plane: request the broker's flight-recorder snapshot (the
    /// ring of recent per-message span timelines plus incidents).
    Trace,
    /// Control plane: the flight-recorder snapshot as compact JSON text
    /// (`frame_telemetry::flight_to_json`) — parse with
    /// `frame_telemetry::flight_from_json`.
    TraceJson(String),
}

/// One Primary→Backup coordination effect, as carried in a batch.
///
/// Within a batch, order is the Primary's Table-3 order for each topic; a
/// receiver must apply effects in sequence.
#[derive(Clone, Debug, PartialEq)]
pub enum BackupEffect {
    /// Store a replica of the message.
    Replica(Message),
    /// Mark the copy for `key` as `Discard`.
    Prune(MessageKey),
}

/// Body tags, one per [`WireMsg`] variant; a batch effect reuses the
/// `REPLICA`/`PRUNE` tags. Zero is never a tag, and neither is `{` (0x7B)
/// nor `"` (0x22), so a stale JSON peer's frames decode as unknown tags.
mod tag {
    pub const PUBLISH: u8 = 1;
    pub const RESEND: u8 = 2;
    pub const REPLICA: u8 = 3;
    pub const PRUNE: u8 = 4;
    pub const REPLICA_BATCH: u8 = 5;
    pub const POLL: u8 = 6;
    pub const POLL_ACK: u8 = 7;
    pub const SUBSCRIBE: u8 = 8;
    pub const DELIVER: u8 = 9;
    pub const PROMOTE: u8 = 10;
    pub const PROMOTED: u8 = 11;
    pub const STATS: u8 = 12;
    pub const STATS_JSON: u8 = 13;
    pub const TRACE: u8 = 14;
    pub const TRACE_JSON: u8 = 15;
}

/// Span stamps carried by a traced message.
const TRACE_STAMPS: usize = SpanPoint::ALL.len();
/// A message without trace or payload: ids, seq, `created_at`, trace
/// flag and payload length.
const MESSAGE_FIXED_LEN: usize = 4 + 4 + 8 + 8 + 1 + 4;
/// A [`MessageKey`]: topic and seq.
const KEY_LEN: usize = 4 + 8;
/// The smallest batch effect (a tagged prune); bounds a batch count by
/// the bytes left in the body.
const MIN_EFFECT_LEN: usize = 1 + KEY_LEN;

fn message_len(m: &Message) -> usize {
    let trace = m.trace.map_or(0, |_| 8 * TRACE_STAMPS);
    MESSAGE_FIXED_LEN + trace + m.payload.len()
}

fn effect_len(e: &BackupEffect) -> usize {
    1 + match e {
        BackupEffect::Replica(m) => message_len(m),
        BackupEffect::Prune(_) => KEY_LEN,
    }
}

/// Writes a length or count as `u32`. Callers bound every length by
/// [`MAX_FRAME_LEN`] before writing, so the conversion cannot fail.
fn put_len(out: &mut Vec<u8>, len: usize) {
    let len = u32::try_from(len).expect("lengths are bounded by MAX_FRAME_LEN");
    out.extend_from_slice(&len.to_le_bytes());
}

fn put_key(out: &mut Vec<u8>, k: &MessageKey) {
    out.extend_from_slice(&k.topic.0.to_le_bytes());
    out.extend_from_slice(&k.seq.0.to_le_bytes());
}

fn put_message(out: &mut Vec<u8>, m: &Message) {
    out.extend_from_slice(&m.topic.0.to_le_bytes());
    out.extend_from_slice(&m.publisher.0.to_le_bytes());
    out.extend_from_slice(&m.seq.0.to_le_bytes());
    out.extend_from_slice(&m.created_at.as_nanos().to_le_bytes());
    match &m.trace {
        None => out.push(0),
        Some(trace) => {
            out.push(1);
            for stamp in trace.stamps() {
                out.extend_from_slice(&stamp.to_le_bytes());
            }
        }
    }
    put_len(out, m.payload.len());
    out.extend_from_slice(&m.payload);
}

impl WireMsg {
    fn tag(&self) -> u8 {
        match self {
            WireMsg::Publish(_) => tag::PUBLISH,
            WireMsg::Resend(_) => tag::RESEND,
            WireMsg::Replica(_) => tag::REPLICA,
            WireMsg::Prune(_) => tag::PRUNE,
            WireMsg::ReplicaBatch(_) => tag::REPLICA_BATCH,
            WireMsg::Poll(_) => tag::POLL,
            WireMsg::PollAck(_) => tag::POLL_ACK,
            WireMsg::Subscribe(_) => tag::SUBSCRIBE,
            WireMsg::Deliver(_) => tag::DELIVER,
            WireMsg::Promote => tag::PROMOTE,
            WireMsg::Promoted(_) => tag::PROMOTED,
            WireMsg::Stats => tag::STATS,
            WireMsg::StatsJson(_) => tag::STATS_JSON,
            WireMsg::Trace => tag::TRACE,
            WireMsg::TraceJson(_) => tag::TRACE_JSON,
        }
    }

    /// Encoded body length: the tag plus the fields.
    fn body_len(&self) -> usize {
        1 + match self {
            WireMsg::Publish(m)
            | WireMsg::Resend(m)
            | WireMsg::Replica(m)
            | WireMsg::Deliver(m) => message_len(m),
            WireMsg::Prune(_) => KEY_LEN,
            WireMsg::ReplicaBatch(batch) => 4 + batch.iter().map(effect_len).sum::<usize>(),
            WireMsg::Poll(_) | WireMsg::PollAck(_) | WireMsg::Promoted(_) => 8,
            WireMsg::Subscribe(_) => 4,
            WireMsg::Promote | WireMsg::Stats | WireMsg::Trace => 0,
            WireMsg::StatsJson(text) | WireMsg::TraceJson(text) => 4 + text.len(),
        }
    }

    /// Appends this message's complete frame — `[u32 LE body len][body]`
    /// — to `out`. The body is sized first, so `out` grows at most once.
    ///
    /// # Errors
    ///
    /// A body over [`MAX_FRAME_LEN`] is `InvalidData`, and nothing is
    /// appended.
    pub fn append_frame(&self, out: &mut Vec<u8>) -> std::io::Result<()> {
        let len = self.body_len();
        if len > MAX_FRAME_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "frame too large",
            ));
        }
        out.reserve(4 + len);
        put_len(out, len);
        out.push(self.tag());
        match self {
            WireMsg::Publish(m)
            | WireMsg::Resend(m)
            | WireMsg::Replica(m)
            | WireMsg::Deliver(m) => put_message(out, m),
            WireMsg::Prune(k) => put_key(out, k),
            WireMsg::ReplicaBatch(batch) => {
                put_len(out, batch.len());
                for effect in batch {
                    match effect {
                        BackupEffect::Replica(m) => {
                            out.push(tag::REPLICA);
                            put_message(out, m);
                        }
                        BackupEffect::Prune(k) => {
                            out.push(tag::PRUNE);
                            put_key(out, k);
                        }
                    }
                }
            }
            WireMsg::Poll(n) | WireMsg::PollAck(n) | WireMsg::Promoted(n) => {
                out.extend_from_slice(&n.to_le_bytes())
            }
            WireMsg::Subscribe(id) => out.extend_from_slice(&id.0.to_le_bytes()),
            WireMsg::Promote | WireMsg::Stats | WireMsg::Trace => {}
            WireMsg::StatsJson(text) | WireMsg::TraceJson(text) => {
                put_len(out, text.len());
                out.extend_from_slice(text.as_bytes());
            }
        }
        Ok(())
    }

    /// Decodes one frame body (the bytes after the length prefix). A
    /// payload is copied once, into its own [`Bytes`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for an unknown tag, a body shorter than its fields
    /// or than a length or count it declares, an out-of-domain field, or
    /// trailing bytes. No memory is reserved for a length or count the
    /// body cannot hold.
    pub fn decode(body: &[u8]) -> Result<WireMsg, DecodeError> {
        let mut r = Reader { rest: body };
        let msg = match r.u8()? {
            tag::PUBLISH => WireMsg::Publish(r.message()?),
            tag::RESEND => WireMsg::Resend(r.message()?),
            tag::REPLICA => WireMsg::Replica(r.message()?),
            tag::PRUNE => WireMsg::Prune(r.key()?),
            tag::REPLICA_BATCH => {
                let count = r.u32()? as usize;
                if count > r.rest.len() / MIN_EFFECT_LEN {
                    return Err(DecodeError::Truncated);
                }
                // Grown per decoded effect, not reserved from `count`: an
                // in-range count over junk must not reserve `count`
                // in-memory effects (several times the body's size).
                let mut batch = Vec::new();
                for _ in 0..count {
                    batch.push(match r.u8()? {
                        tag::REPLICA => BackupEffect::Replica(r.message()?),
                        tag::PRUNE => BackupEffect::Prune(r.key()?),
                        other => return Err(DecodeError::UnknownTag(other)),
                    });
                }
                WireMsg::ReplicaBatch(batch)
            }
            tag::POLL => WireMsg::Poll(r.u64()?),
            tag::POLL_ACK => WireMsg::PollAck(r.u64()?),
            tag::SUBSCRIBE => WireMsg::Subscribe(SubscriberId(r.u32()?)),
            tag::DELIVER => WireMsg::Deliver(r.message()?),
            tag::PROMOTE => WireMsg::Promote,
            tag::PROMOTED => WireMsg::Promoted(r.u64()?),
            tag::STATS => WireMsg::Stats,
            tag::STATS_JSON => WireMsg::StatsJson(r.text()?),
            tag::TRACE => WireMsg::Trace,
            tag::TRACE_JSON => WireMsg::TraceJson(r.text()?),
            other => return Err(DecodeError::UnknownTag(other)),
        };
        match r.rest.len() {
            0 => Ok(msg),
            n => Err(DecodeError::Trailing(n)),
        }
    }
}

/// Why a frame body did not decode. The frame itself was consumed whole,
/// so the stream stays frame-aligned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The body ends before a field, or before the bytes a length or
    /// count declares.
    Truncated,
    /// The body's (or a batch effect's) tag names no message — including
    /// tag 0 and a stale JSON peer's leading `{` or `"`.
    UnknownTag(u8),
    /// A field holds a value outside its domain.
    Invalid(&'static str),
    /// Bytes remain after a complete message.
    Trailing(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("body truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown tag {t:#04x}"),
            DecodeError::Invalid(what) => write!(f, "invalid {what}"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over one frame body.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.rest.len() {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` length followed by that many bytes.
    fn sized(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn text(&mut self) -> Result<String, DecodeError> {
        std::str::from_utf8(self.sized()?)
            .map(str::to_owned)
            .map_err(|_| DecodeError::Invalid("text (not UTF-8)"))
    }

    fn key(&mut self) -> Result<MessageKey, DecodeError> {
        Ok(MessageKey {
            topic: TopicId(self.u32()?),
            seq: SeqNo(self.u64()?),
        })
    }

    fn message(&mut self) -> Result<Message, DecodeError> {
        let topic = TopicId(self.u32()?);
        let publisher = PublisherId(self.u32()?);
        let seq = SeqNo(self.u64()?);
        let created_at = Time::from_nanos(self.u64()?);
        let trace = match self.u8()? {
            0 => None,
            1 => {
                let mut stamps = [0u64; TRACE_STAMPS];
                for stamp in &mut stamps {
                    *stamp = self.u64()?;
                }
                Some(TraceCtx::from_stamps(stamps))
            }
            _ => return Err(DecodeError::Invalid("trace flag")),
        };
        let payload = Bytes::copy_from_slice(self.sized()?);
        Ok(Message {
            topic,
            publisher,
            seq,
            created_at,
            payload,
            trace,
        })
    }
}

/// Frames encoded process-wide (every [`EncodedFrame`] construction).
/// Tests assert fan-out shares one encode by diffing this counter.
static ENCODED_FRAMES: AtomicU64 = AtomicU64::new(0);

/// Total [`EncodedFrame`]s produced since process start.
pub fn encoded_frame_count() -> u64 {
    ENCODED_FRAMES.load(Ordering::Relaxed)
}

/// One outbound frame: length prefix and body assembled in a single
/// refcounted buffer. Cloning is a refcount bump; the bytes are immutable
/// and identical on every connection that writes them.
#[derive(Clone, Debug)]
pub struct EncodedFrame {
    bytes: Bytes,
}

impl EncodedFrame {
    /// Encodes `msg` into a fresh frame. Hot paths that encode repeatedly
    /// should prefer [`WireCodec::encode`], which assembles in reusable
    /// scratch and allocates only the shared buffer.
    ///
    /// # Errors
    ///
    /// A body over [`MAX_FRAME_LEN`] is `InvalidData`.
    pub fn encode(msg: &WireMsg) -> std::io::Result<EncodedFrame> {
        let mut buf = Vec::new();
        msg.append_frame(&mut buf)?;
        Ok(EncodedFrame::from_assembled(Bytes::from(buf)))
    }

    /// Wraps an already-assembled `[prefix][body]` buffer. The caller
    /// guarantees the layout ([`WireCodec`] is the in-tree caller).
    fn from_assembled(bytes: Bytes) -> EncodedFrame {
        ENCODED_FRAMES.fetch_add(1, Ordering::Relaxed);
        EncodedFrame { bytes }
    }

    /// The full frame: prefix and body.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_ref()
    }

    /// The body (prefix stripped).
    pub fn body(&self) -> &[u8] {
        &self.bytes.as_ref()[4..]
    }

    /// Total frame length in bytes (prefix included).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the frame is empty (never true for an encoded frame).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes the body back into a [`WireMsg`] (tests and loopback
    /// shortcuts).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the body is malformed.
    pub fn decode(&self) -> Result<WireMsg, DecodeError> {
        WireMsg::decode(self.body())
    }

    /// Writes the whole frame with one `write_all` (one syscall on an
    /// unbuffered socket).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        writer.write_all(self.bytes.as_ref())
    }
}

/// Largest scratch capacity a [`WireCodec`] keeps between frames. A frame
/// beyond it (bodies may reach [`MAX_FRAME_LEN`]) is assembled in a
/// buffer that is freed right after, so one huge frame cannot pin up to
/// 16 MiB for the life of a long-lived codec.
pub const SCRATCH_RETAIN_CAP: usize = 64 * 1024;

/// The frame encoder: one reusable scratch buffer for frame assembly, so
/// a warm codec encodes without touching the allocator for its own
/// bookkeeping (the shared [`EncodedFrame`] buffer is the one unavoidable
/// allocation, and inline writes avoid even that).
#[derive(Debug, Default)]
pub struct WireCodec {
    /// Frame assembly scratch (`[prefix][body]`), reused across frames.
    frame: Vec<u8>,
}

impl WireCodec {
    /// A codec with an empty scratch buffer (it warms up on first use).
    pub fn new() -> WireCodec {
        WireCodec::default()
    }

    /// A codec over a rented scratch buffer (see [`BufferPool`]); return
    /// it with [`WireCodec::into_buffer`] when the connection closes.
    pub fn with_buffer(mut frame: Vec<u8>) -> WireCodec {
        frame.clear();
        WireCodec { frame }
    }

    /// Surrenders the scratch buffer for pooling.
    pub fn into_buffer(self) -> Vec<u8> {
        self.frame
    }

    /// Assembles `msg` in the scratch; returns the frame as a slice valid
    /// until the next encode.
    fn assemble(&mut self, msg: &WireMsg) -> std::io::Result<&[u8]> {
        self.frame.clear();
        msg.append_frame(&mut self.frame)?;
        Ok(&self.frame)
    }

    /// Encodes `msg` into a shareable [`EncodedFrame`]: assembly runs in
    /// the reusable scratch, then one allocation copies the frame into
    /// the shared refcounted buffer.
    ///
    /// # Errors
    ///
    /// An oversized body is `InvalidData`.
    pub fn encode(&mut self, msg: &WireMsg) -> std::io::Result<EncodedFrame> {
        let frame = EncodedFrame::from_assembled(Bytes::copy_from_slice(self.assemble(msg)?));
        self.trim();
        Ok(frame)
    }

    /// Encodes `msg` and writes it inline with one `write_all` — the
    /// allocation-free path for frames that go to exactly one writer
    /// (publisher sends, control responses).
    ///
    /// # Errors
    ///
    /// Propagates encoding and socket errors.
    pub fn encode_into<W: Write>(&mut self, writer: &mut W, msg: &WireMsg) -> std::io::Result<()> {
        let written = writer.write_all(self.assemble(msg)?);
        self.trim();
        written
    }

    /// Frees a scratch that the last frame grew past [`SCRATCH_RETAIN_CAP`].
    fn trim(&mut self) {
        if self.frame.capacity() > SCRATCH_RETAIN_CAP {
            self.frame = Vec::new();
        }
    }
}

/// The queueing API shared by every delivery write path. Delivery frames
/// respect the sink's byte bound (a slow consumer drops its own frames);
/// control responses are always accepted (the client asked, so the answer
/// is bounded by the request rate).
pub trait FrameSink {
    /// Queues a delivery frame; `false` means the sink's byte cap would be
    /// exceeded and the frame was dropped (the caller counts it).
    fn push_delivery(&mut self, frame: EncodedFrame) -> bool;
    /// Queues a control frame unconditionally.
    fn push_control(&mut self, frame: EncodedFrame);
    /// Bytes currently queued.
    fn queued_bytes(&self) -> usize;
    /// Whether nothing is queued.
    fn is_empty(&self) -> bool;
}

/// Upper bound on frames submitted to one vectored write. Linux caps
/// `writev` at `IOV_MAX` (1024); 64 already amortizes the syscall while
/// keeping the stack array small.
const MAX_WRITE_VECTORS: usize = 64;

/// A FIFO of [`EncodedFrame`]s with byte-bounded delivery admission,
/// vectored flushing and partial-write resume.
#[derive(Debug)]
pub struct FrameWriteQueue {
    frames: VecDeque<EncodedFrame>,
    /// Bytes of the front frame already written (partial-write resume).
    front_pos: usize,
    bytes: usize,
    cap: usize,
}

impl FrameWriteQueue {
    /// A queue dropping delivery frames beyond `cap` queued bytes.
    pub fn bounded(cap: usize) -> FrameWriteQueue {
        FrameWriteQueue {
            frames: VecDeque::new(),
            front_pos: 0,
            bytes: 0,
            cap,
        }
    }

    /// A queue that never drops (blocking write paths, where the flush
    /// itself is the backpressure).
    pub fn unbounded() -> FrameWriteQueue {
        FrameWriteQueue::bounded(usize::MAX)
    }

    /// Queued frame count.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when nothing is queued (the [`FrameSink`] impl delegates
    /// here).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Writes as much as the socket accepts using vectored writes — up to
    /// [`MAX_WRITE_VECTORS`] queued frames leave per syscall, the first
    /// offset by the partial-write position. Returns `(drained, syscalls)`
    /// so callers can attribute kernel writes to their role.
    ///
    /// # Errors
    ///
    /// A socket that accepts zero bytes is `WriteZero`; other socket
    /// errors propagate. `WouldBlock` is not an error — it returns
    /// `Ok((false, syscalls))` with the remainder still queued.
    pub fn write_vectored_some<W: Write>(
        &mut self,
        writer: &mut W,
    ) -> std::io::Result<(bool, u64)> {
        let mut syscalls = 0u64;
        while !self.frames.is_empty() {
            let wrote = {
                let mut bufs = [IoSlice::new(&[]); MAX_WRITE_VECTORS];
                let mut n = 0;
                for (i, frame) in self.frames.iter().take(MAX_WRITE_VECTORS).enumerate() {
                    let slice = frame.as_bytes();
                    bufs[n] = IoSlice::new(if i == 0 {
                        &slice[self.front_pos..]
                    } else {
                        slice
                    });
                    n += 1;
                }
                syscalls += 1;
                writer.write_vectored(&bufs[..n])
            };
            match wrote {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ))
                }
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok((false, syscalls))
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok((true, syscalls))
    }

    /// Flushes until fully drained (blocking writers: the socket itself is
    /// the backpressure). Returns the number of kernel writes used.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (including `WriteZero`).
    pub fn flush_blocking<W: Write>(&mut self, writer: &mut W) -> std::io::Result<u64> {
        let mut syscalls = 0u64;
        loop {
            let (drained, calls) = self.write_vectored_some(writer)?;
            syscalls += calls;
            if drained {
                return Ok(syscalls);
            }
            // A blocking socket only reports WouldBlock under a write
            // timeout; yield to it by retrying (the vectored write blocks).
        }
    }

    /// Advances the queue past `n` written bytes, dropping fully-written
    /// frames and recording the partial position of the new front.
    /// `bytes` tracks *unwritten* bytes, so partially-written frames stop
    /// counting against the admission cap as they leave.
    fn consume(&mut self, mut n: usize) {
        while n > 0 {
            let Some(front) = self.frames.front() else {
                debug_assert!(false, "consumed more bytes than queued");
                self.bytes = 0;
                self.front_pos = 0;
                return;
            };
            let remaining = front.len() - self.front_pos;
            let take = n.min(remaining);
            self.bytes -= take;
            n -= take;
            if take == remaining {
                self.front_pos = 0;
                self.frames.pop_front();
            } else {
                self.front_pos += take;
            }
        }
    }
}

impl FrameSink for FrameWriteQueue {
    fn push_delivery(&mut self, frame: EncodedFrame) -> bool {
        if self.bytes + frame.len() > self.cap {
            return false;
        }
        self.push_control(frame);
        true
    }

    fn push_control(&mut self, frame: EncodedFrame) {
        self.bytes += frame.len();
        self.frames.push_back(frame);
    }

    fn queued_bytes(&self) -> usize {
        self.bytes
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Counters describing a [`BufferPool`]'s behaviour since creation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `get` calls served from the free-list.
    pub hits: u64,
    /// `get` calls that fell back to the allocator (pool empty). A miss is
    /// counted, never an error: exhaustion degrades to plain allocation.
    pub misses: u64,
    /// Buffers returned to the free-list by `put`.
    pub returns: u64,
    /// Buffers dropped by `put` (free-list full, or buffer over the
    /// retention cap — one huge frame must not pin its buffer forever).
    pub discards: u64,
}

/// A fixed free-list of scratch buffers (decoder bodies, codec scratch).
///
/// `get` pops a warm buffer or — when the pool is empty — falls back to
/// the global allocator, counting the miss. `put` returns a buffer unless
/// the list is full or the buffer outgrew the retention cap. All paths are
/// non-panicking; exhaustion is a counter, not a failure.
#[derive(Debug)]
pub struct BufferPool {
    slots: Mutex<Vec<Vec<u8>>>,
    max_slots: usize,
    /// Buffers with capacity above this are not retained on `put`.
    retain_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
}

impl BufferPool {
    /// A pool retaining up to `max_slots` buffers of at most `retain_cap`
    /// capacity each. Usable in statics.
    pub const fn new(max_slots: usize, retain_cap: usize) -> BufferPool {
        BufferPool {
            slots: Mutex::new(Vec::new()),
            max_slots,
            retain_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            discards: AtomicU64::new(0),
        }
    }

    /// A cleared scratch buffer: pooled when available, freshly allocated
    /// (and counted as a miss) when not. Returns whether it was a hit
    /// alongside the buffer so callers can mirror the counter into
    /// telemetry.
    pub fn get(&self) -> (Vec<u8>, bool) {
        let pooled = self.slots.lock().ok().and_then(|mut slots| slots.pop());
        match pooled {
            Some(mut buf) => {
                buf.clear();
                self.hits.fetch_add(1, Ordering::Relaxed);
                (buf, true)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                (Vec::new(), false)
            }
        }
    }

    /// Returns a buffer to the free-list; oversized buffers and overflow
    /// beyond `max_slots` are dropped (counted). Returns whether the
    /// buffer was retained.
    pub fn put(&self, buf: Vec<u8>) -> bool {
        if buf.capacity() <= self.retain_cap {
            if let Ok(mut slots) = self.slots.lock() {
                if slots.len() < self.max_slots {
                    slots.push(buf);
                    self.returns.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
        self.discards.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Buffers currently on the free-list.
    pub fn available(&self) -> usize {
        self.slots.lock().map(|s| s.len()).unwrap_or(0)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            discards: self.discards.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(i: u32) -> WireMsg {
        WireMsg::Publish(Message::new(
            TopicId(i),
            PublisherId(2),
            SeqNo(u64::from(i)),
            Time::from_nanos(7),
            format!("payload-{i}").into_bytes(),
        ))
    }

    #[test]
    fn encoded_frame_layout_and_roundtrip() {
        let frame = EncodedFrame::encode(&probe(7)).unwrap();
        let bytes = frame.as_bytes();
        assert_eq!(
            bytes[..4],
            (bytes.len() as u32 - 4).to_le_bytes(),
            "prefix counts the body only"
        );
        assert_eq!(frame.body(), &bytes[4..]);
        assert_eq!(frame.decode().unwrap(), probe(7));
    }

    #[test]
    fn message_layout_is_pinned_byte_for_byte() {
        let mut m = Message::new(
            TopicId(0x0102_0304),
            PublisherId(5),
            SeqNo(6),
            Time::from_nanos(7),
            &b"xy"[..],
        );
        let mut frame = Vec::new();
        WireMsg::Deliver(m.clone())
            .append_frame(&mut frame)
            .unwrap();
        let mut expect = vec![32, 0, 0, 0, tag::DELIVER, 4, 3, 2, 1, 5, 0, 0, 0];
        expect.extend_from_slice(&6u64.to_le_bytes());
        expect.extend_from_slice(&7u64.to_le_bytes());
        expect.push(0); // no trace
        expect.extend_from_slice(&[2, 0, 0, 0, b'x', b'y']);
        assert_eq!(frame, expect);

        // A trace adds its flag and five stamps, in SpanPoint order.
        let mut trace = TraceCtx::new();
        trace.stamp(SpanPoint::Popped, Time::from_nanos(9));
        m.trace = Some(trace);
        frame.clear();
        WireMsg::Deliver(m).append_frame(&mut frame).unwrap();
        assert_eq!(frame.len(), expect.len() + 8 * TRACE_STAMPS);
        assert_eq!(frame[29], 1, "trace flag");
        assert_eq!(frame[30 + 16..30 + 24], 9u64.to_le_bytes());
    }

    #[test]
    fn control_text_travels_raw_not_escaped() {
        let json = r#"{"a":"b\"c"}"#.to_owned();
        let frame = EncodedFrame::encode(&WireMsg::StatsJson(json.clone())).unwrap();
        assert_eq!(frame.body()[0], tag::STATS_JSON);
        assert_eq!(frame.body()[1..5], (json.len() as u32).to_le_bytes());
        assert_eq!(&frame.body()[5..], json.as_bytes());
        assert_eq!(frame.decode().unwrap(), WireMsg::StatsJson(json));
    }

    #[test]
    fn malformed_bodies_are_errors() {
        let mut body = EncodedFrame::encode(&probe(1)).unwrap().body().to_vec();
        assert_eq!(WireMsg::decode(&[]), Err(DecodeError::Truncated));
        // Stale JSON peers and unassigned tags.
        for first in [b'{', b'"', 0, 16, 0xFF] {
            assert_eq!(
                WireMsg::decode(&[first, 1, 2]),
                Err(DecodeError::UnknownTag(first))
            );
        }
        body.push(0);
        assert_eq!(WireMsg::decode(&body), Err(DecodeError::Trailing(1)));
        body.pop();
        body[1 + 24] = 2;
        assert_eq!(
            WireMsg::decode(&body),
            Err(DecodeError::Invalid("trace flag"))
        );
        let text = [tag::TRACE_JSON, 2, 0, 0, 0, 0xC3, 0x28];
        assert!(matches!(
            WireMsg::decode(&text),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn codec_matches_standalone_encode_bit_for_bit() {
        let mut codec = WireCodec::new();
        for i in 0..3 {
            let via_codec = codec.encode(&probe(i)).unwrap();
            let standalone = EncodedFrame::encode(&probe(i)).unwrap();
            assert_eq!(via_codec.as_bytes(), standalone.as_bytes());
            let mut inline = Vec::new();
            codec.encode_into(&mut inline, &probe(i)).unwrap();
            assert_eq!(inline, standalone.as_bytes());
        }
    }

    #[test]
    fn codec_frees_scratch_grown_by_an_oversized_frame() {
        let huge = WireMsg::Deliver(Message::new(
            TopicId(1),
            PublisherId(2),
            SeqNo(3),
            Time::from_nanos(7),
            vec![0xAB; 4 * SCRATCH_RETAIN_CAP],
        ));
        let mut codec = WireCodec::new();
        let frame = codec.encode(&huge).unwrap();
        assert_eq!(frame.decode().unwrap(), huge);
        let mut inline = Vec::new();
        codec.encode_into(&mut inline, &huge).unwrap();
        assert_eq!(inline, frame.as_bytes());
        assert!(codec.into_buffer().capacity() <= SCRATCH_RETAIN_CAP);
        // Frames under the cap keep their warm scratch.
        let mut codec = WireCodec::new();
        codec.encode(&probe(1)).unwrap();
        assert!(codec.into_buffer().capacity() > 0);
    }

    #[test]
    fn codec_scratch_rents_and_returns() {
        let pool = BufferPool::new(4, 1 << 20);
        let (frame, hit) = pool.get();
        assert!(!hit, "fresh pool misses");
        let mut codec = WireCodec::with_buffer(frame);
        let encoded = codec.encode(&probe(1)).unwrap();
        assert_eq!(encoded.decode().unwrap(), probe(1));
        let frame = codec.into_buffer();
        assert!(frame.capacity() > 0, "scratch warmed up");
        assert!(pool.put(frame));
        let (_, hit) = pool.get();
        assert!(hit, "warm buffer comes back");
    }

    #[test]
    fn clone_shares_identical_bytes() {
        let frame = EncodedFrame::encode(&probe(3)).unwrap();
        let clones: Vec<EncodedFrame> = (0..64).map(|_| frame.clone()).collect();
        // Same buffer, not an equal copy: cloning never re-encodes. (The
        // process-wide encode counter cannot show this here — sibling
        // tests encode concurrently.)
        for c in &clones {
            assert_eq!(c.as_bytes().as_ptr(), frame.as_bytes().as_ptr());
            assert_eq!(c.as_bytes(), frame.as_bytes());
        }
    }

    /// A writer that accepts a fixed number of bytes per call, then
    /// signals `WouldBlock` — the shape of a nonblocking socket under
    /// pressure.
    struct Throttled {
        accepted: Vec<u8>,
        per_call: usize,
        calls_left: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.calls_left == 0 {
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "full"));
            }
            self.calls_left -= 1;
            let mut left = self.per_call;
            let mut wrote = 0;
            for b in bufs {
                let take = left.min(b.len());
                self.accepted.extend_from_slice(&b[..take]);
                wrote += take;
                left -= take;
                if left == 0 {
                    break;
                }
            }
            Ok(wrote)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_flush_resumes_across_partial_writes() {
        let mut q = FrameWriteQueue::unbounded();
        let mut expect = Vec::new();
        for i in 0..5 {
            let f = EncodedFrame::encode(&probe(i)).unwrap();
            expect.extend_from_slice(f.as_bytes());
            q.push_control(f);
        }
        let total = q.queued_bytes();
        // First flush: 3 calls of 7 bytes each, then WouldBlock.
        let mut w = Throttled {
            accepted: Vec::new(),
            per_call: 7,
            calls_left: 3,
        };
        let (drained, syscalls) = q.write_vectored_some(&mut w).unwrap();
        assert!(!drained);
        assert_eq!(syscalls, 4, "three accepting calls plus the WouldBlock");
        assert_eq!(w.accepted.len(), 21);
        assert_eq!(q.queued_bytes(), total - 21);
        // Resume: unlimited writer drains the rest; the byte stream is the
        // frames in order, unbroken across the partial-write boundary.
        let mut rest = Throttled {
            accepted: Vec::new(),
            per_call: usize::MAX,
            calls_left: usize::MAX,
        };
        let (drained, _) = q.write_vectored_some(&mut rest).unwrap();
        assert!(drained);
        assert!(q.is_empty());
        let mut all = w.accepted;
        all.extend_from_slice(&rest.accepted);
        assert_eq!(all, expect);
    }

    #[test]
    fn bounded_sink_drops_deliveries_but_not_control() {
        let frame = EncodedFrame::encode(&probe(0)).unwrap();
        let mut q = FrameWriteQueue::bounded(frame.len() + frame.len() / 2);
        assert!(q.push_delivery(frame.clone()));
        assert!(!q.push_delivery(frame.clone()), "over cap: dropped");
        q.push_control(frame.clone());
        assert_eq!(q.len(), 2, "control frames always queue");
    }

    #[test]
    fn pool_exhaustion_falls_back_to_the_allocator_counted() {
        let pool = BufferPool::new(2, 1024);
        // Warm two slots.
        assert!(pool.put(Vec::with_capacity(64)));
        assert!(pool.put(Vec::with_capacity(64)));
        // Draw three: two hits, then a graceful (counted) allocator miss.
        let (a, h1) = pool.get();
        let (b, h2) = pool.get();
        let (c, h3) = pool.get();
        assert!(h1 && h2 && !h3);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        // Returns beyond capacity and oversized buffers are discarded,
        // never a panic.
        assert!(pool.put(a) && pool.put(b));
        assert!(!pool.put(c), "free-list full: dropped");
        assert!(!pool.put(Vec::with_capacity(4096)), "over retain cap");
        let s = pool.stats();
        // The two warm-up puts count as returns too.
        assert_eq!((s.returns, s.discards), (4, 2));
    }

    #[test]
    fn oversized_body_is_rejected_not_sent() {
        let big = WireMsg::StatsJson("x".repeat(MAX_FRAME_LEN));
        let err = EncodedFrame::encode(&big).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let mut codec = WireCodec::new();
        let mut out = Vec::new();
        assert!(codec.encode_into(&mut out, &big).is_err());
        assert!(out.is_empty(), "nothing partial leaves");
    }
}
