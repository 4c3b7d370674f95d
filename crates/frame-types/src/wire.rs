//! The wire format and buffer lifecycle: length-prefixed binary frames.
//!
//! Every FRAME transport speaks the same framing: a little-endian `u32`
//! length prefix followed by a binary body whose first byte is a message
//! tag. This module owns that format end to end — the message vocabulary
//! ([`WireMsg`], [`BackupEffect`]), the one encoder
//! ([`WireMsg::append_frame`]), the one body decoder ([`WireMsg::decode`])
//! and the one length-prefix parser behind both stream readers — and makes
//! the byte lifecycle around it explicit:
//!
//! - [`EncodedFrame`] — one frame, fully assembled (prefix + body) in a
//!   refcounted [`Bytes`]. Produced **once** per outbound message and
//!   shared by every write path that carries it: a fan-out of N
//!   subscribers clones the handle (a refcount bump), never re-encodes.
//! - [`WireCodec`] — the encoder. Owns one reusable scratch buffer, capped
//!   at [`SCRATCH_RETAIN_CAP`], so a warm codec encodes without growing
//!   the heap; [`write_frame`] is the one-shot form.
//! - [`FrameSink`] — the queueing API of the delivery write path (the
//!   reactor's byte-bounded write queues), so drop accounting and flush
//!   semantics have a single surface.
//! - [`FrameWriteQueue`] — the [`FrameSink`] implementation: a FIFO of
//!   [`EncodedFrame`]s flushed with `writev`-style vectored writes
//!   ([`FrameWriteQueue::write_vectored_some`]), resuming cleanly across
//!   partial writes.
//! - [`FrameDecoder`] — the incremental reader for nonblocking sockets
//!   and [`read_frame_checked`] / [`read_frame`] — the blocking one. Both
//!   yield [`Decoded`], which tells a malformed but frame-aligned body
//!   (drop it, keep reading) from a dead stream (an `io::Error`).
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
//! [`DecodeError`] — never a panic. A length prefix over [`MAX_FRAME_LEN`]
//! is stream corruption, reported as `InvalidData`.
//!
//! This crate stays passive — no threads, no sockets; the readers and
//! writers work over any [`std::io::Read`] / [`std::io::Write`] the
//! runtime hands them.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

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
}

/// Largest buffer capacity a [`WireCodec`] or [`FrameDecoder`] keeps
/// between frames. A frame beyond it (bodies may reach [`MAX_FRAME_LEN`])
/// is assembled or received in a buffer that is freed right after, so one
/// huge frame cannot pin up to 16 MiB for the life of a connection.
pub const SCRATCH_RETAIN_CAP: usize = 64 * 1024;

/// Empties `buf` for the next frame, or frees it when the last frame grew
/// it past [`SCRATCH_RETAIN_CAP`].
fn recycle(buf: &mut Vec<u8>) {
    if buf.capacity() > SCRATCH_RETAIN_CAP {
        *buf = Vec::new();
    } else {
        buf.clear();
    }
}

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
        recycle(&mut self.frame);
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
        recycle(&mut self.frame);
        written
    }
}

/// Writes one frame with a single `write_all`, so the prefix never leaves
/// as its own segment on a `TCP_NODELAY` socket. One-shot form of
/// [`WireCodec::encode_into`]; callers that write repeatedly keep a codec.
///
/// # Errors
///
/// Propagates encoding and socket errors.
pub fn write_frame<W: Write>(writer: &mut W, msg: &WireMsg) -> std::io::Result<()> {
    WireCodec::new().encode_into(writer, msg)
}

/// The body length a length prefix announces. The only code that parses a
/// prefix: [`read_frame_checked`] and [`FrameDecoder::feed`] both call it.
///
/// # Errors
///
/// A length over [`MAX_FRAME_LEN`] is `InvalidData` — the stream can no
/// longer be trusted to be frame-aligned.
fn announced_len(prefix: [u8; 4]) -> std::io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds sanity limit",
        ));
    }
    Ok(len)
}

/// One frame read off a stream.
#[derive(Debug)]
pub enum Decoded {
    /// A complete, parseable frame.
    Frame(WireMsg),
    /// A complete frame whose body did not parse. The frame was consumed
    /// whole, so the stream is still frame-aligned: a reader may log, drop
    /// the frame and keep reading, and one misbehaving peer cannot take a
    /// shared connection down mid-protocol.
    Malformed(String),
}

impl Decoded {
    fn of(body: &[u8]) -> Decoded {
        match WireMsg::decode(body) {
            Ok(msg) => Decoded::Frame(msg),
            Err(e) => Decoded::Malformed(e.to_string()),
        }
    }
}

/// Reads one frame from a blocking stream.
///
/// # Errors
///
/// Socket errors, truncation mid-frame and an oversized length prefix —
/// every case where the stream is no longer frame-aligned, clean EOF
/// included as `UnexpectedEof`. A malformed body is `Ok`
/// ([`Decoded::Malformed`]).
pub fn read_frame_checked<R: Read>(stream: &mut R) -> std::io::Result<Decoded> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let mut body = vec![0u8; announced_len(prefix)?];
    stream.read_exact(&mut body)?;
    Ok(Decoded::of(&body))
}

/// Reads one frame from a blocking stream, treating a malformed body as
/// an error too.
///
/// # Errors
///
/// As [`read_frame_checked`], plus `InvalidData` for a malformed body. Use
/// [`read_frame_checked`] to keep reading past one.
pub fn read_frame<R: Read>(stream: &mut R) -> std::io::Result<WireMsg> {
    match read_frame_checked(stream)? {
        Decoded::Frame(msg) => Ok(msg),
        Decoded::Malformed(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
    }
}

/// Incremental, sans-IO mirror of [`read_frame_checked`] for nonblocking
/// sockets: bytes are fed in whatever chunks the kernel hands back —
/// mid-prefix, mid-body, many frames at once — and completed frames come
/// out through the sink in order. Keep one per connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    prefix: [u8; 4],
    prefix_filled: usize,
    in_body: bool,
    body_target: usize,
    body: Vec<u8>,
}

impl FrameDecoder {
    /// A decoder at the start of a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Consumes `chunk`, invoking `sink` once per completed frame.
    ///
    /// # Errors
    ///
    /// An oversized length prefix (> [`MAX_FRAME_LEN`]) is unrecoverable —
    /// the stream can no longer be trusted to be frame-aligned — and is
    /// returned as `InvalidData`; the decoder must not be fed again.
    pub fn feed(
        &mut self,
        mut chunk: &[u8],
        sink: &mut impl FnMut(Decoded),
    ) -> std::io::Result<()> {
        loop {
            if !self.in_body {
                if chunk.is_empty() {
                    return Ok(());
                }
                let take = (4 - self.prefix_filled).min(chunk.len());
                self.prefix[self.prefix_filled..self.prefix_filled + take]
                    .copy_from_slice(&chunk[..take]);
                self.prefix_filled += take;
                chunk = &chunk[take..];
                if self.prefix_filled < 4 {
                    return Ok(());
                }
                self.body_target = announced_len(self.prefix)?;
                self.in_body = true;
            }
            let take = (self.body_target - self.body.len()).min(chunk.len());
            self.body.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.body.len() < self.body_target {
                return Ok(());
            }
            let decoded = Decoded::of(&self.body);
            self.prefix_filled = 0;
            self.in_body = false;
            recycle(&mut self.body);
            sink(decoded);
        }
    }

    /// Whether bytes of an unfinished frame are buffered — at EOF this
    /// means the peer truncated mid-frame (the blocking reader's
    /// `UnexpectedEof`).
    pub fn is_mid_frame(&self) -> bool {
        self.prefix_filled > 0 || self.in_body
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
        assert!(codec.frame.capacity() <= SCRATCH_RETAIN_CAP);
        // Frames under the cap keep their warm scratch.
        let mut codec = WireCodec::new();
        codec.encode(&probe(1)).unwrap();
        assert!(codec.frame.capacity() > 0);
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
    fn replica_batch_frame_round_trips() {
        let m = Message::new(
            TopicId(1),
            PublisherId(0),
            SeqNo(0),
            Time::ZERO,
            &b"0123456789abcdef"[..],
        );
        let key = m.key();
        let frame = WireMsg::ReplicaBatch(vec![BackupEffect::Replica(m), BackupEffect::Prune(key)]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        // One buffer = one write_all: the prefix must be inside the frame.
        assert_eq!(wire[..4], (wire.len() as u32 - 4).to_le_bytes());
        match read_frame(&mut wire.as_slice()).unwrap() {
            WireMsg::ReplicaBatch(batch) => {
                assert_eq!(batch.len(), 2);
                assert!(matches!(batch[0], BackupEffect::Replica(_)));
                assert!(matches!(&batch[1], BackupEffect::Prune(k) if *k == key));
            }
            other => panic!("expected ReplicaBatch, got {other:?}"),
        }
    }

    #[test]
    fn read_frame_checked_classifies_errors() {
        // Malformed body: consumed whole, classified recoverable.
        let body = b"not json at all";
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(body);
        let mut stream = wire.as_slice();
        assert!(matches!(
            read_frame_checked(&mut stream),
            Ok(Decoded::Malformed(_))
        ));
        assert!(stream.is_empty(), "the malformed frame is consumed whole");

        // Truncated frame (prefix promises more than the stream holds):
        // an I/O error, the stream is no longer trustworthy.
        let mut wire = Vec::new();
        wire.extend_from_slice(&16u32.to_le_bytes());
        wire.extend_from_slice(b"short");
        let err = read_frame_checked(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_codec_rejects_oversized() {
        let mut wire = u32::MAX.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = FrameDecoder::new()
            .feed(&wire, &mut |d| panic!("decoded {d:?}"))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
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
