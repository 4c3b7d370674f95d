//! Loopback/LAN TCP transport for the threaded runtime.
//!
//! The in-process transport of [`crate::broker_rt`] uses channels; this
//! module carries the same protocol over TCP so publishers, subscribers
//! and the Backup peer can live in other processes or hosts — the shape of
//! the paper's seven-host testbed. Frames are the length-prefixed binary
//! bodies of [`frame_types::wire`] ([`WireMsg`]); this module only moves
//! them over sockets. Reliability and ordering come from TCP, matching the
//! model's reliable in-order interconnect assumption (§III-B).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use frame_types::wire::{
    BackupEffect, BufferPool, FrameSink, FrameWriteQueue, WireCodec, SCRATCH_RETAIN_CAP,
};
use frame_types::{FrameError, Message, SubscriberId};
use parking_lot::Mutex;
use polling::{Event, Events, Poller};

use crate::broker_rt::{BrokerMsg, Delivered, RtBroker};
use crate::fault::{fate_of, Hop, SharedFaultHook};

pub use frame_types::wire::{WireMsg, MAX_FRAME_LEN};

/// Shared free-list of codec scratch buffers (frame assembly) for
/// connection handlers, the backup bridge and the reactor loops. Sized for
/// the workspace's connection churn: 64 slots retains scratch for 64
/// codecs, and the 64 KiB retention cap matches the decoder's
/// [`DECODER_RETAIN_CAP`] so one huge frame never pins its buffer.
pub(crate) static WIRE_POOL: BufferPool = BufferPool::new(64, SCRATCH_RETAIN_CAP);

/// Rents a [`WireCodec`] whose scratch comes from [`WIRE_POOL`], mirroring
/// hit/miss into telemetry so `pool.*` gauges track warm-up live.
pub(crate) fn rent_codec() -> WireCodec {
    let (frame, hit) = WIRE_POOL.get();
    frame_telemetry::record_pool_get(hit);
    WireCodec::with_buffer(frame)
}

/// Returns a rented codec's scratch to [`WIRE_POOL`] (drop-counted when
/// the free-list is full or the buffer outgrew the retention cap).
pub(crate) fn return_codec(codec: WireCodec) {
    frame_telemetry::record_pool_put(WIRE_POOL.put(codec.into_buffer()));
}

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The length prefix and body were fully consumed but the body did not
    /// parse. The stream is still frame-aligned, so a server may log, drop
    /// the frame and keep reading (a misbehaving client must not be able to
    /// take the connection down mid-protocol for everyone sharing it).
    Malformed(String),
    /// A socket error — EOF, truncation mid-frame, or an oversized length
    /// prefix. The stream can no longer be trusted to be frame-aligned.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Malformed(e) => write!(f, "malformed frame body: {e}"),
            FrameReadError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Writes one length-prefixed frame, assembling prefix and body in
/// `scratch` so the whole frame leaves in a single `write_all` (one
/// syscall on an unbuffered socket; with `TCP_NODELAY` set, two writes
/// would otherwise risk the 4-byte prefix travelling as its own segment).
/// `scratch` is cleared and reused — hot paths keep one per connection so
/// steady state does no allocation.
///
/// # Errors
///
/// Propagates encoding and socket errors.
pub fn write_frame_into<W: Write>(
    writer: &mut W,
    msg: &WireMsg,
    scratch: &mut Vec<u8>,
) -> std::io::Result<()> {
    scratch.clear();
    msg.append_frame(scratch)?;
    writer.write_all(scratch)
}

/// Writes one length-prefixed frame (convenience wrapper over
/// [`write_frame_into`] with a throwaway scratch buffer).
///
/// # Errors
///
/// Propagates encoding and socket errors.
pub fn write_frame<W: Write>(writer: &mut W, msg: &WireMsg) -> std::io::Result<()> {
    write_frame_into(writer, msg, &mut Vec::new())
}

/// Reads one length-prefixed frame, classifying failures so callers can
/// tell a recoverable malformed body (frame consumed, stream still
/// aligned) from a dead socket.
///
/// # Errors
///
/// [`FrameReadError::Malformed`] when the body fails to parse;
/// [`FrameReadError::Io`] for socket errors, truncation and oversized
/// length prefixes (including clean EOF as `UnexpectedEof`).
pub fn read_frame_checked<R: Read>(stream: &mut R) -> Result<WireMsg, FrameReadError> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).map_err(FrameReadError::Io)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameReadError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds sanity limit",
        )));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).map_err(FrameReadError::Io)?;
    WireMsg::decode(&body).map_err(|e| FrameReadError::Malformed(e.to_string()))
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Propagates decoding and socket errors (including clean EOF as
/// `UnexpectedEof`). Use [`read_frame_checked`] to distinguish a malformed
/// body (recoverable) from a dead socket.
pub fn read_frame<R: Read>(stream: &mut R) -> std::io::Result<WireMsg> {
    read_frame_checked(stream).map_err(|e| match e {
        FrameReadError::Malformed(msg) => std::io::Error::new(std::io::ErrorKind::InvalidData, msg),
        FrameReadError::Io(io) => io,
    })
}

/// One completed frame out of a [`FrameDecoder`].
#[derive(Debug)]
pub enum Decoded {
    /// A complete, parseable frame.
    Frame(WireMsg),
    /// A complete frame whose body did not parse. The byte stream is still
    /// frame-aligned, so the connection can keep going (mirrors
    /// [`FrameReadError::Malformed`]).
    Malformed(String),
}

/// Incremental, sans-IO mirror of [`read_frame_checked`] for nonblocking
/// sockets: bytes are fed in whatever chunks the kernel hands back —
/// mid-prefix, mid-body, many frames at once — and completed frames come
/// out through the sink in order. The reactor keeps one per connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    prefix: [u8; 4],
    prefix_filled: usize,
    in_body: bool,
    body_target: usize,
    body: Vec<u8>,
}

/// Body capacity retained across frames. Anything larger is returned to
/// the allocator once decoded, so one huge frame does not pin ~16 MB to a
/// connection for its lifetime.
const DECODER_RETAIN_CAP: usize = 64 * 1024;

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
                let len = u32::from_le_bytes(self.prefix) as usize;
                if len > MAX_FRAME_LEN {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "frame exceeds sanity limit",
                    ));
                }
                self.in_body = true;
                self.body_target = len;
                self.body.clear();
            }
            let take = (self.body_target - self.body.len()).min(chunk.len());
            self.body.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.body.len() < self.body_target {
                return Ok(());
            }
            let decoded = match WireMsg::decode(&self.body) {
                Ok(msg) => Decoded::Frame(msg),
                Err(e) => Decoded::Malformed(e.to_string()),
            };
            self.prefix_filled = 0;
            self.in_body = false;
            if self.body.capacity() > DECODER_RETAIN_CAP {
                self.body = Vec::new();
            } else {
                self.body.clear();
            }
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

/// Rate-limiter for accept-loop error logging: the first error in a run
/// logs immediately, repeats back off exponentially (1 s, 2 s, … capped at
/// 30 s) and report how many lines were suppressed in between. A
/// successful accept resets the backoff, so distinct incidents each get an
/// immediate first line.
pub(crate) struct LogBackoff {
    suppressed: u64,
    next_log: Option<Instant>,
    interval: Duration,
}

impl LogBackoff {
    const FIRST_INTERVAL: Duration = Duration::from_secs(1);
    const MAX_INTERVAL: Duration = Duration::from_secs(30);

    pub(crate) fn new() -> LogBackoff {
        LogBackoff {
            suppressed: 0,
            next_log: None,
            interval: LogBackoff::FIRST_INTERVAL,
        }
    }

    /// Logs `line()` unless still inside the backoff window.
    pub(crate) fn report(&mut self, line: impl FnOnce() -> String) {
        let now = Instant::now();
        if let Some(t) = self.next_log {
            if now < t {
                self.suppressed += 1;
                return;
            }
        }
        if self.suppressed > 0 {
            eprintln!("{} ({} similar errors suppressed)", line(), self.suppressed);
        } else {
            eprintln!("{}", line());
        }
        self.suppressed = 0;
        self.next_log = Some(now + self.interval);
        self.interval = (self.interval * 2).min(LogBackoff::MAX_INTERVAL);
    }

    pub(crate) fn reset(&mut self) {
        *self = LogBackoff::new();
    }
}

/// A TCP front end for a broker: accepts publisher, subscriber, peer and
/// detector connections and bridges them to the broker's channel protocol.
///
/// One OS thread per connection — simple and sufficient at testbed scale.
/// For high fan-in use [`crate::reactor::ReactorServer`], which serves the
/// same protocol from a fixed pool of event loops.
pub struct TcpBrokerServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    last_error: Arc<Mutex<Option<FrameError>>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpBrokerServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `broker`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on bind failure.
    pub fn bind(addr: &str, broker: RtBroker) -> Result<TcpBrokerServer, FrameError> {
        let listener = TcpListener::bind(addr).map_err(FrameError::net)?;
        let addr = listener.local_addr().map_err(FrameError::net)?;
        listener.set_nonblocking(true).map_err(FrameError::net)?;
        // Readiness-driven accept: park in `wait` until a connection (or a
        // shutdown notify) arrives instead of sleep-polling `WouldBlock`.
        let poller = Arc::new(Poller::new().map_err(FrameError::net)?);
        const LISTENER_KEY: usize = 0;
        poller
            .add(&listener, Event::readable(LISTENER_KEY))
            .map_err(FrameError::net)?;
        let last_error: Arc<Mutex<Option<FrameError>>> = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let (stop2, poller2, errs) = (stop.clone(), poller.clone(), last_error.clone());
        let accept_thread = std::thread::Builder::new()
            .name("frame-tcp-accept".into())
            .spawn(move || {
                frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Conn, 0);
                let mut conns: Vec<JoinHandle<()>> = Vec::new();
                let mut events = Events::new();
                let mut backoff = LogBackoff::new();
                'accepting: while !stop2.load(Ordering::Acquire) {
                    events.clear();
                    // The timeout is only a safety net against a missed
                    // notify; steady state wakes on readiness.
                    let _ = poller2.wait(&mut events, Some(Duration::from_millis(100)));
                    if events.is_empty() {
                        continue;
                    }
                    // Drain the backlog, then re-arm the oneshot interest.
                    loop {
                        match listener.accept() {
                            Ok((stream, peer)) => {
                                if let Err(e) = stream.set_nonblocking(false) {
                                    // The blocking handler cannot serve a
                                    // nonblocking socket; shed the
                                    // connection and surface the error.
                                    let err = FrameError::net(&e);
                                    backoff.report(|| {
                                        format!(
                                            "frame-rt/tcp: dropping connection from {peer}: \
                                             set_nonblocking(false) failed: {err:?}"
                                        )
                                    });
                                    *errs.lock() = Some(err);
                                    continue;
                                }
                                let broker = broker.clone();
                                let stop = stop2.clone();
                                match std::thread::Builder::new()
                                    .name("frame-tcp-conn".into())
                                    .spawn(move || serve_connection(stream, broker, stop))
                                {
                                    Ok(handle) => {
                                        backoff.reset();
                                        conns.push(handle);
                                    }
                                    Err(e) => {
                                        // Thread exhaustion must not kill
                                        // the accept loop; shed this
                                        // connection.
                                        let err = FrameError::net(&e);
                                        backoff.report(|| {
                                            format!(
                                                "frame-rt/tcp: dropping connection from {peer}: \
                                                 cannot spawn handler: {err:?}"
                                            )
                                        });
                                        *errs.lock() = Some(err);
                                    }
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) => {
                                let err = FrameError::net(&e);
                                backoff.report(|| format!("frame-rt/tcp: accept failed: {err:?}"));
                                *errs.lock() = Some(err);
                                // EMFILE/ENFILE and friends: yield to the
                                // poller instead of spinning on the error.
                                break;
                            }
                        }
                        if stop2.load(Ordering::Acquire) {
                            break 'accepting;
                        }
                    }
                    let _ = poller2.modify(&listener, Event::readable(LISTENER_KEY));
                }
                for c in conns {
                    let _ = c.join();
                }
            })
            .map_err(FrameError::net)?;
        Ok(TcpBrokerServer {
            addr,
            stop,
            poller,
            last_error,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Takes the most recent accept-loop failure ([`FrameError::Net`]), if
    /// any. The loop itself keeps serving across per-connection errors;
    /// this is how they surface to the embedding process.
    pub fn take_last_error(&self) -> Option<FrameError> {
        self.last_error.lock().take()
    }

    /// Stops accepting and joins the accept loop. Open connections close
    /// as their peers disconnect or the broker dies.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.poller.notify();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_connection(stream: TcpStream, broker: RtBroker, stop: Arc<AtomicBool>) {
    // All per-connection handler threads share one "conn" role slot: the
    // interesting number is what the thread-per-connection front end costs
    // in aggregate, not per ephemeral peer.
    frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Conn, 0);
    serve_connection_inner(stream, broker, stop);
    frame_telemetry::stamp_thread_cpu();
}

fn serve_connection_inner(stream: TcpStream, broker: RtBroker, stop: Arc<AtomicBool>) {
    let codec = rent_codec();
    let codec = serve_connection_loop(stream, broker, stop, codec);
    return_codec(codec);
}

fn serve_connection_loop(
    stream: TcpStream,
    broker: RtBroker,
    stop: Arc<AtomicBool>,
    mut codec: WireCodec,
) -> WireCodec {
    // Frames are written whole and latency matters more than throughput on
    // this control/delivery path, so disable Nagle coalescing.
    stream.set_nodelay(true).ok();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return codec,
    };
    reader
        .set_read_timeout(Some(std::time::Duration::from_millis(100)))
        .ok();
    // Deliveries queue as shared EncodedFrames and leave in vectored
    // batches (one writev for the burst); control responses write
    // immediately via `respond`, never waiting behind a delivery batch.
    let mut writer = stream;
    let mut out = FrameWriteQueue::unbounded();
    // If this connection subscribes, deliveries arrive on this channel and
    // are pumped back over the socket.
    let mut delivery_rx: Option<Receiver<Delivered>> = None;
    let mut iters = 0u32;

    loop {
        iters = iters.wrapping_add(1);
        if iters.is_multiple_of(64) {
            frame_telemetry::stamp_thread_cpu();
        }
        if stop.load(Ordering::Acquire) || !broker.is_alive() {
            return codec;
        }
        // Pump any pending deliveries for subscriber connections: frames
        // encoded once at dispatch fan out here as refcount clones; only a
        // hook-touched (or legacy in-process) delivery re-encodes.
        if let Some(rx) = &delivery_rx {
            while let Ok(d) = rx.try_recv() {
                let frame = match d.wire {
                    Some(frame) => frame,
                    None => match codec.encode(&WireMsg::Deliver(d.message)) {
                        Ok(frame) => frame,
                        Err(_) => return codec,
                    },
                };
                // Unbounded on purpose: this is a blocking socket, so the
                // vectored flush below is the backpressure.
                out.push_control(frame);
            }
            if !out.is_empty() {
                match out.flush_blocking(&mut writer) {
                    Ok(syscalls) => frame_telemetry::record_write_syscalls(syscalls),
                    Err(_) => return codec,
                }
            }
        }
        let got = read_frame_checked(&mut reader);
        // Length prefix + body are two `read_exact`s; a timeout or EOF
        // burned (at least) the prefix read.
        frame_telemetry::record_read_syscalls(if got.is_ok() { 2 } else { 1 });
        let msg = match got {
            Ok(m) => m,
            Err(FrameReadError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(FrameReadError::Malformed(e)) => {
                // The body was consumed whole, so the stream is still
                // frame-aligned: log and drop the frame, keep serving.
                eprintln!("frame-rt/tcp: dropping malformed frame from {peer}: {e}");
                continue;
            }
            Err(FrameReadError::Io(_)) => return codec, // EOF or truncation: drop the connection
        };
        match msg {
            WireMsg::Publish(m) => {
                let _ = broker.sender().send(BrokerMsg::Publish(m));
            }
            WireMsg::Resend(m) => {
                let _ = broker.sender().send(BrokerMsg::Resend(m));
            }
            WireMsg::Replica(m) => {
                let _ = broker.sender().send(BrokerMsg::Replica(m));
            }
            WireMsg::Prune(k) => {
                let _ = broker.sender().send(BrokerMsg::Prune(k));
            }
            WireMsg::ReplicaBatch(batch) => {
                let _ = broker.sender().send(BrokerMsg::ReplicaBatch(batch));
            }
            WireMsg::Poll(token) => {
                // Bridge to the in-process poll protocol so a dead broker
                // (proxy thread exited) stays silent, exactly like the
                // channel transport.
                let (ack_tx, ack_rx) = unbounded();
                let _ = broker.sender().send(BrokerMsg::Poll(ack_tx));
                if ack_rx
                    .recv_timeout(std::time::Duration::from_millis(50))
                    .is_ok()
                    && respond(&mut writer, &WireMsg::PollAck(token), &mut codec).is_err()
                {
                    return codec;
                }
            }
            WireMsg::Subscribe(id) => {
                let (tx, rx) = unbounded();
                broker.connect_subscriber_wire(id, tx);
                delivery_rx = Some(rx);
            }
            WireMsg::Promote => {
                let created = broker.promote().map(|n| n as u64).unwrap_or(0);
                if respond(&mut writer, &WireMsg::Promoted(created), &mut codec).is_err() {
                    return codec;
                }
            }
            WireMsg::Stats => {
                let json = frame_telemetry::to_json(&broker.telemetry().snapshot());
                if respond(&mut writer, &WireMsg::StatsJson(json), &mut codec).is_err() {
                    return codec;
                }
            }
            WireMsg::Trace => {
                let json = frame_telemetry::flight_to_json(&broker.telemetry().flight_snapshot());
                if respond(&mut writer, &WireMsg::TraceJson(json), &mut codec).is_err() {
                    return codec;
                }
            }
            WireMsg::PollAck(_)
            | WireMsg::Deliver(_)
            | WireMsg::Promoted(_)
            | WireMsg::StatsJson(_)
            | WireMsg::TraceJson(_) => {
                // Server-to-client frames arriving at the server: protocol
                // violation; drop the connection.
                return codec;
            }
        }
    }
}

/// Writes one request/response frame immediately (one `write_all`, one
/// syscall) — control acks must never queue behind a delivery batch, so
/// `--watch`/`top` latency stays bounded by the request rate, not the
/// delivery rate. Safe to interleave with the batched delivery path
/// because the delivery queue is always fully drained before the next
/// request is read.
fn respond<W: Write>(writer: &mut W, msg: &WireMsg, codec: &mut WireCodec) -> std::io::Result<()> {
    codec.encode_into(writer, msg)?;
    frame_telemetry::record_write_syscalls(1);
    writer.flush()
}

/// Bridges a Primary's Backup-bound traffic (replicas and prunes) over TCP
/// to a Backup broker served by a [`TcpBrokerServer`] at `addr`.
///
/// Spawns a forwarder thread and wires it as the Primary's backup peer;
/// the returned handle joins the forwarder on drop. If the TCP connection
/// fails, backup traffic is dropped (the network-partition behaviour of
/// the model — the Primary does not block on its Backup).
///
/// # Errors
///
/// Returns [`FrameError::Net`] on the initial connection error.
pub fn connect_backup_over_tcp(
    primary: &RtBroker,
    addr: SocketAddr,
) -> Result<TcpBackupBridge, FrameError> {
    connect_backup_over_tcp_with_hook(primary, addr, None)
}

/// [`connect_backup_over_tcp`] with a fault hook on the Primary→Backup
/// hop: each effect crosses the hook before it is framed. Dropped effects
/// never reach the socket, truncated replicas leave cut short, duplicates
/// are repeated in emission order, and a delay stalls the bridge thread
/// itself — head-of-line blocking, which is what added wire latency looks
/// like on an ordered TCP stream.
///
/// # Errors
///
/// Returns [`FrameError::Net`] on the initial connection error.
pub fn connect_backup_over_tcp_with_hook(
    primary: &RtBroker,
    addr: SocketAddr,
    hook: SharedFaultHook,
) -> Result<TcpBackupBridge, FrameError> {
    let stream = TcpStream::connect(addr).map_err(FrameError::net)?;
    stream.set_nodelay(true).ok();
    let (tx, rx) = unbounded::<BrokerMsg>();
    primary.connect_backup(tx);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::Builder::new()
        .name("frame-tcp-backup-bridge".into())
        .spawn(move || {
            frame_telemetry::register_thread_role(frame_telemetry::RoleKind::BackupBridge, 0);
            let codec = rent_codec();
            let codec = backup_bridge_loop(stream, rx, stop2, hook, codec);
            return_codec(codec);
        })
        .map_err(FrameError::net)?;
    Ok(TcpBackupBridge {
        stop,
        thread: Some(thread),
    })
}

/// Upper bound on effects coalesced into one bridge frame, so a deep
/// backlog still yields frames of bounded size (and bounded decode cost).
const BACKUP_BATCH_MAX: usize = 256;

/// Upper bound on frames staged per bridge flush: a deep backlog leaves as
/// several bounded `ReplicaBatch` frames in one vectored write instead of
/// one unbounded frame (or one syscall each).
const BRIDGE_FRAMES_PER_FLUSH: usize = 8;

/// The Primary→Backup forwarder. The bridge is the only reader of its
/// channel, so draining it greedily preserves the Primary's per-topic
/// emission order while coalescing a backlog into bounded `ReplicaBatch`
/// frames; queued frames leave in one vectored flush. Returns the codec
/// for pooling.
fn backup_bridge_loop(
    stream: TcpStream,
    rx: Receiver<BrokerMsg>,
    stop: Arc<AtomicBool>,
    hook: SharedFaultHook,
    mut codec: WireCodec,
) -> WireCodec {
    let mut writer = stream;
    let mut out = FrameWriteQueue::unbounded();
    let mut batch: Vec<BackupEffect> = Vec::new();
    let mut pending: Option<BrokerMsg> = None;
    let mut iters = 0u32;
    loop {
        iters = iters.wrapping_add(1);
        if iters.is_multiple_of(64) {
            frame_telemetry::stamp_thread_cpu();
        }
        let msg = match pending.take() {
            Some(m) => m,
            None => match rx.recv_timeout(std::time::Duration::from_millis(100)) {
                Ok(m) => m,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    if stop.load(Ordering::Acquire) {
                        return codec;
                    }
                    continue;
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return codec,
            },
        };
        batch.clear();
        collect_backup_effects(msg, &mut batch);
        while batch.len() < BACKUP_BATCH_MAX {
            match rx.try_recv() {
                Ok(m) => collect_backup_effects(m, &mut batch),
                Err(_) => break,
            }
        }
        if hook.is_some() {
            apply_bridge_fates(&hook, &mut batch);
        }
        let frame = match batch.len() {
            0 => None,
            1 => Some(match batch.pop().expect("len checked") {
                BackupEffect::Replica(m) => WireMsg::Replica(m),
                BackupEffect::Prune(k) => WireMsg::Prune(k),
            }),
            _ => Some(WireMsg::ReplicaBatch(std::mem::take(&mut batch))),
        };
        if let Some(frame) = frame {
            match codec.encode(&frame) {
                // Blocking socket: the flush below is the backpressure.
                Ok(encoded) => out.push_control(encoded),
                Err(_) => return codec,
            }
        }
        // If the channel is still hot, stage another frame before flushing
        // (bounded, so a firehose cannot starve the socket forever).
        if out.len() < BRIDGE_FRAMES_PER_FLUSH {
            if let Ok(m) = rx.try_recv() {
                pending = Some(m);
                continue;
            }
        }
        if out.is_empty() {
            continue;
        }
        match out.flush_blocking(&mut writer) {
            Ok(syscalls) => frame_telemetry::record_write_syscalls(syscalls),
            Err(_) => return codec, // partition: stop forwarding
        }
    }
}

/// Rewrites a staged effect batch through the Primary→Backup fault hook.
///
/// Runs on the bridge thread, in emission order; a delay sleeps the
/// bridge itself (TCP is an ordered stream, so added latency delays
/// everything behind it too — unlike the channel transport, where a
/// delayed frame can be overtaken).
fn apply_bridge_fates(hook: &SharedFaultHook, batch: &mut Vec<BackupEffect>) {
    let staged = std::mem::take(batch);
    for effect in staged {
        let (topic, seq) = match &effect {
            BackupEffect::Replica(m) => (m.topic, m.seq),
            BackupEffect::Prune(k) => (k.topic, k.seq),
        };
        let fate = fate_of(hook, Hop::PrimaryToBackup, topic, seq);
        if fate.copies == 0 {
            continue;
        }
        if let Some(d) = fate.delay {
            std::thread::sleep(d);
        }
        let effect = match (effect, fate.truncate_to) {
            (BackupEffect::Replica(mut m), Some(n)) => {
                m.payload.truncate(n);
                BackupEffect::Replica(m)
            }
            (e, _) => e,
        };
        for _ in 1..fate.copies {
            batch.push(effect.clone());
        }
        batch.push(effect);
    }
}

/// Flattens one backup-bound channel message into `batch`, in order.
/// Non-backup variants never reach the backup channel and are ignored.
fn collect_backup_effects(msg: BrokerMsg, batch: &mut Vec<BackupEffect>) {
    match msg {
        BrokerMsg::Replica(m) => batch.push(BackupEffect::Replica(m)),
        BrokerMsg::Prune(k) => batch.push(BackupEffect::Prune(k)),
        BrokerMsg::ReplicaBatch(effects) => batch.extend(effects),
        _ => {}
    }
}

/// Handle to a running Primary→Backup TCP bridge.
pub struct TcpBackupBridge {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TcpBackupBridge {
    /// Stops and joins the forwarder (it also exits on its own when the
    /// channel disconnects or the connection breaks).
    pub fn join(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A TCP publisher connection.
pub struct TcpPublisher {
    stream: TcpStream,
    codec: WireCodec,
}

impl TcpPublisher {
    /// Connects to a broker server.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on connection failure.
    pub fn connect(addr: SocketAddr) -> Result<TcpPublisher, FrameError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::net)?;
        // Publishers send small periodic frames where latency is the whole
        // point (the paper's per-topic deadlines); never wait on Nagle.
        stream.set_nodelay(true).ok();
        Ok(TcpPublisher {
            stream,
            codec: rent_codec(),
        })
    }

    /// Sends a published message.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on socket failure.
    pub fn publish(&mut self, message: Message) -> Result<(), FrameError> {
        self.codec
            .encode_into(&mut self.stream, &WireMsg::Publish(message))
            .map_err(FrameError::net)
    }

    /// Sends a retention re-send.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on socket failure.
    pub fn resend(&mut self, message: Message) -> Result<(), FrameError> {
        self.codec
            .encode_into(&mut self.stream, &WireMsg::Resend(message))
            .map_err(FrameError::net)
    }
}

impl Drop for TcpPublisher {
    fn drop(&mut self) {
        return_codec(std::mem::take(&mut self.codec));
    }
}

/// A TCP subscriber connection: deliveries stream into a channel.
pub struct TcpSubscriber {
    rx: Receiver<Message>,
    _thread: JoinHandle<()>,
}

impl TcpSubscriber {
    /// Connects and subscribes `id`; returns a handle whose
    /// [`TcpSubscriber::deliveries`] channel yields messages.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on connection failure.
    pub fn connect(addr: SocketAddr, id: SubscriberId) -> Result<TcpSubscriber, FrameError> {
        let mut stream = TcpStream::connect(addr).map_err(FrameError::net)?;
        stream.set_nodelay(true).ok();
        write_frame(&mut stream, &WireMsg::Subscribe(id)).map_err(FrameError::net)?;
        let (tx, rx): (Sender<Message>, Receiver<Message>) = unbounded();
        let thread = std::thread::Builder::new()
            .name("frame-tcp-subscriber".into())
            .spawn(move || loop {
                let got = read_frame_checked(&mut stream);
                frame_telemetry::record_read_syscalls(if got.is_ok() { 2 } else { 1 });
                match got {
                    Ok(WireMsg::Deliver(m)) => {
                        if tx.send(m).is_err() {
                            return;
                        }
                    }
                    Ok(_) => continue,
                    Err(FrameReadError::Malformed(e)) => {
                        // Still frame-aligned: drop the bad frame, keep the
                        // subscription alive.
                        eprintln!("frame-rt/tcp: subscriber dropping malformed frame: {e}");
                        continue;
                    }
                    Err(FrameReadError::Io(_)) => return,
                }
            })
            .map_err(FrameError::net)?;
        Ok(TcpSubscriber {
            rx,
            _thread: thread,
        })
    }

    /// The delivery channel.
    pub fn deliveries(&self) -> &Receiver<Message> {
        &self.rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frame_clock::MonotonicClock;
    use frame_core::{admit, BrokerConfig, BrokerRole};
    use frame_types::{BrokerId, NetworkParams, PublisherId, SeqNo, Time, TopicId, TopicSpec};

    fn spawn_broker() -> (RtBroker, crate::broker_rt::RtBrokerThreads) {
        let clock: Arc<dyn frame_clock::Clock> = Arc::new(MonotonicClock::new());
        RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            2,
            clock,
        )
    }

    #[test]
    fn tcp_publish_subscribe_roundtrip() {
        let (broker, threads) = spawn_broker();
        let spec = TopicSpec::category(0, TopicId(1));
        broker
            .register_topic(
                admit(&spec, &NetworkParams::paper_example()).unwrap(),
                vec![SubscriberId(1)],
            )
            .unwrap();
        let server = TcpBrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
        let addr = server.local_addr();

        let sub = TcpSubscriber::connect(addr, SubscriberId(1)).unwrap();
        // Give the Subscribe frame a moment to register.
        std::thread::sleep(std::time::Duration::from_millis(50));

        let mut publisher = TcpPublisher::connect(addr).unwrap();
        for seq in 0..5 {
            publisher
                .publish(Message::new(
                    TopicId(1),
                    PublisherId(0),
                    SeqNo(seq),
                    Time::from_millis(seq),
                    &b"0123456789abcdef"[..],
                ))
                .unwrap();
        }
        for seq in 0..5 {
            let m = sub
                .deliveries()
                .recv_timeout(std::time::Duration::from_secs(3))
                .expect("tcp delivery");
            assert_eq!(m.seq, SeqNo(seq));
            assert_eq!(m.payload.as_ref(), b"0123456789abcdef");
        }
        broker.shutdown();
        server.shutdown();
        threads.join();
    }

    #[test]
    fn tcp_poll_answered_then_silent_after_kill() {
        let (broker, threads) = spawn_broker();
        let server = TcpBrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(300)))
            .unwrap();

        write_frame(&mut stream, &WireMsg::Poll(7)).unwrap();
        match read_frame(&mut stream).unwrap() {
            WireMsg::PollAck(7) => {}
            other => panic!("expected PollAck(7), got {other:?}"),
        }

        broker.kill();
        // Dead broker: either no answer (timeout) or connection closed.
        let _ = write_frame(&mut stream, &WireMsg::Poll(8));
        match read_frame(&mut stream) {
            Err(_) => {}
            Ok(other) => panic!("dead broker must not ack, got {other:?}"),
        }
        server.shutdown();
        threads.join();
    }

    #[test]
    fn distributed_pair_replicates_and_prunes_over_tcp() {
        // Primary and Backup in "separate processes" (separate servers over
        // loopback TCP), category-2 topic (replication required).
        let clock: Arc<dyn frame_clock::Clock> = Arc::new(MonotonicClock::new());
        let (primary, pt) = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            2,
            clock.clone(),
        );
        let (backup, bt) = RtBroker::spawn(
            BrokerId(1),
            BrokerRole::Backup,
            BrokerConfig::frame(),
            2,
            clock.clone(),
        );
        let net = NetworkParams::paper_example();
        let spec = TopicSpec::category(2, TopicId(1));
        for b in [&primary, &backup] {
            b.register_topic(admit(&spec, &net).unwrap(), vec![SubscriberId(1)])
                .unwrap();
        }
        let backup_server = TcpBrokerServer::bind("127.0.0.1:0", backup.clone()).unwrap();
        let bridge = connect_backup_over_tcp(&primary, backup_server.local_addr()).unwrap();

        let primary_server = TcpBrokerServer::bind("127.0.0.1:0", primary.clone()).unwrap();
        let sub = TcpSubscriber::connect(primary_server.local_addr(), SubscriberId(1)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut publisher = TcpPublisher::connect(primary_server.local_addr()).unwrap();

        for seq in 0..5 {
            publisher
                .publish(Message::new(
                    TopicId(1),
                    PublisherId(0),
                    SeqNo(seq),
                    clock.now(),
                    &b"0123456789abcdef"[..],
                ))
                .unwrap();
        }
        for seq in 0..5 {
            let m = sub
                .deliveries()
                .recv_timeout(std::time::Duration::from_secs(3))
                .expect("delivery over tcp");
            assert_eq!(m.seq, SeqNo(seq));
        }
        // Replicas then prunes must have crossed the wire to the backup —
        // minus any replication the Primary legitimately suppressed or
        // cancelled because the dispatch won the Table-3 race (a timing
        // outcome, not a wire loss).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
        loop {
            let p = primary.stats();
            let skipped =
                p.replications_suppressed + p.replications_cancelled + p.replications_aborted;
            let expected = 5u64.saturating_sub(skipped);
            let s = backup.stats();
            if expected >= 1 && s.replicas_received >= expected && s.prunes_applied >= expected {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "backup did not coordinate over TCP: {s:?} (primary skipped {skipped})"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        primary.shutdown();
        backup.shutdown();
        primary_server.shutdown();
        backup_server.shutdown();
        bridge.join();
        pt.join();
        bt.join();
    }

    #[test]
    fn tcp_stats_returns_parseable_snapshot() {
        let (broker, threads) = spawn_broker();
        let spec = TopicSpec::category(0, TopicId(1));
        broker
            .register_topic(
                admit(&spec, &NetworkParams::paper_example()).unwrap(),
                vec![SubscriberId(1)],
            )
            .unwrap();
        let server = TcpBrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
        let addr = server.local_addr();

        let sub = TcpSubscriber::connect(addr, SubscriberId(1)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut publisher = TcpPublisher::connect(addr).unwrap();
        for seq in 0..3 {
            publisher
                .publish(Message::new(
                    TopicId(1),
                    PublisherId(0),
                    SeqNo(seq),
                    Time::from_millis(seq),
                    &b"0123456789abcdef"[..],
                ))
                .unwrap();
        }
        for _ in 0..3 {
            sub.deliveries()
                .recv_timeout(std::time::Duration::from_secs(3))
                .expect("delivery before stats");
        }

        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &WireMsg::Stats).unwrap();
        let snapshot = match read_frame(&mut stream).unwrap() {
            WireMsg::StatsJson(json) => frame_telemetry::from_json(&json).unwrap(),
            other => panic!("expected StatsJson, got {other:?}"),
        };
        let dispatched = snapshot.decision_count(frame_telemetry::DecisionKind::Dispatch);
        assert!(dispatched >= 3, "stats saw {dispatched} dispatches");
        assert!(snapshot
            .stage(frame_telemetry::Stage::DispatchExec)
            .is_some_and(|h| h.len() >= 3));

        broker.shutdown();
        server.shutdown();
        threads.join();
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
        let mut scratch = Vec::new();
        write_frame_into(&mut wire, &frame, &mut scratch).unwrap();
        // One buffer = one write_all: the prefix must be inside the frame.
        assert_eq!(wire[..4], (wire.len() as u32 - 4).to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        match read_frame(&mut cursor).unwrap() {
            WireMsg::ReplicaBatch(batch) => {
                assert_eq!(batch.len(), 2);
                assert!(matches!(batch[0], BackupEffect::Replica(_)));
                assert!(matches!(&batch[1], BackupEffect::Prune(k) if *k == key));
            }
            other => panic!("expected ReplicaBatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_frame_is_dropped_and_connection_survives() {
        let (broker, threads) = spawn_broker();
        let server = TcpBrokerServer::bind("127.0.0.1:0", broker.clone()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();

        // A well-framed but unparseable body: the server must log-and-drop
        // the frame, not panic and not close the connection.
        let body = br#"{"definitely":"not a WireMsg"}"#;
        stream
            .write_all(&(body.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(body).unwrap();

        write_frame(&mut stream, &WireMsg::Poll(9)).unwrap();
        match read_frame(&mut stream).unwrap() {
            WireMsg::PollAck(9) => {}
            other => panic!("expected PollAck(9) after malformed frame, got {other:?}"),
        }
        broker.shutdown();
        server.shutdown();
        threads.join();
    }

    #[test]
    fn read_frame_checked_classifies_errors() {
        // Malformed body: consumed whole, classified recoverable.
        let body = b"not json at all";
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(body);
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame_checked(&mut cursor),
            Err(FrameReadError::Malformed(_))
        ));

        // Truncated frame (prefix promises more than the stream holds):
        // an I/O error, the stream is no longer trustworthy.
        let mut wire = Vec::new();
        wire.extend_from_slice(&16u32.to_le_bytes());
        wire.extend_from_slice(b"short");
        let mut cursor = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame_checked(&mut cursor),
            Err(FrameReadError::Io(_))
        ));
    }

    #[test]
    fn frame_codec_rejects_oversized() {
        let (a, _b) = (TcpListener::bind("127.0.0.1:0").unwrap(), ());
        let addr = a.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Hand-craft an absurd length prefix.
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
            s.write_all(&[0u8; 16]).unwrap();
        });
        let (mut conn, _) = a.accept().unwrap();
        let err = read_frame(&mut conn).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        client.join().unwrap();
    }
}
