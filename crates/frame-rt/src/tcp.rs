//! Loopback/LAN TCP clients and the Primary→Backup bridge.
//!
//! In-process, publishers and the Backup call [`RtBroker`] directly; this
//! module carries the same protocol over TCP so publishers, subscribers
//! and the Backup peer can live in other processes or hosts — the shape of
//! the paper's seven-host testbed. The broker side of every connection is
//! [`crate::reactor::ReactorServer`]; this module holds the framing
//! helpers, the incremental [`FrameDecoder`] the reactor feeds, the
//! blocking [`TcpPublisher`] / [`TcpSubscriber`] peers and the Backup
//! bridge. Frames are the length-prefixed binary bodies of
//! [`frame_types::wire`] ([`WireMsg`]); this module only moves them over
//! sockets. Reliability and ordering come from TCP, matching the model's
//! reliable in-order interconnect assumption (§III-B).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use frame_types::wire::{
    BackupEffect, BufferPool, FrameSink, FrameWriteQueue, WireCodec, SCRATCH_RETAIN_CAP,
};
use frame_types::{FrameError, Message, SubscriberId};

use crate::broker_rt::RtBroker;

pub use frame_types::wire::{WireMsg, MAX_FRAME_LEN};

/// Shared free-list of codec scratch buffers (frame assembly) for
/// publisher connections and the backup bridge. Sized for
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

/// Bridges a Primary's Backup-bound traffic (replicas and prunes) over TCP
/// to a Backup broker served by a [`crate::reactor::ReactorServer`] at
/// `addr`.
///
/// Spawns a forwarder thread and wires a send into its channel as the
/// Primary's [`crate::BackupSink`]; the returned handle joins the
/// forwarder. If the TCP connection fails, backup traffic is dropped (the
/// network-partition behaviour of the model — the Primary does not block
/// on its Backup).
///
/// # Errors
///
/// Returns [`FrameError::Net`] on the initial connection error.
pub fn connect_backup_over_tcp(
    primary: &RtBroker,
    addr: SocketAddr,
) -> Result<TcpBackupBridge, FrameError> {
    let stream = TcpStream::connect(addr).map_err(FrameError::net)?;
    stream.set_nodelay(true).ok();
    let (tx, rx) = unbounded::<Vec<BackupEffect>>();
    primary.connect_backup(Arc::new(move |effects| {
        let _ = tx.send(effects);
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::Builder::new()
        .name("frame-tcp-backup-bridge".into())
        .spawn(move || {
            frame_telemetry::register_thread_role(frame_telemetry::RoleKind::BackupBridge, 0);
            let codec = rent_codec();
            let codec = backup_bridge_loop(stream, rx, stop2, codec);
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
    rx: Receiver<Vec<BackupEffect>>,
    stop: Arc<AtomicBool>,
    mut codec: WireCodec,
) -> WireCodec {
    let mut writer = stream;
    let mut out = FrameWriteQueue::unbounded();
    let mut batch: Vec<BackupEffect> = Vec::new();
    let mut pending: Option<Vec<BackupEffect>> = None;
    let mut iters = 0u32;
    loop {
        iters = iters.wrapping_add(1);
        if iters.is_multiple_of(64) {
            frame_telemetry::stamp_thread_cpu();
        }
        let effects = match pending.take() {
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
        batch.extend(effects);
        while batch.len() < BACKUP_BATCH_MAX {
            match rx.try_recv() {
                Ok(effects) => batch.extend(effects),
                Err(_) => break,
            }
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
    use crate::reactor::ReactorServer;
    use frame_clock::MonotonicClock;
    use frame_core::{admit, BrokerConfig, BrokerRole};
    use frame_types::{BrokerId, NetworkParams, PublisherId, SeqNo, Time, TopicId, TopicSpec};
    use std::net::TcpListener;

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
        let server = ReactorServer::bind("127.0.0.1:0", broker.clone()).unwrap();
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
    fn distributed_pair_replicates_and_prunes_over_tcp() {
        // Primary and Backup in "separate processes" (separate reactor
        // servers over loopback TCP), category-2 topic (replication
        // required).
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
        let backup_server = ReactorServer::bind("127.0.0.1:0", backup.clone()).unwrap();
        let bridge = connect_backup_over_tcp(&primary, backup_server.local_addr()).unwrap();

        let primary_server = ReactorServer::bind("127.0.0.1:0", primary.clone()).unwrap();
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
        let server = ReactorServer::bind("127.0.0.1:0", broker.clone()).unwrap();
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
        let server = ReactorServer::bind("127.0.0.1:0", broker.clone()).unwrap();
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
