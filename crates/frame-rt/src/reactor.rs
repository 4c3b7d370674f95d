//! Readiness-driven ingress reactor: the broker's TCP front end.
//!
//! Every publisher, subscriber, detector and control connection to a
//! broker is served here, and so is the one connection a broker opens
//! itself: a Primary's link to its Backup ([`ReactorServer::connect_backup`]).
//! A fixed pool of event loops speaks the wire protocol ([`WireMsg`]), so
//! edge fan-in at publisher counts in the tens of thousands costs no
//! thread per peer:
//!
//! - **N event loops** (default: one per core, capped at 4), each owning
//!   an epoll-style [`Poller`] with oneshot re-arm semantics. Loop 0 also
//!   owns the nonblocking listener and deals accepted connections out
//!   round-robin; peers adopt them through an injection queue plus a
//!   poller wake-up.
//! - **Incremental decode**: each connection carries a [`FrameDecoder`],
//!   so a frame may arrive one byte per wakeup (partial length prefix,
//!   partial body) without a blocking read anywhere.
//! - **Read budget**: one wakeup reads at most `read_budget` bytes per
//!   connection before parking it back on the poller, so a fire-hose
//!   publisher cannot starve the rest of its loop.
//! - **Bounded write queues**: subscriber deliveries and Stats/Trace
//!   responses are queued per connection and written when the socket is
//!   writable (interest is registered only while a backlog exists).
//!   Deliveries to a full queue are dropped and counted — a slow consumer
//!   loses its own frames, never the loop.
//! - **One outbound source per connection**: a subscriber's deliveries or
//!   the Backup link's replicas and prunes, pushed onto a channel by the
//!   thread that ran the job and drained in order by the owning loop.
//!
//! Decoded messages are admitted on the loop itself: publishes, re-sends
//! and replica batches call [`RtBroker::publish`], [`RtBroker::resend`]
//! and [`RtBroker::apply_backup`], and the jobs a publish makes claimable
//! run to completion right there, so the loop *is* the broker's Message
//! Proxy and its Dispatcher. A delivery bound for a connection the same
//! loop owns is queued for this iteration's outbound drain without a
//! poller wake-up; only one bound for another loop's connection (or the
//! Backup link on another loop) nudges that loop's poller. While the
//! broker is alive each loop iteration beats the proxy heartbeat, and a
//! liveness `Poll` is acked at once; a dead broker's loops close every
//! connection and stay silent.
//! The control plane for deliberate operations (Promote, Stats, Trace)
//! rides the same connections but is answered from queued responses, so a
//! management round-trip never blocks a data loop either.

use std::cell::Cell;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use frame_telemetry::{HeartbeatKind, ReactorGauges};
use frame_types::FrameError;
use parking_lot::Mutex;
use polling::{Event, Events, Poller};

use crate::broker_rt::{Delivered, RtBroker};
use frame_types::wire::{
    BackupEffect, Decoded, EncodedFrame, FrameDecoder, FrameSink, FrameWriteQueue, WireCodec,
    WireMsg,
};

/// Tuning knobs for a [`ReactorServer`].
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Event loop count; `0` picks one per available core, capped at 4
    /// (beyond that the broker core, not ingress, is the bottleneck).
    pub loops: usize,
    /// Max bytes read from one connection per wakeup before it is parked
    /// back on the poller (fairness under fire-hose publishers). Also the
    /// size of each loop's read buffer, so the default lets one `read`
    /// take a whole 16 KiB camera frame plus its header.
    pub read_budget: usize,
    /// Max bytes queued for write per connection; delivery frames beyond
    /// this are dropped and counted (slow-consumer backpressure).
    pub write_queue_cap: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            loops: 0,
            read_budget: 64 * 1024,
            write_queue_cap: 256 * 1024,
        }
    }
}

impl ReactorConfig {
    fn effective_loops(&self) -> usize {
        if self.loops > 0 {
            return self.loops;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }
}

/// Key under which a loop's listener is registered; distinct from every
/// connection key (connection keys are slab indices) and from the
/// poller's reserved notify key (`usize::MAX`).
const LISTENER_KEY: usize = usize::MAX - 1;

/// How long `wait` blocks with nothing ready: the safety net for a missed
/// wake-up and the cadence at which the stop flag is checked and the
/// proxy heartbeat beats on an idle loop.
const WAIT_TIMEOUT: Duration = Duration::from_millis(25);

/// Wakeups between thread-CPU stamps: one `clock_gettime` per this many
/// poller returns keeps the profiler off the per-event path while the
/// idle-loop cadence (25ms timeouts) still refreshes within ~2s.
const CPU_STAMP_EVERY: u32 = 64;

/// Connections accepted per listener event before re-arming, so a connect
/// storm cannot monopolize loop 0.
const ACCEPT_BATCH: usize = 512;

/// Backup effects coalesced into one link frame before it is cut, so a
/// deep backlog leaves as frames of bounded size (one job's hand-off, a
/// handful of effects, is never split).
const BACKUP_BATCH_MAX: usize = 256;

/// A readiness-driven TCP front end serving a broker's wire protocol from a
/// fixed pool of event loops.
pub struct ReactorServer {
    addr: SocketAddr,
    broker: RtBroker,
    stop: Arc<AtomicBool>,
    loops: Vec<Arc<LoopShared>>,
    threads: Vec<JoinHandle<()>>,
}

impl ReactorServer {
    /// Binds `addr` (port 0 for ephemeral) and serves `broker` with the
    /// default [`ReactorConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on bind/poller/spawn failure.
    pub fn bind(addr: &str, broker: RtBroker) -> Result<ReactorServer, FrameError> {
        ReactorServer::bind_with(addr, broker, ReactorConfig::default())
    }

    /// [`ReactorServer::bind`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on bind/poller/spawn failure.
    pub fn bind_with(
        addr: &str,
        broker: RtBroker,
        config: ReactorConfig,
    ) -> Result<ReactorServer, FrameError> {
        let listener = TcpListener::bind(addr).map_err(FrameError::net)?;
        let addr = listener.local_addr().map_err(FrameError::net)?;
        listener.set_nonblocking(true).map_err(FrameError::net)?;

        let n = config.effective_loops();
        let mut loops = Vec::with_capacity(n);
        for _ in 0..n {
            loops.push(Arc::new(LoopShared {
                poller: Poller::new().map_err(FrameError::net)?,
                injected: Mutex::new(Vec::new()),
                outbound_ready: Mutex::new(Vec::new()),
            }));
        }
        loops[0]
            .poller
            .add(&listener, Event::readable(LISTENER_KEY))
            .map_err(FrameError::net)?;

        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::with_capacity(n);
        let mut listener = Some(listener);
        for index in 0..n {
            let ctx = LoopCtx {
                index,
                shared: loops[index].clone(),
                peers: loops.clone(),
                listener: listener.take(), // loop 0 only
                broker: broker.clone(),
                stop: stop.clone(),
                config: config.clone(),
                gauges: broker.telemetry().reactor_gauges(index),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("frame-reactor-{index}"))
                    .spawn(move || run_loop(ctx))
                    .map_err(FrameError::net)?,
            );
        }
        Ok(ReactorServer {
            addr,
            broker,
            stop,
            loops,
            threads,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Links the served broker, as Primary, to the Backup served at
    /// `addr` over one ordered connection (the paper's `ΔBB`), owned by a
    /// loop like any accepted one. The connect blocks, and the broker's
    /// [`crate::BackupSink`] is installed before this returns. Once the
    /// link closes, the sink drops each effect it is handed, counted as a
    /// write-queue drop of the owning loop and logged, rate-limited.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] when the connect fails.
    pub fn connect_backup(&self, addr: SocketAddr) -> Result<(), FrameError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::net)?;
        // The last loop owns the link: loop 0 also accepts.
        let index = self.loops.len() - 1;
        let shared = self.loops[index].clone();
        let tag = ConnTag::new();
        let (tx, rx) = unbounded::<Vec<BackupEffect>>();
        let link = Outbound::Backup {
            effects: rx.clone(),
            codec: WireCodec::new(),
        };
        let injected = (stream, tag.clone(), Some(link));
        shared.injected.lock().push(injected);
        let _ = shared.poller.notify();
        let gauges = self.broker.telemetry().reactor_gauges(index);
        let lost_log = Mutex::new(LogBackoff::new());
        self.broker.connect_backup(Arc::new(move |effects: Vec<BackupEffect>| {
            if !tag.closed.load(Ordering::Acquire) {
                // Cannot fail: the sink holds a receiver too.
                let _ = tx.send(effects);
                wake(&shared, &tag);
                return;
            }
            // The link is gone; also count what it left on the channel.
            let lost = effects.len() + rx.try_iter().map(|e| e.len()).sum::<usize>();
            for _ in 0..lost {
                gauges.record_write_queue_drop();
            }
            lost_log.lock().report(|| {
                format!("frame-rt/reactor: Backup link to {addr} is closed; dropped {lost} replicas/prunes")
            });
        }));
        Ok(())
    }

    /// Stops every event loop and joins them; open connections are closed
    /// in the process.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        for l in &self.loops {
            let _ = l.poller.notify();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Rate-limiter for accept-loop error logging: the first error in a run
/// logs immediately, repeats back off exponentially (1 s, 2 s, … capped at
/// 30 s) and report how many lines were suppressed in between. A
/// successful accept resets the backoff, so distinct incidents each get an
/// immediate first line.
struct LogBackoff {
    suppressed: u64,
    next_log: Option<Instant>,
    interval: Duration,
}

impl LogBackoff {
    const FIRST_INTERVAL: Duration = Duration::from_secs(1);
    const MAX_INTERVAL: Duration = Duration::from_secs(30);

    fn new() -> LogBackoff {
        LogBackoff {
            suppressed: 0,
            next_log: None,
            interval: LogBackoff::FIRST_INTERVAL,
        }
    }

    /// Logs `line()` unless still inside the backoff window.
    fn report(&mut self, line: impl FnOnce() -> String) {
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

    fn reset(&mut self) {
        *self = LogBackoff::new();
    }
}

/// State a loop shares with the accept loop, `connect_backup` and the
/// threads that run broker jobs (outbound wake-ups).
struct LoopShared {
    poller: Poller,
    injected: Mutex<Vec<Injected>>,
    /// Connections with items queued on their outbound channel, awaiting
    /// a drain by this loop.
    outbound_ready: Mutex<Vec<Arc<ConnTag>>>,
}

/// A stream awaiting adoption by a loop: an accepted peer or the Backup
/// link, with its tag and outbound source.
type Injected = (TcpStream, Arc<ConnTag>, Option<Outbound>);

/// A connection's cross-thread identity. Wake-up callbacks hold it on
/// whichever thread runs a job; the owning loop checks pointer identity
/// before trusting `key`, so a key reused after close can never route
/// another connection's wake-up to the wrong socket.
struct ConnTag {
    /// Slab key, set by the owning loop at adoption (`usize::MAX` until
    /// then, which names no connection).
    key: AtomicUsize,
    closed: AtomicBool,
    /// Already on the loop's `outbound_ready` list (dedup so a burst of
    /// deliveries queues one wake-up, not one per message).
    queued: AtomicBool,
}

impl ConnTag {
    fn new() -> Arc<ConnTag> {
        Arc::new(ConnTag {
            key: AtomicUsize::new(usize::MAX),
            closed: AtomicBool::new(false),
            queued: AtomicBool::new(false),
        })
    }
}

/// What a connection's loop drains onto its socket besides responses.
enum Outbound {
    /// A subscriber's deliveries (from its `Subscribe` on).
    Deliveries(Receiver<Delivered>),
    /// The Backup link's replicas and prunes, in the Primary's emission
    /// order, and the codec that frames them.
    Backup {
        effects: Receiver<Vec<BackupEffect>>,
        codec: WireCodec,
    },
}

/// Per-connection state owned by exactly one loop.
struct Conn {
    stream: TcpStream,
    tag: Arc<ConnTag>,
    peer: String,
    decoder: FrameDecoder,
    /// The byte-bounded outbound queue ([`FrameWriteQueue`] behind
    /// [`FrameSink`]): drop accounting, vectored writes and partial-write
    /// resume.
    out: FrameWriteQueue,
    /// Writable interest is registered (a write backlog exists).
    wants_write: bool,
    /// Set once the connection subscribes, or at adoption for the link.
    outbound: Option<Outbound>,
}

/// Everything one event loop needs; moved onto its thread.
struct LoopCtx {
    index: usize,
    shared: Arc<LoopShared>,
    /// Every loop's shared state, indexable for round-robin hand-off
    /// (only loop 0, the acceptor, uses the others).
    peers: Vec<Arc<LoopShared>>,
    listener: Option<TcpListener>,
    broker: RtBroker,
    stop: Arc<AtomicBool>,
    config: ReactorConfig,
    gauges: ReactorGauges,
}

thread_local! {
    /// The [`LoopShared`] of the loop running on this thread (null on any
    /// other thread), so a wake-up can tell it is already on its loop.
    static CURRENT_LOOP: Cell<*const LoopShared> = const { Cell::new(std::ptr::null()) };
}

fn run_loop(ctx: LoopCtx) {
    frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Reactor, ctx.index);
    CURRENT_LOOP.set(Arc::as_ptr(&ctx.shared));
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = Events::new();
    // One loop-owned read buffer, reused across connections (at least one
    // byte: a zero-length read would look like EOF).
    let mut read_buf = vec![0u8; ctx.config.read_budget.max(1)];
    // Round-robin cursor over `peers` (acceptor only).
    let mut next_loop = 0usize;
    let mut accept_backoff = LogBackoff::new();
    let mut broker_was_alive = true;
    // Busy-vs-parked attribution: everything between poller returns is
    // busy; the wait itself is parked. CPU stamps are throttled so the
    // clock_gettime syscall stays off the per-wakeup path.
    let mut iter_end = Instant::now();
    let mut wakeups_since_stamp = 0u32;
    // Swapped with the shared hand-off lists each iteration, so both
    // keep their capacity and a wake-up allocates nothing.
    let mut injected: Vec<Injected> = Vec::new();
    let mut ready: Vec<Arc<ConnTag>> = Vec::new();

    loop {
        events.clear();
        let before_wait = Instant::now();
        let busy_ns = before_wait.duration_since(iter_end).as_nanos() as u64;
        let _ = ctx.shared.poller.wait(&mut events, Some(WAIT_TIMEOUT));
        iter_end = Instant::now();
        let parked_ns = iter_end.duration_since(before_wait).as_nanos() as u64;
        ctx.gauges.record_loop_time(busy_ns, parked_ns);
        ctx.gauges.record_wakeup();
        wakeups_since_stamp += 1;
        if wakeups_since_stamp >= CPU_STAMP_EVERY {
            wakeups_since_stamp = 0;
            frame_telemetry::stamp_thread_cpu();
        }
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        if ctx.broker.is_alive() {
            // This loop admits, so it is what the ingress-stall rule of
            // the health watchdog must watch.
            ctx.broker
                .telemetry()
                .heartbeat(HeartbeatKind::Proxy, ctx.broker.now());
        } else if broker_was_alive {
            // Broker crashed (or was killed): every connection goes down
            // with it, so peers see the broker's death as EOF. The loop
            // stays up to drain accepts and wait for shutdown.
            broker_was_alive = false;
            close_all(&mut conns, &mut free, &ctx.shared.poller);
        }
        let broker_dead = !broker_was_alive;

        // Adopt connections handed to this loop.
        std::mem::swap(&mut injected, &mut *ctx.shared.injected.lock());
        for (stream, tag, outbound) in injected.drain(..) {
            if broker_dead {
                tag.closed.store(true, Ordering::Release);
                continue; // dropped: closes the socket
            }
            register_conn(&mut conns, &mut free, stream, tag, outbound, &ctx);
        }

        for ev in events.iter() {
            if ev.key == LISTENER_KEY {
                accept_batch(
                    &ctx,
                    &mut conns,
                    &mut free,
                    &mut next_loop,
                    &mut accept_backoff,
                    broker_dead,
                );
                if let Some(listener) = &ctx.listener {
                    let _ = ctx
                        .shared
                        .poller
                        .modify(listener, Event::readable(LISTENER_KEY));
                }
                continue;
            }
            let Some(Some(conn)) = conns.get_mut(ev.key) else {
                continue; // closed earlier this iteration
            };
            let mut alive = true;
            if ev.writable && !conn.out.is_empty() {
                alive = flush(conn);
            }
            if alive && ev.readable {
                alive = read_budgeted(conn, &ctx, &mut read_buf);
            }
            if alive {
                alive = rearm(&ctx.shared.poller, conn);
            }
            if !alive {
                close_conn(&mut conns, &mut free, &ctx.shared.poller, ev.key);
            }
        }

        // Drain outbound wake-ups (after events, so a Subscribe decoded
        // this iteration is already visible, and so are the deliveries the
        // jobs run on this loop queued without a poller wake-up).
        std::mem::swap(&mut ready, &mut *ctx.shared.outbound_ready.lock());
        for tag in ready.drain(..) {
            // Clear before draining: an item pushed after this store
            // re-queues the tag; one pushed before it is caught by the
            // drain below. Either way nothing is stranded.
            tag.queued.store(false, Ordering::Release);
            if tag.closed.load(Ordering::Acquire) {
                continue;
            }
            let key = tag.key.load(Ordering::Relaxed);
            let Some(Some(conn)) = conns.get_mut(key) else {
                continue; // not adopted yet: adoption wakes it again
            };
            if !Arc::ptr_eq(&conn.tag, &tag) {
                continue; // key was reused; wake-up was for the old conn
            }
            let alive = pump_outbound(conn, &ctx) && rearm(&ctx.shared.poller, conn);
            if !alive {
                close_conn(&mut conns, &mut free, &ctx.shared.poller, key);
            }
        }

        ctx.gauges.set_registered((conns.len() - free.len()) as u64);
    }
    // Shutdown: closing marks every tag, so the Backup sink counts what it
    // is handed from now on; subscribers see EOF.
    close_all(&mut conns, &mut free, &ctx.shared.poller);
    ctx.gauges.set_registered(0);
    CURRENT_LOOP.set(std::ptr::null());
    frame_telemetry::stamp_thread_cpu();
}

/// Accepts a batch of connections and deals them round-robin across
/// loops. Runs on loop 0 only.
fn accept_batch(
    ctx: &LoopCtx,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    next_loop: &mut usize,
    backoff: &mut LogBackoff,
    broker_dead: bool,
) {
    let Some(listener) = &ctx.listener else {
        return;
    };
    for _ in 0..ACCEPT_BATCH {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff.reset();
                if broker_dead {
                    continue; // accept-and-close: the broker is gone
                }
                ctx.gauges.record_accept();
                let target = *next_loop % ctx.peers.len();
                *next_loop = next_loop.wrapping_add(1);
                if target == ctx.index {
                    register_conn(conns, free, stream, ConnTag::new(), None, ctx);
                } else {
                    let peer = &ctx.peers[target];
                    peer.injected.lock().push((stream, ConnTag::new(), None));
                    let _ = peer.poller.notify();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) => {
                // EMFILE/ENFILE and friends: log (rate-limited), yield to
                // the poller rather than spinning on the error.
                let err = FrameError::net(&e);
                backoff.report(|| format!("frame-rt/reactor: accept failed: {err:?}"));
                return;
            }
        }
    }
}

/// Adopts a stream: nonblocking, nodelay, slab slot, poller
/// registration. Failures shed the connection (the socket drops closed,
/// the tag reads closed).
fn register_conn(
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    stream: TcpStream,
    tag: Arc<ConnTag>,
    outbound: Option<Outbound>,
    ctx: &LoopCtx,
) {
    let key = free.pop().unwrap_or_else(|| {
        conns.push(None);
        conns.len() - 1
    });
    if stream.set_nonblocking(true).is_err()
        || ctx
            .shared
            .poller
            .add(&stream, Event::readable(key))
            .is_err()
    {
        free.push(key);
        tag.closed.store(true, Ordering::Release);
        return;
    }
    stream.set_nodelay(true).ok();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    tag.key.store(key, Ordering::Relaxed);
    // The link's sink may have queued effects whose wake-up found no
    // connection yet.
    if outbound.is_some() {
        wake(&ctx.shared, &tag);
    }
    conns[key] = Some(Conn {
        stream,
        tag: tag.clone(),
        peer,
        decoder: FrameDecoder::new(),
        out: FrameWriteQueue::bounded(ctx.config.write_queue_cap),
        wants_write: false,
        outbound,
    });
}

fn close_all(conns: &mut [Option<Conn>], free: &mut Vec<usize>, poller: &Poller) {
    for key in 0..conns.len() {
        close_conn(conns, free, poller, key);
    }
}

fn close_conn(conns: &mut [Option<Conn>], free: &mut Vec<usize>, poller: &Poller, key: usize) {
    let Some(slot) = conns.get_mut(key) else {
        return;
    };
    if let Some(conn) = slot.take() {
        conn.tag.closed.store(true, Ordering::Release);
        let _ = poller.delete(&conn.stream);
        free.push(key);
        // `conn.stream` drops here, closing the fd (after the poller
        // delete above, so the key cannot fire for a recycled fd).
    }
}

/// Re-registers oneshot interest after handling a connection: always
/// readable, writable only while a backlog exists.
fn rearm(poller: &Poller, conn: &Conn) -> bool {
    let interest = Event {
        key: conn.tag.key.load(Ordering::Relaxed),
        readable: true,
        writable: conn.wants_write,
    };
    poller.modify(&conn.stream, interest).is_ok()
}

/// Writes queued frames (vectored: a backlog of small frames leaves in
/// one `writev`); updates writable interest. `false` = close.
fn flush(conn: &mut Conn) -> bool {
    match conn.out.write_vectored_some(&mut conn.stream) {
        Ok((drained, syscalls)) => {
            frame_telemetry::record_write_syscalls(syscalls);
            conn.wants_write = !drained;
            true
        }
        Err(_) => false,
    }
}

/// Drains the outbound channel into the write queue and flushes.
/// Deliveries normally arrive with the frame already encoded once at
/// dispatch ([`Delivered::wire`]) and shared across the fan-out; only
/// hook-perturbed deliveries are encoded here, and a full queue drops
/// them. Backup effects leave in channel order, coalesced into
/// `ReplicaBatch` frames, and are never dropped. `false` = close.
fn pump_outbound(conn: &mut Conn, ctx: &LoopCtx) -> bool {
    match &mut conn.outbound {
        None => return true,
        Some(Outbound::Deliveries(rx)) => {
            while let Ok(d) = rx.try_recv() {
                let frame = match d.wire {
                    Some(frame) => frame,
                    None => match EncodedFrame::encode(&WireMsg::Deliver(d.message)) {
                        Ok(frame) => frame,
                        Err(_) => return false,
                    },
                };
                if !conn.out.push_delivery(frame) {
                    ctx.gauges.record_write_queue_drop();
                }
            }
        }
        Some(Outbound::Backup { effects, codec }) => {
            let mut batch: Vec<BackupEffect> = Vec::new();
            while let Ok(handed) = effects.try_recv() {
                if batch.is_empty() {
                    batch = handed;
                } else {
                    batch.extend(handed);
                }
                if batch.len() < BACKUP_BATCH_MAX && !effects.is_empty() {
                    continue;
                }
                let msg = match batch.len() {
                    1 => match batch.pop().expect("len checked") {
                        BackupEffect::Replica(m) => WireMsg::Replica(m),
                        BackupEffect::Prune(k) => WireMsg::Prune(k),
                    },
                    _ => WireMsg::ReplicaBatch(std::mem::take(&mut batch)),
                };
                match codec.encode(&msg) {
                    Ok(frame) => conn.out.push_control(frame),
                    Err(_) => return false,
                }
            }
        }
    }
    flush(conn)
}

/// Reads up to the per-wakeup budget, feeding the incremental decoder.
/// A short read ends the turn: the socket is drained for now, and the
/// re-armed readable interest fires again if more bytes arrive, so no
/// `read` is spent just to hear `WouldBlock`. `false` = close (EOF, socket
/// error, unrecoverable framing, protocol violation).
fn read_budgeted(conn: &mut Conn, ctx: &LoopCtx, buf: &mut [u8]) -> bool {
    let mut used = 0usize;
    loop {
        let got = conn.stream.read(buf);
        frame_telemetry::record_read_syscalls(1);
        let n = match got {
            Ok(0) => return false, // EOF
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        };
        // The decoder steps out of `conn` so the sink closure may borrow
        // the rest of the connection (its write queue) freely.
        let mut decoder = std::mem::take(&mut conn.decoder);
        let mut fatal = false;
        let fed = decoder.feed(&buf[..n], &mut |decoded| {
            if fatal {
                return;
            }
            match decoded {
                Decoded::Frame(msg) => {
                    if !handle_frame(conn, ctx, msg) {
                        fatal = true;
                    }
                }
                Decoded::Malformed(e) => {
                    // Frame-aligned still: drop the frame, keep serving.
                    eprintln!(
                        "frame-rt/reactor: dropping malformed frame from {}: {e}",
                        conn.peer
                    );
                }
            }
        });
        conn.decoder = decoder;
        if fed.is_err() || fatal {
            return false;
        }
        used += n;
        if n < buf.len() {
            break;
        }
        if used >= ctx.config.read_budget {
            // Parked with bytes likely still pending: the re-armed
            // readable interest fires again immediately, giving other
            // connections their turn in between.
            ctx.gauges.record_budget_exhaustion();
            break;
        }
    }
    // Anything the frames above queued up (acks, stats) goes out now;
    // leftovers arm writable interest via `rearm`.
    if conn.out.is_empty() {
        true
    } else {
        flush(conn)
    }
}

/// Applies one decoded frame, admitting on this loop's thread. `false` =
/// close the connection.
fn handle_frame(conn: &mut Conn, ctx: &LoopCtx, msg: WireMsg) -> bool {
    match msg {
        WireMsg::Publish(m) => ctx.broker.publish(m),
        WireMsg::Resend(m) => ctx.broker.resend(m),
        WireMsg::Replica(m) => ctx.broker.apply_backup([BackupEffect::Replica(m)]),
        WireMsg::Prune(k) => ctx.broker.apply_backup([BackupEffect::Prune(k)]),
        WireMsg::ReplicaBatch(batch) => ctx.broker.apply_backup(batch),
        WireMsg::Poll(token) => {
            // Answered at once while the broker lives; a dead broker stays
            // silent, so the failure detector's timeout fires.
            if ctx.broker.is_alive() {
                return enqueue_response(conn, &WireMsg::PollAck(token));
            }
        }
        WireMsg::Subscribe(id) => {
            let (tx, rx) = unbounded();
            let (shared, tag) = (ctx.shared.clone(), conn.tag.clone());
            ctx.broker
                .connect_subscriber(id, tx, Some(Arc::new(move || wake(&shared, &tag))));
            conn.outbound = Some(Outbound::Deliveries(rx));
        }
        WireMsg::Promote => {
            let created = ctx.broker.promote().map(|n| n as u64).unwrap_or(0);
            return enqueue_response(conn, &WireMsg::Promoted(created));
        }
        WireMsg::Stats => {
            let json = frame_telemetry::to_json(&ctx.broker.telemetry().snapshot());
            return enqueue_response(conn, &WireMsg::StatsJson(json));
        }
        WireMsg::Trace => {
            let json = frame_telemetry::flight_to_json(&ctx.broker.telemetry().flight_snapshot());
            return enqueue_response(conn, &WireMsg::TraceJson(json));
        }
        WireMsg::PollAck(_)
        | WireMsg::Deliver(_)
        | WireMsg::Promoted(_)
        | WireMsg::StatsJson(_)
        | WireMsg::TraceJson(_) => {
            // Server-to-client frames arriving at the server: protocol
            // violation; drop the connection.
            return false;
        }
    }
    true
}

/// Queues a control response (unbounded by the delivery cap: the client
/// asked for it). `false` only on a serialization failure.
fn enqueue_response(conn: &mut Conn, msg: &WireMsg) -> bool {
    match EncodedFrame::encode(msg) {
        Ok(frame) => {
            conn.out.push_control(frame);
            true
        }
        Err(_) => false,
    }
}

/// The wake-up after pushing onto a connection's outbound channel (a
/// subscriber's [`crate::DeliveryNotify`], the link's sink): queue the
/// tag once and nudge the loop's poller — unless this runs on that loop's
/// own thread, which drains its ready list later in the same iteration.
fn wake(shared: &LoopShared, tag: &Arc<ConnTag>) {
    if tag.closed.load(Ordering::Acquire) {
        return;
    }
    if !tag.queued.swap(true, Ordering::AcqRel) {
        shared.outbound_ready.lock().push(tag.clone());
        if !std::ptr::eq(CURRENT_LOOP.get(), shared) {
            let _ = shared.poller.notify();
        }
    }
}
