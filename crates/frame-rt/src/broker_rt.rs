//! The threaded broker: a pool of delivery worker threads driving one
//! `frame-core` [`Broker`], with admission running on the caller's thread.
//!
//! Mirrors the paper's implementation structure (§V) without giving the
//! Message Proxy a thread of its own: [`RtBroker::publish`],
//! [`RtBroker::resend`] and [`RtBroker::apply_backup`] admit on whichever
//! thread calls them — a reactor event loop for socket traffic, the
//! publisher's thread in-process. Dispatchers/Replicators are a pool of
//! generic worker threads (the paper uses 3 × cores) that block on the EDF
//! Job Queue. Deliveries leave over crossbeam channels, Backup-bound
//! effects through a [`BackupSink`].
//!
//! # Locking design (one lock + claim)
//!
//! All broker state — topic buffers, Table-3 flags, the job queue, the
//! role and the overload controller — is one sans-IO [`Broker`] behind one
//! `Mutex`. Every state call is one short critical section around the
//! `Broker` method of the same name, so the threaded runtime and the
//! simulator run the same state machine.
//!
//! Workers take jobs with [`Broker::claim`], which holds the job's topic:
//! at most one job per topic is in flight, and a topic's later jobs are
//! parked behind the worker holding it, which runs them in pop order
//! before [`Broker::release`] frees the topic. A worker runs a job under
//! the lock ([`Broker::run_claimed`]), **drops the lock, sends the job's
//! effects, and only then releases the topic**. The claim, not the lock,
//! therefore orders each topic's output: its deliveries leave in job
//! order, and a prune can never overtake the replica it discards (Table
//! 3), while encoding and fan-out run in parallel across topics.
//!
//! The subscriber map and the backup sink are read-mostly `RwLock`s:
//! deliveries share the read lock and never contend with each other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::Sender;
use frame_clock::Clock;
use frame_core::{
    AdmittedTopic, Broker, BrokerConfig, BrokerRole, BrokerStats, Effect, Job, JobKind,
    OverloadConfig,
};
use frame_telemetry::{HeartbeatKind, Stage, Telemetry};
use frame_types::wire::{EncodedFrame, WireCodec, WireMsg};
use frame_types::{BrokerId, FrameError, Message, SpanPoint, SubscriberId, Time, TraceCtx};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::fault::{fate_of, BackupEffectKind, Hop, SharedFaultHook};

/// Loop iterations between thread-CPU stamps on the worker threads: one
/// `clock_gettime` per this many jobs (or idle timeouts), so profiling
/// stays off the per-message path.
const CPU_STAMP_EVERY: u32 = 64;

/// A delivery handed to a subscriber.
#[derive(Clone, Debug)]
pub struct Delivered {
    /// The message.
    pub message: Message,
    /// Broker-side completion time (runtime clock).
    pub dispatched_at: Time,
    /// The outbound [`WireMsg::Deliver`] frame,
    /// encoded **once** at dispatch and shared (refcounted) across the
    /// whole fan-out — wire transports write it as-is instead of
    /// re-encoding per subscriber. `None` when no wire subscriber is
    /// connected (in-process consumers never pay an encode) or when a
    /// fault hook may perturb payloads per subscriber.
    pub wire: Option<EncodedFrame>,
}

pub use frame_types::wire::BackupEffect;

/// Receives the Backup-bound effects (replicas and prunes) of one finished
/// job, in emission order. It runs on worker threads while they hold the
/// emitting topic's claim, which is what keeps the Table-3 order per
/// topic, so it must not block: in-process it is a closure over the
/// Backup's [`RtBroker::apply_backup`], over TCP a push onto the link
/// connection's channel ([`crate::ReactorServer::connect_backup`]).
pub type BackupSink = Arc<dyn Fn(Vec<BackupEffect>) + Send + Sync>;

/// Called after deliveries are pushed onto a subscriber's channel, so an
/// event-driven transport (the ingress reactor) can wake the loop that
/// owns the subscriber's connection instead of having it poll the
/// channel. Must be cheap and non-blocking: it runs on worker threads
/// under the subscriber-map read lock.
pub type DeliveryNotify = Arc<dyn Fn() + Send + Sync>;

/// A subscriber's delivery channel plus its optional wake-up callback.
struct SubscriberEntry {
    tx: Sender<Delivered>,
    notify: Option<DeliveryNotify>,
}

struct Inner {
    id: BrokerId,
    /// The broker state machine: the only lock over broker state.
    broker: Mutex<Broker>,
    job_ready: Condvar,
    alive: AtomicBool,
    clock: Arc<dyn Clock>,
    subscribers: RwLock<std::collections::HashMap<SubscriberId, SubscriberEntry>>,
    /// Set once a wire transport (TCP server or reactor) connects a
    /// subscriber. Until then `deliver` skips frame encoding entirely:
    /// in-process workloads pay zero wire cost.
    wire_subscribers: AtomicBool,
    backup: RwLock<Option<BackupSink>>,
    telemetry: Telemetry,
    /// Emulated downstream wire/service time per finished job, in
    /// nanoseconds (see [`RtBroker::set_job_service_time`]). Zero (the
    /// default) skips the sleep entirely.
    job_service_ns: std::sync::atomic::AtomicU64,
    /// Scripted fault hook ([`crate::fault`]); `None` in production.
    hook: SharedFaultHook,
}

/// Handle to a running threaded broker.
///
/// Cloning the handle is cheap; the broker shuts down when
/// [`RtBroker::kill`] or [`RtBroker::shutdown`] is called (killing models a
/// crash: queued work is abandoned, exactly like the paper's SIGKILL
/// injection).
#[derive(Clone)]
pub struct RtBroker {
    inner: Arc<Inner>,
}

/// Join handles of a broker's threads, returned by [`RtBroker::spawn`].
pub struct RtBrokerThreads {
    handles: Vec<JoinHandle<()>>,
}

impl RtBrokerThreads {
    /// Waits for every broker thread to exit.
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

impl RtBroker {
    /// Spawns a broker with `workers` delivery threads (the paper uses
    /// 3 × CPU cores), recording into `telemetry` — [`Telemetry::new`] for
    /// a private registry, a clone to share one across brokers,
    /// [`Telemetry::disabled`] for no-op recording. `hook` is a scripted
    /// [`crate::fault::FaultHook`] consulted on the Primary→Backup and
    /// broker→subscriber hops and in the worker loop; `None` in production.
    pub fn spawn(
        id: BrokerId,
        role: BrokerRole,
        config: BrokerConfig,
        workers: usize,
        clock: Arc<dyn Clock>,
        telemetry: Telemetry,
        hook: SharedFaultHook,
    ) -> (RtBroker, RtBrokerThreads) {
        let mut broker = Broker::new(id, role, config);
        broker.set_telemetry(telemetry.clone());
        let inner = Arc::new(Inner {
            id,
            broker: Mutex::new(broker),
            job_ready: Condvar::new(),
            alive: AtomicBool::new(true),
            clock,
            subscribers: RwLock::new(std::collections::HashMap::new()),
            wire_subscribers: AtomicBool::new(false),
            backup: RwLock::new(None),
            telemetry,
            job_service_ns: std::sync::atomic::AtomicU64::new(0),
            hook,
        });

        let handles = (0..workers.max(1))
            .map(|w| spawn_worker(inner.clone(), w))
            .collect();
        (RtBroker { inner }, RtBrokerThreads { handles })
    }

    /// The broker's id.
    pub fn id(&self) -> BrokerId {
        self.inner.id
    }

    /// The runtime clock's current reading.
    pub(crate) fn now(&self) -> Time {
        self.inner.clock.now()
    }

    /// Admits a publisher message on the calling thread.
    ///
    /// A no-op once the broker is killed, when it is not Primary, or for
    /// an unknown topic — a send to a dead broker is a dropped packet.
    pub fn publish(&self, message: Message) {
        self.admit(message, Broker::on_message);
    }

    /// Admits a publisher's retention re-send (the fail-over path) on the
    /// calling thread; no-op under the same conditions as
    /// [`RtBroker::publish`].
    pub fn resend(&self, message: Message) {
        self.admit(message, Broker::on_resend);
    }

    fn admit(
        &self,
        mut message: Message,
        admit: fn(&mut Broker, Message, Time) -> Result<(), FrameError>,
    ) {
        let inner = &*self.inner;
        if !inner.alive.load(Ordering::Acquire) {
            return;
        }
        let now = inner.clock.now();
        let traced = inner.telemetry.is_enabled();
        if traced {
            message
                .trace
                .get_or_insert_with(TraceCtx::new)
                .stamp(SpanPoint::ProxyRecv, now);
        }
        let created = {
            let mut broker = lock_broker(inner);
            if let Some(trace) = message.trace.as_mut().filter(|_| traced) {
                // Post-lock stamp: the ProxyRecv→Admitted slice is the
                // admission cost including the wait for the broker lock.
                trace.stamp(SpanPoint::Admitted, inner.clock.now());
            }
            let before = broker.queue_len();
            let _ = admit(&mut broker, message, now);
            let depth = broker.queue_len();
            // Gauge stored under the lock: store order = mutation order.
            inner.telemetry.record_queue_depth(inner.id, depth as u64);
            depth - before
        };
        if created > 0 {
            inner.telemetry.record_admit();
        }
        inner
            .telemetry
            .record_stage(Stage::ProxyIngress, inner.clock.now().saturating_since(now));
        // One wake-up per job: waking the whole pool for one job only
        // makes the losers spin back to sleep.
        for _ in 0..created {
            inner.job_ready.notify_one();
        }
    }

    /// Applies replicas and prunes from the Primary, in order, on the
    /// calling thread. A no-op once the broker is killed; effects arriving
    /// while it is not a Backup are ignored one by one.
    pub fn apply_backup(&self, effects: impl IntoIterator<Item = BackupEffect>) {
        let inner = &*self.inner;
        if !inner.alive.load(Ordering::Acquire) {
            return;
        }
        let now = inner.clock.now();
        let mut broker = lock_broker(inner);
        for effect in effects {
            let _ = match effect {
                BackupEffect::Replica(m) => broker.on_replica(m, now),
                BackupEffect::Prune(k) => broker.on_prune(k, now),
            };
        }
    }

    /// Registers a topic and its subscribers.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::DuplicateTopic`] if already registered.
    pub fn register_topic(
        &self,
        admitted: AdmittedTopic,
        subscribers: Vec<SubscriberId>,
    ) -> Result<(), FrameError> {
        self.inner
            .broker
            .lock()
            .register_topic(admitted, subscribers)
    }

    /// Connects a subscriber's delivery channel. `notify` is invoked
    /// after deliveries are pushed, so an event-driven transport (the
    /// ingress reactor) can schedule the drain instead of polling the
    /// channel. A notify marks a wire subscriber and turns on encode-once
    /// delivery: each delivery then carries its pre-encoded frame. An
    /// in-process consumer passes `None`.
    pub fn connect_subscriber(
        &self,
        id: SubscriberId,
        tx: Sender<Delivered>,
        notify: Option<DeliveryNotify>,
    ) {
        if notify.is_some() {
            self.inner.wire_subscribers.store(true, Ordering::Release);
        }
        self.inner
            .subscribers
            .write()
            .insert(id, SubscriberEntry { tx, notify });
    }

    /// Connects the Backup peer: every finished job's replicas and prunes
    /// are handed to `sink`.
    pub fn connect_backup(&self, sink: BackupSink) {
        *self.inner.backup.write() = Some(sink);
    }

    /// Crash the broker (fail-stop): threads stop processing immediately,
    /// queued jobs and buffered messages are abandoned.
    pub fn kill(&self) {
        self.inner.alive.store(false, Ordering::Release);
        self.inner.job_ready.notify_all();
    }

    /// Graceful alias of [`RtBroker::kill`] — the broker model has no
    /// drain-then-stop semantics (the paper's fail-stop assumption), but
    /// callers that finished their workload read better with this name.
    pub fn shutdown(&self) {
        self.kill();
    }

    /// Whether the broker is still alive.
    pub fn is_alive(&self) -> bool {
        self.inner.alive.load(Ordering::Acquire)
    }

    /// Emulates the downstream wire/service time of the paper's testbed:
    /// after finishing each job, a worker blocks for `per_job` without
    /// holding any lock, the way a Dispatcher writing to subscriber hosts
    /// over a real NIC would. In-process channel transport erases that
    /// blocked time, which makes worker-pool sizing unmeasurable on
    /// CPU-starved hosts; benchmarks set this to restore it. Zero (the
    /// default) is a no-op on the hot path beyond one relaxed atomic load.
    pub fn set_job_service_time(&self, per_job: frame_types::Duration) {
        self.inner
            .job_service_ns
            .store(per_job.as_nanos(), Ordering::Relaxed);
    }

    /// Promotes this broker (must be a Backup) to Primary; recovery
    /// dispatch jobs are scheduled and the worker pool is woken. The role
    /// flip and the recovery jobs are one critical section, so no re-send
    /// is admitted between them.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::WrongRole`] if the broker is already Primary.
    pub fn promote(&self) -> Result<usize, FrameError> {
        let created = {
            let mut broker = self.inner.broker.lock();
            let created = broker.promote(self.inner.clock.now())?;
            self.inner
                .telemetry
                .record_queue_depth(self.inner.id, broker.queue_len() as u64);
            created
        };
        self.inner.job_ready.notify_all();
        Ok(created)
    }

    /// One consistent snapshot of the broker's counters.
    pub fn stats(&self) -> BrokerStats {
        self.inner.broker.lock().stats()
    }

    /// The telemetry handle this broker records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Current role.
    pub fn role(&self) -> BrokerRole {
        self.inner.broker.lock().role()
    }

    /// Live jobs waiting in the delivery queue, parked ones included.
    pub fn queue_len(&self) -> usize {
        self.inner.broker.lock().queue_len()
    }

    /// Attaches an overload controller (see [`frame_core::overload`]).
    /// Already-registered topics are classified immediately; later
    /// registrations join automatically. The controller only acts when
    /// some thread drives [`RtBroker::control_tick`] at the configured
    /// cadence — `RtSystem` spawns that thread, chaos harnesses tick
    /// manually on the logical clock.
    pub fn set_overload(&self, config: OverloadConfig) {
        self.inner.broker.lock().set_overload(config);
    }

    /// Runs one overload-control tick at the runtime clock's now; see
    /// [`RtBroker::control_tick_at`].
    pub fn control_tick(&self) -> usize {
        self.control_tick_at(self.inner.clock.now())
    }

    /// Runs one overload-control tick at `now` ([`Broker::control_tick`]):
    /// reads the pressure signals, advances the ladder and applies any
    /// per-topic degradations/restorations. Returns the number of actions
    /// applied; a no-op without an attached controller.
    pub fn control_tick_at(&self, now: Time) -> usize {
        self.inner.broker.lock().control_tick(now)
    }
}

/// Locks the broker on the message path, counting the acquisition as
/// contended when another thread already holds it.
fn lock_broker(inner: &Inner) -> MutexGuard<'_, Broker> {
    match inner.broker.try_lock() {
        Some(guard) => guard,
        None => {
            inner.telemetry.record_shard_contention();
            inner.broker.lock()
        }
    }
}

/// Jobs' worth of emulated wire time a worker accumulates before paying
/// it in one sleep — the model of one vectored `writev` whose wire time is
/// the sum of its frames. Per-job sleeps eat the kernel's wake-up
/// overshoot (~100 µs on Linux) once per message; batching pays it once
/// per ~64, which is where the 8-worker throughput ceiling moves.
const SERVICE_DEBT_BATCH: u64 = 64;

fn spawn_worker(inner: Arc<Inner>, index: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("frame-delivery-{index}"))
        .spawn(move || {
            frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Worker, index);
            let mut iters = 0u32;
            // Reused per-worker scratch: finish effects land here
            // (`run_claimed`), so steady state allocates no Vec per job.
            let mut effects: Vec<Effect> = Vec::new();
            // Encodes each dispatched message's shared Deliver frame.
            let mut codec = WireCodec::new();
            // Emulated wire time owed but not yet slept (see
            // SERVICE_DEBT_BATCH). Deliveries themselves are never
            // deferred — only the modelled wire latency is.
            let mut debt_ns: u64 = 0;
            // A job claimed under the previous batch's release guard.
            let mut claimed: Option<Job> = None;
            loop {
                iters = iters.wrapping_add(1);
                if iters.is_multiple_of(CPU_STAMP_EVERY) {
                    frame_telemetry::stamp_thread_cpu();
                }
                if !inner.alive.load(Ordering::Acquire) {
                    frame_telemetry::stamp_thread_cpu();
                    return;
                }
                // Claim under the broker lock; wait on it when idle (with
                // a timeout so kill() is always noticed).
                inner
                    .telemetry
                    .heartbeat(HeartbeatKind::Worker, inner.clock.now());
                let job = claimed.take().or_else(|| {
                    let mut broker = lock_broker(&inner);
                    let job = broker.claim();
                    match job {
                        // Gauge stored while the lock is still held, so
                        // stores land in mutation order.
                        Some(_) => inner
                            .telemetry
                            .record_queue_depth(inner.id, broker.queue_len() as u64),
                        None if debt_ns == 0 => {
                            inner
                                .job_ready
                                .wait_for(&mut broker, std::time::Duration::from_millis(10));
                        }
                        None => {}
                    }
                    job
                });
                let Some(job) = job else {
                    if debt_ns > 0 {
                        // Queue drained: settle the batch's wire debt in one
                        // sleep (the `writev` of the accumulated frames).
                        std::thread::sleep(std::time::Duration::from_nanos(debt_ns));
                        debt_ns = 0;
                    }
                    continue;
                };
                // This worker holds the job's topic: run it, then every job
                // of the topic parked meanwhile, in pop order.
                let mut next = Some(job);
                while let Some(job) = next.take() {
                    let topic = job.topic;
                    debt_ns += run_job(&inner, job, &mut effects, &mut codec);
                    if !inner.alive.load(Ordering::Acquire) {
                        break;
                    }
                    let mut broker = lock_broker(&inner);
                    next = broker.release(topic);
                    if next.is_none() && debt_ns == 0 {
                        // Nothing parked on this topic and no wire time
                        // owed: claim the next job under the same guard
                        // rather than locking again at the loop top.
                        claimed = broker.claim();
                    }
                    if next.is_some() || claimed.is_some() {
                        inner
                            .telemetry
                            .record_queue_depth(inner.id, broker.queue_len() as u64);
                    }
                }
                // Emulated wire time (see `set_job_service_time`): accrued
                // as debt and paid in one sleep per batch, with the topic
                // already released — blocked and holding nothing, so it
                // overlaps across workers exactly like real vectored
                // socket writes to subscriber hosts would.
                let service_ns = inner.job_service_ns.load(Ordering::Relaxed);
                if service_ns > 0 && debt_ns >= service_ns.saturating_mul(SERVICE_DEBT_BATCH) {
                    std::thread::sleep(std::time::Duration::from_nanos(debt_ns));
                    debt_ns = 0;
                }
            }
        })
        .expect("spawn delivery worker")
}

/// Runs one claimed job: resolves and finishes it under the broker lock,
/// then sends its effects with the lock dropped but the topic still
/// claimed. Returns the job's emulated wire time in nanoseconds, which the
/// caller owes once it has released the topic.
fn run_job(inner: &Inner, job: Job, effects: &mut Vec<Effect>, codec: &mut WireCodec) -> u64 {
    if let Some(hook) = inner.hook.as_deref() {
        if let Some(stall) = hook.on_worker_job(job.topic, job.key.seq) {
            // Scripted worker stall: lock-free, so it consumes
            // queue-wait budget exactly like a preempted worker.
            std::thread::sleep(stall);
        }
    }
    let now = inner.clock.now();
    let kind = {
        let mut broker = lock_broker(inner);
        // Popped at `now`, Locked once the broker lock is held: their gap
        // is this worker's lock wait.
        let locked = if inner.telemetry.is_enabled() {
            inner.clock.now()
        } else {
            now
        };
        broker.run_claimed(job, now, locked, effects)
    };
    let Some(kind) = kind else {
        return 0;
    };
    // Sent before the topic is released: for this topic, channel order is
    // the Table-3 order, so a prune can never overtake its replica, and
    // deliveries leave in job order. Other topics' workers are unaffected.
    send_backup_batch(inner, effects);
    deliver(inner, effects, now, codec);
    let service_ns = inner.job_service_ns.load(Ordering::Relaxed);
    let stage = match kind {
        JobKind::Dispatch => Stage::DispatchExec,
        JobKind::Replicate => Stage::ReplicateExec,
    };
    // The stage still reports exec + the job's modelled wire
    // time even when the sleep itself is batched.
    inner.telemetry.record_stage(
        stage,
        inner
            .clock
            .now()
            .saturating_since(now)
            .saturating_add(frame_types::Duration::from_nanos(service_ns)),
    );
    service_ns
}

/// Hands the backup-bound effects of one finished job to the backup sink
/// as one batch.
///
/// Each effect crosses the Primary→Backup hop through the fault hook (if
/// any): dropped effects never leave, truncated replicas leave cut short,
/// duplicated effects are repeated in place (order preserved), and delayed
/// effects leave from a timer thread — so later traffic overtakes them,
/// which is how Table-3 order violations are provoked under test.
fn send_backup_batch(inner: &Inner, effects: &[Effect]) {
    let mut batch: Vec<BackupEffect> = Vec::new();
    let mut delayed: Vec<(std::time::Duration, BackupEffect)> = Vec::new();
    for effect in effects {
        let staged = match effect {
            Effect::Replicate { message } => BackupEffect::Replica(message.clone()),
            Effect::Prune { key } => BackupEffect::Prune(*key),
            Effect::Deliver { .. } => continue,
        };
        let (topic, seq, kind) = match &staged {
            BackupEffect::Replica(m) => (m.topic, m.seq, BackupEffectKind::Replica),
            BackupEffect::Prune(k) => (k.topic, k.seq, BackupEffectKind::Prune),
        };
        if let Some(hook) = &inner.hook {
            // Emission-order observation (the topic is still claimed):
            // this is the ground truth a Table-3 order checker replays.
            hook.on_backup_effect(topic, seq, kind);
        }
        let fate = fate_of(&inner.hook, Hop::PrimaryToBackup, topic, seq);
        if fate.is_pass() {
            batch.push(staged);
            continue;
        }
        if fate.copies == 0 {
            continue;
        }
        let staged = match (staged, fate.truncate_to) {
            (BackupEffect::Replica(mut m), Some(n)) => {
                m.payload.truncate(n);
                BackupEffect::Replica(m)
            }
            (s, _) => s,
        };
        for _ in 0..fate.copies {
            match fate.delay {
                None => batch.push(staged.clone()),
                Some(d) => delayed.push((d, staged.clone())),
            }
        }
    }
    if batch.is_empty() && delayed.is_empty() {
        return;
    }
    let backup = inner.backup.read();
    let Some(sink) = backup.as_ref() else {
        return;
    };
    for (delay, effect) in delayed {
        let sink = sink.clone();
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            sink(vec![effect]);
        });
    }
    if !batch.is_empty() {
        sink(batch);
    }
}

/// Pushes deliveries to subscriber channels under the shared (read) side
/// of the subscriber map, so concurrent deliveries never contend and a
/// slow subscriber cannot stall others behind an exclusive lock.
fn deliver(inner: &Inner, effects: &[Effect], now: Time, codec: &mut WireCodec) {
    let subs = inner.subscribers.read();
    // One clock read for the whole effect batch (the fan-out shares a
    // hand-off instant); skipped entirely when telemetry is off.
    let send_at = if inner.telemetry.is_enabled() {
        inner.clock.now()
    } else {
        now
    };
    // Encode-once fan-out: every Deliver effect in one finish batch
    // carries the same message, so the outbound frame is encoded at most
    // once here and shared (refcounted) by all N subscriber channels.
    // Skipped when no wire subscriber exists (in-process workloads pay
    // nothing) and under a fault hook (fates may perturb payloads per
    // subscriber, so transports must encode what they actually send).
    let want_wire = inner.hook.is_none() && inner.wire_subscribers.load(Ordering::Acquire);
    let mut wire: Option<EncodedFrame> = None;
    let mut recorded = false;
    for effect in effects {
        if let Effect::Deliver {
            subscriber,
            message,
        } = effect
        {
            // End-to-end transit: publisher creation → broker hand-off
            // to the subscriber channel (paper Table 5 latency).
            let transit = now.saturating_since(message.created_at);
            inner.telemetry.record_stage(Stage::Transit, transit);
            let mut message = message.clone();
            if let Some(trace) = message.trace.as_mut() {
                // Re-stamp over the broker's finish-time stamp: this is the
                // actual channel hand-off instant on this worker.
                trace.stamp(SpanPoint::DeliverSend, send_at);
            }
            if !recorded {
                // Once per dispatched message, not per subscriber — the
                // fan-out shares one seq and one span timeline.
                recorded = true;
                inner.telemetry.record_delivery(
                    message.topic,
                    message.seq,
                    message.created_at,
                    send_at,
                    message.trace.as_ref(),
                );
            }
            if want_wire && wire.is_none() {
                // All fan-out copies share one stamped timeline (send_at is
                // batch-wide), so this frame is byte-identical for every
                // subscriber of this message.
                wire = codec.encode(&WireMsg::Deliver(message.clone())).ok();
            }
            if let Some(entry) = subs.get(subscriber) {
                // The broker→subscriber hop crosses the fault hook last:
                // the dispatch above is already accounted (the broker did
                // its work); what a fate perturbs is whether/when the
                // frame reaches this subscriber's channel.
                let fate = fate_of(
                    &inner.hook,
                    Hop::BrokerToSubscriber,
                    message.topic,
                    message.seq,
                );
                if fate.copies == 0 {
                    continue;
                }
                let mut message = message;
                if let Some(n) = fate.truncate_to {
                    message.payload.truncate(n);
                }
                match fate.delay {
                    None => {
                        for _ in 0..fate.copies {
                            let _ = entry.tx.send(Delivered {
                                message: message.clone(),
                                dispatched_at: now,
                                wire: wire.clone(),
                            });
                        }
                        if let Some(notify) = &entry.notify {
                            notify();
                        }
                    }
                    Some(delay) => {
                        let tx = entry.tx.clone();
                        let notify = entry.notify.clone();
                        // Delayed fates only exist under a hook, where
                        // `wire` is never populated — the transport
                        // encodes the (possibly perturbed) message itself.
                        std::thread::spawn(move || {
                            std::thread::sleep(delay);
                            for _ in 0..fate.copies {
                                let _ = tx.send(Delivered {
                                    message: message.clone(),
                                    dispatched_at: now,
                                    wire: None,
                                });
                            }
                            if let Some(notify) = &notify {
                                notify();
                            }
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use frame_clock::MonotonicClock;
    use frame_core::admit;
    use frame_types::{NetworkParams, PublisherId, SeqNo, TopicId, TopicSpec};

    fn admitted(cat: u8, id: u32) -> AdmittedTopic {
        admit(
            &TopicSpec::category(cat, TopicId(id)),
            &NetworkParams::paper_example(),
        )
        .unwrap()
    }

    fn msg(topic: u32, seq: u64, clock: &dyn Clock) -> Message {
        Message::new(
            TopicId(topic),
            PublisherId(0),
            SeqNo(seq),
            clock.now(),
            &b"0123456789abcdef"[..],
        )
    }

    #[test]
    fn publish_reaches_subscriber() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let (broker, threads) = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            2,
            clock.clone(),
            Telemetry::new(),
            None,
        );
        broker
            .register_topic(admitted(0, 1), vec![SubscriberId(1)])
            .unwrap();
        let (tx, rx) = unbounded();
        broker.connect_subscriber(SubscriberId(1), tx, None);

        for seq in 0..10 {
            broker.publish(msg(1, seq, clock.as_ref()));
        }
        for seq in 0..10 {
            let d = rx
                .recv_timeout(std::time::Duration::from_secs(2))
                .expect("delivery");
            assert_eq!(d.message.seq, SeqNo(seq), "in-order delivery");
        }
        broker.shutdown();
        threads.join();
        assert_eq!(broker.stats().dispatches, 10);
    }

    #[test]
    fn many_workers_deliver_one_topic_in_order() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let (broker, threads) = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            8,
            clock.clone(),
            Telemetry::new(),
            None,
        );
        broker
            .register_topic(admitted(0, 1), vec![SubscriberId(1)])
            .unwrap();
        let (tx, rx) = unbounded();
        broker.connect_subscriber(SubscriberId(1), tx, None);
        const N: u64 = 2_000;
        for seq in 0..N {
            broker.publish(msg(1, seq, clock.as_ref()));
        }
        for seq in 0..N {
            let d = rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("delivery");
            assert_eq!(d.message.seq, SeqNo(seq), "in-order delivery");
        }
        broker.shutdown();
        threads.join();
        assert_eq!(broker.queue_len(), 0);
    }

    #[test]
    fn replication_flows_to_backup_and_prunes() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let (primary, pt) = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            2,
            clock.clone(),
            Telemetry::new(),
            None,
        );
        let (backup, bt) = RtBroker::spawn(
            BrokerId(1),
            BrokerRole::Backup,
            BrokerConfig::frame(),
            2,
            clock.clone(),
            Telemetry::new(),
            None,
        );
        // Category 2 requires replication under Proposition 1.
        primary
            .register_topic(admitted(2, 1), vec![SubscriberId(1)])
            .unwrap();
        backup
            .register_topic(admitted(2, 1), vec![SubscriberId(1)])
            .unwrap();
        let sink = backup.clone();
        primary.connect_backup(Arc::new(move |effects| sink.apply_backup(effects)));
        let (tx, rx) = unbounded();
        primary.connect_subscriber(SubscriberId(1), tx, None);

        primary.publish(msg(1, 0, clock.as_ref()));
        rx.recv_timeout(std::time::Duration::from_secs(2)).unwrap();

        // Wait until the backup both received the replica and applied the
        // prune (dispatch-replicate coordination over real threads).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            let s = backup.stats();
            if s.replicas_received >= 1 && s.prunes_applied >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "backup never coordinated: {s:?}"
            );
            std::thread::yield_now();
        }
        primary.shutdown();
        backup.shutdown();
        pt.join();
        bt.join();
    }

    #[test]
    fn kill_then_promote_recovers_unpruned_copies() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let (backup, bt) = RtBroker::spawn(
            BrokerId(1),
            BrokerRole::Backup,
            BrokerConfig::fcfs_minus(),
            2,
            clock.clone(),
            Telemetry::new(),
            None,
        );
        backup
            .register_topic(admitted(2, 1), vec![SubscriberId(1)])
            .unwrap();
        let (tx, rx) = unbounded();
        backup.connect_subscriber(SubscriberId(1), tx, None);

        // Feed replicas directly (as a primary would), then promote.
        for seq in 0..5 {
            backup.apply_backup([BackupEffect::Replica(msg(1, seq, clock.as_ref()))]);
        }
        assert_eq!(backup.stats().replicas_received, 5);
        assert_eq!(backup.role(), BrokerRole::Backup);
        let created = backup.promote().unwrap();
        assert_eq!(created, 5);
        assert_eq!(backup.role(), BrokerRole::Primary);
        for seq in 0..5 {
            let d = rx
                .recv_timeout(std::time::Duration::from_secs(2))
                .expect("recovered delivery");
            assert_eq!(d.message.seq, SeqNo(seq));
        }
        backup.shutdown();
        bt.join();
    }

    #[test]
    fn replica_batch_applies_in_order() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let (backup, bt) = RtBroker::spawn(
            BrokerId(1),
            BrokerRole::Backup,
            BrokerConfig::frame(),
            1,
            clock.clone(),
            Telemetry::new(),
            None,
        );
        backup
            .register_topic(admitted(2, 1), vec![SubscriberId(1)])
            .unwrap();
        // A batch carrying replica then prune for the same key must leave
        // the copy discarded (order preserved within the batch).
        let m = msg(1, 0, clock.as_ref());
        let key = m.key();
        backup.apply_backup(vec![
            BackupEffect::Replica(m),
            BackupEffect::Prune(key),
            BackupEffect::Replica(msg(1, 1, clock.as_ref())),
        ]);
        let s = backup.stats();
        assert_eq!((s.replicas_received, s.prunes_applied), (2, 1), "{s:?}");
        backup.shutdown();
        bt.join();
    }

    #[test]
    fn overload_controller_degrades_and_sheds_under_offered_load() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let (broker, threads) = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            1,
            clock.clone(),
            Telemetry::new(),
            None,
        );
        // Category 4 is best-effort: shed- and evict-eligible.
        broker
            .register_topic(admitted(4, 1), vec![SubscriberId(1)])
            .unwrap();
        let (tx, rx) = unbounded();
        broker.connect_subscriber(SubscriberId(1), tx, None);

        // Rate-driven pressure only: 1 msg/s capacity against a burst of
        // hundreds in milliseconds reads as saturated on every tick.
        let mut config = OverloadConfig::new(frame_types::NetworkParams::paper_example());
        config.capacity_per_sec = 1.0;
        config.target_queue_depth = 0;
        config.escalate_ticks = 1;
        config.cooldown_ticks = 10_000;
        broker.set_overload(config);

        let ingest = |n: u64, from: u64| {
            for seq in from..from + n {
                broker.publish(msg(1, seq, clock.as_ref()));
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            loop {
                let s = broker.stats();
                if s.messages_in + s.messages_shed >= from + n {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "ingest stalled: {s:?}"
                );
                std::thread::yield_now();
            }
        };

        ingest(100, 0);
        broker.control_tick(); // establishes the rate baseline
        ingest(100, 100);
        broker.control_tick(); // hot: climb to replication suppression
        ingest(100, 200);
        broker.control_tick(); // hot: climb to shedding
        ingest(100, 300);

        let stats = broker.stats();
        assert!(
            stats.messages_shed > 0,
            "best-effort topic should shed at admission under rung 2: {stats:?}"
        );
        let snap = broker.telemetry().snapshot();
        assert!(snap.overload.rung >= 2, "rung climbed: {:?}", snap.overload);
        assert!(snap.overload.escalations >= 2);
        assert!(snap.overload.shedding_topics >= 1);
        drop(rx);
        broker.shutdown();
        threads.join();
    }

    #[test]
    fn calls_after_kill_create_no_job_and_move_no_counter() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let spawn = |id, role| {
            RtBroker::spawn(
                id,
                role,
                BrokerConfig::frame(),
                1,
                clock.clone(),
                Telemetry::new(),
                None,
            )
        };
        let (primary, pt) = spawn(BrokerId(0), BrokerRole::Primary);
        let (backup, bt) = spawn(BrokerId(1), BrokerRole::Backup);
        for b in [&primary, &backup] {
            b.register_topic(admitted(2, 1), vec![SubscriberId(1)])
                .unwrap();
        }
        // Alive: each call lands.
        primary.publish(msg(1, 0, clock.as_ref()));
        backup.apply_backup([BackupEffect::Replica(msg(1, 0, clock.as_ref()))]);
        assert_eq!(primary.stats().messages_in, 1);
        assert_eq!(backup.stats().replicas_received, 1);

        primary.kill();
        backup.kill();
        assert!(!primary.is_alive() && !backup.is_alive());
        // Workers may still be finishing the job above when the kill lands;
        // let them stop before taking the baseline.
        pt.join();
        bt.join();
        let (p_before, b_before) = (primary.stats(), backup.stats());
        let p_queue = primary.queue_len();
        primary.publish(msg(1, 1, clock.as_ref()));
        primary.resend(msg(1, 2, clock.as_ref()));
        let m = msg(1, 1, clock.as_ref());
        let key = m.key();
        backup.apply_backup(vec![BackupEffect::Replica(m), BackupEffect::Prune(key)]);
        assert_eq!(primary.queue_len(), p_queue, "no job created after kill");
        assert_eq!(primary.stats(), p_before);
        assert_eq!(backup.stats(), b_before);
        assert_eq!(backup.queue_len(), 0);
    }
}
