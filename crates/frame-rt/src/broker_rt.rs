//! The threaded broker: a pool of delivery worker threads over the
//! two-plane broker state of `frame-core`, with admission running on the
//! caller's thread.
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
//! # Locking design (two planes)
//!
//! Instead of one `Mutex<Broker>` serializing every stage, state is split
//! the way `frame-core` splits it:
//!
//! * one [`TopicShard`] per topic, each behind its own `Mutex` — buffer
//!   slots, Table-3 flags, the pending-replication map;
//! * one [`Scheduler`] (the EDF/FCFS queue) behind a separate short lock,
//!   held only to push, pop or cancel a job.
//!
//! A worker locks the scheduler to pop, then only the one shard its job
//! touches; an admitting caller locks only the shard it is admitting into
//! (plus the scheduler to enqueue the generated jobs). Ingress on topic A
//! therefore never blocks a worker dispatching topic B, and N workers drain
//! the heap concurrently, serializing only per topic.
//!
//! The topic is also the unit of *execution*: workers take jobs with
//! [`Scheduler::claim`], so at most one job per topic is in flight and a
//! topic's later jobs are parked behind the worker holding it, which runs
//! them in pop order before [`Scheduler::release`] frees the topic.
//!
//! The lock order is always shard → scheduler (admit and cancel take the
//! scheduler while holding a shard; the claim and release paths hold the
//! scheduler alone), so the two planes cannot deadlock.
//!
//! Per-topic serialization is exactly what the paper's Table-3 coordination
//! needs: every flag transition, cancellation and prune concerns one
//! `(topic, seq)` copy. Backup-bound effects are handed to the sink while
//! the shard lock is held, so for any topic the sink sees the Table-3
//! order — a prune can never overtake the replica it discards (this
//! regressed once when effects were sent after dropping the broker lock;
//! see ROADMAP).
//!
//! The subscriber map and the backup sink are read-mostly `RwLock`s:
//! deliveries share the read lock and never contend with each other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::Sender;
use frame_clock::Clock;
use frame_core::{
    apply_control_action, AdmitCtx, AdmittedTopic, BrokerConfig, BrokerRole, BrokerStats,
    BufferSource, Effect, Job, JobKind, OverloadConfig, OverloadController, PressureSample,
    Resolution, Scheduler, TopicClass, TopicShard,
};
use frame_telemetry::{DecisionKind, HeartbeatKind, IncidentKind, Stage, Telemetry};
use frame_types::wire::{EncodedFrame, WireCodec, WireMsg};
use frame_types::{
    BrokerId, FrameError, Message, SeqNo, SpanPoint, SubscriberId, Time, TopicId, TraceCtx,
};
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
/// job, in emission order. It runs on worker threads under the emitting
/// topic's shard lock, which is what keeps the Table-3 order per topic, so
/// it must not block: in-process it is a closure over the Backup's
/// [`RtBroker::apply_backup`], over TCP a send into the bridge's channel.
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

/// A topic's shard plus its slice of the broker counters, guarded by one
/// lock so every mutation and its accounting stay atomic.
struct ShardSlot {
    shard: TopicShard,
    stats: BrokerStats,
}

struct Inner {
    id: BrokerId,
    config: BrokerConfig,
    role: RwLock<BrokerRole>,
    has_backup_peer: AtomicBool,
    /// Per-topic state plane. The map itself is read-mostly (topics are
    /// registered up front); each shard has its own lock.
    shards: RwLock<std::collections::HashMap<TopicId, Arc<Mutex<ShardSlot>>>>,
    /// Scheduling plane: the job queue, behind a short lock.
    sched: Mutex<Scheduler>,
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
    /// Overload controller ([`frame_core::overload`]); `None` until
    /// [`RtBroker::set_overload`]. Locked only on the control tick, never
    /// on the message path.
    overload: Mutex<Option<OverloadController>>,
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
        let inner = Arc::new(Inner {
            id,
            config,
            role: RwLock::new(role),
            has_backup_peer: AtomicBool::new(role == BrokerRole::Primary),
            shards: RwLock::new(std::collections::HashMap::new()),
            sched: Mutex::new(Scheduler::new(config.policy)),
            job_ready: Condvar::new(),
            alive: AtomicBool::new(true),
            clock,
            subscribers: RwLock::new(std::collections::HashMap::new()),
            wire_subscribers: AtomicBool::new(false),
            backup: RwLock::new(None),
            telemetry,
            job_service_ns: std::sync::atomic::AtomicU64::new(0),
            hook,
            overload: Mutex::new(None),
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
        self.admit(message, BufferSource::Message);
    }

    /// Admits a publisher's retention re-send (the fail-over path) on the
    /// calling thread; no-op under the same conditions as
    /// [`RtBroker::publish`].
    pub fn resend(&self, message: Message) {
        self.admit(message, BufferSource::Resend);
    }

    fn admit(&self, message: Message, source: BufferSource) {
        let inner = &*self.inner;
        if !inner.alive.load(Ordering::Acquire) {
            return;
        }
        let now = inner.clock.now();
        let created = ingress(inner, message, source, now);
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
        for effect in effects {
            apply_backup_effect(inner, effect);
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
        let id = admitted.spec.id;
        let deadline = admitted.spec.deadline;
        let loss_bound = admitted.spec.loss_tolerance.bound();
        let mut shards = self.inner.shards.write();
        if shards.contains_key(&id) {
            return Err(FrameError::DuplicateTopic(id));
        }
        shards.insert(
            id,
            Arc::new(Mutex::new(ShardSlot {
                shard: TopicShard::new(
                    admitted,
                    subscribers,
                    &self.inner.config,
                    self.inner.telemetry.clone(),
                ),
                stats: BrokerStats::default(),
            })),
        );
        drop(shards);
        if let Some(controller) = self.inner.overload.lock().as_mut() {
            if let Some(slot) = shard_of(&self.inner, id) {
                controller.register_topic(TopicClass::from_admitted(slot.lock().shard.admitted()));
            }
        }
        self.inner.telemetry.set_topic_slo(id, deadline, loss_bound);
        Ok(())
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
    /// dispatch jobs are scheduled and the worker pool is woken.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::WrongRole`] if the broker is already Primary.
    pub fn promote(&self) -> Result<usize, FrameError> {
        {
            let mut role = self.inner.role.write();
            if *role != BrokerRole::Backup {
                return Err(FrameError::WrongRole {
                    operation: "promote",
                });
            }
            *role = BrokerRole::Primary;
        }
        self.inner.has_backup_peer.store(false, Ordering::Release);
        let now = self.inner.clock.now();

        // Deterministic order: by topic id, then (inside the shard) by seq.
        let mut slots: Vec<(TopicId, Arc<Mutex<ShardSlot>>)> = self
            .inner
            .shards
            .read()
            .iter()
            .map(|(t, s)| (*t, s.clone()))
            .collect();
        slots.sort_unstable_by_key(|(t, _)| *t);
        let live: usize = slots
            .iter()
            .map(|(_, s)| s.lock().shard.backup_live())
            .sum();
        self.inner
            .telemetry
            .decision(DecisionKind::Promote, TopicId(0), SeqNo(live as u64), now);
        self.inner.telemetry.incident(
            IncidentKind::Promotion,
            TopicId(0),
            SeqNo(live as u64),
            now,
            format!("promoted to Primary; {live} live backup copies to recover"),
        );
        let mut created = 0;
        for (_, slot) in &slots {
            let mut guard = slot.lock();
            let ShardSlot { shard, stats } = &mut *guard;
            let mut sched = self.inner.sched.lock();
            created += shard.recovery_jobs(now, &mut sched, stats);
            self.inner
                .telemetry
                .record_queue_depth(self.inner.id, sched.len() as u64);
        }
        self.inner.job_ready.notify_all();
        Ok(created)
    }

    /// Snapshot of the broker's counters, folded across all topic shards.
    pub fn stats(&self) -> BrokerStats {
        let mut total = BrokerStats::default();
        for slot in self.inner.shards.read().values() {
            total.merge(&slot.lock().stats);
        }
        total.queue_high_watermark = total
            .queue_high_watermark
            .max(self.inner.sched.lock().high_watermark());
        total
    }

    /// The telemetry handle this broker records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Current role.
    pub fn role(&self) -> BrokerRole {
        *self.inner.role.read()
    }

    /// Live jobs waiting in the delivery queue, parked ones included.
    pub fn queue_len(&self) -> usize {
        self.inner.sched.lock().len()
    }

    /// Attaches an overload controller (see [`frame_core::overload`]).
    /// Already-registered topics are classified immediately; later
    /// registrations join automatically. The controller only acts when
    /// some thread drives [`RtBroker::control_tick`] at the configured
    /// cadence — `RtSystem` spawns that thread, chaos harnesses tick
    /// manually on the logical clock.
    pub fn set_overload(&self, config: OverloadConfig) {
        let mut controller = OverloadController::new(config);
        let slots: Vec<Arc<Mutex<ShardSlot>>> =
            self.inner.shards.read().values().cloned().collect();
        for slot in slots {
            controller.register_topic(TopicClass::from_admitted(slot.lock().shard.admitted()));
        }
        *self.inner.overload.lock() = Some(controller);
    }

    /// Runs one overload-control tick at the runtime clock's now; see
    /// [`RtBroker::control_tick_at`].
    pub fn control_tick(&self) -> usize {
        self.control_tick_at(self.inner.clock.now())
    }

    /// Runs one overload-control tick at `now`: folds the pressure
    /// signals across shards (offered load, sheds, deadline misses, queue
    /// depth), advances the ladder, and applies any per-topic
    /// degradations/restorations under each shard's own lock. Returns the
    /// number of actions applied; a no-op without an attached controller.
    ///
    /// Lock order is overload → shard (the message path never takes the
    /// overload lock), so ticking cannot deadlock against ingress or
    /// workers.
    pub fn control_tick_at(&self, now: Time) -> usize {
        let mut guard = self.inner.overload.lock();
        let Some(controller) = guard.as_mut() else {
            return 0;
        };
        let mut offered_total = 0u64;
        let mut miss_total = 0u64;
        let slots: Vec<Arc<Mutex<ShardSlot>>> =
            self.inner.shards.read().values().cloned().collect();
        for slot in &slots {
            let stats = &slot.lock().stats;
            offered_total += stats.messages_in + stats.messages_shed;
            miss_total += stats.dispatch_deadline_misses;
        }
        let sample = PressureSample {
            queue_depth: self.inner.sched.lock().len() as u64,
            offered_total,
            miss_total,
            queue_wait_p99: frame_types::Duration::ZERO,
        };
        let outcome = controller.tick(now, sample);
        if let Some((from, to)) = outcome.transition {
            if to > from {
                self.inner.telemetry.record_overload_escalation();
            } else {
                self.inner.telemetry.record_overload_deescalation();
            }
            self.inner.telemetry.incident(
                IncidentKind::OverloadControl,
                TopicId(0),
                SeqNo(to.index() as u64),
                now,
                format!("rung {from} -> {to} at pressure {:.3}", outcome.pressure),
            );
        }
        let applied = outcome.actions.len();
        let net = controller.config().net;
        let (suppressed, shedding, evicted) = controller.degraded_counts();
        let rung = controller.rung().index() as u64;
        let pressure = controller.last_pressure();
        for action in outcome.actions {
            let Some(slot) = shard_of(&self.inner, action.topic()) else {
                continue;
            };
            let mut guard = lock_shard(&self.inner, &slot);
            apply_control_action(&mut guard.shard, action, &net, now, &self.inner.telemetry);
        }
        self.inner
            .telemetry
            .set_overload_state(rung, suppressed, shedding, evicted, pressure);
        applied
    }
}

fn shard_of(inner: &Inner, topic: TopicId) -> Option<Arc<Mutex<ShardSlot>>> {
    inner.shards.read().get(&topic).cloned()
}

/// Locks a shard, counting the acquisition as contended when another
/// thread already holds it (the telemetry signal for hot topics).
fn lock_shard<'a>(inner: &Inner, slot: &'a Arc<Mutex<ShardSlot>>) -> MutexGuard<'a, ShardSlot> {
    match slot.try_lock() {
        Some(guard) => guard,
        None => {
            inner.telemetry.record_shard_contention();
            slot.lock()
        }
    }
}

/// Admits a publisher message (or retention re-send): shard lock, then the
/// scheduler lock for the generated jobs. Returns the number of jobs
/// created (0 when the broker is not Primary or the topic is unknown).
fn ingress(inner: &Inner, mut message: Message, source: BufferSource, now: Time) -> usize {
    if *inner.role.read() != BrokerRole::Primary {
        return 0;
    }
    let Some(slot) = shard_of(inner, message.topic) else {
        return 0;
    };
    let traced = inner.telemetry.is_enabled();
    if traced {
        message
            .trace
            .get_or_insert_with(TraceCtx::new)
            .stamp(SpanPoint::ProxyRecv, now);
    }
    let mut guard = lock_shard(inner, &slot);
    if traced {
        // Post-lock stamp: the ProxyRecv→Admitted slice is the admission
        // cost including any ingress-side shard-lock wait.
        if let Some(trace) = message.trace.as_mut() {
            trace.stamp(SpanPoint::Admitted, inner.clock.now());
        }
    }
    let ShardSlot { shard, stats } = &mut *guard;
    let ctx = AdmitCtx {
        config: &inner.config,
        has_backup_peer: inner.has_backup_peer.load(Ordering::Acquire),
    };
    let mut sched = inner.sched.lock();
    let created = shard.admit(message, now, source, ctx, &mut sched, stats);
    if created > 0 {
        inner.telemetry.record_admit();
    }
    // Gauge stored under the scheduler lock: store order = mutation order.
    inner
        .telemetry
        .record_queue_depth(inner.id, sched.len() as u64);
    created
}

fn apply_backup_effect(inner: &Inner, effect: BackupEffect) {
    if *inner.role.read() != BrokerRole::Backup {
        return;
    }
    let topic = match &effect {
        BackupEffect::Replica(m) => m.topic,
        BackupEffect::Prune(k) => k.topic,
    };
    let Some(slot) = shard_of(inner, topic) else {
        return;
    };
    let mut guard = lock_shard(inner, &slot);
    let ShardSlot { shard, stats } = &mut *guard;
    match effect {
        BackupEffect::Replica(m) => shard.on_replica(m, stats),
        BackupEffect::Prune(k) => shard.on_prune(k.seq, stats),
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
            // (`finish_into`), so steady state allocates no Vec per job.
            let mut effects: Vec<Effect> = Vec::new();
            // Encodes each dispatched message's shared Deliver frame.
            let mut codec = WireCodec::new();
            // Emulated wire time owed but not yet slept (see
            // SERVICE_DEBT_BATCH). Deliveries themselves are never
            // deferred — only the modelled wire latency is.
            let mut debt_ns: u64 = 0;
            loop {
                iters = iters.wrapping_add(1);
                if iters.is_multiple_of(CPU_STAMP_EVERY) {
                    frame_telemetry::stamp_thread_cpu();
                }
                if !inner.alive.load(Ordering::Acquire) {
                    frame_telemetry::stamp_thread_cpu();
                    return;
                }
                // Pop under the scheduler lock alone; wait on it when idle
                // (with a timeout so kill() is always noticed).
                inner
                    .telemetry
                    .heartbeat(HeartbeatKind::Worker, inner.clock.now());
                let job = {
                    let mut sched = inner.sched.lock();
                    match sched.claim() {
                        Some(job) => {
                            // Gauge stored while the lock is still held, so
                            // stores land in mutation order.
                            inner
                                .telemetry
                                .record_queue_depth(inner.id, sched.len() as u64);
                            Some(job)
                        }
                        None => {
                            if debt_ns == 0 {
                                inner
                                    .job_ready
                                    .wait_for(&mut sched, std::time::Duration::from_millis(10));
                            }
                            None
                        }
                    }
                };
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
                    let mut sched = inner.sched.lock();
                    next = sched.release(topic);
                    if next.is_some() {
                        inner
                            .telemetry
                            .record_queue_depth(inner.id, sched.len() as u64);
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

/// Runs one claimed job: resolves it against its topic's shard, finishes
/// it, and sends its effects. Returns the job's emulated wire time in
/// nanoseconds, which the caller owes once it has released the topic.
fn run_job(inner: &Inner, job: Job, effects: &mut Vec<Effect>, codec: &mut WireCodec) -> u64 {
    if let Some(hook) = inner.hook.as_deref() {
        if let Some(stall) = hook.on_worker_job(job.topic, job.key.seq) {
            // Scripted worker stall: lock-free, so it consumes
            // queue-wait budget exactly like a preempted worker.
            std::thread::sleep(stall);
        }
    }
    let now = inner.clock.now();
    inner
        .telemetry
        .record_stage(Stage::QueueWait, now.saturating_since(job.release));
    let Some(slot) = shard_of(inner, job.topic) else {
        return 0;
    };
    let kind = job.kind;
    let started = inner.clock.now();
    {
        let mut guard = lock_shard(inner, &slot);
        let ShardSlot { shard, stats } = &mut *guard;
        let mut active = match shard.resolve(job, inner.config.coordination, now, stats) {
            Resolution::Active(active) => active,
            Resolution::Skipped => return 0,
        };
        if let Some(trace) = active.message.trace.as_mut() {
            // Popped at the queue pop, Locked once the shard lock is
            // held — their gap is this worker's lock wait.
            trace.stamp(SpanPoint::Popped, now);
            trace.stamp(SpanPoint::Locked, inner.clock.now());
        }
        effects.clear();
        let cancel = shard.finish_into(&active, inner.config.coordination, started, stats, effects);
        if let Some(id) = cancel {
            let mut sched = inner.sched.lock();
            sched.cancel(id);
            inner
                .telemetry
                .record_queue_depth(inner.id, sched.len() as u64);
        }
        // Backup-bound effects leave while the shard lock is held:
        // for this topic, channel order is the Table-3 order, so a
        // prune can never overtake its replica. Subscriber pushes
        // also happen here (crossbeam sends never block), which
        // keeps per-topic delivery order; other topics' workers are
        // unaffected.
        send_backup_batch(inner, effects);
        deliver(inner, effects, started, codec);
    }
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
            .saturating_since(started)
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
            // Emission-order observation (still under the shard lock):
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
                // Re-stamp over the shard's finish-time stamp: this is the
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
