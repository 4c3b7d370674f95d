//! The threaded broker: one `frame-core` [`Broker`] driven by whichever
//! thread admits work into it.
//!
//! Mirrors the paper's implementation structure (§V) without a thread per
//! role: [`RtBroker::publish`], [`RtBroker::resend`] and
//! [`RtBroker::promote`] mutate the broker and then run the jobs they can
//! claim on the same thread, to completion — a reactor event loop for
//! socket traffic, the publisher's thread in-process. That thread is the
//! Message Proxy and the Dispatcher/Replicator in turn, so a message
//! crosses no thread between its admission and its hand-off to the
//! subscriber channels. Deliveries leave over crossbeam channels,
//! Backup-bound effects through a [`BackupSink`].
//!
//! # Locking design (one lock + claim)
//!
//! All broker state — topic buffers, Table-3 flags, the job queue, the
//! role and the overload controller — is one sans-IO [`Broker`] behind one
//! `Mutex`. Every state call is one short critical section around the
//! `Broker` method of the same name, so the threaded runtime and the
//! simulator run the same state machine.
//!
//! A thread takes jobs with [`Broker::claim`], which holds the job's
//! topic: at most one job per topic is in flight, and a topic's later jobs
//! are parked behind the thread holding it, which runs them in pop order
//! before [`Broker::release`] frees the topic. A job runs under the lock
//! ([`Broker::run_claimed`]); the thread then **drops the lock, sends the
//! job's effects, and only then releases the topic**. The claim, not the
//! lock, therefore orders each topic's output: its deliveries leave in
//! job order, and a prune can never overtake the replica it discards
//! (Table 3), while encoding and fan-out run in parallel across topics.
//! No job is stranded: one whose topic is held stays parked behind the
//! holder, which runs it when it releases.
//!
//! The subscriber map and the backup sink are read-mostly `RwLock`s:
//! deliveries share the read lock and never contend with each other.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::Sender;
use frame_clock::Clock;
use frame_core::{
    AdmittedTopic, Broker, BrokerConfig, BrokerRole, BrokerStats, Effect, JobKind, OverloadConfig,
};
use frame_telemetry::{HeartbeatKind, Stage, Telemetry};
use frame_types::wire::{EncodedFrame, WireCodec, WireMsg};
use frame_types::{BrokerId, FrameError, Message, SpanPoint, SubscriberId, Time, TraceCtx};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::fault::{fate_of, BackupEffectKind, Hop, SharedFaultHook};

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
/// job, in emission order. It runs on the thread that ran the job, while
/// that thread holds the emitting topic's claim, which is what keeps the
/// Table-3 order per topic, so it must not block: in-process it is a
/// closure over the Backup's [`RtBroker::apply_backup`], over TCP a push
/// onto the link connection's channel
/// ([`crate::ReactorServer::connect_backup`]).
pub type BackupSink = Arc<dyn Fn(Vec<BackupEffect>) + Send + Sync>;

/// Called after deliveries are pushed onto a subscriber's channel, so an
/// event-driven transport (the ingress reactor) can wake the loop that
/// owns the subscriber's connection instead of having it poll the
/// channel. Must be cheap and non-blocking: it runs on the thread that
/// ran the job, under the subscriber-map read lock.
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
    job_service_ns: AtomicU64,
    /// Scripted fault hook ([`crate::fault`]); `None` in production.
    hook: SharedFaultHook,
}

/// Handle to a running threaded broker.
///
/// Cloning the handle is cheap; the broker stops when [`RtBroker::kill`]
/// or [`RtBroker::shutdown`] is called (killing models a crash: queued
/// work is abandoned, exactly like the paper's SIGKILL injection).
#[derive(Clone)]
pub struct RtBroker {
    inner: Arc<Inner>,
}

impl RtBroker {
    /// Starts a broker recording into `telemetry` — [`Telemetry::new`] for
    /// a private registry, a clone to share one across brokers,
    /// [`Telemetry::disabled`] for no-op recording. It owns no thread:
    /// jobs run on the threads that admit work. `hook` is a scripted
    /// [`crate::fault::FaultHook`] consulted on the Primary→Backup and
    /// broker→subscriber hops and before each job; `None` in production.
    pub fn spawn(
        id: BrokerId,
        role: BrokerRole,
        config: BrokerConfig,
        clock: Arc<dyn Clock>,
        telemetry: Telemetry,
        hook: SharedFaultHook,
    ) -> RtBroker {
        let mut broker = Broker::new(id, role, config);
        broker.set_telemetry(telemetry.clone());
        RtBroker {
            inner: Arc::new(Inner {
                id,
                broker: Mutex::new(broker),
                alive: AtomicBool::new(true),
                clock,
                subscribers: RwLock::new(std::collections::HashMap::new()),
                wire_subscribers: AtomicBool::new(false),
                backup: RwLock::new(None),
                telemetry,
                job_service_ns: AtomicU64::new(0),
                hook,
            }),
        }
    }

    /// The broker's id.
    pub fn id(&self) -> BrokerId {
        self.inner.id
    }

    /// The runtime clock's current reading.
    pub(crate) fn now(&self) -> Time {
        self.inner.clock.now()
    }

    /// Admits a publisher message and runs the jobs it can claim, both on
    /// the calling thread.
    ///
    /// A no-op once the broker is killed, when it is not Primary, or for
    /// an unknown topic — a send to a dead broker is a dropped packet.
    pub fn publish(&self, message: Message) {
        self.admit(message, Broker::on_message);
    }

    /// Admits a publisher's retention re-send (the fail-over path) and
    /// runs the jobs it can claim, on the calling thread; no-op under the
    /// same conditions as [`RtBroker::publish`].
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
        if depth > before {
            inner.telemetry.record_admit();
        }
        inner
            .telemetry
            .record_stage(Stage::ProxyIngress, inner.clock.now().saturating_since(now));
        run_to_completion(inner, broker);
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

    /// Crash the broker (fail-stop): admission stops at once, a thread
    /// running jobs stops at the next job boundary, and queued jobs and
    /// buffered messages are abandoned.
    pub fn kill(&self) {
        self.inner.alive.store(false, Ordering::Release);
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
    /// a thread that runs jobs owes `per_job` for each and, once its run
    /// of jobs ends, blocks for the sum in one sleep without holding any
    /// lock or claim, the way a Dispatcher writing to subscriber hosts
    /// over a real NIC would. In-process channel transport erases that
    /// blocked time, which makes lock overlap between admitting threads
    /// unmeasurable on CPU-starved hosts; the component benches set this
    /// to restore it. Zero (the default) is a no-op on the hot path beyond
    /// one relaxed atomic load.
    pub fn set_job_service_time(&self, per_job: frame_types::Duration) {
        self.inner
            .job_service_ns
            .store(per_job.as_nanos(), Ordering::Relaxed);
    }

    /// Promotes this broker (must be a Backup) to Primary and runs the
    /// recovery dispatch jobs on the calling thread. The role flip and
    /// the recovery jobs are one critical section, so no re-send is
    /// admitted between them. Returns the number of recovery jobs
    /// created.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::WrongRole`] if the broker is already Primary.
    pub fn promote(&self) -> Result<usize, FrameError> {
        let inner = &*self.inner;
        let mut broker = inner.broker.lock();
        let created = broker.promote(inner.clock.now())?;
        inner
            .telemetry
            .record_queue_depth(inner.id, broker.queue_len() as u64);
        run_to_completion(inner, broker);
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

/// Per-thread scratch for running jobs: the finish effects land in
/// `effects` ([`Broker::run_claimed`]) and `codec` encodes each dispatched
/// message's shared Deliver frame, so a thread's steady state allocates
/// neither per job.
#[derive(Default)]
struct JobScratch {
    effects: Vec<Effect>,
    codec: WireCodec,
}

thread_local! {
    static SCRATCH: Cell<JobScratch> = Cell::default();
}

/// Runs jobs on the calling thread until [`Broker::claim`] finds none it
/// may take, starting under `broker`, the guard its caller mutated the
/// broker with. Each job: claim (or take the job the previous release
/// handed back) and run it under the lock, drop the lock and send its
/// effects, then lock again to release the topic. A kill ends the run at
/// the next job boundary; the emulated service time the run owes is
/// slept once at its end, holding nothing.
fn run_to_completion<'a>(inner: &'a Inner, mut broker: MutexGuard<'a, Broker>) {
    // Taken, not borrowed: a nested run on this thread would start from
    // fresh scratch rather than panic on a double borrow.
    let mut scratch = SCRATCH.take();
    let mut debt_ns = 0u64;
    let mut parked = None;
    while let Some(job) = parked.take().or_else(|| broker.claim()) {
        // Gauge stored while the lock is still held, so stores land in
        // mutation order.
        inner
            .telemetry
            .record_queue_depth(inner.id, broker.queue_len() as u64);
        if let Some(hook) = inner.hook.as_deref() {
            // Consulted, and any scripted stall taken, with the lock
            // dropped (the topic stays claimed), so a stall consumes
            // queue-wait budget like a preempted thread would.
            drop(broker);
            if let Some(stall) = hook.on_worker_job(job.topic, job.key.seq) {
                std::thread::sleep(stall);
            }
            broker = lock_broker(inner);
        }
        let topic = job.topic;
        let popped = inner.clock.now();
        let kind = broker.run_claimed(job, popped, popped, &mut scratch.effects);
        drop(broker);
        if let Some(kind) = kind {
            debt_ns += send_effects(inner, kind, popped, &mut scratch);
        }
        broker = lock_broker(inner);
        if !inner.alive.load(Ordering::Acquire) {
            break;
        }
        // The topic's next parked job, if any, runs with the topic still
        // held; otherwise the topic is free and the loop claims afresh.
        parked = broker.release(topic);
    }
    drop(broker);
    SCRATCH.set(scratch);
    if debt_ns > 0 {
        std::thread::sleep(std::time::Duration::from_nanos(debt_ns));
    }
}

/// Sends one finished job's effects — Backup-bound first, then the
/// deliveries — with the lock dropped but the topic still claimed, so for
/// this topic channel order is the Table-3 order (a prune can never
/// overtake its replica) and deliveries leave in job order. Records the
/// job's stage and beats the worker heartbeat; returns the job's emulated
/// wire time in nanoseconds, which the thread owes once its run ends.
fn send_effects(inner: &Inner, kind: JobKind, popped: Time, scratch: &mut JobScratch) -> u64 {
    send_backup_batch(inner, &scratch.effects);
    deliver(inner, &scratch.effects, popped, &mut scratch.codec);
    let service_ns = inner.job_service_ns.load(Ordering::Relaxed);
    let stage = match kind {
        JobKind::Dispatch => Stage::DispatchExec,
        JobKind::Replicate => Stage::ReplicateExec,
    };
    let done = inner.clock.now();
    // The stage reports exec + the job's modelled wire time even though
    // the sleep itself is paid once per run.
    inner.telemetry.record_stage(
        stage,
        done.saturating_since(popped)
            .saturating_add(frame_types::Duration::from_nanos(service_ns)),
    );
    inner.telemetry.heartbeat(HeartbeatKind::Worker, done);
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
                // actual channel hand-off instant on this thread.
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
        let broker = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
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
        assert_eq!(broker.stats().dispatches, 10);
    }

    #[test]
    fn admitting_threads_deliver_one_topic_in_order() {
        // Eight threads admit topic 1, each taking the next seq and
        // publishing it under one mutex, so admission order is seq order.
        // Each also floods a topic of its own outside the mutex, so topic
        // 1's jobs are claimed by whichever thread gets there first: the
        // per-topic claim alone must keep its deliveries in seq order.
        const THREADS: u32 = 8;
        const PER_THREAD: u64 = 250;
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let broker = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            clock.clone(),
            Telemetry::new(),
            None,
        );
        for topic in 1..=THREADS + 1 {
            broker
                .register_topic(admitted(0, topic), vec![SubscriberId(1)])
                .unwrap();
        }
        let (tx, rx) = unbounded();
        let runners = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let seen = runners.clone();
        broker.connect_subscriber(
            SubscriberId(1),
            tx,
            Some(Arc::new(move || {
                seen.lock().insert(std::thread::current().id());
            })),
        );
        let next_seq = Arc::new(Mutex::new(0u64));
        let threads: Vec<_> = (0..THREADS)
            .map(|k| {
                let (broker, clock, next_seq) = (broker.clone(), clock.clone(), next_seq.clone());
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        {
                            let mut seq = next_seq.lock();
                            broker.publish(msg(1, *seq, clock.as_ref()));
                            *seq += 1;
                        }
                        broker.publish(msg(2 + k, i, clock.as_ref()));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut next = std::collections::HashMap::new();
        for d in rx.try_iter() {
            let expected = next.entry(d.message.topic).or_insert(0u64);
            assert_eq!(d.message.seq, SeqNo(*expected), "{:?}", d.message.topic);
            *expected += 1;
        }
        assert_eq!(next[&TopicId(1)], u64::from(THREADS) * PER_THREAD);
        for k in 0..THREADS {
            assert_eq!(next[&TopicId(2 + k)], PER_THREAD);
        }
        assert!(runners.lock().len() > 1, "jobs ran on several threads");
        assert_eq!(broker.queue_len(), 0);
        broker.shutdown();
    }

    #[test]
    fn publish_returns_with_its_effects_sent() {
        // In-process, without a hook, a publish runs its jobs before it
        // returns: the delivery is already on the subscriber channel and
        // the replica and prune already applied at the Backup.
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let spawn = |id, role| {
            RtBroker::spawn(
                id,
                role,
                BrokerConfig::frame(),
                clock.clone(),
                Telemetry::new(),
                None,
            )
        };
        let primary = spawn(BrokerId(0), BrokerRole::Primary);
        let backup = spawn(BrokerId(1), BrokerRole::Backup);
        for b in [&primary, &backup] {
            // Category 2 requires replication under Proposition 1.
            b.register_topic(admitted(2, 1), vec![SubscriberId(1)])
                .unwrap();
        }
        let sink = backup.clone();
        primary.connect_backup(Arc::new(move |effects| sink.apply_backup(effects)));
        let (tx, rx) = unbounded();
        primary.connect_subscriber(SubscriberId(1), tx, None);
        for seq in 0..50 {
            primary.publish(msg(1, seq, clock.as_ref()));
            let d = rx.try_recv().expect("delivered before publish returned");
            assert_eq!(d.message.seq, SeqNo(seq));
            assert_eq!(primary.queue_len(), 0);
        }
        let (p, b) = (primary.stats(), backup.stats());
        assert_eq!(p.dispatches, 50);
        assert_eq!(b.replicas_received, p.replications);
        assert_eq!(b.prunes_applied, p.prunes_sent);
        primary.shutdown();
        backup.shutdown();
    }

    #[test]
    fn service_time_is_slept_holding_nothing() {
        // Four threads each run one job that owes 100 ms of emulated wire
        // time. The sleeps hold neither the lock nor a claim, so they
        // overlap: four in a row would take 400 ms.
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let broker = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            clock.clone(),
            Telemetry::new(),
            None,
        );
        for topic in 0..4 {
            broker
                .register_topic(admitted(0, topic), vec![SubscriberId(1)])
                .unwrap();
        }
        broker.set_job_service_time(frame_types::Duration::from_millis(100));
        let start = std::time::Instant::now();
        let threads: Vec<_> = (0..4)
            .map(|topic| {
                let (broker, clock) = (broker.clone(), clock.clone());
                std::thread::spawn(move || broker.publish(msg(topic, 0, clock.as_ref())))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let elapsed = start.elapsed();
        assert_eq!(broker.stats().dispatches, 4);
        assert!(
            elapsed < std::time::Duration::from_millis(300),
            "service sleeps serialized: {elapsed:?}"
        );
    }

    #[test]
    fn kill_stops_a_run_at_the_next_job_boundary() {
        // seq 0's job is held at the hook with its topic claimed; seq 1,
        // admitted by another thread meanwhile, parks behind it. A kill
        // before seq 0 resumes lets seq 0 finish but never runs seq 1.
        struct HoldFirst {
            held: crossbeam::channel::Sender<()>,
            resume: crossbeam::channel::Receiver<()>,
        }
        impl crate::FaultHook for HoldFirst {
            fn on_worker_job(&self, _topic: TopicId, seq: SeqNo) -> Option<std::time::Duration> {
                if seq == SeqNo(0) {
                    self.held.send(()).unwrap();
                    self.resume.recv().unwrap();
                }
                None
            }
        }
        let (held_tx, held) = unbounded();
        let (resume, resume_rx) = unbounded();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let broker = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            clock.clone(),
            Telemetry::new(),
            Some(Arc::new(HoldFirst {
                held: held_tx,
                resume: resume_rx,
            })),
        );
        broker
            .register_topic(admitted(0, 1), vec![SubscriberId(1)])
            .unwrap();
        let (tx, rx) = unbounded();
        broker.connect_subscriber(SubscriberId(1), tx, None);
        let first = {
            let (broker, clock) = (broker.clone(), clock.clone());
            std::thread::spawn(move || broker.publish(msg(1, 0, clock.as_ref())))
        };
        held.recv().unwrap();
        broker.publish(msg(1, 1, clock.as_ref()));
        assert_eq!(broker.queue_len(), 1, "seq 1 parked behind the claim");
        broker.kill();
        resume.send(()).unwrap();
        first.join().unwrap();
        let got: Vec<SeqNo> = rx.try_iter().map(|d| d.message.seq).collect();
        assert_eq!(got, vec![SeqNo(0)]);
        assert_eq!(broker.stats().dispatches, 1);
    }

    #[test]
    fn replication_flows_to_backup_and_prunes() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let primary = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            clock.clone(),
            Telemetry::new(),
            None,
        );
        let backup = RtBroker::spawn(
            BrokerId(1),
            BrokerRole::Backup,
            BrokerConfig::frame(),
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
    }

    #[test]
    fn kill_then_promote_recovers_unpruned_copies() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let backup = RtBroker::spawn(
            BrokerId(1),
            BrokerRole::Backup,
            BrokerConfig::fcfs_minus(),
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
    }

    #[test]
    fn replica_batch_applies_in_order() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let backup = RtBroker::spawn(
            BrokerId(1),
            BrokerRole::Backup,
            BrokerConfig::frame(),
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
    }

    #[test]
    fn overload_controller_degrades_and_sheds_under_offered_load() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let broker = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
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
    }

    #[test]
    fn calls_after_kill_create_no_job_and_move_no_counter() {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let spawn = |id, role| {
            RtBroker::spawn(
                id,
                role,
                BrokerConfig::frame(),
                clock.clone(),
                Telemetry::new(),
                None,
            )
        };
        let primary = spawn(BrokerId(0), BrokerRole::Primary);
        let backup = spawn(BrokerId(1), BrokerRole::Backup);
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
