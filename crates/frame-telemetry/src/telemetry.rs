//! The [`Telemetry`] handle: a cheap-to-clone registry of per-stage
//! latency histograms, per-topic delivery histograms and SLO counters,
//! decision counters, the decision trace and the flight recorder, shared
//! by every component of a running system.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use frame_types::{BrokerId, Duration, SeqNo, Time, TopicId, TraceCtx};
use serde::{Deserialize, Serialize};

use crate::histogram::LatencyHistogram;
use crate::metrics::{AtomicHistogram, ShardedCounter};
use crate::recorder::{FlightRecorder, FlightSnapshot, Incident, IncidentKind};
use crate::ring::Ring;
use crate::span::{attribute, BudgetStage};
use crate::stage::Stage;
use crate::trace::{DecisionEvent, DecisionKind, TRACE_WORDS};

/// Decision-trace capacity (events retained).
const TRACE_CAPACITY: usize = 4096;

/// Flight-recorder capacity (delivery spans retained).
const FLIGHT_CAPACITY: usize = 1024;

/// Incident-queue capacity.
const INCIDENT_CAPACITY: usize = 64;

/// Sentinel for "no consecutive-loss bound" (best-effort topics).
const NO_LOSS_BOUND: u64 = u64::MAX;

/// The liveness signals a running system beats: each kind is a class of
/// thread whose silence the health model turns into a watchdog verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeartbeatKind {
    /// A reactor event loop serving a live broker iterated. The loops
    /// admit every socket message, so this is the ingress (Message Proxy)
    /// heartbeat.
    Proxy,
    /// A job finished, on whichever thread ran it.
    Worker,
    /// The failure-detector loop completed a poll round.
    Detector,
    /// The Primary answered a liveness poll.
    PrimaryAck,
}

impl HeartbeatKind {
    /// Every kind, in index order.
    pub const ALL: [HeartbeatKind; 4] = [
        HeartbeatKind::Proxy,
        HeartbeatKind::Worker,
        HeartbeatKind::Detector,
        HeartbeatKind::PrimaryAck,
    ];

    /// Dense index for array storage.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (label value in exports).
    pub fn name(self) -> &'static str {
        match self {
            HeartbeatKind::Proxy => "proxy",
            HeartbeatKind::Worker => "worker",
            HeartbeatKind::Detector => "detector",
            HeartbeatKind::PrimaryAck => "primary_ack",
        }
    }
}

impl std::fmt::Display for HeartbeatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One heartbeat kind's liveness counters.
#[derive(Default)]
struct HeartbeatEntry {
    /// Clock reading of the most recent beat (nanoseconds); zero until the
    /// first beat, which doubles as "this signal was never active".
    last_beat_ns: AtomicU64,
    beats: AtomicU64,
}

/// One broker's queue gauges. Depth is stored (not added) under the
/// broker lock at every push/pop/cancel site, so store order equals
/// mutation order and the last store is the true depth.
#[derive(Default)]
struct QueueEntry {
    depth: AtomicU64,
    high_watermark: AtomicU64,
}

/// One reactor event loop's ingress counters. `registered` is a gauge
/// (stored by the owning loop, which is the only writer); the rest are
/// monotonic counters.
#[derive(Default)]
struct ReactorLoopEntry {
    registered: AtomicU64,
    accepted: AtomicU64,
    wakeups: AtomicU64,
    budget_exhaustions: AtomicU64,
    write_queue_drops: AtomicU64,
    /// Nanoseconds the loop spent working between `wait` returns.
    busy_ns: AtomicU64,
    /// Nanoseconds the loop spent parked inside `poller.wait`.
    parked_ns: AtomicU64,
}

/// Cheap per-loop recording handle for the ingress reactor: the entry is
/// resolved once at loop start-up, so the hot path is a branch and a
/// relaxed atomic op — no registry lookups per wakeup.
#[derive(Clone)]
pub struct ReactorGauges {
    entry: Option<Arc<ReactorLoopEntry>>,
}

impl ReactorGauges {
    /// A no-op handle (disabled telemetry).
    pub fn disabled() -> ReactorGauges {
        ReactorGauges { entry: None }
    }

    /// Stores the number of connections currently registered with this
    /// loop's poller (including its listener share).
    #[inline]
    pub fn set_registered(&self, n: u64) {
        if let Some(e) = &self.entry {
            e.registered.store(n, Ordering::Relaxed);
        }
    }

    /// Counts one accepted connection.
    #[inline]
    pub fn record_accept(&self) {
        if let Some(e) = &self.entry {
            e.accepted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one poller wakeup (a `wait` return, whatever the cause).
    #[inline]
    pub fn record_wakeup(&self) {
        if let Some(e) = &self.entry {
            e.wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one connection hitting its per-wakeup read budget (the loop
    /// moved on with bytes likely still buffered in the kernel).
    #[inline]
    pub fn record_budget_exhaustion(&self) {
        if let Some(e) = &self.entry {
            e.budget_exhaustions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one delivery frame dropped because a connection's bounded
    /// write queue was full (slow-consumer backpressure).
    #[inline]
    pub fn record_write_queue_drop(&self) {
        if let Some(e) = &self.entry {
            e.write_queue_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds wall time this loop spent working (between `wait` returns)
    /// and parked (inside `wait`). Together with the role CPU stamps this
    /// yields per-loop busy-vs-parked utilization.
    #[inline]
    pub fn record_loop_time(&self, busy_ns: u64, parked_ns: u64) {
        if let Some(e) = &self.entry {
            if busy_ns > 0 {
                e.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
            }
            if parked_ns > 0 {
                e.parked_ns.fetch_add(parked_ns, Ordering::Relaxed);
            }
        }
    }
}

/// Per-topic delivery histogram plus SLO accounting. All counters are
/// relaxed atomics; the delivery path for one topic is serialized by the
/// threaded broker's per-topic claim, so the sequence-gap bookkeeping
/// needs no stronger ordering.
struct TopicEntry {
    histogram: AtomicHistogram,
    /// Deadline `D_i` in nanoseconds; zero until an SLO is registered.
    deadline_ns: AtomicU64,
    /// Consecutive-loss tolerance `L_i`; [`NO_LOSS_BOUND`] = best-effort.
    loss_bound: AtomicU64,
    delivered: AtomicU64,
    deadline_misses: AtomicU64,
    /// Misses by dominant budget stage.
    miss_by_stage: [AtomicU64; BudgetStage::ALL.len()],
    /// The next sequence number expected in order.
    next_seq: AtomicU64,
    /// Messages never delivered (sum of sequence gaps).
    lost: AtomicU64,
    /// The longest consecutive-loss run observed.
    max_loss_run: AtomicU64,
    /// Runs that exceeded `L_i`.
    loss_bound_violations: AtomicU64,
}

impl Default for TopicEntry {
    fn default() -> TopicEntry {
        TopicEntry {
            histogram: AtomicHistogram::default(),
            deadline_ns: AtomicU64::new(0),
            loss_bound: AtomicU64::new(NO_LOSS_BOUND),
            delivered: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            miss_by_stage: std::array::from_fn(|_| AtomicU64::new(0)),
            next_seq: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            max_loss_run: AtomicU64::new(0),
            loss_bound_violations: AtomicU64::new(0),
        }
    }
}

struct Inner {
    stages: [AtomicHistogram; Stage::ALL.len()],
    decisions: [ShardedCounter; DecisionKind::ALL.len()],
    trace: Ring<TRACE_WORDS>,
    /// Per-topic delivery histograms and SLO counters. Registration takes
    /// the write lock (cold: once per topic); the per-delivery path
    /// binary-searches under the read lock.
    topics: Registry<TopicId, TopicEntry>,
    /// Times the message path (admission or running a job) found the broker
    /// lock already held and had to block for it (threaded runtime only).
    /// High values relative to dispatch counts mean the one lock over
    /// broker state is serializing threads.
    shard_contention: ShardedCounter,
    /// Messages admitted at ingress (publishes + retention re-sends that
    /// passed the role/topic checks and were not shed).
    admits: ShardedCounter,
    /// Liveness beats by kind ([`HeartbeatKind::ALL`] order).
    heartbeats: [HeartbeatEntry; HeartbeatKind::ALL.len()],
    /// Per-broker queue gauges.
    queues: Registry<BrokerId, QueueEntry>,
    /// Per-event-loop reactor counters (loops resolve their entry once at
    /// start-up).
    reactor_loops: Registry<u64, ReactorLoopEntry>,
    /// Overload-controller state gauges and transition counters.
    overload: OverloadEntry,
    /// Recent delivery spans + incidents.
    flight: FlightRecorder,
}

/// Overload-controller gauges: the rung and per-rung degraded-topic
/// counts are stored by the controller's tick (single writer), the
/// transition counters are monotone.
#[derive(Default)]
struct OverloadEntry {
    rung: AtomicU64,
    escalations: AtomicU64,
    deescalations: AtomicU64,
    suppressed_topics: AtomicU64,
    shedding_topics: AtomicU64,
    evicted_topics: AtomicU64,
    /// Pressure at the last tick, in millionths (gauges are integers).
    pressure_millionths: AtomicU64,
}

/// A sorted, append-only map from key to shared entry. Registration
/// write-locks once per key; lookups binary-search under the read lock.
struct Registry<K, E>(RwLock<Vec<(K, Arc<E>)>>);

impl<K, E> Default for Registry<K, E> {
    fn default() -> Self {
        Registry(RwLock::new(Vec::new()))
    }
}

impl<K: Ord + Copy, E: Default> Registry<K, E> {
    /// The entries, sorted by key.
    fn read(&self) -> RwLockReadGuard<'_, Vec<(K, Arc<E>)>> {
        self.0.read().expect("registry lock")
    }

    /// The entry for `key`, created if absent.
    fn get_or_insert(&self, key: K) -> Arc<E> {
        if let Some(entry) = find(&self.read(), key) {
            return entry.clone();
        }
        let mut entries = self.0.write().expect("registry lock");
        match entries.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => entries[i].1.clone(),
            Err(i) => {
                let entry = Arc::<E>::default();
                entries.insert(i, (key, entry.clone()));
                entry
            }
        }
    }
}

/// The entry for `key` in a registry's sorted entries.
#[inline]
fn find<K: Ord + Copy, E>(entries: &[(K, Arc<E>)], key: K) -> Option<&Arc<E>> {
    let i = entries.binary_search_by_key(&key, |(k, _)| *k).ok()?;
    Some(&entries[i].1)
}

/// Handle to a telemetry registry. Cloning shares the registry; a
/// [`Telemetry::disabled`] handle makes every recording call a no-op
/// branch, so instrumented code needs no `cfg` gates.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// Creates an enabled registry with the default trace capacity.
    pub fn new() -> Telemetry {
        Telemetry::with_trace_capacity(TRACE_CAPACITY)
    }

    /// Creates an enabled registry retaining the newest `trace_capacity`
    /// decision events.
    pub fn with_trace_capacity(trace_capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                stages: Default::default(),
                decisions: Default::default(),
                trace: Ring::new(trace_capacity),
                topics: Registry::default(),
                shard_contention: ShardedCounter::default(),
                admits: ShardedCounter::default(),
                heartbeats: Default::default(),
                queues: Registry::default(),
                reactor_loops: Registry::default(),
                overload: OverloadEntry::default(),
                flight: FlightRecorder::new(FLIGHT_CAPACITY, INCIDENT_CAPACITY),
            })),
        }
    }

    /// A no-op handle: every recording method returns after one branch.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// `f` applied to the live registry; `T::default()` for a disabled
    /// handle.
    fn read<T: Default>(&self, f: impl FnOnce(&Inner) -> T) -> T {
        self.inner.as_deref().map_or_else(T::default, f)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a latency sample for `stage`.
    #[inline]
    pub fn record_stage(&self, stage: Stage, latency: Duration) {
        if let Some(inner) = &self.inner {
            inner.stages[stage.index()].record(latency);
        }
    }

    /// Registers `topic` (or updates its SLO): its end-to-end deadline
    /// `D_i` and consecutive-loss tolerance `L_i` (`None` = best-effort).
    /// Deliveries recorded afterwards are classified against these bounds;
    /// registering at topic-registration time keeps the delivery path off
    /// the registry's write lock.
    pub fn set_topic_slo(&self, topic: TopicId, deadline: Duration, loss_bound: Option<u32>) {
        if let Some(inner) = &self.inner {
            let entry = inner.topics.get_or_insert(topic);
            entry
                .deadline_ns
                .store(deadline.as_nanos(), Ordering::Relaxed);
            entry.loss_bound.store(
                loss_bound.map_or(NO_LOSS_BOUND, u64::from),
                Ordering::Relaxed,
            );
        }
    }

    /// Records one delivered message end to end: topic histogram, SLO
    /// classification (deadline miss → dominant-stage attribution,
    /// sequence gap → loss-run accounting against `L_i`), and a flight
    /// recorder ring slot. Misses and loss-bound violations also enqueue
    /// an [`Incident`].
    ///
    /// Relaxed atomics plus one ring-slot write on the common (on-time)
    /// path; attribution runs only for misses. Unregistered topics are
    /// ignored.
    pub fn record_delivery(
        &self,
        topic: TopicId,
        seq: SeqNo,
        created_at: Time,
        delivered_at: Time,
        trace: Option<&TraceCtx>,
    ) {
        let Some(inner) = &self.inner else { return };
        // Hold the read guard instead of cloning the entry Arc: this path
        // runs once per delivered message.
        let topics = inner.topics.read();
        let Some(entry) = find(&topics, topic) else {
            return;
        };
        let e2e = delivered_at.saturating_since(created_at);
        entry.histogram.record(e2e);
        entry.delivered.fetch_add(1, Ordering::Relaxed);

        let deadline_ns = entry.deadline_ns.load(Ordering::Relaxed);
        inner
            .flight
            .record(topic, seq, created_at, delivered_at, trace, deadline_ns);

        // Sequence-gap loss accounting: a gap of `g` before this delivery
        // is a run of `g` consecutive losses (Lemma 1's quantity). Late
        // re-deliveries (recovery dispatches) never rewind the expectation.
        let expected = entry.next_seq.load(Ordering::Relaxed);
        if seq.0 >= expected {
            let gap = seq.0 - expected;
            entry.next_seq.store(seq.0 + 1, Ordering::Relaxed);
            if gap > 0 {
                entry.lost.fetch_add(gap, Ordering::Relaxed);
                entry.max_loss_run.fetch_max(gap, Ordering::Relaxed);
                let bound = entry.loss_bound.load(Ordering::Relaxed);
                if gap > bound {
                    entry.loss_bound_violations.fetch_add(1, Ordering::Relaxed);
                    inner.flight.incident_with(
                        IncidentKind::LossBurst,
                        topic,
                        SeqNo(expected),
                        delivered_at,
                        |detail| {
                            use std::fmt::Write;
                            let _ = write!(detail, "consecutive-loss run {gap} > L_i {bound}");
                        },
                    );
                }
            }
        }

        if deadline_ns > 0 && e2e.as_nanos() > deadline_ns {
            entry.deadline_misses.fetch_add(1, Ordering::Relaxed);
            let attribution = attribute(created_at, delivered_at, trace);
            if let Some(stage) = attribution.dominant {
                entry.miss_by_stage[stage.index()].fetch_add(1, Ordering::Relaxed);
            }
            // Misses arrive in bursts (an overloaded queue misses every
            // deadline at once), so the detail is staged into the flight
            // ring's recycled buffer instead of a fresh `format!` string.
            inner.flight.incident_with(
                IncidentKind::DeadlineMiss,
                topic,
                seq,
                delivered_at,
                |detail| {
                    use std::fmt::Write;
                    let _ = match attribution.dominant {
                        Some(stage) => write!(
                            detail,
                            "e2e {}ns > D_i {}ns, dominant {} ({}ns)",
                            attribution.e2e_ns,
                            deadline_ns,
                            stage,
                            attribution.slices[stage.index()]
                        ),
                        None => write!(
                            detail,
                            "e2e {}ns > D_i {deadline_ns}ns, no stamps",
                            attribution.e2e_ns
                        ),
                    };
                },
            );
        }
    }

    /// Records an incident directly (admission rejections, promotions —
    /// events that do not ride on a delivery).
    pub fn incident(
        &self,
        kind: IncidentKind,
        topic: TopicId,
        seq: SeqNo,
        at: Time,
        detail: String,
    ) {
        if let Some(inner) = &self.inner {
            inner
                .flight
                .incident_with(kind, topic, seq, at, |d| d.push_str(&detail));
        }
    }

    /// Records an incident whose detail is formatted *only if* telemetry
    /// is enabled, into the flight ring's recycled staging buffer. This is
    /// the hot-path variant of [`Telemetry::incident`]: callers that fire
    /// per message under pressure (admission-boundary shedding, deadline
    /// misses) pay zero allocations with a disabled handle and, once the
    /// incident ring is full, zero steady-state allocations with an
    /// enabled one.
    #[inline]
    pub fn incident_with(
        &self,
        kind: IncidentKind,
        topic: TopicId,
        seq: SeqNo,
        at: Time,
        detail: impl FnOnce(&mut String),
    ) {
        if let Some(inner) = &self.inner {
            inner.flight.incident_with(kind, topic, seq, at, detail);
        }
    }

    /// Total incidents ever recorded. Monotone: dump sinks poll this to
    /// decide when to snapshot the flight recorder.
    pub fn incident_count(&self) -> u64 {
        self.read(|inner| inner.flight.incident_count())
    }

    /// A serializable copy of the flight recorder (retained spans +
    /// incidents). Empty for a disabled handle.
    pub fn flight_snapshot(&self) -> FlightSnapshot {
        self.read(|inner| inner.flight.snapshot())
    }

    /// Records a broker decision: bumps its counter and appends it to the
    /// trace. Wait-free (atomic increments plus one ring slot).
    #[inline]
    pub fn decision(&self, kind: DecisionKind, topic: TopicId, seq: SeqNo, at: Time) {
        if let Some(inner) = &self.inner {
            let event = DecisionEvent {
                at,
                kind,
                topic,
                seq,
            };
            let index = inner.trace.record(event.encode());
            // The ring index round-robins across writers, so it doubles as
            // the counter shard hint (no thread-local lookup needed).
            inner.decisions[kind.index()].incr_spread(index);
        }
    }

    /// Records that the message path found the broker lock contended (it
    /// had to block rather than acquire immediately). Wait-free.
    #[inline]
    pub fn record_shard_contention(&self) {
        if let Some(inner) = &self.inner {
            inner.shard_contention.incr();
        }
    }

    /// Records one admitted ingress message (publish or retention
    /// re-send that created jobs rather than being shed). Wait-free.
    #[inline]
    pub fn record_admit(&self) {
        if let Some(inner) = &self.inner {
            inner.admits.incr();
        }
    }

    /// Records a liveness beat for `kind` at clock reading `at`. The
    /// watchdogs compare the age of the newest beat against their stall
    /// thresholds; `fetch_max` keeps the newest reading under races.
    #[inline]
    pub fn heartbeat(&self, kind: HeartbeatKind, at: Time) {
        if let Some(inner) = &self.inner {
            let e = &inner.heartbeats[kind.index()];
            e.last_beat_ns.fetch_max(at.as_nanos(), Ordering::Relaxed);
            e.beats.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `broker`'s scheduler queue depth. Call under the scheduler
    /// lock right after a push/pop/cancel so store order equals mutation
    /// order (the last store is then the true depth, race-free).
    #[inline]
    pub fn record_queue_depth(&self, broker: BrokerId, depth: u64) {
        if let Some(inner) = &self.inner {
            let e = inner.queues.get_or_insert(broker);
            e.depth.store(depth, Ordering::Relaxed);
            e.high_watermark.fetch_max(depth, Ordering::Relaxed);
        }
    }

    /// The recording handle for reactor event loop `loop_index`, created
    /// if absent. Resolve once at loop start-up and keep the handle; a
    /// disabled registry yields a no-op handle.
    pub fn reactor_gauges(&self, loop_index: usize) -> ReactorGauges {
        let Some(inner) = &self.inner else {
            return ReactorGauges::disabled();
        };
        ReactorGauges {
            entry: Some(inner.reactor_loops.get_or_insert(loop_index as u64)),
        }
    }

    /// Stores the overload controller's state after a tick: the current
    /// rung index, how many topics each active rung is degrading, and the
    /// blended pressure reading (stored in millionths). Single writer
    /// (the control loop), so plain stores suffice.
    pub fn set_overload_state(
        &self,
        rung: u64,
        suppressed_topics: u64,
        shedding_topics: u64,
        evicted_topics: u64,
        pressure: f64,
    ) {
        if let Some(inner) = &self.inner {
            let o = &inner.overload;
            o.rung.store(rung, Ordering::Relaxed);
            o.suppressed_topics
                .store(suppressed_topics, Ordering::Relaxed);
            o.shedding_topics.store(shedding_topics, Ordering::Relaxed);
            o.evicted_topics.store(evicted_topics, Ordering::Relaxed);
            o.pressure_millionths
                .store((pressure.max(0.0) * 1e6) as u64, Ordering::Relaxed);
        }
    }

    /// Counts one overload rung climb.
    pub fn record_overload_escalation(&self) {
        if let Some(inner) = &self.inner {
            inner.overload.escalations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one overload rung descent.
    pub fn record_overload_deescalation(&self) {
        if let Some(inner) = &self.inner {
            inner.overload.deescalations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current count for one decision kind.
    pub fn decision_count(&self, kind: DecisionKind) -> u64 {
        self.read(|inner| inner.decisions[kind.index()].get())
    }

    /// Consumes trace events recorded since the last drain (oldest first)
    /// without pausing recording. Empty for a disabled handle.
    pub fn drain_trace(&self) -> Vec<DecisionEvent> {
        self.read(|inner| inner.trace.drain(DecisionEvent::decode))
    }

    /// Folds every live metric into a serializable snapshot. The trace
    /// portion is a non-consuming copy of the retained ring contents.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.snapshot_impl(true)
    }

    /// The counters-only snapshot a periodic sampler needs: per-topic
    /// delivery histograms, the decision-trace ring copy and the retained
    /// incident list are left empty. Those are the allocation-heavy parts
    /// of [`snapshot`](Self::snapshot) — with hundreds of topics they
    /// dominate its cost — and a rate sampler differentiates counters, so
    /// paying for them every cadence tick would be pure waste.
    pub fn sample_snapshot(&self) -> TelemetrySnapshot {
        self.snapshot_impl(false)
    }

    fn snapshot_impl(&self, full: bool) -> TelemetrySnapshot {
        let Some(inner) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        let stages = Stage::ALL
            .iter()
            .map(|&stage| StageSnapshot {
                stage,
                histogram: inner.stages[stage.index()].snapshot(),
            })
            .collect();
        let mut topics = Vec::new();
        let mut slos = Vec::new();
        for (topic, e) in inner.topics.read().iter() {
            if full {
                topics.push(TopicSnapshot {
                    topic: *topic,
                    histogram: e.histogram.snapshot(),
                });
            }
            let loss_bound = e.loss_bound.load(Ordering::Relaxed);
            let miss_by_stage: Vec<u64> = e
                .miss_by_stage
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect();
            let worst_stage = miss_by_stage
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .max_by_key(|(_, n)| **n)
                .and_then(|(i, _)| BudgetStage::from_index(i));
            slos.push(TopicSloSnapshot {
                topic: *topic,
                deadline_ns: e.deadline_ns.load(Ordering::Relaxed),
                loss_bound: (loss_bound != NO_LOSS_BOUND).then_some(loss_bound),
                delivered: e.delivered.load(Ordering::Relaxed),
                deadline_misses: e.deadline_misses.load(Ordering::Relaxed),
                worst_stage,
                miss_by_stage,
                lost: e.lost.load(Ordering::Relaxed),
                max_loss_run: e.max_loss_run.load(Ordering::Relaxed),
                loss_bound_violations: e.loss_bound_violations.load(Ordering::Relaxed),
            });
        }
        let decisions = DecisionKind::ALL
            .iter()
            .map(|&kind| DecisionCount {
                kind,
                count: inner.decisions[kind.index()].get(),
            })
            .collect();
        let heartbeats = HeartbeatKind::ALL
            .iter()
            .map(|&kind| {
                let e = &inner.heartbeats[kind.index()];
                HeartbeatSnapshot {
                    kind,
                    beats: e.beats.load(Ordering::Relaxed),
                    last_beat_ns: e.last_beat_ns.load(Ordering::Relaxed),
                }
            })
            .collect();
        let queues = inner
            .queues
            .read()
            .iter()
            .map(|(broker, e)| QueueGaugeSnapshot {
                broker: *broker,
                depth: e.depth.load(Ordering::Relaxed),
                high_watermark: e.high_watermark.load(Ordering::Relaxed),
            })
            .collect();
        let reactor_loops = inner
            .reactor_loops
            .read()
            .iter()
            .map(|(idx, e)| ReactorLoopSnapshot {
                loop_index: *idx,
                registered_conns: e.registered.load(Ordering::Relaxed),
                accepted: e.accepted.load(Ordering::Relaxed),
                wakeups: e.wakeups.load(Ordering::Relaxed),
                budget_exhaustions: e.budget_exhaustions.load(Ordering::Relaxed),
                write_queue_drops: e.write_queue_drops.load(Ordering::Relaxed),
                busy_ns: e.busy_ns.load(Ordering::Relaxed),
                parked_ns: e.parked_ns.load(Ordering::Relaxed),
            })
            .collect();
        TelemetrySnapshot {
            stages,
            topics,
            decisions,
            trace: if full {
                inner.trace.collect_since(0, DecisionEvent::decode).0
            } else {
                Vec::new()
            },
            shard_contention: inner.shard_contention.get(),
            slos,
            incident_count: inner.flight.incident_count(),
            incidents: if full {
                inner.flight.incidents()
            } else {
                Vec::new()
            },
            admits: inner.admits.get(),
            heartbeats,
            queues,
            reactor_loops,
            overload: OverloadSnapshot {
                rung: inner.overload.rung.load(Ordering::Relaxed),
                escalations: inner.overload.escalations.load(Ordering::Relaxed),
                deescalations: inner.overload.deescalations.load(Ordering::Relaxed),
                suppressed_topics: inner.overload.suppressed_topics.load(Ordering::Relaxed),
                shedding_topics: inner.overload.shedding_topics.load(Ordering::Relaxed),
                evicted_topics: inner.overload.evicted_topics.load(Ordering::Relaxed),
                pressure_millionths: inner.overload.pressure_millionths.load(Ordering::Relaxed),
            },
            roles: crate::profile::snapshot_roles(),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// One stage's folded histogram.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// The pipeline stage.
    pub stage: Stage,
    /// Its latency distribution.
    pub histogram: LatencyHistogram,
}

/// One topic's folded end-to-end delivery histogram.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TopicSnapshot {
    /// The topic.
    pub topic: TopicId,
    /// Its creation→delivery latency distribution.
    pub histogram: LatencyHistogram,
}

/// One topic's SLO accounting: deliveries and losses classified against
/// its deadline `D_i` and consecutive-loss tolerance `L_i`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopicSloSnapshot {
    /// The topic.
    pub topic: TopicId,
    /// Deadline `D_i` in nanoseconds (zero: no SLO registered).
    pub deadline_ns: u64,
    /// Consecutive-loss tolerance `L_i` (`None`: best-effort).
    pub loss_bound: Option<u64>,
    /// Messages delivered.
    pub delivered: u64,
    /// Deliveries whose end-to-end latency exceeded `D_i`.
    pub deadline_misses: u64,
    /// The budget stage most often dominant among misses.
    pub worst_stage: Option<BudgetStage>,
    /// Miss counts by dominant stage, in [`BudgetStage::ALL`] order.
    pub miss_by_stage: Vec<u64>,
    /// Messages never delivered (sum of sequence gaps).
    pub lost: u64,
    /// The longest consecutive-loss run observed (compare against `L_i`).
    pub max_loss_run: u64,
    /// Loss runs that exceeded `L_i`.
    pub loss_bound_violations: u64,
}

/// One heartbeat kind's liveness counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatSnapshot {
    /// The signal class.
    pub kind: HeartbeatKind,
    /// Total beats since start-up (zero: never active).
    pub beats: u64,
    /// Clock reading of the newest beat, in nanoseconds.
    pub last_beat_ns: u64,
}

/// One broker's queue gauges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueGaugeSnapshot {
    /// The broker.
    pub broker: BrokerId,
    /// Live jobs in the scheduler queue at snapshot time.
    pub depth: u64,
    /// The deepest the scheduler queue has been.
    pub high_watermark: u64,
}

/// One reactor event loop's ingress counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReactorLoopSnapshot {
    /// The event loop's index within its reactor.
    pub loop_index: u64,
    /// Connections currently registered with the loop's poller.
    pub registered_conns: u64,
    /// Connections accepted over the loop's lifetime.
    pub accepted: u64,
    /// Poller wakeups (`wait` returns).
    pub wakeups: u64,
    /// Wakeups where a connection hit its read budget and was put back on
    /// the poller with bytes likely still pending.
    pub budget_exhaustions: u64,
    /// Delivery frames dropped on full per-connection write queues.
    pub write_queue_drops: u64,
    /// Wall nanoseconds the loop spent working between `wait` returns.
    /// `default` for pre-profiler snapshots.
    #[serde(default)]
    pub busy_ns: u64,
    /// Wall nanoseconds the loop spent parked inside `poller.wait`.
    /// `default` for pre-profiler snapshots.
    #[serde(default)]
    pub parked_ns: u64,
}

/// The overload controller's exported state: which degradation rung it
/// sits on, how many topics each active rung touches, and the pressure
/// signal driving it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadSnapshot {
    /// Current degradation rung (0 = normal service).
    pub rung: u64,
    /// Rung climbs since start-up.
    pub escalations: u64,
    /// Rung descents since start-up.
    pub deescalations: u64,
    /// Topics with replication currently suppressed by the controller.
    pub suppressed_topics: u64,
    /// Topics currently being shed at the admission boundary.
    pub shedding_topics: u64,
    /// Best-effort topics currently evicted.
    pub evicted_topics: u64,
    /// Blended pressure at the last control tick, in millionths
    /// (1_000_000 = saturated).
    pub pressure_millionths: u64,
}

impl OverloadSnapshot {
    /// The pressure as a float (1.0 = saturated).
    pub fn pressure(&self) -> f64 {
        self.pressure_millionths as f64 / 1e6
    }

    /// Whether the controller is degrading anything right now.
    pub fn degraded(&self) -> bool {
        self.rung > 0
    }

    /// Stable snake_case rung name (mirrors `frame_core::Rung::name`,
    /// which this crate cannot depend on).
    pub fn rung_name(&self) -> &'static str {
        match self.rung {
            0 => "normal",
            1 => "suppress_replication",
            2 => "shed",
            _ => "evict",
        }
    }
}

/// One decision kind's total.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionCount {
    /// The decision kind.
    pub kind: DecisionKind,
    /// Times it was taken since start-up.
    pub count: u64,
}

/// A point-in-time copy of every telemetry metric, ready for rendering
/// ([`render_prometheus`](crate::render_prometheus),
/// [`render_pretty`](crate::render_pretty)) or serialization.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Per-stage latency histograms (every stage present, possibly empty).
    pub stages: Vec<StageSnapshot>,
    /// Per-topic delivery histograms, sorted by topic id.
    pub topics: Vec<TopicSnapshot>,
    /// Per-kind decision totals (every kind present).
    pub decisions: Vec<DecisionCount>,
    /// The retained decision-trace events, oldest first.
    pub trace: Vec<DecisionEvent>,
    /// Broker-lock contention events (threaded runtime). `default` so
    /// snapshots serialized before this field existed still deserialize.
    #[serde(default)]
    pub shard_contention: u64,
    /// Per-topic SLO counters, sorted by topic id. `default` for
    /// pre-tracing snapshots.
    #[serde(default)]
    pub slos: Vec<TopicSloSnapshot>,
    /// Total incidents recorded at snapshot time.
    #[serde(default)]
    pub incident_count: u64,
    /// Retained incidents, oldest first (the flight recorder's span ring
    /// is snapshotted separately — see `Telemetry::flight_snapshot`).
    #[serde(default)]
    pub incidents: Vec<Incident>,
    /// Messages admitted at ingress. `default` for older snapshots.
    #[serde(default)]
    pub admits: u64,
    /// Liveness beats by kind (every kind present; zero beats = the
    /// signal was never active). `default` for older snapshots.
    #[serde(default)]
    pub heartbeats: Vec<HeartbeatSnapshot>,
    /// Per-broker queue gauges, sorted by broker id. `default` for older
    /// snapshots.
    #[serde(default)]
    pub queues: Vec<QueueGaugeSnapshot>,
    /// Per-event-loop reactor ingress counters, sorted by loop index
    /// (empty when no TCP ingress is served). `default` for older
    /// snapshots.
    #[serde(default)]
    pub reactor_loops: Vec<ReactorLoopSnapshot>,
    /// Overload-controller state (all-zero when no controller runs).
    /// `default` for pre-controller snapshots.
    #[serde(default)]
    pub overload: OverloadSnapshot,
    /// Per-role resource accounting (process-wide: allocations, CPU
    /// stamps and syscall counts from [`snapshot_roles`](crate::snapshot_roles)), ordered by
    /// role kind. `default` for pre-profiler snapshots.
    #[serde(default)]
    pub roles: Vec<crate::profile::RoleProfileSnapshot>,
}

impl TelemetrySnapshot {
    /// The histogram for `stage`, if the snapshot carries one.
    pub fn stage(&self, stage: Stage) -> Option<&LatencyHistogram> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| &s.histogram)
    }

    /// The total for one decision kind (zero when absent).
    pub fn decision_count(&self, kind: DecisionKind) -> u64 {
        self.decisions
            .iter()
            .find(|d| d.kind == kind)
            .map_or(0, |d| d.count)
    }

    /// The SLO counters for `topic`, if present.
    pub fn slo(&self, topic: TopicId) -> Option<&TopicSloSnapshot> {
        self.slos.iter().find(|s| s.topic == topic)
    }

    /// The liveness counters for one heartbeat kind, if present.
    pub fn heartbeat(&self, kind: HeartbeatKind) -> Option<&HeartbeatSnapshot> {
        self.heartbeats.iter().find(|h| h.kind == kind)
    }

    /// The resource-accounting counters for one role, if present.
    pub fn role(&self, name: &str) -> Option<&crate::profile::RoleProfileSnapshot> {
        self.roles.iter().find(|r| r.role == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.record_stage(Stage::DispatchExec, Duration::from_micros(5));
        t.set_topic_slo(TopicId(1), Duration::ZERO, None);
        t.decision(DecisionKind::Dispatch, TopicId(1), SeqNo(0), Time::ZERO);
        assert_eq!(t.decision_count(DecisionKind::Dispatch), 0);
        assert!(t.drain_trace().is_empty());
        let s = t.snapshot();
        assert!(s.stages.is_empty() && s.topics.is_empty() && s.trace.is_empty());
    }

    #[test]
    fn stages_and_topics_record_independently() {
        let t = Telemetry::new();
        t.set_topic_slo(TopicId(7), Duration::ZERO, None);
        t.record_stage(Stage::QueueWait, Duration::from_micros(10));
        t.record_stage(Stage::QueueWait, Duration::from_micros(20));
        t.record_stage(Stage::DispatchExec, Duration::from_micros(3));
        t.record_delivery(TopicId(7), SeqNo(0), Time::ZERO, Time::from_millis(1), None);
        // Unregistered: dropped.
        t.record_delivery(
            TopicId(99),
            SeqNo(0),
            Time::ZERO,
            Time::from_millis(9),
            None,
        );

        let s = t.snapshot();
        assert_eq!(s.stage(Stage::QueueWait).unwrap().len(), 2);
        assert_eq!(s.stage(Stage::DispatchExec).unwrap().len(), 1);
        assert_eq!(s.stage(Stage::Transit).unwrap().len(), 0);
        assert_eq!(s.topics.len(), 1);
        assert_eq!(s.topics[0].topic, TopicId(7));
        assert_eq!(s.topics[0].histogram.len(), 1);
    }

    #[test]
    fn sample_snapshot_carries_counters_but_skips_heavy_parts() {
        let t = Telemetry::new();
        t.set_topic_slo(TopicId(3), Duration::from_millis(100), Some(1));
        t.record_admit();
        t.record_delivery(
            TopicId(3),
            SeqNo(0),
            Time::from_millis(0),
            Time::from_millis(1),
            None,
        );
        t.record_stage(Stage::QueueWait, Duration::from_micros(10));
        t.decision(DecisionKind::Replicate, TopicId(3), SeqNo(0), Time::ZERO);
        t.heartbeat(HeartbeatKind::Worker, Time::from_millis(5));

        let full = t.snapshot();
        let lite = t.sample_snapshot();
        // Everything a rate sampler differentiates is identical…
        assert_eq!(lite.admits, full.admits);
        assert_eq!(lite.slos, full.slos);
        assert_eq!(lite.decisions, full.decisions);
        assert_eq!(lite.heartbeats, full.heartbeats);
        assert_eq!(lite.incident_count, full.incident_count);
        assert_eq!(lite.stage(Stage::QueueWait).unwrap().len(), 1);
        // …while the allocation-heavy copies stay empty.
        assert!(!full.topics.is_empty());
        assert!(lite.topics.is_empty());
        assert!(!full.trace.is_empty());
        assert!(lite.trace.is_empty() && lite.incidents.is_empty());
    }

    #[test]
    fn decisions_count_and_trace() {
        let t = Telemetry::new();
        t.decision(DecisionKind::Replicate, TopicId(1), SeqNo(0), Time::ZERO);
        t.decision(
            DecisionKind::Dispatch,
            TopicId(1),
            SeqNo(0),
            Time::from_nanos(5),
        );
        t.decision(
            DecisionKind::Prune,
            TopicId(1),
            SeqNo(0),
            Time::from_nanos(9),
        );
        assert_eq!(t.decision_count(DecisionKind::Dispatch), 1);
        let s = t.snapshot();
        assert_eq!(s.decision_count(DecisionKind::Replicate), 1);
        assert_eq!(s.trace.len(), 3);
        // snapshot() does not consume; drain does.
        assert_eq!(t.drain_trace().len(), 3);
        assert!(t.drain_trace().is_empty());
    }

    #[test]
    fn record_delivery_classifies_misses_and_losses() {
        use frame_types::SpanPoint;
        let t = Telemetry::new();
        t.set_topic_slo(TopicId(5), Duration::from_micros(100), Some(1));

        // seq 0: on time (50us e2e vs 100us deadline).
        t.record_delivery(
            TopicId(5),
            SeqNo(0),
            Time::from_micros(1_000),
            Time::from_micros(1_050),
            None,
        );
        // seq 3: gap of 2 (> L_i = 1) and a deadline miss dominated by
        // queue wait.
        let mut trace = TraceCtx::new();
        trace.stamp(SpanPoint::ProxyRecv, Time::from_micros(2_005));
        trace.stamp(SpanPoint::Admitted, Time::from_micros(2_010));
        trace.stamp(SpanPoint::Popped, Time::from_micros(2_200));
        trace.stamp(SpanPoint::Locked, Time::from_micros(2_205));
        trace.stamp(SpanPoint::DeliverSend, Time::from_micros(2_215));
        t.record_delivery(
            TopicId(5),
            SeqNo(3),
            Time::from_micros(2_000),
            Time::from_micros(2_220),
            Some(&trace),
        );

        let s = t.snapshot();
        let slo = s.slo(TopicId(5)).expect("slo registered");
        assert_eq!(slo.delivered, 2);
        assert_eq!(slo.deadline_misses, 1);
        assert_eq!(slo.worst_stage, Some(crate::span::BudgetStage::QueueWait));
        assert_eq!(slo.lost, 2);
        assert_eq!(slo.max_loss_run, 2);
        assert_eq!(slo.loss_bound_violations, 1);
        // One DeadlineMiss + one LossBurst incident.
        assert_eq!(s.incident_count, 2);
        let kinds: Vec<_> = s.incidents.iter().map(|i| i.kind).collect();
        assert!(kinds.contains(&IncidentKind::LossBurst));
        assert!(kinds.contains(&IncidentKind::DeadlineMiss));
        // The flight recorder retained both spans.
        let flight = t.flight_snapshot();
        assert_eq!(flight.spans.len(), 2);
        assert!(flight.spans[1].missed);
        assert_eq!(flight.spans[1].slice_sum_ns(), flight.spans[1].e2e_ns);
    }

    #[test]
    fn late_redelivery_never_rewinds_loss_accounting() {
        let t = Telemetry::new();
        t.set_topic_slo(TopicId(5), Duration::from_millis(10), Some(3));
        for seq in [0u64, 1, 4, 2] {
            // seq 2 arrives late (recovery re-dispatch after the gap).
            t.record_delivery(
                TopicId(5),
                SeqNo(seq),
                Time::from_micros(1_000),
                Time::from_micros(1_100),
                None,
            );
        }
        let slo = t.snapshot().slo(TopicId(5)).cloned().expect("slo");
        assert_eq!(slo.delivered, 4);
        assert_eq!(slo.lost, 2, "gap before seq 4 counted once");
        assert_eq!(slo.max_loss_run, 2);
        assert_eq!(slo.loss_bound_violations, 0, "run 2 <= L_i 3");
    }

    #[test]
    fn disabled_handle_ignores_slo_and_flight() {
        let t = Telemetry::disabled();
        t.set_topic_slo(TopicId(1), Duration::from_micros(1), Some(0));
        t.record_delivery(TopicId(1), SeqNo(9), Time::ZERO, Time::from_millis(1), None);
        t.incident(
            IncidentKind::Promotion,
            TopicId(0),
            SeqNo(0),
            Time::ZERO,
            String::new(),
        );
        assert_eq!(t.incident_count(), 0);
        assert!(t.flight_snapshot().spans.is_empty());
        assert!(t.snapshot().slos.is_empty());
    }

    #[test]
    fn heartbeats_queues_and_admits_snapshot() {
        let t = Telemetry::new();
        t.record_admit();
        t.heartbeat(HeartbeatKind::Proxy, Time::from_millis(1));
        t.heartbeat(HeartbeatKind::Proxy, Time::from_millis(3));
        // fetch_max: an out-of-order older beat never rewinds the reading.
        t.heartbeat(HeartbeatKind::Proxy, Time::from_millis(2));
        t.record_queue_depth(BrokerId(7), 5);
        t.record_queue_depth(BrokerId(7), 2);

        let s = t.snapshot();
        assert_eq!(s.admits, 1);
        let hb = s.heartbeat(HeartbeatKind::Proxy).expect("proxy beats");
        assert_eq!(hb.beats, 3);
        assert_eq!(hb.last_beat_ns, Time::from_millis(3).as_nanos());
        assert_eq!(s.heartbeat(HeartbeatKind::Detector).unwrap().beats, 0);
        let q = s.queues.iter().find(|q| q.broker == BrokerId(7));
        let q = q.expect("queue gauges");
        assert_eq!(q.depth, 2);
        assert_eq!(q.high_watermark, 5);

        let disabled = Telemetry::disabled();
        disabled.heartbeat(HeartbeatKind::Worker, Time::from_millis(1));
        disabled.record_queue_depth(BrokerId(0), 1);
        disabled.record_admit();
        let s = disabled.snapshot();
        assert_eq!(s.admits, 0);
        assert!(s.heartbeats.is_empty());
    }

    #[test]
    fn topic_registration_is_idempotent() {
        let t = Telemetry::new();
        t.set_topic_slo(TopicId(1), Duration::ZERO, None);
        t.set_topic_slo(TopicId(1), Duration::from_millis(1), None);
        t.record_delivery(TopicId(1), SeqNo(0), Time::ZERO, Time::from_micros(1), None);
        let s = t.snapshot();
        assert_eq!(s.topics.len(), 1);
        assert_eq!(s.topics[0].histogram.len(), 1);
    }
}
