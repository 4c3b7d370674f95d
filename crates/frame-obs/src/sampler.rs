//! The sampler: differentiates consecutive [`TelemetrySnapshot`]s into
//! rates, feeds the ring time-series store, and evaluates the health
//! model — plus the background thread that drives it at a fixed cadence
//! on a live system.
//!
//! [`Sampler::observe`] is a pure function of (previous snapshot, current
//! snapshot, clock reading), so the same logic serves three callers: the
//! background thread spawned by `RtSystemBuilder::obs`, `frame-cli top`
//! differentiating snapshots fetched over TCP, and the chaos runner
//! stepping the injected clock (where determinism matters).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use frame_clock::Clock;
use frame_telemetry::{DecisionKind, Telemetry, TelemetrySnapshot};
use frame_types::{Duration, Time};

use crate::health::{evaluate, HealthConfig, HealthReport, HealthVerdict};
use crate::series::SeriesStore;

/// Sampler cadence, ring sizing and health thresholds.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Interval between samples (background thread; inline callers pass
    /// their own clock readings).
    pub cadence: Duration,
    /// Points retained per ring series.
    pub ring_capacity: usize,
    /// Cardinality guard: max distinct series before points are dropped.
    pub max_series: usize,
    /// Max cardinality-guard drops per second before the blind spot is
    /// surfaced as a `Degraded` health reason. The guard itself stays
    /// silent otherwise — without this rule a saturated store sheds
    /// every new topic's series invisibly.
    pub series_drop_per_sec: f64,
    /// Health watchdog thresholds.
    pub health: HealthConfig,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            cadence: Duration::from_millis(100),
            ring_capacity: 512,
            max_series: 256,
            series_drop_per_sec: 1.0,
            health: HealthConfig::default(),
        }
    }
}

/// One sample: cumulative counters, deltas since the previous sample,
/// queue gauges and the health verdict.
#[derive(Clone, Debug)]
pub struct SamplePoint {
    /// Clock reading of this sample, nanoseconds.
    pub t_ns: u64,
    /// Interval since the previous sample (the configured cadence for the
    /// very first one), nanoseconds.
    pub dt_ns: u64,
    /// Cumulative admitted ingress messages.
    pub admits: u64,
    /// Admits since the previous sample.
    pub admits_delta: u64,
    /// Cumulative delivered messages (summed over topics).
    pub delivered: u64,
    /// Deliveries since the previous sample.
    pub delivered_delta: u64,
    /// Cumulative replicate decisions.
    pub replicated: u64,
    /// Replications since the previous sample.
    pub replicated_delta: u64,
    /// Cumulative deadline misses (summed over topics).
    pub deadline_misses: u64,
    /// Deadline misses since the previous sample.
    pub misses_delta: u64,
    /// Cumulative messages lost (summed sequence gaps over topics).
    pub lost: u64,
    /// Losses since the previous sample.
    pub lost_delta: u64,
    /// Cumulative loss-bound violations.
    pub loss_violations: u64,
    /// Violations since the previous sample.
    pub violations_delta: u64,
    /// Cumulative incidents.
    pub incidents: u64,
    /// Incidents since the previous sample.
    pub incidents_delta: u64,
    /// Scheduler queue depth, summed across brokers.
    pub queue_depth: u64,
    /// Deepest scheduler queue watermark across brokers.
    pub queue_watermark: u64,
    /// Overload-controller rung at this sample (0 = normal service).
    pub rung: u64,
    /// Cumulative messages shed by the overload controller.
    pub shed: u64,
    /// The health verdict at this sample.
    pub health: HealthReport,
    /// Per-role resource deltas over the interval (empty before the
    /// profiler has registered any role, or against pre-profiler peers).
    pub roles: Vec<RoleRate>,
}

/// One thread role's resource consumption over a sampling interval,
/// differentiated from two consecutive [`TelemetrySnapshot`]s.
#[derive(Clone, Debug, Default)]
pub struct RoleRate {
    /// Stable role name (`reactor-0`, `reactor-1`, `detector`, ...).
    pub role: String,
    /// Whether the role is on the per-message hot path (counted in
    /// [`SamplePoint::allocs_per_message`]).
    pub hot_path: bool,
    /// Cumulative thread CPU nanoseconds.
    pub cpu_ns: u64,
    /// CPU nanoseconds consumed during the interval.
    pub cpu_delta_ns: u64,
    /// Cumulative heap allocations.
    pub allocs: u64,
    /// Heap allocations during the interval.
    pub allocs_delta: u64,
    /// Bytes allocated during the interval.
    pub alloc_bytes_delta: u64,
    /// Live heap bytes at the sample.
    pub current_bytes: u64,
    /// `read(2)`-family syscalls during the interval.
    pub reads_delta: u64,
    /// `write(2)`-family syscalls during the interval.
    pub writes_delta: u64,
}

impl RoleRate {
    /// Fraction of one core this role consumed over `dt_ns` (can exceed
    /// 1.0 for roles aggregating several threads, e.g. `obs`).
    pub fn cpu_utilization(&self, dt_ns: u64) -> f64 {
        self.cpu_delta_ns as f64 / dt_ns.max(1) as f64
    }
}

impl SamplePoint {
    fn per_sec(&self, delta: u64) -> f64 {
        delta as f64 / (self.dt_ns.max(1) as f64 / 1e9)
    }

    /// Steady-state allocations per delivered message over the interval:
    /// hot-path role allocations divided by deliveries. `None` while
    /// nothing was delivered (an idle interval says nothing about the
    /// per-message cost).
    pub fn allocs_per_message(&self) -> Option<f64> {
        if self.delivered_delta == 0 {
            return None;
        }
        let hot: u64 = self
            .roles
            .iter()
            .filter(|r| r.hot_path)
            .map(|r| r.allocs_delta)
            .sum();
        Some(hot as f64 / self.delivered_delta as f64)
    }

    /// Admitted messages per second over the last interval.
    pub fn admit_rate(&self) -> f64 {
        self.per_sec(self.admits_delta)
    }

    /// Delivered messages per second over the last interval.
    pub fn deliver_rate(&self) -> f64 {
        self.per_sec(self.delivered_delta)
    }

    /// Replications per second over the last interval.
    pub fn replicate_rate(&self) -> f64 {
        self.per_sec(self.replicated_delta)
    }

    /// Deadline misses per second over the last interval.
    pub fn miss_rate(&self) -> f64 {
        self.per_sec(self.misses_delta)
    }

    /// Messages lost per second over the last interval.
    pub fn loss_rate(&self) -> f64 {
        self.per_sec(self.lost_delta)
    }
}

/// Differentiates snapshots into [`SamplePoint`]s and accumulates them
/// into a bounded [`SeriesStore`].
pub struct Sampler {
    config: SamplerConfig,
    store: SeriesStore,
    prev: Option<(u64, TelemetrySnapshot)>,
    latest: Option<SamplePoint>,
    /// Cardinality-guard drops already accounted in a previous sample.
    dropped_seen: u64,
    /// Whether the first guard drop has been logged (once per sampler).
    drop_logged: bool,
}

fn sum_slo(snap: &TelemetrySnapshot, f: impl Fn(&frame_telemetry::TopicSloSnapshot) -> u64) -> u64 {
    snap.slos.iter().map(f).sum()
}

/// Differentiates the per-role profiler counters of two snapshots. A role
/// absent from `prev` (just registered) baselines at zero.
fn diff_roles(prev: &TelemetrySnapshot, snap: &TelemetrySnapshot) -> Vec<RoleRate> {
    snap.roles
        .iter()
        .map(|r| {
            let p = prev.role(&r.role);
            let base = |f: fn(&frame_telemetry::RoleProfileSnapshot) -> u64| p.map_or(0, f);
            RoleRate {
                role: r.role.clone(),
                hot_path: r.hot_path,
                cpu_ns: r.cpu_ns,
                cpu_delta_ns: r.cpu_ns.saturating_sub(base(|p| p.cpu_ns)),
                allocs: r.allocs,
                allocs_delta: r.allocs.saturating_sub(base(|p| p.allocs)),
                alloc_bytes_delta: r.alloc_bytes.saturating_sub(base(|p| p.alloc_bytes)),
                current_bytes: r.current_bytes,
                reads_delta: r.read_syscalls.saturating_sub(base(|p| p.read_syscalls)),
                writes_delta: r.write_syscalls.saturating_sub(base(|p| p.write_syscalls)),
            }
        })
        .collect()
}

impl Sampler {
    /// A sampler with the given cadence, ring sizing and thresholds.
    pub fn new(config: SamplerConfig) -> Sampler {
        Sampler {
            store: SeriesStore::new(config.ring_capacity, config.max_series),
            config,
            prev: None,
            latest: None,
            dropped_seen: 0,
            drop_logged: false,
        }
    }

    /// The configuration this sampler runs with.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Ingests one snapshot taken at clock reading `now`: differentiates
    /// counters against the previous snapshot, evaluates health, stores
    /// the series, and returns (a copy of) the sample.
    pub fn observe(&mut self, snap: &TelemetrySnapshot, now: Time) -> SamplePoint {
        let t_ns = now.as_nanos();
        let dt_ns = match &self.prev {
            Some((prev_t, _)) => t_ns.saturating_sub(*prev_t).max(1),
            None => self.config.cadence.as_nanos().max(1),
        };
        let zero = TelemetrySnapshot::default();
        let prev = self.prev.as_ref().map(|(_, s)| s).unwrap_or(&zero);

        let delivered = sum_slo(snap, |s| s.delivered);
        let misses = sum_slo(snap, |s| s.deadline_misses);
        let lost = sum_slo(snap, |s| s.lost);
        let violations = sum_slo(snap, |s| s.loss_bound_violations);
        let replicated = snap.decision_count(DecisionKind::Replicate);
        let health = evaluate(
            &self.config.health,
            self.prev.as_ref().map(|(_, s)| s),
            snap,
            t_ns,
            dt_ns,
        );
        let mut point = SamplePoint {
            t_ns,
            dt_ns,
            admits: snap.admits,
            admits_delta: snap.admits.saturating_sub(prev.admits),
            delivered,
            delivered_delta: delivered.saturating_sub(sum_slo(prev, |s| s.delivered)),
            replicated,
            replicated_delta: replicated
                .saturating_sub(prev.decision_count(DecisionKind::Replicate)),
            deadline_misses: misses,
            misses_delta: misses.saturating_sub(sum_slo(prev, |s| s.deadline_misses)),
            lost,
            lost_delta: lost.saturating_sub(sum_slo(prev, |s| s.lost)),
            loss_violations: violations,
            violations_delta: violations.saturating_sub(sum_slo(prev, |s| s.loss_bound_violations)),
            incidents: snap.incident_count,
            incidents_delta: snap.incident_count.saturating_sub(prev.incident_count),
            queue_depth: snap.queues.iter().map(|q| q.depth).sum(),
            queue_watermark: snap
                .queues
                .iter()
                .map(|q| q.high_watermark)
                .max()
                .unwrap_or(0),
            rung: snap.overload.rung,
            shed: snap.decision_count(DecisionKind::Shed),
            health,
            roles: diff_roles(prev, snap),
        };
        self.record_series(snap, &point);
        self.surface_series_drops(&mut point);
        self.prev = Some((t_ns, snap.clone()));
        self.latest = Some(point.clone());
        point
    }

    /// Surfaces the series store's cardinality-guard drops: logged once
    /// on the very first drop, and folded into the sample's health report
    /// as `Degraded` while the sustained drop rate stays above the
    /// configured threshold. Without this the guard sheds new series
    /// silently and the dashboard's blind spot is itself invisible.
    fn surface_series_drops(&mut self, point: &mut SamplePoint) {
        let dropped = self.store.dropped();
        if dropped > 0 && !self.drop_logged {
            self.drop_logged = true;
            eprintln!(
                "frame-obs: series cardinality guard engaged: {} distinct series cap reached, \
                 new series are being dropped (raise SamplerConfig::max_series to widen)",
                self.config.max_series
            );
        }
        let delta = dropped.saturating_sub(self.dropped_seen);
        self.dropped_seen = dropped;
        let dt_secs = point.dt_ns.max(1) as f64 / 1e9;
        if delta as f64 / dt_secs > self.config.series_drop_per_sec {
            if point.health.verdict < HealthVerdict::Degraded {
                point.health.verdict = HealthVerdict::Degraded;
            }
            point.health.reasons.push(format!(
                "metrics series dropped: cardinality guard at the {}-series cap is shedding new series",
                self.config.max_series
            ));
        }
    }

    fn record_series(&mut self, snap: &TelemetrySnapshot, p: &SamplePoint) {
        let t = p.t_ns;
        self.store.push("rate.admit", t, p.admit_rate());
        self.store.push("rate.deliver", t, p.deliver_rate());
        self.store.push("rate.replicate", t, p.replicate_rate());
        self.store.push("rate.deadline_miss", t, p.miss_rate());
        self.store.push("rate.loss", t, p.loss_rate());
        self.store
            .push("gauge.queue_depth", t, p.queue_depth as f64);
        self.store
            .push("gauge.queue_watermark", t, p.queue_watermark as f64);
        self.store
            .push("health.severity", t, f64::from(p.health.verdict.severity()));
        // The overload ladder, once it has ever moved: rung + raw
        // pressure, so `top`/timeline can correlate sheds with load.
        if snap.overload.degraded() || snap.overload.escalations > 0 {
            self.store
                .push("overload.rung", t, snap.overload.rung as f64);
            self.store
                .push("overload.pressure", t, snap.overload.pressure());
        }
        if let Some(apm) = p.allocs_per_message() {
            self.store.push("rate.allocs_per_msg", t, apm);
        }
        for r in &p.roles {
            self.store.push(
                &format!("role.{}.cpu_util", r.role),
                t,
                r.cpu_utilization(p.dt_ns),
            );
            self.store.push(
                &format!("role.{}.allocs_per_sec", r.role),
                t,
                p.per_sec(r.allocs_delta),
            );
        }
        for s in &snap.stages {
            if s.histogram.is_empty() {
                continue;
            }
            self.store.push(
                &format!("stage.{}.p50_ns", s.stage.name()),
                t,
                s.histogram.p50().as_nanos() as f64,
            );
            self.store.push(
                &format!("stage.{}.p99_ns", s.stage.name()),
                t,
                s.histogram.p99().as_nanos() as f64,
            );
        }
        let dt_secs = p.dt_ns.max(1) as f64 / 1e9;
        let prev = self.prev.as_ref().map(|(_, s)| s);
        for s in &snap.slos {
            if s.deadline_ns == 0 {
                continue;
            }
            let prev_burn = prev
                .and_then(|ps| ps.slo(s.topic))
                .map_or(0, |ps| ps.deadline_misses + ps.loss_bound_violations);
            let burn = (s.deadline_misses + s.loss_bound_violations).saturating_sub(prev_burn);
            self.store.push(
                &format!("topic.{}.slo_burn_per_sec", s.topic.0),
                t,
                burn as f64 / dt_secs,
            );
        }
        for l in &snap.reactor_loops {
            let (pb, pp) = prev
                .and_then(|ps| {
                    ps.reactor_loops
                        .iter()
                        .find(|p| p.loop_index == l.loop_index)
                })
                .map_or((0, 0), |p| (p.busy_ns, p.parked_ns));
            let busy = l.busy_ns.saturating_sub(pb);
            let wall = busy + l.parked_ns.saturating_sub(pp);
            if wall > 0 {
                self.store.push(
                    &format!("reactor.{}.busy_ratio", l.loop_index),
                    t,
                    busy as f64 / wall as f64,
                );
            }
        }
    }

    /// The accumulated time-series.
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<&SamplePoint> {
        self.latest.as_ref()
    }
}

/// A sampler shared between its driving thread and readers (the HTTP
/// surface, shutdown paths).
pub type SharedSampler = Arc<Mutex<Sampler>>;

/// Handle to a background sampling thread over a live [`Telemetry`]
/// registry.
pub struct ObsSampler {
    shared: SharedSampler,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ObsSampler {
    /// The shared sampler, for readers (HTTP surface, tests).
    pub fn shared(&self) -> SharedSampler {
        self.shared.clone()
    }

    /// Stops the sampling thread and joins it.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ObsSampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns the background sampler: every `config.cadence` it snapshots
/// `telemetry`, reads `clock`, and feeds the shared [`Sampler`].
pub fn spawn_sampler(
    telemetry: Telemetry,
    clock: Arc<dyn Clock>,
    config: SamplerConfig,
) -> ObsSampler {
    let shared: SharedSampler = Arc::new(Mutex::new(Sampler::new(config)));
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let shared = shared.clone();
        let stop = stop.clone();
        std::thread::Builder::new()
            .name("frame-obs-sampler".into())
            .spawn(move || {
                frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Sampler, 0);
                let cadence = config.cadence.to_std();
                let slice = std::time::Duration::from_millis(20).min(cadence);
                while !stop.load(Ordering::Acquire) {
                    let snap = telemetry.sample_snapshot();
                    let now = clock.now();
                    frame_telemetry::stamp_thread_cpu();
                    if let Ok(mut sampler) = shared.lock() {
                        sampler.observe(&snap, now);
                    }
                    // Sleep the cadence in slices so shutdown stays prompt.
                    let mut slept = std::time::Duration::ZERO;
                    while slept < cadence && !stop.load(Ordering::Acquire) {
                        let nap = slice.min(cadence - slept);
                        std::thread::sleep(nap);
                        slept += nap;
                    }
                }
            })
            .expect("spawn obs sampler thread")
    };
    ObsSampler {
        shared,
        stop,
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frame_clock::SimClock;
    use frame_types::{BrokerId, SeqNo, TopicId};

    #[test]
    fn observe_differentiates_counters_into_rates() {
        let t = Telemetry::new();
        t.set_topic_slo(TopicId(1), Duration::from_millis(100), Some(0));
        let mut sampler = Sampler::new(SamplerConfig::default());

        let p0 = sampler.observe(&t.snapshot(), Time::from_millis(100));
        assert_eq!(p0.delivered_delta, 0);

        for seq in 0..5 {
            t.record_admit();
            t.record_delivery(
                TopicId(1),
                SeqNo(seq),
                Time::from_millis(100),
                Time::from_millis(110),
                None,
            );
        }
        t.record_queue_depth(BrokerId(0), 3);
        // 5 deliveries over a 100ms interval = 50/s.
        let p1 = sampler.observe(&t.snapshot(), Time::from_millis(200));
        assert_eq!(p1.dt_ns, Duration::from_millis(100).as_nanos());
        assert_eq!(p1.delivered_delta, 5);
        assert_eq!(p1.admits_delta, 5);
        assert!((p1.deliver_rate() - 50.0).abs() < 1e-9);
        assert_eq!(p1.queue_depth, 3);
        assert_eq!(p1.queue_watermark, 3);

        let deliver = sampler.store().get("rate.deliver").expect("series");
        assert_eq!(deliver.len(), 2);
        assert_eq!(deliver.last(), Some(50.0));
        assert!(sampler.store().get("topic.1.slo_burn_per_sec").is_some());
        assert_eq!(sampler.latest().unwrap().delivered, 5);
    }

    #[test]
    fn series_cardinality_drops_surface_as_degraded() {
        // A 1-series store: the first observe() fills the cap, so every
        // further series push is dropped by the guard.
        let t = Telemetry::new();
        let mut sampler = Sampler::new(SamplerConfig {
            max_series: 1,
            ..SamplerConfig::default()
        });
        let p = sampler.observe(&t.snapshot(), Time::from_millis(100));
        // Dozens of drops over 100ms is far above the 1/s threshold.
        assert!(sampler.store().dropped() > 0, "guard engaged");
        assert_eq!(p.health.verdict, HealthVerdict::Degraded);
        assert!(
            p.health
                .reasons
                .iter()
                .any(|r| r.contains("cardinality guard")),
            "reasons: {:?}",
            p.health.reasons
        );
        assert_eq!(sampler.latest().unwrap().health.verdict, p.health.verdict);
    }

    #[test]
    fn overload_series_recorded_once_ladder_moves() {
        let t = Telemetry::new();
        let mut sampler = Sampler::new(SamplerConfig::default());
        sampler.observe(&t.snapshot(), Time::from_millis(100));
        assert!(sampler.store().get("overload.rung").is_none());

        t.record_overload_escalation();
        t.set_overload_state(1, 2, 0, 0, 1.25);
        sampler.observe(&t.snapshot(), Time::from_millis(200));
        let rung = sampler.store().get("overload.rung").expect("series");
        assert_eq!(rung.last(), Some(1.0));
        let pressure = sampler.store().get("overload.pressure").expect("series");
        assert_eq!(pressure.last(), Some(1.25));
    }

    #[test]
    fn background_sampler_feeds_the_store() {
        let t = Telemetry::new();
        t.record_admit();
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        let mut obs = spawn_sampler(
            t.clone(),
            clock,
            SamplerConfig {
                cadence: Duration::from_millis(5),
                ..SamplerConfig::default()
            },
        );
        let shared = obs.shared();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            {
                let sampler = shared.lock().unwrap();
                if sampler.latest().is_some() {
                    assert_eq!(sampler.latest().unwrap().admits, 1);
                    break;
                }
            }
            assert!(std::time::Instant::now() < deadline, "sampler never ran");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        obs.shutdown();
    }
}
