//! The health model: heartbeat watchdogs and threshold rules over two
//! consecutive snapshots, folded into a `Healthy/Degraded/Unhealthy`
//! verdict with reasons.
//!
//! Reason strings are static (parameterized only by configuration, never
//! by raw heartbeat ages), so a health verdict computed on the injected
//! chaos clock serializes byte-identically across same-seed runs.

use frame_telemetry::{DecisionKind, HeartbeatKind, TelemetrySnapshot};
use frame_types::Duration;
use serde::{Deserialize, Serialize};

/// The overall verdict, worst rule wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthVerdict {
    /// Every watchdog and threshold is satisfied.
    Healthy,
    /// Something needs attention but delivery capacity remains (stalled
    /// detector, unresponsive Primary pre-promotion, SLO burn).
    Degraded,
    /// Delivery capacity itself is gone (dispatch or proxy stalled).
    Unhealthy,
}

impl HealthVerdict {
    /// Stable lowercase name (`healthy` / `degraded` / `unhealthy`).
    pub fn name(self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Degraded => "degraded",
            HealthVerdict::Unhealthy => "unhealthy",
        }
    }

    /// Numeric severity for gauge export (0 / 1 / 2).
    pub fn severity(self) -> u8 {
        match self {
            HealthVerdict::Healthy => 0,
            HealthVerdict::Degraded => 1,
            HealthVerdict::Unhealthy => 2,
        }
    }
}

impl std::fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Watchdog and threshold configuration.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Max time without a finished job, while jobs are queued, before
    /// `Unhealthy`.
    pub worker_stall: Duration,
    /// Max silence of the proxy heartbeat before `Unhealthy`.
    pub proxy_stall: Duration,
    /// Max silence of the failure-detector heartbeat before `Degraded`
    /// (only while no promotion has happened — a promoted system has
    /// retired its detector by design).
    pub detector_stall: Duration,
    /// Max silence of the Primary's poll acks before `Degraded` (also
    /// suppressed after promotion).
    pub primary_silence: Duration,
    /// Max deadline misses + loss-bound violations per second before the
    /// SLO is considered burning (`Degraded`).
    pub slo_burn_per_sec: f64,
    /// Max reactor write-queue drops per second (summed over loops)
    /// before slow consumers are considered to be shedding deliveries
    /// (`Degraded`).
    pub write_drop_per_sec: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            worker_stall: Duration::from_secs(1),
            proxy_stall: Duration::from_secs(1),
            detector_stall: Duration::from_secs(1),
            primary_silence: Duration::from_millis(250),
            slo_burn_per_sec: 1.0,
            write_drop_per_sec: 1.0,
        }
    }
}

/// A verdict plus the rule violations behind it (empty when healthy).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The folded verdict.
    pub verdict: HealthVerdict,
    /// One line per violated rule, deterministic given the same inputs.
    pub reasons: Vec<String>,
}

impl HealthReport {
    /// A healthy report with no reasons.
    pub fn healthy() -> HealthReport {
        HealthReport {
            verdict: HealthVerdict::Healthy,
            reasons: Vec::new(),
        }
    }
}

/// Age of a heartbeat at `now_ns`, or `None` when the signal never beat
/// (its watchdog is then skipped: a feature that never started — no
/// detector, no job run yet — is not a failure).
fn heartbeat_age_ns(snap: &TelemetrySnapshot, kind: HeartbeatKind, now_ns: u64) -> Option<u64> {
    let hb = snap.heartbeat(kind)?;
    if hb.beats == 0 {
        return None;
    }
    Some(now_ns.saturating_sub(hb.last_beat_ns))
}

/// Evaluates the health rules over the current snapshot (and the
/// previous one, for burn-rate deltas). `dt_ns` is the sampling interval
/// separating the two snapshots.
pub fn evaluate(
    cfg: &HealthConfig,
    prev: Option<&TelemetrySnapshot>,
    snap: &TelemetrySnapshot,
    now_ns: u64,
    dt_ns: u64,
) -> HealthReport {
    let mut verdict = HealthVerdict::Healthy;
    let mut reasons = Vec::new();
    let mut raise = |v: HealthVerdict, reason: String, reasons: &mut Vec<String>| {
        if v > verdict {
            verdict = v;
        }
        reasons.push(reason);
    };

    // The worker heartbeat beats when a job finishes, on whichever thread
    // ran it, so its silence means a stall only while jobs wait: an idle
    // broker finishes nothing and is healthy.
    let queued: u64 = snap.queues.iter().map(|q| q.depth).sum();
    if let Some(age) = heartbeat_age_ns(snap, HeartbeatKind::Worker, now_ns) {
        if queued > 0 && age > cfg.worker_stall.as_nanos() {
            raise(
                HealthVerdict::Unhealthy,
                format!(
                    "workers stalled: jobs queued, none finished within {}ms",
                    cfg.worker_stall.as_millis()
                ),
                &mut reasons,
            );
        }
    }
    if let Some(age) = heartbeat_age_ns(snap, HeartbeatKind::Proxy, now_ns) {
        if age > cfg.proxy_stall.as_nanos() {
            raise(
                HealthVerdict::Unhealthy,
                format!(
                    "proxy stalled: no ingress heartbeat within {}ms",
                    cfg.proxy_stall.as_millis()
                ),
                &mut reasons,
            );
        }
    }

    // Detector and Primary-ack watchdogs only matter before a promotion:
    // after fail-over the detector has done its job and retired, and the
    // old Primary is dead on purpose.
    let promoted = snap.decision_count(DecisionKind::Promote) > 0;
    if !promoted {
        if let Some(age) = heartbeat_age_ns(snap, HeartbeatKind::Detector, now_ns) {
            if age > cfg.detector_stall.as_nanos() {
                raise(
                    HealthVerdict::Degraded,
                    format!(
                        "failure detector stalled: no poll round within {}ms",
                        cfg.detector_stall.as_millis()
                    ),
                    &mut reasons,
                );
            }
        }
        if let Some(age) = heartbeat_age_ns(snap, HeartbeatKind::PrimaryAck, now_ns) {
            if age > cfg.primary_silence.as_nanos() {
                raise(
                    HealthVerdict::Degraded,
                    format!(
                        "primary unresponsive: no poll ack within {}ms",
                        cfg.primary_silence.as_millis()
                    ),
                    &mut reasons,
                );
            }
        }
    }

    // Overload control above Normal means the broker is deliberately
    // degrading (suppressing replication, shedding within L_i, evicting
    // best-effort topics). The system is coping, not failing — Degraded,
    // with the ladder state spelled out.
    if snap.overload.degraded() {
        raise(
            HealthVerdict::Degraded,
            format!(
                "overload control active: rung {} ({}), topics suppressed/shedding/evicted {}/{}/{}",
                snap.overload.rung,
                snap.overload.rung_name(),
                snap.overload.suppressed_topics,
                snap.overload.shedding_topics,
                snap.overload.evicted_topics
            ),
            &mut reasons,
        );
    }

    if let Some(prev) = prev {
        let burn = |s: &TelemetrySnapshot| {
            s.slos
                .iter()
                .map(|t| t.deadline_misses + t.loss_bound_violations)
                .sum::<u64>()
        };
        let delta = burn(snap).saturating_sub(burn(prev));
        let dt_secs = (dt_ns.max(1)) as f64 / 1e9;
        if delta as f64 / dt_secs > cfg.slo_burn_per_sec {
            raise(
                HealthVerdict::Degraded,
                format!(
                    "SLO burning: deadline misses / loss violations above {}/s",
                    cfg.slo_burn_per_sec
                ),
                &mut reasons,
            );
        }

        // Reactor write queues shedding delivery frames: slow consumers
        // are losing their own traffic faster than tolerated. Sustained
        // (rate over the interval), not cumulative, so a long-lived system
        // with an old burst stays healthy.
        let drops = |s: &TelemetrySnapshot| {
            s.reactor_loops
                .iter()
                .map(|l| l.write_queue_drops)
                .sum::<u64>()
        };
        let drop_delta = drops(snap).saturating_sub(drops(prev));
        if drop_delta as f64 / dt_secs > cfg.write_drop_per_sec {
            raise(
                HealthVerdict::Degraded,
                format!(
                    "reactor shedding deliveries: write-queue drops above {}/s",
                    cfg.write_drop_per_sec
                ),
                &mut reasons,
            );
        }

        // Deliveries frozen while jobs sit queued: a wedged pipeline even
        // though every thread still beats.
        let delivered = |s: &TelemetrySnapshot| s.slos.iter().map(|t| t.delivered).sum::<u64>();
        if queued > 0 && delivered(snap) == delivered(prev) {
            raise(
                HealthVerdict::Degraded,
                format!("deliveries stalled: {queued} jobs queued, none delivered last interval"),
                &mut reasons,
            );
        }
    }

    HealthReport { verdict, reasons }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frame_telemetry::Telemetry;
    use frame_types::{BrokerId, SeqNo, Time, TopicId};

    fn ms(v: u64) -> u64 {
        Duration::from_millis(v).as_nanos()
    }

    #[test]
    fn silent_signals_are_skipped_not_failed() {
        let t = Telemetry::new();
        let r = evaluate(
            &HealthConfig::default(),
            None,
            &t.snapshot(),
            ms(10_000),
            ms(100),
        );
        assert_eq!(r.verdict, HealthVerdict::Healthy);
        assert!(r.reasons.is_empty());
    }

    #[test]
    fn idle_broker_stays_healthy_past_worker_stall() {
        // The last job finished at 100 ms and nothing is queued: silence
        // for twice `worker_stall` is idleness, not a stall.
        let t = Telemetry::new();
        t.heartbeat(HeartbeatKind::Worker, Time::from_millis(100));
        t.record_queue_depth(BrokerId(0), 0);
        let r = evaluate(
            &HealthConfig::default(),
            None,
            &t.snapshot(),
            ms(100) + Duration::from_secs(2).as_nanos(),
            ms(100),
        );
        assert_eq!(r.verdict, HealthVerdict::Healthy, "{:?}", r.reasons);
    }

    #[test]
    fn queued_job_behind_stalled_dispatch_is_unhealthy() {
        // A job waits while no job has finished for twice `worker_stall`:
        // the thread holding the dispatch is stuck.
        let t = Telemetry::new();
        t.heartbeat(HeartbeatKind::Worker, Time::from_millis(100));
        t.record_queue_depth(BrokerId(0), 1);
        let now = ms(100) + Duration::from_secs(2).as_nanos();
        let r = evaluate(&HealthConfig::default(), None, &t.snapshot(), now, ms(100));
        assert_eq!(r.verdict, HealthVerdict::Unhealthy);
        assert!(r.reasons[0].contains("workers stalled"));
        // Within `worker_stall` of the last finished job it is not yet.
        let r = evaluate(
            &HealthConfig::default(),
            None,
            &t.snapshot(),
            ms(600),
            ms(100),
        );
        assert_eq!(r.verdict, HealthVerdict::Healthy, "{:?}", r.reasons);
    }

    #[test]
    fn silent_primary_degrades_until_promotion() {
        let cfg = HealthConfig {
            primary_silence: Duration::from_millis(10),
            ..HealthConfig::default()
        };
        let t = Telemetry::new();
        t.heartbeat(HeartbeatKind::PrimaryAck, Time::from_millis(100));
        let r = evaluate(&cfg, None, &t.snapshot(), ms(150), ms(5));
        assert_eq!(r.verdict, HealthVerdict::Degraded);
        assert!(r.reasons[0].contains("primary unresponsive"));

        // After a promotion the watchdog is suppressed: back to healthy.
        t.decision(
            DecisionKind::Promote,
            TopicId(0),
            SeqNo(0),
            Time::from_millis(150),
        );
        let r = evaluate(&cfg, None, &t.snapshot(), ms(150), ms(5));
        assert_eq!(r.verdict, HealthVerdict::Healthy);
    }

    #[test]
    fn slo_burn_and_delivery_stall_degrade() {
        let cfg = HealthConfig::default();
        let t = Telemetry::new();
        t.set_topic_slo(TopicId(1), Duration::from_micros(10), Some(0));
        let before = t.snapshot();
        // Two deadline misses within a 100ms interval: 20/s > 1/s.
        for seq in 0..2 {
            t.record_delivery(
                TopicId(1),
                SeqNo(seq),
                Time::from_millis(0),
                Time::from_millis(50),
                None,
            );
        }
        let r = evaluate(&cfg, Some(&before), &t.snapshot(), ms(100), ms(100));
        assert_eq!(r.verdict, HealthVerdict::Degraded);
        assert!(r.reasons[0].contains("SLO burning"));

        // Queued jobs + frozen delivered count = stalled pipeline.
        let frozen = t.snapshot();
        t.record_queue_depth(BrokerId(0), 5);
        let r = evaluate(&cfg, Some(&frozen), &t.snapshot(), ms(200), ms(100));
        assert_eq!(r.verdict, HealthVerdict::Degraded);
        assert!(r.reasons[0].contains("deliveries stalled"));
    }

    #[test]
    fn overload_rung_above_normal_degrades_with_ladder_state() {
        let t = Telemetry::new();
        t.set_overload_state(2, 1, 3, 0, 1.7);
        let r = evaluate(
            &HealthConfig::default(),
            None,
            &t.snapshot(),
            ms(100),
            ms(100),
        );
        assert_eq!(r.verdict, HealthVerdict::Degraded);
        assert!(r.reasons[0].contains("overload control active"));
        assert!(r.reasons[0].contains("rung 2 (shed)"));
        assert!(r.reasons[0].contains("1/3/0"));

        // Back at Normal the reason clears.
        t.set_overload_state(0, 0, 0, 0, 0.1);
        let r = evaluate(
            &HealthConfig::default(),
            None,
            &t.snapshot(),
            ms(100),
            ms(100),
        );
        assert_eq!(r.verdict, HealthVerdict::Healthy);
    }

    #[test]
    fn sustained_write_queue_drops_degrade() {
        let cfg = HealthConfig::default();
        let t = Telemetry::new();
        let gauges = t.reactor_gauges(0);
        let before = t.snapshot();
        // 5 drops over a 100ms interval = 50/s, above the 1/s default.
        for _ in 0..5 {
            gauges.record_write_queue_drop();
        }
        let r = evaluate(&cfg, Some(&before), &t.snapshot(), ms(100), ms(100));
        assert_eq!(r.verdict, HealthVerdict::Degraded);
        assert!(r.reasons[0].contains("write-queue drops"));

        // The counter is cumulative but the rule is a rate: a quiet
        // interval after the burst goes back to healthy.
        let after_burst = t.snapshot();
        let r = evaluate(&cfg, Some(&after_burst), &t.snapshot(), ms(200), ms(100));
        assert_eq!(r.verdict, HealthVerdict::Healthy);
    }
}
