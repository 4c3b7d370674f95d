//! The `metrics.jsonl` timeline: a deterministic, serialization-stable
//! subset of a [`SamplePoint`].
//!
//! Only integer counters, integer deltas and the health verdict make the
//! cut — latency quantiles and heartbeat ages depend on wall-clock
//! scheduling jitter and would break the chaos harness's byte-identical
//! same-seed guarantee. Timestamps are whatever clock drove the sampler:
//! the injected logical clock under chaos, wall time on a live system.

use serde::{Deserialize, Serialize};

use crate::sampler::SamplePoint;

/// One `metrics.jsonl` line. Field order is the serialization order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Sample time in milliseconds (from the sampler's clock).
    pub t_ms: u64,
    /// Cumulative admitted ingress messages.
    pub admits: u64,
    /// Cumulative delivered messages.
    pub delivered: u64,
    /// Deliveries in this sampling interval (the "deliver-rate" column:
    /// zero through a crash window, spiking on recovery).
    pub deliver_delta: u64,
    /// Cumulative replicate decisions.
    pub replicated: u64,
    /// Cumulative deadline misses.
    pub deadline_misses: u64,
    /// Cumulative messages lost.
    pub lost: u64,
    /// Cumulative loss-bound violations.
    pub loss_violations: u64,
    /// Cumulative incidents.
    pub incidents: u64,
    /// Scheduler queue depth (summed across brokers). Deterministic at a
    /// quiesced sample point; the high *watermark* is not — how deep a
    /// re-delivery burst stacks depends on how far each run of jobs
    /// drains — so the watermark stays on the live surfaces (`/metrics`,
    /// `/series`, `top`) and out of this artifact.
    pub queue_depth: u64,
    /// Overload-controller rung at this sample (0 = normal service) —
    /// deterministic because control ticks ride the logical schedule.
    pub rung: u64,
    /// Cumulative messages shed by the overload controller.
    pub shed: u64,
    /// Health verdict name (`healthy` / `degraded` / `unhealthy`).
    pub health: String,
    /// Health reasons (deterministic rule strings, no raw ages).
    pub reasons: Vec<String>,
}

impl TimelinePoint {
    /// Projects a sample onto its deterministic timeline subset.
    pub fn from_sample(p: &SamplePoint) -> TimelinePoint {
        TimelinePoint {
            t_ms: p.t_ns / 1_000_000,
            admits: p.admits,
            delivered: p.delivered,
            deliver_delta: p.delivered_delta,
            replicated: p.replicated,
            deadline_misses: p.deadline_misses,
            lost: p.lost,
            loss_violations: p.loss_violations,
            incidents: p.incidents,
            queue_depth: p.queue_depth,
            rung: p.rung,
            shed: p.shed,
            health: p.health.verdict.name().to_string(),
            reasons: p.health.reasons.clone(),
        }
    }

    /// One JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("timeline point serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{Sampler, SamplerConfig};
    use frame_telemetry::Telemetry;
    use frame_types::{Duration, SeqNo, Time, TopicId};

    #[test]
    fn timeline_lines_are_stable_and_round_trip() {
        let t = Telemetry::new();
        t.set_topic_slo(TopicId(1), Duration::from_millis(100), Some(0));
        t.record_admit();
        t.record_delivery(
            TopicId(1),
            SeqNo(0),
            Time::from_millis(0),
            Time::from_millis(10),
            None,
        );
        let mut sampler = Sampler::new(SamplerConfig::default());
        let p = sampler.observe(&t.snapshot(), Time::from_millis(50));
        let line = TimelinePoint::from_sample(&p).to_json_line();
        // Re-projecting the same sample yields the same bytes.
        assert_eq!(line, TimelinePoint::from_sample(&p).to_json_line());
        let back: TimelinePoint = serde_json::from_str(&line).expect("parses");
        assert_eq!(back.t_ms, 50);
        assert_eq!(back.delivered, 1);
        assert_eq!(back.deliver_delta, 1);
        assert_eq!(back.health, "healthy");
    }
}
