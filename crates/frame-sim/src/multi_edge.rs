//! Multi-edge cloud-ingest scaling: the paper's Fig 1 premise, quantified.
//!
//! The paper scopes its analysis to "one edge and one cloud" (§I), but its
//! motivating architecture has a private cloud serving *N* edges. The
//! cloud-side ingest point then sees the superposition of every edge's
//! cloud-bound (category 5) traffic. This module answers the natural
//! follow-on question: **how many edges can one cloud ingest node absorb
//! before cloud-bound deadlines are at risk?**
//!
//! Method: run one edge's simulation, extract the arrival process of its
//! cloud-bound deliveries, superpose `N` phase-shifted, jittered copies
//! (edges are independent and statistically identical), and push the merged
//! stream through an `m`-server FIFO ingest queue with a per-message
//! service cost. Reported: ingest utilization and queueing-delay
//! percentiles. The per-edge FRAME guarantees are untouched (they end at
//! the subscriber); this measures the *cloud's* headroom.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use frame_types::Duration;

use crate::params::ConfigName;
use crate::system::{run, SimConfig};
use crate::workload::Workload;
use frame_telemetry::LatencyHistogram;

/// Result of one multi-edge ingest evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CloudIngestReport {
    /// Number of edges superposed.
    pub edges: usize,
    /// Messages ingested.
    pub messages: u64,
    /// Ingest utilization (fraction of `cores`; may exceed 1.0 = overload).
    pub utilization: f64,
    /// Queueing + service delay distribution at the ingest node.
    pub delay: LatencyHistogram,
}

/// Simulates `edges` identical edges feeding one cloud ingest node.
///
/// * `per_edge_topics` — workload size of each edge (a paper size).
/// * `ingest_cost` — CPU time to ingest one cloud-bound message.
/// * `cores` — ingest servers.
///
/// Uses a single fault-free compressed edge run (FRAME configuration) as
/// the template arrival process.
pub fn cloud_ingest_scaling(
    edges: usize,
    per_edge_topics: usize,
    ingest_cost: Duration,
    cores: u32,
    seed: u64,
) -> CloudIngestReport {
    assert!(edges > 0, "need at least one edge");
    assert!(cores > 0, "need at least one ingest server");

    // 1. Template edge: record the cloud-bound delivery times.
    let w = Workload::paper(per_edge_topics, 0);
    let cat5 = w.category_topics(5);
    let mut cfg = SimConfig::new(ConfigName::Frame, per_edge_topics).with_seed(seed);
    cfg.series_topics = cat5.clone();
    let metrics = run(cfg);

    let mut template: Vec<u64> = Vec::new(); // arrival ns at the cloud
    for &ti in &cat5 {
        let t = &metrics.topics[ti];
        if let (Some(series), Some(first)) = (&t.series, t.first_seq) {
            let period = w.topics[ti].spec.period.as_nanos();
            for &(seq, latency) in series {
                // Reconstruct absolute delivery time: creation + latency.
                // Creation ≈ warmup + (seq - first)·T + publisher phase;
                // the template only needs relative spacing, so anchor at
                // (seq - first)·T.
                template.push((seq - first) * period + latency.as_nanos());
            }
        }
    }
    template.sort_unstable();
    assert!(
        !template.is_empty(),
        "template edge produced no cloud deliveries"
    );

    // 2. Superpose N edges with phase shifts and small jitter.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA5A5_5A5A));
    let mut arrivals: Vec<u64> = Vec::with_capacity(template.len() * edges);
    for e in 0..edges {
        // Spread edges across the smallest cloud period for a fair merge.
        let phase = (e as u64).wrapping_mul(41_000_007) % 500_000_000;
        for &t in &template {
            let jitter: u64 = rng.gen_range(0..1_000_000); // ≤1 ms arrival jitter
            arrivals.push(t + phase + jitter);
        }
    }
    arrivals.sort_unstable();

    // 3. m-server FIFO queue.
    let service = ingest_cost.as_nanos();
    let mut server_free = vec![0u64; cores as usize];
    let mut delay = LatencyHistogram::new();
    let mut busy_ns = 0u64;
    for &at in &arrivals {
        // Earliest-free server.
        let (idx, &free) = server_free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &f)| f)
            .expect("cores > 0");
        let start = at.max(free);
        let done = start + service;
        server_free[idx] = done;
        busy_ns += service;
        delay.record(Duration::from_nanos(done - at));
    }
    let span = arrivals.last().unwrap() - arrivals.first().unwrap() + service;
    CloudIngestReport {
        edges,
        messages: arrivals.len() as u64,
        utilization: busy_ns as f64 / (span as f64 * cores as f64),
        delay,
    }
}

/// The largest number of edges whose ingest p99 delay stays within
/// `budget`, scanning 1..=`limit`.
pub fn max_edges_within_budget(
    per_edge_topics: usize,
    ingest_cost: Duration,
    cores: u32,
    budget: Duration,
    limit: usize,
    seed: u64,
) -> usize {
    let mut best = 0;
    for edges in 1..=limit {
        let r = cloud_ingest_scaling(edges, per_edge_topics, ingest_cost, cores, seed);
        if r.delay.p99() <= budget && r.utilization < 1.0 {
            best = edges;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const INGEST: Duration = Duration::from_millis(5);

    #[test]
    fn utilization_grows_with_edges() {
        let a = cloud_ingest_scaling(1, 55, INGEST, 1, 3);
        let b = cloud_ingest_scaling(4, 55, INGEST, 1, 3);
        assert!(b.utilization > 2.0 * a.utilization);
        assert_eq!(b.messages, 4 * a.messages);
    }

    #[test]
    fn delay_small_below_saturation_large_beyond() {
        // One edge: 5 cat-5 topics at 2 Hz = 10 msg/s; 5 ms ingest on one
        // core saturates at ~200 msg/s ≈ 20 edges.
        let light = cloud_ingest_scaling(2, 55, INGEST, 1, 1);
        assert!(light.utilization < 0.2, "util {}", light.utilization);
        assert!(
            light.delay.p99() < Duration::from_millis(30),
            "p99 {}",
            light.delay.p99()
        );

        let heavy = cloud_ingest_scaling(40, 55, INGEST, 1, 1);
        assert!(heavy.utilization > 0.95, "util {}", heavy.utilization);
        assert!(
            heavy.delay.p99() > light.delay.p99().saturating_mul(4),
            "overload must inflate delay: {} vs {}",
            heavy.delay.p99(),
            light.delay.p99()
        );
    }

    #[test]
    fn extra_cores_restore_headroom() {
        let one = cloud_ingest_scaling(30, 55, INGEST, 1, 2);
        let four = cloud_ingest_scaling(30, 55, INGEST, 4, 2);
        assert!(four.utilization < one.utilization / 2.0);
        assert!(four.delay.p99() <= one.delay.p99());
    }

    #[test]
    fn max_edges_is_monotone_in_budget() {
        let tight = max_edges_within_budget(55, INGEST, 1, Duration::from_millis(60), 30, 7);
        let loose = max_edges_within_budget(55, INGEST, 1, Duration::from_millis(400), 30, 7);
        assert!(tight >= 1);
        assert!(loose >= tight);
    }
}
