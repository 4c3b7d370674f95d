//! Measurement: per-topic delivery accounting, CPU utilization, and the
//! derived success-rate statistics of the paper's tables.

use frame_core::BrokerStats;
use frame_types::{Duration, Time};
use serde::{Deserialize, Serialize};

use frame_telemetry::LatencyHistogram;

/// Per-topic delivery record over the measurement window.
///
/// Delivery is tracked by a sequence-number bitset so that *consecutive
/// losses* are computed over the final set of distinct delivered messages —
/// a message that arrives late (e.g. recovered after a crash) is not a
/// loss, exactly as in the paper's counting of distinct messages (§VI-C).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TopicMetrics {
    /// First sequence number created inside the measurement window.
    pub first_seq: Option<u64>,
    /// Last sequence number created inside the measurement window.
    pub last_seq: Option<u64>,
    /// Messages created inside the window.
    pub published: u64,
    /// Distinct messages delivered (first delivery only).
    pub delivered: u64,
    /// Duplicate deliveries discarded.
    pub duplicates: u64,
    /// Distinct deliveries that met the end-to-end deadline.
    pub on_time: u64,
    /// Sum of first-delivery latencies (nanoseconds) for mean computation.
    pub latency_sum_ns: u64,
    /// Maximum first-delivery latency observed.
    pub latency_max: Duration,
    /// Delivered-seq bitset (bit `i` = seq `first_seq + i` delivered).
    bits: Vec<u64>,
    /// Optional (seq, latency) series for figure generation.
    pub series: Option<Vec<(u64, Duration)>>,
    /// Optional (seq, broker→subscriber transit) series (the ΔBS
    /// measurements of the paper's Fig 8).
    pub bs_series: Option<Vec<(u64, Duration)>>,
}

impl TopicMetrics {
    /// Enables per-message series recording (Fig 9 topics).
    pub fn with_series(mut self) -> Self {
        self.series = Some(Vec::new());
        self.bs_series = Some(Vec::new());
        self
    }

    /// Records the broker→subscriber transit of a delivery (only kept when
    /// series recording is enabled).
    pub fn record_transit(&mut self, seq: u64, transit: Duration) {
        if let Some(s) = &mut self.bs_series {
            s.push((seq, transit));
        }
    }

    /// Records a message creation at sequence `seq` inside the window.
    pub fn on_publish(&mut self, seq: u64) {
        if self.first_seq.is_none() {
            self.first_seq = Some(seq);
        }
        self.last_seq = Some(self.last_seq.map_or(seq, |l| l.max(seq)));
        self.published += 1;
    }

    fn bit_index(&self, seq: u64) -> Option<usize> {
        let first = self.first_seq?;
        seq.checked_sub(first).map(|d| d as usize)
    }

    fn is_delivered(&self, seq: u64) -> bool {
        match self.bit_index(seq) {
            Some(i) => self
                .bits
                .get(i / 64)
                .is_some_and(|w| w & (1u64 << (i % 64)) != 0),
            None => false,
        }
    }

    /// Records a delivery of `seq` with end-to-end latency `latency` against
    /// deadline `deadline`. Returns `true` if this was the first (distinct)
    /// delivery. Deliveries of sequences outside the window are ignored.
    pub fn on_delivery(&mut self, seq: u64, latency: Duration, deadline: Duration) -> bool {
        let Some(i) = self.bit_index(seq) else {
            return false;
        };
        if self.last_seq.is_none_or(|l| seq > l) {
            return false;
        }
        let word = i / 64;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << (i % 64);
        if self.bits[word] & mask != 0 {
            self.duplicates += 1;
            return false;
        }
        self.bits[word] |= mask;
        self.delivered += 1;
        if latency <= deadline {
            self.on_time += 1;
        }
        self.latency_sum_ns = self.latency_sum_ns.saturating_add(latency.as_nanos());
        self.latency_max = self.latency_max.max(latency);
        if let Some(series) = &mut self.series {
            series.push((seq, latency));
        }
        true
    }

    /// Longest run of consecutive undelivered sequences within the window.
    pub fn max_consecutive_losses(&self) -> u64 {
        let (Some(first), Some(last)) = (self.first_seq, self.last_seq) else {
            return 0;
        };
        let mut max_run = 0u64;
        let mut run = 0u64;
        for seq in first..=last {
            if self.is_delivered(seq) {
                run = 0;
            } else {
                run += 1;
                max_run = max_run.max(run);
            }
        }
        max_run
    }

    /// Fraction of published messages delivered within the deadline.
    pub fn latency_success_rate(&self) -> f64 {
        if self.published == 0 {
            return 1.0;
        }
        self.on_time as f64 / self.published as f64
    }

    /// Mean first-delivery latency, if anything was delivered.
    pub fn latency_mean(&self) -> Option<Duration> {
        (self.delivered > 0).then(|| Duration::from_nanos(self.latency_sum_ns / self.delivered))
    }
}

/// Busy-time accumulator for one CPU module, clipped to the measurement
/// window.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ModuleUsage {
    busy_ns: u64,
}

impl ModuleUsage {
    /// Accumulates the overlap of `[start, start + duration)` with
    /// `[w0, w1)`.
    pub fn add(&mut self, start: Time, duration: Duration, w0: Time, w1: Time) {
        let end = start.saturating_add(duration);
        let s = start.max(w0);
        let e = end.min(w1);
        if e > s {
            self.busy_ns += (e - s).as_nanos();
        }
    }

    /// Utilization over a window of `span` with `cores` servers.
    pub fn utilization(&self, span: Duration, cores: u32) -> f64 {
        if span.is_zero() || cores == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / (span.as_nanos() as f64 * cores as f64)
    }

    /// Raw busy nanoseconds inside the window.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

/// CPU utilization of the four modules the paper reports (Fig 7).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct CpuUsage {
    /// Message Delivery at the Primary.
    pub primary_delivery: ModuleUsage,
    /// Message Proxy at the Primary.
    pub primary_proxy: ModuleUsage,
    /// Message Delivery at the Backup.
    pub backup_delivery: ModuleUsage,
    /// Message Proxy at the Backup.
    pub backup_proxy: ModuleUsage,
}

/// The complete result of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Per-topic records (indexed like the workload's topics).
    pub topics: Vec<TopicMetrics>,
    /// First-delivery latency distribution per Table 2 category (index =
    /// category 0..=5).
    pub latency_by_category: Vec<LatencyHistogram>,
    /// CPU usage per module.
    pub cpu: CpuUsage,
    /// Final broker counters (Primary).
    pub primary_stats: BrokerStats,
    /// Final broker counters (Backup / new Primary).
    pub backup_stats: BrokerStats,
    /// Measurement window span.
    pub window: Duration,
    /// Delivery cores per broker (for utilization computation).
    pub delivery_cores: u32,
    /// Proxy cores per broker.
    pub proxy_cores: u32,
}

impl RunMetrics {
    /// Fraction of the given topics whose consecutive-loss maximum satisfies
    /// their loss tolerance, as a percentage (a paper Table 4 cell for one
    /// run).
    pub fn loss_tolerance_success(&self, topic_idxs: &[usize], workload: &crate::Workload) -> f64 {
        if topic_idxs.is_empty() {
            return 100.0;
        }
        let ok = topic_idxs
            .iter()
            .filter(|&&i| {
                let losses = self.topics[i].max_consecutive_losses();
                !workload.topics[i].spec.loss_tolerance.violated_by(losses)
            })
            .count();
        100.0 * ok as f64 / topic_idxs.len() as f64
    }

    /// Message-weighted latency success over the given topics, as a
    /// percentage (a paper Table 5 cell for one run).
    pub fn latency_success(&self, topic_idxs: &[usize]) -> f64 {
        let (on_time, published) = topic_idxs.iter().fold((0u64, 0u64), |(o, p), &i| {
            (o + self.topics[i].on_time, p + self.topics[i].published)
        });
        if published == 0 {
            return 100.0;
        }
        100.0 * on_time as f64 / published as f64
    }

    /// Utilization of the Primary's Message Delivery module.
    pub fn primary_delivery_util(&self) -> f64 {
        self.cpu
            .primary_delivery
            .utilization(self.window, self.delivery_cores)
    }

    /// Utilization of the Primary's Message Proxy module.
    pub fn primary_proxy_util(&self) -> f64 {
        self.cpu
            .primary_proxy
            .utilization(self.window, self.proxy_cores)
    }

    /// Utilization of the Backup's Message Proxy module.
    pub fn backup_proxy_util(&self) -> f64 {
        self.cpu
            .backup_proxy
            .utilization(self.window, self.proxy_cores)
    }

    /// Utilization of the Backup's Message Delivery module.
    pub fn backup_delivery_util(&self) -> f64 {
        self.cpu
            .backup_delivery
            .utilization(self.window, self.delivery_cores)
    }
}

/// Mean and 95 % confidence half-interval of `values` (normal
/// approximation, as in the paper's "95% confidence interval for each
/// measurement").
pub fn mean_ci95(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, 1.96 * (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_delivery_accounting() {
        let mut m = TopicMetrics::default();
        for seq in 0..10 {
            m.on_publish(seq);
        }
        assert_eq!(m.published, 10);
        assert!(m.on_delivery(0, Duration::from_millis(5), Duration::from_millis(50)));
        assert!(!m.on_delivery(0, Duration::from_millis(6), Duration::from_millis(50)));
        assert_eq!(m.duplicates, 1);
        assert!(m.on_delivery(3, Duration::from_millis(60), Duration::from_millis(50)));
        assert_eq!(m.delivered, 2);
        assert_eq!(m.on_time, 1);
        assert_eq!(m.latency_max, Duration::from_millis(60));
    }

    #[test]
    fn consecutive_losses_from_bitset() {
        let mut m = TopicMetrics::default();
        for seq in 0..10 {
            m.on_publish(seq);
        }
        for seq in [0, 1, 5, 9] {
            m.on_delivery(seq, Duration::ZERO, Duration::MAX);
        }
        // Missing: 2,3,4 then 6,7,8 → max run 3.
        assert_eq!(m.max_consecutive_losses(), 3);
    }

    #[test]
    fn late_delivery_is_not_a_loss() {
        let mut m = TopicMetrics::default();
        for seq in 0..5 {
            m.on_publish(seq);
        }
        for seq in 0..5 {
            // All delivered, some past deadline.
            m.on_delivery(seq, Duration::from_secs(10), Duration::from_millis(50));
        }
        assert_eq!(m.max_consecutive_losses(), 0);
        assert_eq!(m.on_time, 0);
        assert!((m.latency_success_rate() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn deliveries_outside_window_ignored() {
        let mut m = TopicMetrics::default();
        m.on_publish(5);
        m.on_publish(6);
        // seq 3 predates the window; seq 9 was created after it closed.
        assert!(!m.on_delivery(3, Duration::ZERO, Duration::MAX));
        assert!(!m.on_delivery(9, Duration::ZERO, Duration::MAX));
        assert!(m.on_delivery(5, Duration::ZERO, Duration::MAX));
        assert_eq!(m.delivered, 1);
    }

    #[test]
    fn empty_topic_has_no_losses_and_full_success() {
        let m = TopicMetrics::default();
        assert_eq!(m.max_consecutive_losses(), 0);
        assert_eq!(m.latency_success_rate(), 1.0);
        assert_eq!(m.latency_mean(), None);
    }

    #[test]
    fn series_records_when_enabled() {
        let mut m = TopicMetrics::default().with_series();
        m.on_publish(0);
        m.on_delivery(0, Duration::from_millis(7), Duration::MAX);
        assert_eq!(
            m.series.as_ref().unwrap(),
            &vec![(0, Duration::from_millis(7))]
        );
    }

    #[test]
    fn module_usage_clips_to_window() {
        let mut u = ModuleUsage::default();
        let w0 = Time::from_secs(1);
        let w1 = Time::from_secs(2);
        // Entirely before.
        u.add(Time::ZERO, Duration::from_millis(100), w0, w1);
        assert_eq!(u.busy_ns(), 0);
        // Straddles the start.
        u.add(Time::from_millis(900), Duration::from_millis(200), w0, w1);
        assert_eq!(u.busy_ns(), Duration::from_millis(100).as_nanos());
        // Fully inside.
        u.add(Time::from_millis(1500), Duration::from_millis(10), w0, w1);
        assert_eq!(u.busy_ns(), Duration::from_millis(110).as_nanos());
        // Utilization over 1 s, 2 cores.
        let util = u.utilization(Duration::from_secs(1), 2);
        assert!((util - 0.055).abs() < 1e-9);
    }

    #[test]
    fn mean_ci_basics() {
        let (m, ci) = mean_ci95(&[1.0, 1.0, 1.0]);
        assert_eq!(m, 1.0);
        assert_eq!(ci, 0.0);
        let (m, ci) = mean_ci95(&[0.0, 100.0]);
        assert_eq!(m, 50.0);
        assert!(ci > 0.0);
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
        assert_eq!(mean_ci95(&[7.0]), (7.0, 0.0));
    }
}
