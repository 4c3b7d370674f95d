//! Seeded workload definitions: topic sets, offered schedules and payload
//! patterns. Everything the generator offers is a pure function of the
//! workload and the seed, so the checker can recompute what it expects.

use frame_types::{Destination, Duration, LossTolerance, TopicId, TopicSpec};

/// One of the benchmark's traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Paper Table-2 categories 0–5 in equal shares, 16 B payloads.
    Table2Mix,
    /// 16 KiB "camera" frames at category-1 timing.
    Camera16k,
    /// The Table-2 mix through repeated Primary kills.
    Failover,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "table2_mix" => Some(Kind::Table2Mix),
            "camera_16k" => Some(Kind::Camera16k),
            "failover" => Some(Kind::Failover),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Table2Mix => "table2_mix",
            Kind::Camera16k => "camera_16k",
            Kind::Failover => "failover",
        }
    }

    /// Topics at the nominal load.
    pub fn nominal_topics(self) -> usize {
        match self {
            Kind::Table2Mix => 600,
            Kind::Camera16k => 8,
            Kind::Failover => 120,
        }
    }

    pub fn payload_len(self) -> usize {
        match self {
            Kind::Camera16k => 16 * 1024,
            Kind::Table2Mix | Kind::Failover => 16,
        }
    }
}

/// `L_i`: `None` is best effort (`"inf"`).
pub type LossBound = Option<u32>;

/// One topic as the generator offers it and the checker judges it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopicPlan {
    pub id: u32,
    pub category: u8,
    pub period_ns: u64,
    pub deadline_ns: u64,
    pub loss: LossBound,
    pub retention: u32,
    pub cloud: bool,
    /// Offset of the first message after a phase starts.
    pub phase_ns: u64,
    pub payload_len: usize,
}

impl TopicPlan {
    /// The topic as the broker core sees it.
    pub fn spec(&self) -> TopicSpec {
        TopicSpec::new(TopicId(self.id))
            .period(Duration::from_nanos(self.period_ns))
            .deadline(Duration::from_nanos(self.deadline_ns))
            .loss_tolerance(
                self.loss
                    .map_or(LossTolerance::BestEffort, LossTolerance::Consecutive),
            )
            .retention(self.retention)
            .destination(if self.cloud {
                Destination::Cloud
            } else {
                Destination::Edge
            })
    }

    /// Whether Proposition 1 leaves replication on for this topic under the
    /// manifest's default (paper example) network bounds.
    #[cfg(test)]
    pub fn replicated(&self) -> bool {
        frame_core::replication_needed(&self.spec(), &frame_types::NetworkParams::paper_example())
            .unwrap_or(false)
    }
}

/// Paper Table 2: (T ms, D ms, L, N, cloud).
const TABLE2: [(u64, u64, LossBound, u32, bool); 6] = [
    (50, 50, Some(0), 2, false),
    (50, 50, Some(3), 0, false),
    (100, 100, Some(0), 1, false),
    (100, 100, Some(3), 0, false),
    (100, 100, None, 0, false),
    (500, 500, Some(0), 1, true),
];

/// The topic id reserved for warm-up round trips; never judged.
pub const WARMUP_TOPIC: u32 = 0;

/// The subscriber id every topic lists (fan-out 1: one subscriber
/// connection receives everything).
pub const SUBSCRIBER: u32 = 1;

/// splitmix64: a tiny, well-mixed PRNG step.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded value in `[0, 1)`.
pub fn unit(seed: u64, salt: u64) -> f64 {
    (mix(seed ^ mix(salt)) >> 11) as f64 / (1u64 << 53) as f64
}

/// The golden-ratio step of an additive low-discrepancy sequence.
const GOLDEN: f64 = 0.618_033_988_749_895;

/// The first `n` topics of a workload (ids 1..=n). Rungs of the ladder
/// take longer prefixes of the same list, so a topic's phase never
/// depends on how many topics run beside it.
///
/// Phases, as fractions of each topic's period, follow one golden-ratio
/// sequence over topic ids from a seeded start: any prefix of topics is
/// spread evenly, so a run measures the brokers rather than how often the
/// seed made topics collide.
pub fn topics(kind: Kind, seed: u64, n: usize) -> Vec<TopicPlan> {
    let start = unit(seed, 0);
    (1..=n as u32)
        .map(|id| {
            let category = match kind {
                Kind::Camera16k => 1,
                Kind::Table2Mix | Kind::Failover => ((id - 1) % 6) as u8,
            };
            let (t, d, loss, retention, cloud) = TABLE2[category as usize];
            let period_ns = t * 1_000_000;
            let phase = (start + f64::from(id - 1) * GOLDEN).fract();
            TopicPlan {
                id,
                category,
                period_ns,
                deadline_ns: d * 1_000_000,
                loss,
                retention,
                cloud,
                phase_ns: (phase * period_ns as f64) as u64,
                payload_len: kind.payload_len(),
            }
        })
        .collect()
}

/// The warm-up topic: category-0 timing, best effort, no retention.
pub fn warmup_topic() -> TopicPlan {
    TopicPlan {
        id: WARMUP_TOPIC,
        category: 0,
        period_ns: 50_000_000,
        deadline_ns: 50_000_000,
        loss: None,
        retention: 0,
        cloud: false,
        phase_ns: 0,
        payload_len: 16,
    }
}

/// The manifest `frame-cli broker` loads (see `frame-cli example-manifest`).
pub fn manifest_json(topics: &[TopicPlan]) -> String {
    let mut out = String::from("{\"topics\":[");
    for (i, t) in std::iter::once(&warmup_topic()).chain(topics).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let loss = t
            .loss
            .map_or_else(|| "\"inf\"".to_owned(), |l| l.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"period_ms\":{},\"deadline_ms\":{},\"loss_tolerance\":{},\"retention\":{},\"destination\":\"{}\",\"subscribers\":[{}]}}",
            t.id,
            t.period_ns / 1_000_000,
            t.deadline_ns / 1_000_000,
            loss,
            t.retention,
            if t.cloud { "cloud" } else { "edge" },
            SUBSCRIBER,
        ));
    }
    out.push_str("]}");
    out
}

/// One offered message slot: when (relative to the phase start) and which
/// topic (index into the phase's topic list).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    pub at_ns: u64,
    pub topic: usize,
}

/// Every slot of `topics` within `[0, dur_ns)`, in send order (time, then
/// topic index).
pub fn schedule(topics: &[TopicPlan], dur_ns: u64) -> Vec<Slot> {
    let mut slots = Vec::new();
    for (i, t) in topics.iter().enumerate() {
        let mut at = t.phase_ns;
        while at < dur_ns {
            slots.push(Slot {
                at_ns: at,
                topic: i,
            });
            at += t.period_ns;
        }
    }
    slots.sort_unstable_by_key(|s| (s.at_ns, s.topic));
    slots
}

/// The payload of `(topic, seq)`: `len` bytes derived from the seed, so a
/// receiver can verify every delivery without a copy of what was sent.
pub fn payload(seed: u64, topic: u32, seq: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut state = mix(seed ^ mix((u64::from(topic) << 40) ^ seq));
    while out.len() < len {
        state = mix(state);
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&state.to_le_bytes()[..take]);
    }
    out
}

/// Whether `bytes` is the payload of `(topic, seq)`; allocation-free.
pub fn payload_matches(seed: u64, topic: u32, seq: u64, bytes: &[u8], len: usize) -> bool {
    if bytes.len() != len {
        return false;
    }
    let mut state = mix(seed ^ mix((u64::from(topic) << 40) ^ seq));
    bytes.chunks(8).all(|chunk| {
        state = mix(state);
        chunk == &state.to_le_bytes()[..chunk.len()]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The offered byte stream of a phase: every slot's time, topic, seq
    /// and payload, as the generator would emit them.
    fn offered_bytes(kind: Kind, seed: u64) -> Vec<u8> {
        let topics = topics(kind, seed, kind.nominal_topics());
        let mut seqs = vec![0u64; topics.len()];
        let mut out = Vec::new();
        for slot in schedule(&topics, 1_000_000_000) {
            let t = &topics[slot.topic];
            let seq = seqs[slot.topic];
            seqs[slot.topic] += 1;
            out.extend_from_slice(&slot.at_ns.to_le_bytes());
            out.extend_from_slice(&t.id.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&payload(seed, t.id, seq, t.payload_len));
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_schedule() {
        for kind in [Kind::Table2Mix, Kind::Camera16k, Kind::Failover] {
            assert_eq!(offered_bytes(kind, 7), offered_bytes(kind, 7));
        }
    }

    #[test]
    fn different_seed_gives_different_schedule() {
        for kind in [Kind::Table2Mix, Kind::Camera16k, Kind::Failover] {
            assert_ne!(offered_bytes(kind, 7), offered_bytes(kind, 8));
        }
    }

    #[test]
    fn table2_mix_matches_nominal_rate_and_replication_split() {
        let topics = topics(Kind::Table2Mix, 1, 600);
        let per_sec = schedule(&topics, 1_000_000_000).len();
        assert_eq!(
            per_sec, 7200,
            "600 topics of the Table-2 mix offer 7.2k msgs/s"
        );
        let replicated: Vec<u8> = topics
            .iter()
            .filter(|t| t.replicated())
            .map(|t| t.category)
            .collect();
        assert!(replicated.iter().all(|&c| c == 2 || c == 5));
        assert_eq!(replicated.len(), 200);
    }

    #[test]
    fn payload_check_accepts_own_bytes_only() {
        let p = payload(3, 9, 11, 16 * 1024);
        assert!(payload_matches(3, 9, 11, &p, p.len()));
        assert!(!payload_matches(3, 9, 12, &p, p.len()));
        let mut bad = p.clone();
        bad[100] ^= 1;
        assert!(!payload_matches(3, 9, 11, &bad, p.len()));
    }
}
