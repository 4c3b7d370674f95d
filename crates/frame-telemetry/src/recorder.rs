//! The flight recorder: a ring of recent delivery spans plus a small
//! cold-path queue of incidents (deadline misses, loss-bound violations,
//! admission rejections, promotions).
//!
//! Spans live in a [`Ring`] of [`SPAN_WORDS`]-word records, so dumping the
//! recorder never blocks a delivery thread. A record holds only raw `u64`s
//! — the budget decomposition is recomputed at snapshot time from the
//! stored stamps, keeping the hot path to one ring write.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use frame_types::{SeqNo, SpanPoint, Time, TopicId, TraceCtx};
use serde::{Deserialize, Serialize};

use crate::ring::Ring;
use crate::span::SpanRecord;

/// Why a flight-recorder dump fired.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum IncidentKind {
    /// A delivered message exceeded its topic deadline `D_i`.
    DeadlineMiss,
    /// A consecutive-loss run exceeded the topic's tolerance `L_i`.
    LossBurst,
    /// The admission test rejected a topic.
    AdmissionReject,
    /// A Backup promoted itself to Primary after detecting a crash.
    Promotion,
    /// The chaos engine injected a scripted fault (drop, delay, duplicate,
    /// truncate, sever, stall, crash). The `detail` field carries the hop
    /// and action so a post-run checker can separate injected misbehaviour
    /// from organic failures.
    FaultInjected,
    /// The overload controller dropped one message at the admission
    /// boundary. `detail` carries the shed run position against `L_i`, so
    /// the post-run checker can attribute every sequence gap.
    LoadShed,
    /// The overload controller changed rung. `detail` carries the
    /// transition and the pressure reading that drove it.
    OverloadControl,
    /// The overload controller evicted a best-effort topic from the
    /// admission set.
    TopicEvicted,
    /// The overload controller re-admitted a previously evicted topic
    /// (after re-running the admission test).
    TopicRestored,
}

impl IncidentKind {
    /// Every kind.
    pub const ALL: [IncidentKind; 9] = [
        IncidentKind::DeadlineMiss,
        IncidentKind::LossBurst,
        IncidentKind::AdmissionReject,
        IncidentKind::Promotion,
        IncidentKind::FaultInjected,
        IncidentKind::LoadShed,
        IncidentKind::OverloadControl,
        IncidentKind::TopicEvicted,
        IncidentKind::TopicRestored,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::DeadlineMiss => "deadline_miss",
            IncidentKind::LossBurst => "loss_burst",
            IncidentKind::AdmissionReject => "admission_reject",
            IncidentKind::Promotion => "promotion",
            IncidentKind::FaultInjected => "fault_injected",
            IncidentKind::LoadShed => "load_shed",
            IncidentKind::OverloadControl => "overload_control",
            IncidentKind::TopicEvicted => "topic_evicted",
            IncidentKind::TopicRestored => "topic_restored",
        }
    }
}

impl std::fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded incident.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Incident {
    /// What happened.
    pub kind: IncidentKind,
    /// When (host-local monotonic clock of whoever recorded it).
    pub at: Time,
    /// The topic involved (zero when not topic-specific, e.g. promotion).
    pub topic: TopicId,
    /// The message sequence involved (for [`IncidentKind::Promotion`]: the
    /// number of recovery dispatch jobs created; for
    /// [`IncidentKind::LossBurst`]: the first sequence of the run).
    pub seq: SeqNo,
    /// Free-form context (e.g. "run 4 > L_i 2", "x+ΔBB window 52ms").
    pub detail: String,
}

/// Words per span record: topic, seq, created, delivered, deadline, then
/// the [`SpanPoint`] stamps.
const SPAN_WORDS: usize = 5 + SpanPoint::ALL.len();

/// The span ring with a bounded incident queue on the side.
pub(crate) struct FlightRecorder {
    spans: Ring<SPAN_WORDS>,
    /// Monotone count of incidents ever recorded; sinks poll this to
    /// decide when to dump.
    incident_count: AtomicU64,
    /// Recent incidents, newest last, capped at `incident_capacity`
    /// (cold path: incidents are rare by definition).
    incidents: Mutex<VecDeque<Incident>>,
    incident_capacity: usize,
}

impl FlightRecorder {
    /// Creates a recorder retaining the newest `capacity` spans and up to
    /// `incident_capacity` incidents.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub(crate) fn new(capacity: usize, incident_capacity: usize) -> FlightRecorder {
        assert!(incident_capacity > 0, "incident capacity must be positive");
        FlightRecorder {
            spans: Ring::new(capacity),
            incident_count: AtomicU64::new(0),
            incidents: Mutex::new(VecDeque::with_capacity(incident_capacity)),
            incident_capacity,
        }
    }

    /// Records one delivery span: one ring write.
    #[inline]
    pub(crate) fn record(
        &self,
        topic: TopicId,
        seq: SeqNo,
        created_at: Time,
        delivered_at: Time,
        trace: Option<&TraceCtx>,
        deadline_ns: u64,
    ) {
        let mut words = [0; SPAN_WORDS];
        words[..5].copy_from_slice(&[
            u64::from(topic.0),
            seq.0,
            created_at.as_nanos(),
            delivered_at.as_nanos(),
            deadline_ns,
        ]);
        if let Some(trace) = trace {
            words[5..].copy_from_slice(&trace.stamps());
        }
        self.spans.record(words);
    }

    /// Records an incident whose detail is written by `detail` into a
    /// staging buffer recycled from the incident the queue evicts. Once
    /// the queue is full — which is exactly when incidents are frequent
    /// enough to matter — each call reuses the evicted detail's capacity,
    /// so sustained incident storms (deadline-miss bursts,
    /// admission-boundary shedding) stop allocating on the hot path.
    pub(crate) fn incident_with(
        &self,
        kind: IncidentKind,
        topic: TopicId,
        seq: SeqNo,
        at: Time,
        detail: impl FnOnce(&mut String),
    ) {
        let mut incidents = self.incidents.lock().expect("incidents lock");
        let mut staged = if incidents.len() == self.incident_capacity {
            let mut recycled = incidents.pop_front().expect("queue is full").detail;
            recycled.clear();
            recycled
        } else {
            String::with_capacity(96)
        };
        detail(&mut staged);
        incidents.push_back(Incident {
            kind,
            at,
            topic,
            seq,
            detail: staged,
        });
        drop(incidents);
        self.incident_count.fetch_add(1, Ordering::Release);
    }

    /// Total incidents ever recorded. Monotone; sinks compare successive
    /// readings to detect new incidents without taking the lock.
    pub(crate) fn incident_count(&self) -> u64 {
        self.incident_count.load(Ordering::Acquire)
    }

    /// The retained spans (oldest first), each re-attributed from its raw
    /// stamps.
    pub(crate) fn spans(&self) -> Vec<SpanRecord> {
        let decode = |words: [u64; SPAN_WORDS]| {
            let trace = TraceCtx::from_stamps(words[5..].try_into().expect("stamp words"));
            Some(SpanRecord::attribute(
                TopicId(words[0] as u32),
                SeqNo(words[1]),
                Time::from_nanos(words[2]),
                Time::from_nanos(words[3]),
                (!trace.is_empty()).then_some(&trace),
                words[4],
            ))
        };
        self.spans.collect_since(0, decode).0
    }

    /// The retained incidents, oldest first.
    pub(crate) fn incidents(&self) -> Vec<Incident> {
        self.incidents
            .lock()
            .expect("incidents lock")
            .iter()
            .cloned()
            .collect()
    }

    /// A serializable copy of the whole recorder state.
    pub(crate) fn snapshot(&self) -> FlightSnapshot {
        FlightSnapshot {
            incident_count: self.incident_count(),
            incidents: self.incidents(),
            spans: self.spans(),
        }
    }
}

/// A point-in-time copy of the flight recorder: what `frame-cli trace`
/// renders and what the JSONL dump persists.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct FlightSnapshot {
    /// Total incidents ever recorded at snapshot time.
    #[serde(default)]
    pub incident_count: u64,
    /// Retained incidents, oldest first.
    #[serde(default)]
    pub incidents: Vec<Incident>,
    /// Retained delivery spans, oldest first, fully attributed.
    #[serde(default)]
    pub spans: Vec<SpanRecord>,
}

impl FlightSnapshot {
    /// The newest retained span for `(topic, seq)`, if any.
    pub fn find(&self, topic: TopicId, seq: SeqNo) -> Option<&SpanRecord> {
        self.spans
            .iter()
            .rev()
            .find(|r| r.topic == topic && r.seq == seq)
    }

    /// The most recent incident, if any.
    pub fn last_incident(&self) -> Option<&Incident> {
        self.incidents.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_span(r: &FlightRecorder, seq: u64, e2e: u64) {
        let mut trace = TraceCtx::new();
        trace.stamp(SpanPoint::ProxyRecv, Time::from_nanos(100 + 10));
        trace.stamp(SpanPoint::DeliverSend, Time::from_nanos(100 + e2e - 5));
        r.record(
            TopicId(1),
            SeqNo(seq),
            Time::from_nanos(100),
            Time::from_nanos(100 + e2e),
            Some(&trace),
            1_000,
        );
    }

    #[test]
    fn records_and_attributes() {
        let r = FlightRecorder::new(8, 4);
        record_span(&r, 0, 500);
        record_span(&r, 1, 2_000); // miss: e2e > 1000ns deadline
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert!(!spans[0].missed);
        assert!(spans[1].missed);
        assert_eq!(spans[1].slice_sum_ns(), spans[1].e2e_ns);
        assert!(spans[1].dominant.is_some());
    }

    #[test]
    fn wraparound_keeps_newest() {
        let r = FlightRecorder::new(4, 4);
        for seq in 0..10 {
            record_span(&r, seq, 500);
        }
        let seqs: Vec<u64> = r.spans().iter().map(|s| s.seq.0).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn incidents_are_capped_and_counted() {
        let r = FlightRecorder::new(4, 2);
        for i in 0..3u64 {
            r.incident_with(
                IncidentKind::DeadlineMiss,
                TopicId(1),
                SeqNo(i),
                Time::from_nanos(i),
                |_| {},
            );
        }
        assert_eq!(r.incident_count(), 3);
        let kept = r.incidents();
        assert_eq!(kept.len(), 2, "oldest incident evicted");
        assert_eq!(kept[0].seq, SeqNo(1));
        assert_eq!(r.snapshot().last_incident().unwrap().seq, SeqNo(2));
    }

    #[test]
    fn snapshot_find_returns_newest_match() {
        let r = FlightRecorder::new(8, 2);
        record_span(&r, 3, 500);
        record_span(&r, 3, 700);
        let snap = r.snapshot();
        let found = snap.find(TopicId(1), SeqNo(3)).unwrap();
        assert_eq!(found.e2e_ns, 700);
        assert!(snap.find(TopicId(9), SeqNo(3)).is_none());
    }

    #[test]
    fn incident_with_stages_into_recycled_buffers() {
        let r = FlightRecorder::new(8, 3);
        for i in 0..7u64 {
            r.incident_with(
                IncidentKind::LoadShed,
                TopicId(2),
                SeqNo(i),
                Time::from_millis(i),
                |d| {
                    use std::fmt::Write;
                    let _ = write!(d, "shed at admission: run {i}");
                },
            );
        }
        assert_eq!(r.incident_count(), 7);
        let kept = r.incidents();
        // The ring keeps the newest `incident_capacity`, details intact —
        // recycling an evicted buffer must never leak the old text.
        assert_eq!(kept.len(), 3);
        let details: Vec<&str> = kept.iter().map(|i| i.detail.as_str()).collect();
        assert_eq!(
            details,
            [
                "shed at admission: run 4",
                "shed at admission: run 5",
                "shed at admission: run 6"
            ]
        );
    }
}
