//! Deadline-budget attribution: splitting a delivered message's
//! end-to-end latency into per-stage slices of its deadline `D_i`.
//!
//! Lemma 2 of the paper decomposes the end-to-end deadline as
//! `D_i = ΔPB + (broker dispatch ≤ D^d_i) + ΔBS`. The [`TraceCtx`] stamps
//! carried by each message refine the middle term into its broker-side
//! components, so a miss can be blamed on the stage that actually ate the
//! budget. The decomposition here telescopes *by construction*: stamps are
//! first clamped into the monotone interval
//! `[created_at, delivered_at]`, so the slice sum equals the measured
//! end-to-end latency exactly (a missing or out-of-order stamp collapses
//! its slice to zero rather than breaking the invariant).
//!
//! Clock model: `created_at` is the publisher's clock, the five span
//! stamps are the broker host's clock, and `delivered_at` is the clock of
//! whoever consumed the delivery. Slices whose endpoints straddle hosts
//! ([`BudgetStage::PublisherWire`], [`BudgetStage::DeliveryWire`]) are
//! therefore *intervals* between unsynchronized monotonic clocks — valid
//! for attribution ordering on one box (where all three collapse to one
//! clock) and as reported intervals across boxes, never as absolute times.

use frame_types::{SeqNo, SpanPoint, Time, TopicId, TraceCtx};
use serde::{Deserialize, Serialize};

/// One slice of a message's deadline budget.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BudgetStage {
    /// Publisher clock → broker proxy ingress (Lemma 2's `ΔPB`;
    /// cross-host interval).
    PublisherWire,
    /// Proxy ingress → admission complete (buffering + job creation).
    ProxyAdmit,
    /// Admission → a worker popped the dispatch job (EDF queue wait).
    QueueWait,
    /// Job popped → broker lock acquired (the worker's lock wait).
    ShardLock,
    /// Broker locked → delivery handed to the wire (Table-3 dispatch
    /// execution).
    DispatchExec,
    /// Broker hand-off → observed delivery (Lemma 2's `ΔBS`; cross-host
    /// interval).
    DeliveryWire,
}

impl BudgetStage {
    /// Every slice, in budget order.
    pub const ALL: [BudgetStage; 6] = [
        BudgetStage::PublisherWire,
        BudgetStage::ProxyAdmit,
        BudgetStage::QueueWait,
        BudgetStage::ShardLock,
        BudgetStage::DispatchExec,
        BudgetStage::DeliveryWire,
    ];

    /// Stable snake_case name (used as the Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            BudgetStage::PublisherWire => "publisher_wire",
            BudgetStage::ProxyAdmit => "proxy_admit",
            BudgetStage::QueueWait => "queue_wait",
            BudgetStage::ShardLock => "shard_lock",
            BudgetStage::DispatchExec => "dispatch_exec",
            BudgetStage::DeliveryWire => "delivery_wire",
        }
    }

    /// Dense index into per-slice arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            BudgetStage::PublisherWire => 0,
            BudgetStage::ProxyAdmit => 1,
            BudgetStage::QueueWait => 2,
            BudgetStage::ShardLock => 3,
            BudgetStage::DispatchExec => 4,
            BudgetStage::DeliveryWire => 5,
        }
    }

    /// The inverse of [`BudgetStage::index`].
    pub fn from_index(i: usize) -> Option<BudgetStage> {
        BudgetStage::ALL.get(i).copied()
    }
}

impl std::fmt::Display for BudgetStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of decomposing one delivery's latency into budget slices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Attribution {
    /// Nanoseconds per slice, indexed by [`BudgetStage::index`]. Sums to
    /// `e2e_ns` exactly.
    pub slices: [u64; BudgetStage::ALL.len()],
    /// Measured end-to-end latency, `delivered_at − created_at`
    /// (saturating).
    pub e2e_ns: u64,
    /// The slice that consumed the most budget, or `None` when the message
    /// carried no stamps (nothing to attribute between the endpoints).
    pub dominant: Option<BudgetStage>,
}

/// Splits `delivered_at − created_at` across the budget stages using the
/// message's span stamps.
///
/// Stamps are clamped to be monotone within `[created_at, delivered_at]`
/// before differencing, which makes the slices telescope: their sum equals
/// the end-to-end latency exactly, whatever the stamps look like. An
/// unstamped point contributes a zero-width slice (its time is absorbed by
/// the next stamped leg).
pub fn attribute(created_at: Time, delivered_at: Time, trace: Option<&TraceCtx>) -> Attribution {
    let created = created_at.as_nanos();
    let delivered = delivered_at.as_nanos().max(created);
    let e2e_ns = delivered - created;

    let empty = TraceCtx::new();
    let trace = trace.unwrap_or(&empty);

    // Checkpoints: created, the five span points, delivered — clamped into
    // a monotone sequence so adjacent differences telescope to e2e_ns.
    let mut checkpoints = [0u64; BudgetStage::ALL.len() + 1];
    checkpoints[0] = created;
    let mut prev = created;
    for (i, point) in SpanPoint::ALL.iter().enumerate() {
        let raw = trace.get(*point).map_or(prev, Time::as_nanos);
        prev = raw.clamp(prev, delivered);
        checkpoints[i + 1] = prev;
    }
    checkpoints[BudgetStage::ALL.len()] = delivered;

    let mut slices = [0u64; BudgetStage::ALL.len()];
    for (i, slice) in slices.iter_mut().enumerate() {
        *slice = checkpoints[i + 1] - checkpoints[i];
    }

    let mut dominant = None;
    if !trace.is_empty() {
        let mut best = 0u64;
        for (i, &ns) in slices.iter().enumerate() {
            if ns > best {
                best = ns;
                dominant = BudgetStage::from_index(i);
            }
        }
    }

    Attribution {
        slices,
        e2e_ns,
        dominant,
    }
}

/// One slice of a [`SpanRecord`]'s budget decomposition (named so the
/// JSONL dump stays self-describing).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BudgetSlice {
    /// The budget stage.
    pub stage: BudgetStage,
    /// Nanoseconds this stage consumed.
    pub ns: u64,
}

/// A fully-attributed delivery: the flight recorder's unit of replay and
/// the payload of `frame-cli trace`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SpanRecord {
    /// The topic.
    pub topic: TopicId,
    /// The message's per-topic sequence number.
    pub seq: SeqNo,
    /// Creation time `t_c` (publisher clock), nanoseconds.
    pub created_ns: u64,
    /// Observed delivery time (consumer clock), nanoseconds.
    pub delivered_ns: u64,
    /// The raw span stamps the message accumulated (broker clock).
    pub stamps: TraceCtx,
    /// End-to-end latency (saturating; equals the slice sum).
    pub e2e_ns: u64,
    /// The topic's deadline `D_i` in nanoseconds (zero: no SLO known).
    pub deadline_ns: u64,
    /// Whether `e2e_ns` exceeded `deadline_ns` (always false without an
    /// SLO).
    pub missed: bool,
    /// The stage that consumed the most budget.
    pub dominant: Option<BudgetStage>,
    /// The full budget decomposition, in [`BudgetStage::ALL`] order.
    pub slices: Vec<BudgetSlice>,
}

impl SpanRecord {
    /// Builds a record by attributing one delivery.
    pub fn attribute(
        topic: TopicId,
        seq: SeqNo,
        created_at: Time,
        delivered_at: Time,
        trace: Option<&TraceCtx>,
        deadline_ns: u64,
    ) -> SpanRecord {
        let attribution = attribute(created_at, delivered_at, trace);
        SpanRecord {
            topic,
            seq,
            created_ns: created_at.as_nanos(),
            delivered_ns: delivered_at.as_nanos(),
            stamps: trace.copied().unwrap_or_default(),
            e2e_ns: attribution.e2e_ns,
            deadline_ns,
            missed: deadline_ns > 0 && attribution.e2e_ns > deadline_ns,
            dominant: attribution.dominant,
            slices: BudgetStage::ALL
                .iter()
                .map(|&stage| BudgetSlice {
                    stage,
                    ns: attribution.slices[stage.index()],
                })
                .collect(),
        }
    }

    /// The slice sum (equals [`SpanRecord::e2e_ns`] by construction;
    /// exposed so tests and consumers can assert it).
    pub fn slice_sum_ns(&self) -> u64 {
        self.slices.iter().map(|s| s.ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamped(points: &[(SpanPoint, u64)]) -> TraceCtx {
        let mut ctx = TraceCtx::new();
        for &(p, ns) in points {
            ctx.stamp(p, Time::from_nanos(ns));
        }
        ctx
    }

    #[test]
    fn slices_telescope_to_e2e() {
        let trace = stamped(&[
            (SpanPoint::ProxyRecv, 110),
            (SpanPoint::Admitted, 130),
            (SpanPoint::Popped, 400),
            (SpanPoint::Locked, 410),
            (SpanPoint::DeliverSend, 450),
        ]);
        let a = attribute(Time::from_nanos(100), Time::from_nanos(500), Some(&trace));
        assert_eq!(a.e2e_ns, 400);
        assert_eq!(a.slices.iter().sum::<u64>(), 400);
        assert_eq!(a.slices[BudgetStage::PublisherWire.index()], 10);
        assert_eq!(a.slices[BudgetStage::ProxyAdmit.index()], 20);
        assert_eq!(a.slices[BudgetStage::QueueWait.index()], 270);
        assert_eq!(a.slices[BudgetStage::ShardLock.index()], 10);
        assert_eq!(a.slices[BudgetStage::DispatchExec.index()], 40);
        assert_eq!(a.slices[BudgetStage::DeliveryWire.index()], 50);
        assert_eq!(a.dominant, Some(BudgetStage::QueueWait));
    }

    #[test]
    fn missing_stamps_collapse_to_zero_but_still_telescope() {
        // Only ProxyRecv and DeliverSend stamped: admit/queue/lock legs
        // are zero-width and their time lands in DispatchExec.
        let trace = stamped(&[(SpanPoint::ProxyRecv, 150), (SpanPoint::DeliverSend, 300)]);
        let a = attribute(Time::from_nanos(100), Time::from_nanos(350), Some(&trace));
        assert_eq!(a.slices.iter().sum::<u64>(), a.e2e_ns);
        assert_eq!(a.slices[BudgetStage::ProxyAdmit.index()], 0);
        assert_eq!(a.slices[BudgetStage::DispatchExec.index()], 150);
        assert_eq!(a.slices[BudgetStage::DeliveryWire.index()], 50);
    }

    #[test]
    fn out_of_range_stamps_are_clamped() {
        // A stamp beyond delivered_at (cross-clock skew) cannot push the
        // sum past the measured e2e.
        let trace = stamped(&[(SpanPoint::ProxyRecv, 120), (SpanPoint::DeliverSend, 9_999)]);
        let a = attribute(Time::from_nanos(100), Time::from_nanos(200), Some(&trace));
        assert_eq!(a.e2e_ns, 100);
        assert_eq!(a.slices.iter().sum::<u64>(), 100);
        assert_eq!(a.slices[BudgetStage::DeliveryWire.index()], 0);
    }

    #[test]
    fn no_trace_has_no_dominant() {
        let a = attribute(Time::from_nanos(100), Time::from_nanos(300), None);
        assert_eq!(a.e2e_ns, 200);
        assert_eq!(a.dominant, None);
        assert_eq!(a.slices.iter().sum::<u64>(), 200);
    }

    #[test]
    fn delivered_before_created_saturates() {
        let a = attribute(Time::from_nanos(500), Time::from_nanos(100), None);
        assert_eq!(a.e2e_ns, 0);
        assert_eq!(a.slices.iter().sum::<u64>(), 0);
    }

    #[test]
    fn span_record_miss_classification() {
        let trace = stamped(&[
            (SpanPoint::ProxyRecv, 110),
            (SpanPoint::Admitted, 120),
            (SpanPoint::Popped, 800),
            (SpanPoint::Locked, 810),
            (SpanPoint::DeliverSend, 850),
        ]);
        let r = SpanRecord::attribute(
            TopicId(3),
            SeqNo(7),
            Time::from_nanos(100),
            Time::from_nanos(900),
            Some(&trace),
            500,
        );
        assert!(r.missed, "800ns e2e > 500ns deadline");
        assert_eq!(r.dominant, Some(BudgetStage::QueueWait));
        assert_eq!(r.slice_sum_ns(), r.e2e_ns);
        // Same delivery with a generous deadline is not a miss.
        let ok = SpanRecord::attribute(
            TopicId(3),
            SeqNo(7),
            Time::from_nanos(100),
            Time::from_nanos(900),
            Some(&trace),
            10_000,
        );
        assert!(!ok.missed);
    }
}
