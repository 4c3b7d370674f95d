//! The decision trace's records: the paper-visible scheduling and
//! coordination decisions (Table 3 and §IV-A). They live in a
//! [`Ring`](crate::ring::Ring) of [`TRACE_WORDS`]-word records, drainable
//! while the broker keeps running; this module owns their encoding.

use frame_types::{SeqNo, Time, TopicId};
use serde::{Deserialize, Serialize};

/// A paper-visible broker decision (Table 3 rows plus the recovery path).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum DecisionKind {
    /// A dispatch job completed and the message was pushed to subscribers.
    Dispatch,
    /// A replication job completed and the replica was pushed to the
    /// Backup.
    Replicate,
    /// No replication job was generated for the message — Proposition 1
    /// showed publisher retention alone covers its loss tolerance.
    Suppress,
    /// A queued replication job was cancelled after its message was
    /// dispatched (Table 3, Dispatch step 2).
    Cancel,
    /// A replication job was aborted at execution because its message was
    /// already dispatched (Table 3, Replicate step 1).
    Abort,
    /// A job was skipped because its message had been overwritten in the
    /// Message Buffer before execution (loss under overload).
    StaleSkip,
    /// The Primary asked the Backup to discard an outdated copy
    /// (Table 3, Dispatch step 3).
    Prune,
    /// A Backup promoted itself to Primary (§IV-A). `seq` carries the
    /// number of recovery dispatch jobs created; `topic` is zero.
    Promote,
    /// A non-discarded Backup Buffer copy was selected for dispatch during
    /// promotion (Table 3, Recovery step 2).
    RecoveryDispatch,
    /// The overload controller dropped the message at the admission
    /// boundary (within the topic's `L_i` run budget, or on an evicted
    /// best-effort topic).
    Shed,
}

impl DecisionKind {
    /// Every kind, in Table-3 order.
    pub const ALL: [DecisionKind; 10] = [
        DecisionKind::Dispatch,
        DecisionKind::Replicate,
        DecisionKind::Suppress,
        DecisionKind::Cancel,
        DecisionKind::Abort,
        DecisionKind::StaleSkip,
        DecisionKind::Prune,
        DecisionKind::Promote,
        DecisionKind::RecoveryDispatch,
        DecisionKind::Shed,
    ];

    /// Stable snake_case name (used as the Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Dispatch => "dispatch",
            DecisionKind::Replicate => "replicate",
            DecisionKind::Suppress => "suppress",
            DecisionKind::Cancel => "cancel",
            DecisionKind::Abort => "abort",
            DecisionKind::StaleSkip => "stale_skip",
            DecisionKind::Prune => "prune",
            DecisionKind::Promote => "promote",
            DecisionKind::RecoveryDispatch => "recovery_dispatch",
            DecisionKind::Shed => "shed",
        }
    }

    /// Dense index into per-kind arrays.
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            DecisionKind::Dispatch => 0,
            DecisionKind::Replicate => 1,
            DecisionKind::Suppress => 2,
            DecisionKind::Cancel => 3,
            DecisionKind::Abort => 4,
            DecisionKind::StaleSkip => 5,
            DecisionKind::Prune => 6,
            DecisionKind::Promote => 7,
            DecisionKind::RecoveryDispatch => 8,
            DecisionKind::Shed => 9,
        }
    }
}

impl std::fmt::Display for DecisionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DecisionEvent {
    /// Runtime clock timestamp of the decision.
    pub at: Time,
    /// What was decided.
    pub kind: DecisionKind,
    /// The topic of the message the decision concerns (zero for
    /// [`DecisionKind::Promote`]).
    pub topic: TopicId,
    /// The sequence number of the message (for [`DecisionKind::Promote`]:
    /// the number of recovery dispatches created).
    pub seq: SeqNo,
}

/// Words per [`DecisionEvent`] in the trace ring.
pub(crate) const TRACE_WORDS: usize = 4;

impl DecisionEvent {
    /// The event as trace-ring words.
    #[inline]
    pub(crate) fn encode(&self) -> [u64; TRACE_WORDS] {
        [
            self.at.as_nanos(),
            self.kind.index() as u64,
            u64::from(self.topic.0),
            self.seq.0,
        ]
    }

    /// The inverse of [`DecisionEvent::encode`]; `None` for an unknown
    /// kind.
    pub(crate) fn decode([at, kind, topic, seq]: [u64; TRACE_WORDS]) -> Option<DecisionEvent> {
        Some(DecisionEvent {
            at: Time::from_nanos(at),
            kind: DecisionKind::ALL.get(kind as usize).copied()?,
            topic: TopicId(topic as u32),
            seq: SeqNo(seq),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_ring_words() {
        for kind in DecisionKind::ALL {
            let event = DecisionEvent {
                at: Time::from_nanos(12_345),
                kind,
                topic: TopicId(u32::MAX),
                seq: SeqNo(u64::MAX),
            };
            assert_eq!(DecisionEvent::decode(event.encode()), Some(event));
        }
        assert_eq!(DecisionEvent::decode([0, 10, 0, 0]), None, "unknown kind");
    }
}
