//! Messages: the unit of delivery in FRAME.

use core::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::ids::{PublisherId, SeqNo, TopicId};
use crate::time::Time;
use crate::trace::TraceCtx;

/// A published message.
///
/// The payload is reference-counted ([`Bytes`]), so the many copies FRAME
/// keeps — retention buffer at the publisher, message buffer at the Primary,
/// backup buffer at the Backup — share one allocation. Cloning a `Message`
/// is cheap and does not copy the payload.
///
/// Equality compares the message's identity and content (topic, publisher,
/// sequence, creation time, payload) and deliberately ignores the optional
/// [`TraceCtx`]: the trace is observability metadata that mutates as the
/// message moves through the pipeline, and a re-sent copy with different
/// stamps is still the *same* message.
#[derive(Clone, Eq)]
pub struct Message {
    /// Topic this message belongs to.
    pub topic: TopicId,
    /// Publisher that created the message.
    pub publisher: PublisherId,
    /// Per-topic sequence number assigned at creation.
    pub seq: SeqNo,
    /// Creation time `t_c` at the publisher (publisher's clock).
    pub created_at: Time,
    /// Application payload (16 bytes in the paper's evaluation).
    pub payload: Bytes,
    /// Per-message span stamps, attached by the broker when tracing is
    /// enabled. `None` (the default) costs one flag byte on the wire
    /// ([`crate::wire`]).
    pub trace: Option<TraceCtx>,
}

impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        self.topic == other.topic
            && self.publisher == other.publisher
            && self.seq == other.seq
            && self.created_at == other.created_at
            && self.payload == other.payload
    }
}

impl Message {
    /// Creates a message.
    pub fn new(
        topic: TopicId,
        publisher: PublisherId,
        seq: SeqNo,
        created_at: Time,
        payload: impl Into<Bytes>,
    ) -> Self {
        Message {
            topic,
            publisher,
            seq,
            created_at,
            payload: payload.into(),
            trace: None,
        }
    }

    /// A unique key for this message: (topic, sequence number).
    #[inline]
    pub fn key(&self) -> MessageKey {
        MessageKey {
            topic: self.topic,
            seq: self.seq,
        }
    }

    /// Payload length in bytes.
    #[inline]
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message")
            .field("topic", &self.topic)
            .field("seq", &self.seq)
            .field("publisher", &self.publisher)
            .field("created_at", &self.created_at)
            .field("payload_len", &self.payload.len())
            .finish()
    }
}

/// Identity of a message within the system: topic plus sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct MessageKey {
    /// The topic.
    pub topic: TopicId,
    /// The per-topic sequence number.
    pub seq: SeqNo,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u64) -> Message {
        Message::new(
            TopicId(1),
            PublisherId(2),
            SeqNo(seq),
            Time::from_millis(10),
            Bytes::from_static(&[0u8; 16]),
        )
    }

    #[test]
    fn clone_shares_payload() {
        let m = msg(0);
        let c = m.clone();
        // Bytes clones share the same backing storage.
        assert_eq!(m.payload.as_ptr(), c.payload.as_ptr());
        assert_eq!(m, c);
    }

    #[test]
    fn key_identifies_topic_and_seq() {
        let m = msg(7);
        assert_eq!(
            m.key(),
            MessageKey {
                topic: TopicId(1),
                seq: SeqNo(7)
            }
        );
        assert_eq!(m.payload_len(), 16);
    }

    #[test]
    fn debug_is_compact() {
        let s = format!("{:?}", msg(3));
        assert!(s.contains("topic-1"));
        assert!(s.contains("#3"));
        assert!(s.contains("payload_len: 16"));
    }
}
