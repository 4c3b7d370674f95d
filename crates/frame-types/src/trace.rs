//! Per-message trace context: the span stamps a message accumulates on
//! its way from publisher to subscriber.
//!
//! A [`TraceCtx`] is a fixed array of monotonic nanosecond stamps, one per
//! [`SpanPoint`], carried *inside* the message so it crosses process and
//! host boundaries with the frame it describes. Stamps are host-local
//! monotonic clock readings: two stamps taken on the same host subtract to
//! an exact span, while a pair straddling hosts (publisher → broker,
//! broker → subscriber) is only meaningful as an *interval* whose endpoints
//! live on different clocks — consumers must treat those legs as reported
//! intervals, never as absolute skew-free times.
//!
//! The context is deliberately tiny (five `u64`s) so attaching it to every
//! message costs a few dozen bytes on the wire and a `memcpy` in memory;
//! a message without a context (`Message::trace == None`) costs nothing.

use serde::{Deserialize, Serialize};

use crate::time::{Duration, Time};

/// One stamping point along the publish → deliver pipeline.
///
/// Together with the message's creation time (`Message::created_at`,
/// stamped on the publisher's clock) and its delivery time (stamped by
/// whoever consumes the trace), the points cut the end-to-end latency into
/// contiguous slices: the spans telescope, so the slice sum equals the
/// measured end-to-end latency to within stamp resolution.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum SpanPoint {
    /// Message Proxy ingress: the broker pulled the frame off its input
    /// channel/socket (start of broker residence).
    ProxyRecv,
    /// Admission complete: the message is buffered and its job(s) are in
    /// the queue.
    Admitted,
    /// A delivery worker popped the message's dispatch job.
    Popped,
    /// The worker acquired the broker lock to run the job.
    Locked,
    /// The broker handed the delivery off toward the subscriber (channel
    /// push / socket write). End of broker residence.
    DeliverSend,
}

impl SpanPoint {
    /// Every point, in pipeline order.
    pub const ALL: [SpanPoint; 5] = [
        SpanPoint::ProxyRecv,
        SpanPoint::Admitted,
        SpanPoint::Popped,
        SpanPoint::Locked,
        SpanPoint::DeliverSend,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            SpanPoint::ProxyRecv => "proxy_recv",
            SpanPoint::Admitted => "admitted",
            SpanPoint::Popped => "popped",
            SpanPoint::Locked => "locked",
            SpanPoint::DeliverSend => "deliver_send",
        }
    }

    /// Dense index into the stamp array.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            SpanPoint::ProxyRecv => 0,
            SpanPoint::Admitted => 1,
            SpanPoint::Popped => 2,
            SpanPoint::Locked => 3,
            SpanPoint::DeliverSend => 4,
        }
    }
}

impl std::fmt::Display for SpanPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The span stamps carried by one message. Zero means "not stamped yet"
/// (monotonic clocks in this codebase start well above zero, and a message
/// stamped exactly at the epoch loses nothing but one stamp).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub struct TraceCtx {
    stamps: [u64; SpanPoint::ALL.len()],
}

// Manual serde: the context travels as a flat array of nanosecond stamps
// (`[proxy_recv, admitted, popped, locked, deliver_send]`), the most compact
// self-describing encoding, and the vendored serde has no fixed-array impls.
impl Serialize for TraceCtx {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.stamps.iter().map(|&s| serde::Value::U64(s)).collect())
    }
}

impl Deserialize for TraceCtx {
    fn from_value(value: &serde::Value) -> Result<TraceCtx, serde::de::DeError> {
        match value {
            serde::Value::Array(items) if items.len() == SpanPoint::ALL.len() => {
                let mut stamps = [0u64; SpanPoint::ALL.len()];
                for (slot, item) in stamps.iter_mut().zip(items) {
                    *slot = u64::from_value(item)?;
                }
                Ok(TraceCtx { stamps })
            }
            other => Err(serde::de::DeError::msg(format!(
                "expected {}-element stamp array for TraceCtx, found {:?}",
                SpanPoint::ALL.len(),
                other
            ))),
        }
    }
}

impl TraceCtx {
    /// An empty context (no points stamped).
    pub const fn new() -> TraceCtx {
        TraceCtx {
            stamps: [0; SpanPoint::ALL.len()],
        }
    }

    /// Stamps `point` with `at` (host-local monotonic time). Re-stamping
    /// overwrites — the last writer wins, which is what a retention
    /// re-send wants (its second broker residence replaces the first).
    #[inline]
    pub fn stamp(&mut self, point: SpanPoint, at: Time) {
        self.stamps[point.index()] = at.as_nanos();
    }

    /// The stamp for `point`, if taken.
    #[inline]
    pub fn get(&self, point: SpanPoint) -> Option<Time> {
        match self.stamps[point.index()] {
            0 => None,
            ns => Some(Time::from_nanos(ns)),
        }
    }

    /// The span between two stamped points (saturating at zero), or `None`
    /// if either point is unstamped. Only meaningful when both stamps were
    /// taken on the same host's clock.
    #[inline]
    pub fn span(&self, from: SpanPoint, to: SpanPoint) -> Option<Duration> {
        Some(self.get(to)?.saturating_since(self.get(from)?))
    }

    /// Raw stamps in [`SpanPoint::ALL`] order (zero = unstamped).
    #[inline]
    pub const fn stamps(&self) -> [u64; SpanPoint::ALL.len()] {
        self.stamps
    }

    /// Rebuilds a context from raw stamps (the inverse of
    /// [`TraceCtx::stamps`]; used by ring-slot readers).
    #[inline]
    pub const fn from_stamps(stamps: [u64; SpanPoint::ALL.len()]) -> TraceCtx {
        TraceCtx { stamps }
    }

    /// Whether any point has been stamped.
    pub fn is_empty(&self) -> bool {
        self.stamps.iter().all(|&s| s == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all() {
        for (i, p) in SpanPoint::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn stamp_get_span_roundtrip() {
        let mut ctx = TraceCtx::new();
        assert!(ctx.is_empty());
        assert_eq!(ctx.get(SpanPoint::ProxyRecv), None);
        ctx.stamp(SpanPoint::ProxyRecv, Time::from_nanos(100));
        ctx.stamp(SpanPoint::Admitted, Time::from_nanos(250));
        assert_eq!(
            ctx.span(SpanPoint::ProxyRecv, SpanPoint::Admitted),
            Some(Duration::from_nanos(150))
        );
        // Unstamped endpoint: no span.
        assert_eq!(ctx.span(SpanPoint::Admitted, SpanPoint::Popped), None);
        // Reversed order saturates to zero rather than wrapping.
        assert_eq!(
            ctx.span(SpanPoint::Admitted, SpanPoint::ProxyRecv),
            Some(Duration::ZERO)
        );
        assert!(!ctx.is_empty());
    }

    #[test]
    fn restamp_overwrites() {
        let mut ctx = TraceCtx::new();
        ctx.stamp(SpanPoint::ProxyRecv, Time::from_nanos(10));
        ctx.stamp(SpanPoint::ProxyRecv, Time::from_nanos(99));
        assert_eq!(ctx.get(SpanPoint::ProxyRecv), Some(Time::from_nanos(99)));
    }

    #[test]
    fn raw_stamps_roundtrip() {
        let mut ctx = TraceCtx::new();
        ctx.stamp(SpanPoint::Locked, Time::from_nanos(7));
        let rebuilt = TraceCtx::from_stamps(ctx.stamps());
        assert_eq!(rebuilt, ctx);
    }

    #[test]
    fn serde_is_compact_array() {
        let mut ctx = TraceCtx::new();
        ctx.stamp(SpanPoint::ProxyRecv, Time::from_nanos(1));
        let json = serde_json::to_string(&ctx).unwrap();
        assert_eq!(json, "[1,0,0,0,0]");
        let back: TraceCtx = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ctx);
    }
}
