//! Fault-injection hooks for the threaded runtime.
//!
//! The runtime consults an optional [`FaultHook`] at each of the three
//! hops of the paper's network model ([`Hop`]) and before each job runs.
//! Production systems run with no hook installed — every call site is an
//! `Option<Arc<dyn FaultHook>>` check that branches on `None` — while the
//! `frame-chaos` crate installs a scripted, seeded implementation to
//! exercise the fault-tolerance logic end to end.
//!
//! Hook implementations must be cheap, non-blocking and — for replayable
//! chaos runs — *deterministic in the frame identity*: the decision for a
//! given `(hop, topic, seq)` must not depend on wall-clock time or on the
//! interleaving of broker threads. Deriving per-frame randomness by
//! hashing `(seed, hop, topic, seq)` satisfies this; consuming a shared
//! RNG stream in arrival order does not.

use std::sync::Arc;
use std::time::Duration as StdDuration;

use frame_types::{SeqNo, TopicId};

pub use frame_types::Hop;

/// The fate a [`FaultHook`] assigns to one frame crossing a hop.
///
/// The default ([`FrameFate::PASS`]) forwards the frame unchanged. The
/// fields compose: `copies = 3` with a `delay` forwards three delayed
/// copies; `copies = 0` drops the frame regardless of the other fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameFate {
    /// How many copies cross the hop: 0 drops the frame, 1 passes it,
    /// more than 1 duplicates it.
    pub copies: u32,
    /// Extra wire latency added before the frame arrives. Applied off the
    /// caller's thread, so a delayed frame can be overtaken by later
    /// traffic — which is exactly how reordering is injected.
    pub delay: Option<StdDuration>,
    /// Truncate the payload to at most this many bytes before it arrives
    /// (models a cut-short datagram). Ignored by frames without payloads
    /// (e.g. prunes).
    pub truncate_to: Option<usize>,
}

impl FrameFate {
    /// Forward unchanged.
    pub const PASS: FrameFate = FrameFate {
        copies: 1,
        delay: None,
        truncate_to: None,
    };

    /// Drop the frame.
    pub const DROP: FrameFate = FrameFate {
        copies: 0,
        delay: None,
        truncate_to: None,
    };

    /// `true` when the fate forwards the frame unchanged.
    #[inline]
    pub fn is_pass(&self) -> bool {
        *self == FrameFate::PASS
    }
}

impl Default for FrameFate {
    fn default() -> Self {
        FrameFate::PASS
    }
}

/// What a Primary→Backup coordination effect does, as observed by
/// [`FaultHook::on_backup_effect`]. Mirrors the runtime's `BackupEffect`
/// without carrying the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackupEffectKind {
    /// Store a replica.
    Replica,
    /// Discard the copy (Table-3 prune).
    Prune,
}

/// Scripted fault decisions, consulted by the runtime at each hop.
///
/// All methods default to "no fault", so implementations override only
/// the surfaces they perturb.
pub trait FaultHook: Send + Sync {
    /// The fate of the frame carrying `(topic, seq)` as it crosses `hop`.
    fn on_frame(&self, hop: Hop, topic: TopicId, seq: SeqNo) -> FrameFate {
        let _ = (hop, topic, seq);
        FrameFate::PASS
    }

    /// A bounded stall imposed on the thread running the job for
    /// `(topic, seq)`, *before* it services it. The sleep happens with the
    /// broker lock dropped (the topic stays claimed), so it models a
    /// preempted/overloaded dispatcher consuming queue-wait budget.
    fn on_worker_job(&self, topic: TopicId, seq: SeqNo) -> Option<StdDuration> {
        let _ = (topic, seq);
        None
    }

    /// A bounded stall imposed on the failure detector before each
    /// liveness poll, modelling a slow detection path (it stretches the
    /// realized fail-over time `x`).
    fn on_detector_poll(&self) -> Option<StdDuration> {
        None
    }

    /// Observes one Primary→Backup effect at its emission point, *before*
    /// any fate is applied. Called while the thread that ran the job holds the
    /// topic's claim (the broker lock is already dropped), so for a given
    /// topic the call order is the Primary's Table-3 order — an observer
    /// can assert a prune is never emitted ahead of its replica.
    fn on_backup_effect(&self, topic: TopicId, seq: SeqNo, kind: BackupEffectKind) {
        let _ = (topic, seq, kind);
    }
}

/// Shorthand for the optional hook the runtime threads through itself.
pub type SharedFaultHook = Option<Arc<dyn FaultHook>>;

/// Consults `hook` for a frame, returning `PASS` when no hook is
/// installed.
#[inline]
pub fn fate_of(hook: &SharedFaultHook, hop: Hop, topic: TopicId, seq: SeqNo) -> FrameFate {
    match hook {
        None => FrameFate::PASS,
        Some(h) => h.on_frame(hop, topic, seq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_is_default_and_detectable() {
        assert!(FrameFate::default().is_pass());
        assert!(!FrameFate::DROP.is_pass());
        let delayed = FrameFate {
            delay: Some(StdDuration::from_millis(1)),
            ..FrameFate::PASS
        };
        assert!(!delayed.is_pass());
    }

    #[test]
    fn no_hook_passes_everything() {
        let hook: SharedFaultHook = None;
        assert!(fate_of(&hook, Hop::PrimaryToBackup, TopicId(1), SeqNo(0)).is_pass());
    }

    #[test]
    fn default_trait_methods_are_no_ops() {
        struct Nop;
        impl FaultHook for Nop {}
        let n = Nop;
        assert!(n
            .on_frame(Hop::PublisherToPrimary, TopicId(0), SeqNo(0))
            .is_pass());
        assert!(n.on_worker_job(TopicId(0), SeqNo(0)).is_none());
        assert!(n.on_detector_poll().is_none());
    }
}
