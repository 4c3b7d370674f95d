//! The seeded fault injector: a [`FaultHook`] implementation that applies
//! a compiled [`FaultPlan`] to the threaded runtime.
//!
//! # Determinism
//!
//! Every per-frame decision — does this rule fire, how long is this jitter
//! — is a pure function of `(seed, rule index, topic, seq)`, computed with
//! a splitmix64-style hash. Nothing consults the wall clock or a shared
//! RNG stream, so the decision for a frame does not depend on which broker
//! thread asks first or how runs interleave: same plan + same seed ⇒ same
//! fault set, every run, on any machine.
//!
//! The injector keeps its own incident log with **no timestamps**, keyed
//! by `(topic, seq, hop, action)` and deduplicated — a frame that crosses
//! a hop twice (e.g. a retention re-send during fail-over) gets the same
//! fate both times and one log entry. [`ChaosInjector::incident_log`]
//! returns the entries sorted on that key, so two runs of the same seeded
//! plan serialize to byte-identical JSONL. Each injected fault is *also*
//! recorded into the shared [`Telemetry`] flight recorder (with
//! timestamps, for humans reading `frame-cli trace` output); the
//! deterministic log is the machine-checked artifact.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration as StdDuration;

use frame_clock::{Clock, MonotonicClock};
use frame_net::{DiurnalCloud, LatencyModel};
use frame_rt::{BackupEffectKind, FaultHook, FrameFate, Hop};
use frame_telemetry::{IncidentKind, Telemetry};
use frame_types::{Duration, SeqNo, Time, TopicId};
use parking_lot::Mutex;
use serde::Serialize;

use crate::plan::{Action, CompiledRule, DelaySource, FaultPlan, Surface};

/// One injected fault, as written to the deterministic incident log.
///
/// Field order is the serialization order; keep it stable — the JSONL
/// artifact is diffed byte-for-byte across runs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub struct InjectedFault {
    /// Topic of the affected frame (0 for detector stalls).
    pub topic: u32,
    /// Sequence number of the affected frame (0 for detector stalls).
    pub seq: u64,
    /// Surface name (a [`Hop::name`], `worker`, or `detector`).
    pub hop: String,
    /// Action name ([`Action::name`]).
    pub action: String,
    /// Human-readable specifics (delay length, copy count, …).
    pub detail: String,
}

/// The effect of composing every matching rule for one frame.
struct ComposedFate {
    fate: FrameFate,
    applied: Vec<(usize, String)>, // (rule index, detail)
}

/// Scripted fault injection over a [`FaultPlan`], shared between the
/// runtime (as the fault hook) and the runner (as the evidence source).
pub struct ChaosInjector {
    plan: FaultPlan,
    seed: u64,
    telemetry: Telemetry,
    clock: MonotonicClock,
    log: Mutex<BTreeSet<InjectedFault>>,
    /// Primary→Backup emission order, as observed under the topic's claim —
    /// the Table-3 evidence stream.
    backup_order: Mutex<Vec<BackupObservation>>,
    /// Rules already logged for surfaces without a frame identity
    /// (detector stalls fire every poll; log once).
    identityless_logged: Mutex<BTreeSet<usize>>,
}

/// One observed Primary→Backup effect emission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackupObservation {
    /// Topic.
    pub topic: TopicId,
    /// Sequence number.
    pub seq: SeqNo,
    /// Replica or prune.
    pub kind: BackupEffectKind,
}

impl ChaosInjector {
    /// Builds an injector for `plan` with the given `seed`, recording
    /// human-facing incidents into `telemetry`.
    pub fn new(plan: FaultPlan, seed: u64, telemetry: Telemetry) -> Arc<ChaosInjector> {
        Arc::new(ChaosInjector {
            plan,
            seed,
            telemetry,
            clock: MonotonicClock::new(),
            log: Mutex::new(BTreeSet::new()),
            backup_order: Mutex::new(Vec::new()),
            identityless_logged: Mutex::new(BTreeSet::new()),
        })
    }

    /// The seed the run was started with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The deterministic incident log: every injected fault, sorted by
    /// `(topic, seq, hop, action)`, timestamp-free.
    pub fn incident_log(&self) -> Vec<InjectedFault> {
        self.log.lock().iter().cloned().collect()
    }

    /// The incident log as JSONL (one object per line), the artifact a
    /// chaos run writes next to its verdict.
    pub fn incident_jsonl(&self) -> String {
        let mut out = String::new();
        for fault in self.incident_log() {
            out.push_str(
                &serde_json::to_string(&fault).expect("incident log serialization is infallible"),
            );
            out.push('\n');
        }
        out
    }

    /// The observed Primary→Backup emission order (Table-3 evidence).
    pub fn backup_order(&self) -> Vec<BackupObservation> {
        self.backup_order.lock().clone()
    }

    /// Whether rule `idx` fires for `(topic, seq)`: window, topic filter,
    /// then a probability roll hashed from the frame identity.
    fn fires(&self, idx: usize, rule: &CompiledRule, topic: TopicId, seq: u64) -> bool {
        if !rule.covers(topic, seq) {
            return false;
        }
        if rule.prob >= 1.0 {
            return true;
        }
        let roll = decision_hash(self.seed, idx as u64, u64::from(topic.0), seq);
        (roll as f64 / u64::MAX as f64) < rule.prob
    }

    /// The delay a source yields for one frame, deterministically.
    fn sample_delay(&self, idx: usize, source: DelaySource, topic: TopicId, seq: u64) -> Duration {
        match source {
            DelaySource::Constant(d) => d,
            DelaySource::Jittered { base, jitter } => {
                if jitter.is_zero() {
                    return base;
                }
                let h = decision_hash(self.seed ^ 0xA5A5_5A5A, idx as u64, u64::from(topic.0), seq);
                base.saturating_add(Duration::from_nanos(h % (jitter.as_nanos() + 1)))
            }
            DelaySource::Diurnal => {
                // Replay the Fig-8 envelope in sequence space: virtual
                // time advances one topic period per message, so the same
                // seq always lands on the same point of the 24h curve.
                let period = self.plan.period_of(topic);
                let at = Time::from_nanos(period.as_nanos().saturating_mul(seq));
                DiurnalCloud::paper_fig8(self.seed).sample(at)
            }
        }
    }

    fn record(
        &self,
        topic: TopicId,
        seq: SeqNo,
        surface: Surface,
        action: &Action,
        detail: String,
    ) {
        let fault = InjectedFault {
            topic: topic.0,
            seq: seq.0,
            hop: surface.name().to_string(),
            action: action.name().to_string(),
            detail,
        };
        // Telemetry first (it carries a timestamp and may be dropped by
        // ring capacity); the deterministic log is the source of truth.
        self.telemetry.incident(
            IncidentKind::FaultInjected,
            topic,
            seq,
            self.clock.now(),
            format!("{} {} ({})", fault.action, fault.hop, fault.detail),
        );
        self.log.lock().insert(fault);
    }

    /// Composes every matching rule on a frame surface into one fate.
    fn compose(&self, hop: Hop, topic: TopicId, seq: SeqNo) -> ComposedFate {
        let mut fate = FrameFate::PASS;
        let mut applied = Vec::new();
        for (idx, rule) in self.plan.rules.iter().enumerate() {
            if rule.surface != Surface::Frame(hop) || !self.fires(idx, rule, topic, seq.0) {
                continue;
            }
            let detail = match rule.action {
                Action::Drop => {
                    fate.copies = 0;
                    "frame dropped".to_string()
                }
                Action::Delay(source) => {
                    let d = self.sample_delay(idx, source, topic, seq.0);
                    fate.delay = Some(StdDuration::from_nanos(d.as_nanos()));
                    format!("+{}us wire latency", d.as_micros())
                }
                Action::Duplicate(n) => {
                    fate.copies = fate.copies.max(n);
                    format!("{n} copies")
                }
                Action::Truncate(n) => {
                    fate.truncate_to = Some(n);
                    format!("payload cut to {n} bytes")
                }
                Action::Stall(_) => continue, // surface-checked at compile
            };
            applied.push((idx, detail));
        }
        ComposedFate { fate, applied }
    }

    /// First matching stall rule on a stallable surface.
    fn stall_for(&self, surface: Surface, topic: TopicId, seq: u64) -> Option<StdDuration> {
        for (idx, rule) in self.plan.rules.iter().enumerate() {
            if rule.surface != surface || !self.fires(idx, rule, topic, seq) {
                continue;
            }
            if let Action::Stall(d) = rule.action {
                match surface {
                    Surface::Detector => {
                        // No frame identity: fires every poll, log once.
                        if self.identityless_logged.lock().insert(idx) {
                            self.record(
                                TopicId(0),
                                SeqNo(0),
                                surface,
                                &rule.action,
                                format!("detector stalled {}ms per poll", d.as_millis()),
                            );
                        }
                    }
                    _ => self.record(
                        topic,
                        SeqNo(seq),
                        surface,
                        &rule.action,
                        format!("worker stalled {}ms", d.as_millis()),
                    ),
                }
                return Some(StdDuration::from_nanos(d.as_nanos()));
            }
        }
        None
    }
}

impl FaultHook for ChaosInjector {
    fn on_frame(&self, hop: Hop, topic: TopicId, seq: SeqNo) -> FrameFate {
        let composed = self.compose(hop, topic, seq);
        for (idx, detail) in &composed.applied {
            let action = self.plan.rules[*idx].action;
            self.record(topic, seq, Surface::Frame(hop), &action, detail.clone());
        }
        composed.fate
    }

    fn on_worker_job(&self, topic: TopicId, seq: SeqNo) -> Option<StdDuration> {
        self.stall_for(Surface::Worker, topic, seq.0)
    }

    fn on_detector_poll(&self) -> Option<StdDuration> {
        self.stall_for(Surface::Detector, TopicId(0), 0)
    }

    fn on_backup_effect(&self, topic: TopicId, seq: SeqNo, kind: BackupEffectKind) {
        self.backup_order
            .lock()
            .push(BackupObservation { topic, seq, kind });
    }
}

/// splitmix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pure hash of the decision identity — the heart of replayability.
fn decision_hash(seed: u64, rule: u64, topic: u64, seq: u64) -> u64 {
    mix(seed ^ mix(rule ^ mix(topic ^ mix(seq))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    fn plan(toml: &str) -> FaultPlan {
        FaultPlan::from_toml_str(toml).unwrap()
    }

    const DROP_WINDOW: &str = r#"
        [[topics]]
        id = 1
        deadline_ms = 100

        [[faults]]
        hop = "primary_to_backup"
        action = "drop"
        topic = 1
        from_seq = 2
        until_seq = 5
    "#;

    #[test]
    fn window_drops_and_passes_deterministically() {
        let inj = ChaosInjector::new(plan(DROP_WINDOW), 7, Telemetry::disabled());
        for seq in 0..8u64 {
            let fate = inj.on_frame(Hop::PrimaryToBackup, TopicId(1), SeqNo(seq));
            let expect_drop = (2..5).contains(&seq);
            assert_eq!(fate.copies == 0, expect_drop, "seq {seq}");
            // Other hops are untouched.
            assert!(inj
                .on_frame(Hop::BrokerToSubscriber, TopicId(1), SeqNo(seq))
                .is_pass());
        }
        let log = inj.incident_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].seq, 2);
        assert_eq!(log[0].action, "drop");
        assert_eq!(log[0].hop, "primary_to_backup");
    }

    #[test]
    fn same_seed_same_decisions_different_seed_differs() {
        let prob_plan = r#"
            [[topics]]
            id = 1
            deadline_ms = 100

            [[faults]]
            hop = "broker_to_subscriber"
            action = "drop"
            prob = 0.5
        "#;
        let decisions = |seed: u64| -> Vec<bool> {
            let inj = ChaosInjector::new(plan(prob_plan), seed, Telemetry::disabled());
            (0..64u64)
                .map(|s| {
                    inj.on_frame(Hop::BrokerToSubscriber, TopicId(1), SeqNo(s))
                        .copies
                        == 0
                })
                .collect()
        };
        let a = decisions(42);
        assert_eq!(a, decisions(42), "same seed replays identically");
        assert_ne!(a, decisions(43), "different seed differs");
        let hits = a.iter().filter(|&&d| d).count();
        assert!((10..=54).contains(&hits), "prob 0.5 over 64: {hits}");
    }

    #[test]
    fn repeat_crossings_log_once() {
        let inj = ChaosInjector::new(plan(DROP_WINDOW), 7, Telemetry::disabled());
        for _ in 0..3 {
            inj.on_frame(Hop::PrimaryToBackup, TopicId(1), SeqNo(3));
        }
        assert_eq!(inj.incident_log().len(), 1, "dedup by identity");
    }

    #[test]
    fn delay_and_duplicate_compose() {
        let p = r#"
            [[topics]]
            id = 1
            deadline_ms = 100

            [[faults]]
            hop = "broker_to_subscriber"
            action = "delay"
            delay_ms = 4

            [[faults]]
            hop = "broker_to_subscriber"
            action = "duplicate"
            copies = 3
        "#;
        let inj = ChaosInjector::new(plan(p), 1, Telemetry::disabled());
        let fate = inj.on_frame(Hop::BrokerToSubscriber, TopicId(1), SeqNo(0));
        assert_eq!(fate.copies, 3);
        assert_eq!(fate.delay, Some(StdDuration::from_millis(4)));
        assert_eq!(inj.incident_log().len(), 2, "one entry per action");
    }

    #[test]
    fn jittered_delay_is_per_frame_deterministic() {
        let p = r#"
            [[topics]]
            id = 1
            deadline_ms = 100

            [[faults]]
            hop = "broker_to_subscriber"
            action = "delay"
            delay_model = "jittered"
            delay_ms = 2
            jitter_ms = 8
        "#;
        let inj = ChaosInjector::new(plan(p), 9, Telemetry::disabled());
        let d0 = inj
            .on_frame(Hop::BrokerToSubscriber, TopicId(1), SeqNo(0))
            .delay;
        let d1 = inj
            .on_frame(Hop::BrokerToSubscriber, TopicId(1), SeqNo(1))
            .delay;
        let d0_again = inj
            .on_frame(Hop::BrokerToSubscriber, TopicId(1), SeqNo(0))
            .delay;
        assert_eq!(d0, d0_again, "same frame, same jitter");
        assert!(d0.unwrap() >= StdDuration::from_millis(2));
        assert!(d0.unwrap() <= StdDuration::from_millis(10));
        assert_ne!(d0, d1, "jitter varies across frames (w.h.p.)");
    }

    #[test]
    fn detector_stall_logged_once() {
        let p = r#"
            [[topics]]
            id = 1
            deadline_ms = 100

            [[faults]]
            hop = "detector"
            action = "stall"
            stall_ms = 3
        "#;
        let inj = ChaosInjector::new(plan(p), 1, Telemetry::disabled());
        for _ in 0..10 {
            assert_eq!(inj.on_detector_poll(), Some(StdDuration::from_millis(3)));
        }
        assert_eq!(inj.incident_log().len(), 1);
        assert_eq!(inj.incident_log()[0].hop, "detector");
    }

    #[test]
    fn jsonl_is_stable_bytes() {
        let render = || {
            let inj = ChaosInjector::new(plan(DROP_WINDOW), 7, Telemetry::disabled());
            // Arrival order scrambled on purpose: the log sorts.
            for seq in [4u64, 2, 3] {
                inj.on_frame(Hop::PrimaryToBackup, TopicId(1), SeqNo(seq));
            }
            inj.incident_jsonl()
        };
        let a = render();
        assert_eq!(a, render());
        assert_eq!(a.lines().count(), 3);
        assert!(a.lines().next().unwrap().contains("\"seq\":2"));
    }
}
