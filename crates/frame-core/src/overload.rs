//! Adaptive overload control at the admission boundary.
//!
//! The paper's evaluation shows what *uncontrolled* overload does: FCFS
//! collapses once the topic population passes ~7525 and every topic's
//! deadline is missed together. [`OverloadController`] is the feedback
//! loop that keeps a FRAME broker out of that regime by degrading in the
//! paper's own vocabulary, one rung at a time:
//!
//! 1. **Suppress replication** (rung 1) on topics where Proposition 1
//!    says broker replication is optional anyway
//!    (`PseudoDeadlines::replication_needed == false`) — publisher
//!    retention alone covers their loss tolerance, so dropping their
//!    replication jobs sheds queue load without touching any guarantee.
//! 2. **Shed `L_i`-bounded runs** (rung 2) at the admission boundary on
//!    topics whose declared loss tolerance permits it. The run-length
//!    guard lives in the broker's per-topic shard (it resets its shed run
//!    on every admitted message), so Lemma 1 is enforced mechanically: a
//!    topic with `L_i = 0` is never shed, and a topic with `L_i = l` never
//!    loses more than `l` consecutive messages to the controller.
//! 3. **Evict best-effort topics** (rung 3): topics with no loss bound
//!    stop being admitted entirely. De-escalation re-admits them through
//!    the same [`bounds::admit`](crate::bounds::admit) math used at
//!    startup, so a topic only comes back if it is still admissible.
//!
//! The controller is a *pure, deterministic* state machine: it consumes
//! cumulative counters and gauges (`PressureSample`), differentiates
//! them against the previous tick, and emits `ControlAction`s. The
//! embedding (the sans-IO [`Broker`](crate::broker::Broker), the threaded
//! runtime, or the chaos driver on a logical clock) owns when ticks
//! happen and how actions are applied — which is what makes the chaos
//! gauntlet byte-reproducible.

use frame_types::{Duration, NetworkParams, Time, TopicId};

use crate::bounds::AdmittedTopic;

/// A rung of the degradation ladder, in escalation order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rung {
    /// No degradation: every admitted topic gets full service.
    Normal,
    /// Replication suppressed on Proposition-1-optional topics.
    SuppressReplication,
    /// Admission-boundary shedding (within `L_i`) on tolerant topics.
    Shed,
    /// Best-effort topics evicted from the admission set.
    Evict,
}

impl Rung {
    /// Every rung, in escalation order.
    pub const ALL: [Rung; 4] = [
        Rung::Normal,
        Rung::SuppressReplication,
        Rung::Shed,
        Rung::Evict,
    ];

    /// Stable snake_case name (telemetry label / incident detail).
    pub fn name(self) -> &'static str {
        match self {
            Rung::Normal => "normal",
            Rung::SuppressReplication => "suppress_replication",
            Rung::Shed => "shed",
            Rung::Evict => "evict",
        }
    }

    /// Dense index (doubles as the exported gauge value).
    pub fn index(self) -> usize {
        self as usize
    }

    fn from_index(i: usize) -> Rung {
        Rung::ALL[i]
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the controller knows about one admitted topic: exactly the facts
/// the ladder's eligibility rules need, derived once from the admission
/// analysis.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TopicClass {
    /// The topic.
    pub(crate) id: TopicId,
    /// Proposition 1: broker replication is *not* needed (publisher
    /// retention alone covers `L_i`), so suppressing it costs nothing.
    pub(crate) replication_optional: bool,
    /// The declared consecutive-loss tolerance `L_i`
    /// (`None` = best-effort).
    pub(crate) loss_bound: Option<u32>,
}

impl TopicClass {
    /// Derives the class from an admitted topic.
    pub(crate) fn from_admitted(admitted: &AdmittedTopic) -> TopicClass {
        TopicClass {
            id: admitted.spec.id,
            replication_optional: !admitted.deadlines.replication_needed,
            loss_bound: admitted.spec.loss_tolerance.bound(),
        }
    }

    /// Whether rung 2 may shed this topic at all: best-effort topics
    /// always, bounded topics only when `L_i > 0`. Hard topics
    /// (`L_i = 0`) are never shed — Lemma 1 leaves no room.
    pub(crate) fn shed_eligible(&self) -> bool {
        self.loss_bound.is_none_or(|l| l > 0)
    }

    /// Whether rung 3 may evict this topic: best-effort only. Evicting a
    /// loss-bounded topic would produce an unbounded consecutive-loss
    /// run, violating Lemma 1.
    pub(crate) fn evict_eligible(&self) -> bool {
        self.loss_bound.is_none()
    }
}

/// A per-topic degradation (or restoration) the embedding must apply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ControlAction {
    /// Stop generating replication jobs for this topic (Proposition 1
    /// says publisher retention covers it).
    SuppressReplication(TopicId),
    /// Resume normal replication policy for this topic.
    RestoreReplication(TopicId),
    /// Start shedding this topic at the admission boundary (the shard
    /// enforces the `L_i` run bound).
    StartShedding(TopicId),
    /// Stop shedding this topic.
    StopShedding(TopicId),
    /// Evict this best-effort topic from the admission set.
    Evict(TopicId),
    /// Re-admit this topic (the embedding re-runs `bounds::admit`).
    Restore(TopicId),
}

impl ControlAction {
    /// The topic the action concerns.
    pub(crate) fn topic(&self) -> TopicId {
        match *self {
            ControlAction::SuppressReplication(t)
            | ControlAction::RestoreReplication(t)
            | ControlAction::StartShedding(t)
            | ControlAction::StopShedding(t)
            | ControlAction::Evict(t)
            | ControlAction::Restore(t) => t,
        }
    }
}

/// Controller tuning. The pressure signals are all optional: a zero
/// capacity or target disables that term, so embeddings feed only the
/// sensors they have.
#[derive(Clone, Copy, Debug)]
pub struct OverloadConfig {
    /// Sustainable admission rate (messages/s) of the delivery plane;
    /// offered load above it reads as pressure ≥ 1. Zero disables the
    /// rate term.
    pub capacity_per_sec: f64,
    /// Scheduler queue depth considered saturated (pressure 1.0). Zero
    /// disables the depth term.
    pub target_queue_depth: u64,
    /// Pressure at or above which a tick counts as hot.
    pub enter_pressure: f64,
    /// Pressure at or below which a tick counts as cool (hysteresis:
    /// keep it below `enter_pressure` to avoid flapping).
    pub exit_pressure: f64,
    /// Consecutive hot ticks before climbing one rung.
    pub escalate_ticks: u32,
    /// Consecutive cool ticks before descending one rung.
    pub cooldown_ticks: u32,
    /// Control-tick cadence for embeddings that self-drive the loop.
    pub tick_interval: Duration,
    /// The deployment's timing parameters, re-used by `bounds::admit`
    /// when a topic is restored after eviction.
    pub net: NetworkParams,
}

impl OverloadConfig {
    /// A conservative default against the paper's worked-example network:
    /// depth-driven only (rate term disabled), enter at 1.0 /
    /// exit at 0.5, two hot ticks to climb, four cool ticks to descend,
    /// 100 ms cadence.
    pub fn new(net: NetworkParams) -> OverloadConfig {
        OverloadConfig {
            capacity_per_sec: 0.0,
            target_queue_depth: 4096,
            enter_pressure: 1.0,
            exit_pressure: 0.5,
            escalate_ticks: 2,
            cooldown_ticks: 4,
            tick_interval: Duration::from_millis(100),
            net,
        }
    }
}

/// Cumulative sensor readings at one control tick. Counters are
/// *totals since start-up* — the controller differentiates against the
/// previous tick itself, so embeddings never track deltas.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PressureSample {
    /// Live jobs in the scheduler queue.
    pub(crate) queue_depth: u64,
    /// Total messages that reached the admission boundary (admitted plus
    /// shed — the *offered* load, so shedding does not mask pressure).
    pub(crate) offered_total: u64,
    /// Total dispatch-deadline misses.
    pub(crate) miss_total: u64,
}

/// What one tick decided.
#[derive(Clone, Debug)]
pub(crate) struct TickOutcome {
    /// The blended pressure signal this tick (1.0 = saturated).
    pub(crate) pressure: f64,
    /// A rung change, if one happened: `(from, to)`.
    pub(crate) transition: Option<(Rung, Rung)>,
    /// Per-topic actions the embedding must apply, in topic order.
    pub(crate) actions: Vec<ControlAction>,
}

/// The feedback loop. See the module docs for the ladder.
pub struct OverloadController {
    config: OverloadConfig,
    /// Registered topics, sorted by id (deterministic action order).
    topics: Vec<TopicClass>,
    rung: Rung,
    hot_ticks: u32,
    cool_ticks: u32,
    escalations: u64,
    deescalations: u64,
    last_pressure: f64,
    prev: Option<PrevTick>,
}

#[derive(Clone, Copy)]
struct PrevTick {
    at: Time,
    offered_total: u64,
    miss_total: u64,
}

impl OverloadController {
    /// Creates a controller at rung [`Rung::Normal`] with no topics.
    pub(crate) fn new(config: OverloadConfig) -> OverloadController {
        OverloadController {
            config,
            topics: Vec::new(),
            rung: Rung::Normal,
            hot_ticks: 0,
            cool_ticks: 0,
            escalations: 0,
            deescalations: 0,
            last_pressure: 0.0,
            prev: None,
        }
    }

    /// The controller configuration.
    pub(crate) fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// Registers a topic (idempotent; replaces an existing class).
    pub(crate) fn register_topic(&mut self, class: TopicClass) {
        match self.topics.binary_search_by_key(&class.id.0, |c| c.id.0) {
            Ok(i) => self.topics[i] = class,
            Err(i) => self.topics.insert(i, class),
        }
    }

    /// The current rung.
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// The pressure computed at the most recent tick.
    pub(crate) fn last_pressure(&self) -> f64 {
        self.last_pressure
    }

    /// Rung climbs so far.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Rung descents so far.
    pub fn deescalations(&self) -> u64 {
        self.deescalations
    }

    /// Topic counts currently degraded at each active rung:
    /// `(suppressed, shedding, evicted)`. Derived from the rung and the
    /// eligibility rules — the embedding applies exactly these sets.
    pub(crate) fn degraded_counts(&self) -> (u64, u64, u64) {
        let count =
            |f: &dyn Fn(&TopicClass) -> bool| self.topics.iter().filter(|c| f(c)).count() as u64;
        let suppressed = if self.rung >= Rung::SuppressReplication {
            count(&|c| c.replication_optional)
        } else {
            0
        };
        let shedding = if self.rung >= Rung::Shed {
            count(&TopicClass::shed_eligible)
        } else {
            0
        };
        let evicted = if self.rung >= Rung::Evict {
            count(&TopicClass::evict_eligible)
        } else {
            0
        };
        (suppressed, shedding, evicted)
    }

    /// Blends the sample into one pressure number: the max over the
    /// enabled terms (queue depth vs target, offered rate vs capacity),
    /// saturated to at least `enter_pressure`
    /// whenever deadline misses occurred in the interval — misses mean
    /// the plane is already past its budget regardless of what the
    /// leading indicators say.
    fn pressure(&self, now: Time, sample: &PressureSample) -> f64 {
        let mut pressure: f64 = 0.0;
        if self.config.target_queue_depth > 0 {
            pressure =
                pressure.max(sample.queue_depth as f64 / self.config.target_queue_depth as f64);
        }
        if let Some(prev) = self.prev {
            let dt = now.saturating_since(prev.at).as_secs_f64();
            if dt > 0.0 {
                if self.config.capacity_per_sec > 0.0 {
                    let offered = sample.offered_total.saturating_sub(prev.offered_total);
                    pressure = pressure.max(offered as f64 / dt / self.config.capacity_per_sec);
                }
                if sample.miss_total > prev.miss_total {
                    pressure = pressure.max(self.config.enter_pressure);
                }
            }
        }
        pressure
    }

    /// Runs one control tick at `now`. Deterministic: the outcome is a
    /// pure function of the controller state and the sample.
    pub(crate) fn tick(&mut self, now: Time, sample: PressureSample) -> TickOutcome {
        let pressure = self.pressure(now, &sample);
        self.last_pressure = pressure;
        self.prev = Some(PrevTick {
            at: now,
            offered_total: sample.offered_total,
            miss_total: sample.miss_total,
        });

        let mut transition = None;
        let mut actions = Vec::new();
        if pressure >= self.config.enter_pressure {
            self.cool_ticks = 0;
            self.hot_ticks += 1;
            if self.hot_ticks >= self.config.escalate_ticks && self.rung < Rung::Evict {
                let from = self.rung;
                self.rung = Rung::from_index(from.index() + 1);
                self.hot_ticks = 0;
                self.escalations += 1;
                transition = Some((from, self.rung));
                self.enter_actions(self.rung, &mut actions);
            }
        } else if pressure <= self.config.exit_pressure {
            self.hot_ticks = 0;
            self.cool_ticks += 1;
            if self.cool_ticks >= self.config.cooldown_ticks && self.rung > Rung::Normal {
                let from = self.rung;
                self.exit_actions(from, &mut actions);
                self.rung = Rung::from_index(from.index() - 1);
                self.cool_ticks = 0;
                self.deescalations += 1;
                transition = Some((from, self.rung));
            }
        } else {
            // Dead band between the thresholds: hold the rung, reset both
            // streak counters so a transition needs a fresh streak.
            self.hot_ticks = 0;
            self.cool_ticks = 0;
        }
        TickOutcome {
            pressure,
            transition,
            actions,
        }
    }

    fn enter_actions(&self, rung: Rung, actions: &mut Vec<ControlAction>) {
        for c in &self.topics {
            match rung {
                Rung::SuppressReplication if c.replication_optional => {
                    actions.push(ControlAction::SuppressReplication(c.id));
                }
                Rung::Shed if c.shed_eligible() => {
                    actions.push(ControlAction::StartShedding(c.id));
                }
                Rung::Evict if c.evict_eligible() => {
                    actions.push(ControlAction::Evict(c.id));
                }
                _ => {}
            }
        }
    }

    fn exit_actions(&self, rung: Rung, actions: &mut Vec<ControlAction>) {
        for c in &self.topics {
            match rung {
                Rung::SuppressReplication if c.replication_optional => {
                    actions.push(ControlAction::RestoreReplication(c.id));
                }
                Rung::Shed if c.shed_eligible() => {
                    actions.push(ControlAction::StopShedding(c.id));
                }
                Rung::Evict if c.evict_eligible() => {
                    actions.push(ControlAction::Restore(c.id));
                }
                _ => {}
            }
        }
    }
}

impl std::fmt::Debug for OverloadController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverloadController")
            .field("rung", &self.rung)
            .field("topics", &self.topics.len())
            .field("pressure", &self.last_pressure)
            .field("escalations", &self.escalations)
            .field("deescalations", &self.deescalations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::admit;
    use frame_types::TopicSpec;

    fn net() -> NetworkParams {
        NetworkParams::paper_example()
    }

    fn class(id: u32, category: u8) -> TopicClass {
        let spec = TopicSpec::category(category, TopicId(id));
        TopicClass::from_admitted(&admit(&spec, &net()).unwrap())
    }

    fn config() -> OverloadConfig {
        OverloadConfig {
            target_queue_depth: 100,
            escalate_ticks: 1,
            cooldown_ticks: 1,
            ..OverloadConfig::new(net())
        }
    }

    fn hot() -> PressureSample {
        PressureSample {
            queue_depth: 500,
            ..PressureSample::default()
        }
    }

    fn cool() -> PressureSample {
        PressureSample::default()
    }

    #[test]
    fn eligibility_follows_paper_categories() {
        // Category 2 needs replication (Prop 1) and has L_i = 0: never
        // degradable. Category 1 (L_i = 3, replication optional) is
        // suppressible and sheddable but not evictable. Category 4
        // (best-effort) is everything.
        let c2 = class(1, 2);
        assert!(!c2.replication_optional && !c2.shed_eligible() && !c2.evict_eligible());
        let c1 = class(2, 1);
        assert!(c1.replication_optional && c1.shed_eligible() && !c1.evict_eligible());
        let c4 = class(3, 4);
        assert!(c4.replication_optional && c4.shed_eligible() && c4.evict_eligible());
    }

    #[test]
    fn ladder_escalates_one_rung_per_streak_with_per_topic_actions() {
        let mut ctrl = OverloadController::new(config());
        ctrl.register_topic(class(1, 2)); // hard: untouchable
        ctrl.register_topic(class(2, 1)); // tolerant
        ctrl.register_topic(class(3, 4)); // best-effort

        let t1 = ctrl.tick(Time::from_millis(100), hot());
        assert_eq!(
            t1.transition,
            Some((Rung::Normal, Rung::SuppressReplication))
        );
        assert_eq!(
            t1.actions,
            vec![
                ControlAction::SuppressReplication(TopicId(2)),
                ControlAction::SuppressReplication(TopicId(3)),
            ]
        );
        let t2 = ctrl.tick(Time::from_millis(200), hot());
        assert_eq!(t2.transition, Some((Rung::SuppressReplication, Rung::Shed)));
        assert_eq!(
            t2.actions,
            vec![
                ControlAction::StartShedding(TopicId(2)),
                ControlAction::StartShedding(TopicId(3)),
            ]
        );
        let t3 = ctrl.tick(Time::from_millis(300), hot());
        assert_eq!(t3.transition, Some((Rung::Shed, Rung::Evict)));
        assert_eq!(t3.actions, vec![ControlAction::Evict(TopicId(3))]);
        // Saturated at the top rung: no further transitions.
        let t4 = ctrl.tick(Time::from_millis(400), hot());
        assert!(t4.transition.is_none() && t4.actions.is_empty());
        assert_eq!(ctrl.escalations(), 3);
        assert_eq!(ctrl.degraded_counts(), (2, 2, 1));
    }

    #[test]
    fn cooldown_descends_and_restores_in_reverse() {
        let mut ctrl = OverloadController::new(config());
        ctrl.register_topic(class(2, 1));
        ctrl.register_topic(class(3, 4));
        for i in 0..3 {
            ctrl.tick(Time::from_millis(100 * (i + 1)), hot());
        }
        assert_eq!(ctrl.rung(), Rung::Evict);

        let d1 = ctrl.tick(Time::from_millis(400), cool());
        assert_eq!(d1.transition, Some((Rung::Evict, Rung::Shed)));
        assert_eq!(d1.actions, vec![ControlAction::Restore(TopicId(3))]);
        let d2 = ctrl.tick(Time::from_millis(500), cool());
        assert_eq!(
            d2.actions,
            vec![
                ControlAction::StopShedding(TopicId(2)),
                ControlAction::StopShedding(TopicId(3)),
            ]
        );
        let d3 = ctrl.tick(Time::from_millis(600), cool());
        assert_eq!(
            d3.transition,
            Some((Rung::SuppressReplication, Rung::Normal))
        );
        assert_eq!(ctrl.deescalations(), 3);
        assert_eq!(ctrl.degraded_counts(), (0, 0, 0));
    }

    #[test]
    fn dead_band_holds_rung_and_resets_streaks() {
        let mut ctrl = OverloadController::new(OverloadConfig {
            escalate_ticks: 2,
            ..config()
        });
        ctrl.register_topic(class(3, 4));
        let mid = PressureSample {
            queue_depth: 75, // pressure 0.75: between exit 0.5 and enter 1.0
            ..PressureSample::default()
        };
        ctrl.tick(Time::from_millis(100), hot());
        ctrl.tick(Time::from_millis(200), mid); // resets the hot streak
        let t = ctrl.tick(Time::from_millis(300), hot());
        assert!(
            t.transition.is_none(),
            "streak must restart after dead band"
        );
        let t = ctrl.tick(Time::from_millis(400), hot());
        assert_eq!(
            t.transition,
            Some((Rung::Normal, Rung::SuppressReplication))
        );
    }

    #[test]
    fn offered_rate_term_reads_overload_even_with_empty_queue() {
        let mut ctrl = OverloadController::new(OverloadConfig {
            capacity_per_sec: 1_000.0,
            target_queue_depth: 0, // depth term disabled
            escalate_ticks: 1,
            cooldown_ticks: 1,
            ..OverloadConfig::new(net())
        });
        ctrl.register_topic(class(3, 4));
        // First tick establishes the baseline: no rate yet.
        let t0 = ctrl.tick(
            Time::from_millis(100),
            PressureSample {
                offered_total: 0,
                ..PressureSample::default()
            },
        );
        assert_eq!(t0.pressure, 0.0);
        // 300 offered in 100 ms = 3000/s against 1000/s capacity.
        let t1 = ctrl.tick(
            Time::from_millis(200),
            PressureSample {
                offered_total: 300,
                ..PressureSample::default()
            },
        );
        assert!((t1.pressure - 3.0).abs() < 1e-9);
        assert_eq!(
            t1.transition,
            Some((Rung::Normal, Rung::SuppressReplication))
        );
    }

    #[test]
    fn deadline_misses_saturate_pressure() {
        let mut ctrl = OverloadController::new(OverloadConfig {
            target_queue_depth: 0,
            escalate_ticks: 1,
            ..config()
        });
        ctrl.register_topic(class(3, 4));
        ctrl.tick(Time::from_millis(100), PressureSample::default());
        let t = ctrl.tick(
            Time::from_millis(200),
            PressureSample {
                miss_total: 1,
                ..PressureSample::default()
            },
        );
        assert!(t.pressure >= 1.0);
        assert_eq!(
            t.transition,
            Some((Rung::Normal, Rung::SuppressReplication))
        );
    }
}
