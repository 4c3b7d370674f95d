//! Fault plans: the scripted scenario a chaos run executes.
//!
//! A plan is a TOML document (parsed by [`crate::toml`]) declaring the
//! topics to drive, the publish schedule, and a list of fault rules keyed
//! in *sequence-number space* — `from_seq`/`until_seq` windows rather than
//! wall-clock windows — so the same plan produces the same fault set on
//! any machine at any load. A severed link is a `drop` rule over a seq
//! window; restoring the link is simply the window's end.
//!
//! ```toml
//! name = "partition-failover"
//! messages = 12
//! pace_ms = 30
//!
//! [[topics]]
//! id = 1
//! period_ms = 30
//! deadline_ms = 100
//! loss_tolerance = 0
//! retention = 4
//! subscribers = [1]
//!
//! [[faults]]                     # sever Primary→Backup for seqs 2..5
//! hop = "primary_to_backup"
//! action = "drop"
//! topic = 1
//! from_seq = 2
//! until_seq = 5
//!
//! [crash]                        # SIGKILL the Primary after seq 8
//! topic = 1
//! at_seq = 8
//! ```

use frame_types::{Duration, FrameError, Hop, LossTolerance, SubscriberId, TopicId, TopicSpec};
use serde::Deserialize;

/// Where a fault rule applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface {
    /// A frame crossing one of the paper's three network hops.
    Frame(Hop),
    /// The thread running a job, stalled before it services the job.
    Worker,
    /// The failure detector, stalled before each liveness poll.
    Detector,
}

impl Surface {
    /// Parses the `hop` field of a rule.
    pub fn parse(name: &str) -> Option<Surface> {
        match name {
            "worker" => Some(Surface::Worker),
            "detector" => Some(Surface::Detector),
            hop => Hop::parse(hop).map(Surface::Frame),
        }
    }

    /// The wire name, matching [`Hop::name`] for frame surfaces.
    pub fn name(&self) -> &'static str {
        match self {
            Surface::Frame(h) => h.name(),
            Surface::Worker => "worker",
            Surface::Detector => "detector",
        }
    }
}

/// What a matched rule does to its target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// Drop the frame (a severed link, over the rule's window).
    Drop,
    /// Add wire latency from the given source.
    Delay(DelaySource),
    /// Forward this many copies (≥ 2).
    Duplicate(u32),
    /// Cut the payload to this many bytes.
    Truncate(usize),
    /// Stall the thread running a job, or the detector, for this long.
    Stall(Duration),
}

impl Action {
    /// The action's wire name, as written in plans and incident logs.
    pub fn name(&self) -> &'static str {
        match self {
            Action::Drop => "drop",
            Action::Delay(_) => "delay",
            Action::Duplicate(_) => "duplicate",
            Action::Truncate(_) => "truncate",
            Action::Stall(_) => "stall",
        }
    }
}

/// Where delay values come from. All sources are deterministic in the
/// frame identity: the diurnal and jittered sources are evaluated at a
/// *virtual* time derived from the sequence number, never the wall clock,
/// reusing `frame-net`'s latency models as the shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DelaySource {
    /// A fixed delay.
    Constant(Duration),
    /// `base` plus per-frame jitter in `[0, jitter]`, derived by hashing
    /// the frame identity (not from a shared RNG stream).
    Jittered {
        /// The floor.
        base: Duration,
        /// The jitter span.
        jitter: Duration,
    },
    /// `frame_net::DiurnalCloud::paper_fig8`, sampled at virtual time
    /// `seq × T_i` — the paper's Fig-8 cloud-latency envelope replayed in
    /// sequence space.
    Diurnal,
}

/// One fault rule, compiled from the TOML `[[faults]]` entry.
#[derive(Clone, Debug)]
pub struct CompiledRule {
    /// Which runtime surface the rule perturbs.
    pub surface: Surface,
    /// What it does there.
    pub action: Action,
    /// Topic filter (`None` = every topic).
    pub topic: Option<TopicId>,
    /// First sequence number affected.
    pub from_seq: u64,
    /// First sequence number *no longer* affected (`None` = unbounded).
    pub until_seq: Option<u64>,
    /// Per-frame probability in `[0, 1]`; decided by hashing
    /// `(seed, rule, topic, seq)`.
    pub prob: f64,
}

impl CompiledRule {
    /// Whether the rule covers `(topic, seq)` (probability not yet rolled).
    pub fn covers(&self, topic: TopicId, seq: u64) -> bool {
        if let Some(t) = self.topic {
            if t != topic {
                return false;
            }
        }
        seq >= self.from_seq && self.until_seq.is_none_or(|u| seq < u)
    }
}

fn default_messages() -> u64 {
    10
}
fn default_pace_ms() -> u64 {
    20
}
fn default_prob() -> f64 {
    1.0
}
fn default_copies() -> u32 {
    2
}
fn default_interval_ms() -> u64 {
    5
}
fn default_timeout_ms() -> u64 {
    20
}
fn default_subscribers() -> Vec<u32> {
    vec![1]
}

/// One topic the plan drives, mirroring the manifest schema of
/// `frame-cli` (milliseconds for timings, omitted fields defaulted).
#[derive(Clone, Debug, Deserialize)]
pub struct PlanTopic {
    /// Topic id.
    pub id: u32,
    /// Period `T_i` in milliseconds (omit for aperiodic).
    #[serde(default)]
    pub period_ms: Option<u64>,
    /// End-to-end deadline `D_i` in milliseconds.
    pub deadline_ms: u64,
    /// Loss tolerance `L_i` (omit for best-effort).
    #[serde(default)]
    pub loss_tolerance: Option<u32>,
    /// Publisher retention `N_i`.
    #[serde(default)]
    pub retention: u32,
    /// Subscriber ids (defaults to `[1]`).
    #[serde(default = "default_subscribers")]
    pub subscribers: Vec<u32>,
}

impl PlanTopic {
    /// The [`TopicSpec`] this entry describes.
    pub fn spec(&self) -> TopicSpec {
        let loss = match self.loss_tolerance {
            Some(l) => LossTolerance::Consecutive(l),
            None => LossTolerance::BestEffort,
        };
        let mut spec = TopicSpec::new(TopicId(self.id))
            .deadline(Duration::from_millis(self.deadline_ms))
            .loss_tolerance(loss)
            .retention(self.retention);
        if let Some(t) = self.period_ms {
            spec = spec.period(Duration::from_millis(t));
        }
        spec
    }

    /// The subscriber ids as typed ids.
    pub fn subscriber_ids(&self) -> Vec<SubscriberId> {
        self.subscribers.iter().map(|&s| SubscriberId(s)).collect()
    }
}

/// A `[[faults]]` entry as written in TOML, before validation.
#[derive(Clone, Debug, Deserialize)]
pub struct FaultRule {
    /// `publisher_to_primary`, `primary_to_backup`,
    /// `broker_to_subscriber`, `worker`, or `detector`.
    pub hop: String,
    /// `drop`, `delay`, `duplicate`, `truncate`, or `stall`.
    pub action: String,
    /// Topic filter (omit for every topic).
    #[serde(default)]
    pub topic: Option<u32>,
    /// First affected sequence number.
    #[serde(default)]
    pub from_seq: u64,
    /// First unaffected sequence number (exclusive; omit for unbounded).
    #[serde(default)]
    pub until_seq: Option<u64>,
    /// Per-frame probability (default 1.0).
    #[serde(default = "default_prob")]
    pub prob: f64,
    /// Delay in milliseconds for `action = "delay"` with the constant or
    /// jittered source.
    #[serde(default)]
    pub delay_ms: u64,
    /// Delay source: `constant` (default), `jittered`, or `diurnal`.
    #[serde(default)]
    pub delay_model: Option<String>,
    /// Jitter span in milliseconds for the jittered source.
    #[serde(default)]
    pub jitter_ms: u64,
    /// Copy count for `action = "duplicate"` (default 2).
    #[serde(default = "default_copies")]
    pub copies: u32,
    /// Payload cap for `action = "truncate"`.
    #[serde(default)]
    pub truncate_to: usize,
    /// Stall length for `action = "stall"`.
    #[serde(default)]
    pub stall_ms: u64,
}

impl FaultRule {
    fn compile(&self) -> Result<CompiledRule, String> {
        let surface =
            Surface::parse(&self.hop).ok_or_else(|| format!("unknown hop `{}`", self.hop))?;
        let action = match self.action.as_str() {
            "drop" => Action::Drop,
            "delay" => {
                let source = match self.delay_model.as_deref() {
                    None | Some("constant") => {
                        DelaySource::Constant(Duration::from_millis(self.delay_ms))
                    }
                    Some("jittered") => DelaySource::Jittered {
                        base: Duration::from_millis(self.delay_ms),
                        jitter: Duration::from_millis(self.jitter_ms),
                    },
                    Some("diurnal") => DelaySource::Diurnal,
                    Some(other) => return Err(format!("unknown delay_model `{other}`")),
                };
                Action::Delay(source)
            }
            "duplicate" => {
                if self.copies < 2 {
                    return Err("duplicate needs copies >= 2".into());
                }
                Action::Duplicate(self.copies)
            }
            "truncate" => Action::Truncate(self.truncate_to),
            "stall" => Action::Stall(Duration::from_millis(self.stall_ms)),
            other => return Err(format!("unknown action `{other}`")),
        };
        match (surface, action) {
            (Surface::Worker | Surface::Detector, Action::Stall(_)) => {}
            (Surface::Worker | Surface::Detector, _) => {
                return Err(format!(
                    "surface `{}` only supports action = \"stall\"",
                    surface.name()
                ));
            }
            (Surface::Frame(_), Action::Stall(_)) => {
                return Err("action \"stall\" needs hop = \"worker\" or \"detector\"".into());
            }
            (Surface::Frame(_), _) => {}
        }
        if !(0.0..=1.0).contains(&self.prob) {
            return Err(format!("prob {} outside [0, 1]", self.prob));
        }
        Ok(CompiledRule {
            surface,
            action,
            topic: self.topic.map(TopicId),
            from_seq: self.from_seq,
            until_seq: self.until_seq,
            prob: self.prob,
        })
    }
}

/// The `[crash]` section: SIGKILL the Primary right after the publisher
/// has published `(topic, at_seq)` (and its pace gap has elapsed, so the
/// Primary has processed it — keeping the fault set independent of
/// scheduling).
#[derive(Clone, Copy, Debug, Deserialize)]
pub struct CrashRule {
    /// The topic whose sequence numbers anchor the crash.
    pub topic: u32,
    /// Crash after this sequence number is published and paced out.
    pub at_seq: u64,
}

/// The `[detector]` section: failure-detector cadence.
#[derive(Clone, Copy, Debug, Deserialize)]
pub struct DetectorRule {
    /// Liveness poll interval.
    #[serde(default = "default_interval_ms")]
    pub interval_ms: u64,
    /// Silence threshold before declaring the Primary dead.
    #[serde(default = "default_timeout_ms")]
    pub timeout_ms: u64,
}

impl Default for DetectorRule {
    fn default() -> Self {
        DetectorRule {
            interval_ms: default_interval_ms(),
            timeout_ms: default_timeout_ms(),
        }
    }
}

/// The `[check]` section: invariant-checker tolerances.
#[derive(Clone, Copy, Debug, Default, Deserialize)]
pub struct CheckPolicy {
    /// Deadline misses the checker may leave unattributed before failing
    /// the Lemma-2 check (default 0: every miss must be explained by an
    /// injected fault window or the crash-recovery window).
    #[serde(default)]
    pub allow_unexplained_misses: u64,
}

fn default_rounds_per_step() -> u64 {
    1
}
fn default_enter_pressure() -> f64 {
    1.0
}
fn default_exit_pressure() -> f64 {
    0.5
}
fn default_escalate_ticks() -> u32 {
    1
}
fn default_cooldown_ticks() -> u32 {
    2
}

/// The `[overload]` section: a diurnal offered-load ramp plus the tuning
/// of the admission-boundary [`frame_core::OverloadController`] that must
/// ride it out. The ramp is in *publish-round* space: each ramp entry is
/// a burst multiplier (messages published per round per topic), held for
/// `rounds_per_step` rounds, so the offered rate over one round is
/// `burst × topics / pace` — all schedule-determined, which keeps the
/// controller's pressure signal (and therefore every shed/evict/restore
/// decision) byte-reproducible across same-seed runs.
#[derive(Clone, Debug, Deserialize)]
pub struct OverloadRule {
    /// Sustainable admission rate fed to the controller (messages/s);
    /// offered load above it reads as pressure ≥ 1.
    pub capacity_per_sec: f64,
    /// Burst multipliers, one ramp step at a time (the diurnal shape,
    /// e.g. `[1, 2, 4, 2, 1]`).
    pub ramp: Vec<u64>,
    /// Publish rounds each ramp step lasts (default 1).
    #[serde(default = "default_rounds_per_step")]
    pub rounds_per_step: u64,
    /// Pressure at or above which a control tick counts as hot.
    #[serde(default = "default_enter_pressure")]
    pub enter_pressure: f64,
    /// Pressure at or below which a tick counts as cool (hysteresis).
    #[serde(default = "default_exit_pressure")]
    pub exit_pressure: f64,
    /// Consecutive hot ticks before climbing one rung (default 1).
    #[serde(default = "default_escalate_ticks")]
    pub escalate_ticks: u32,
    /// Consecutive cool ticks before descending one rung (default 2).
    #[serde(default = "default_cooldown_ticks")]
    pub cooldown_ticks: u32,
    /// Whether the checker must see the controller actually shed (set on
    /// plans whose ramp is scripted to exceed capacity long enough to
    /// reach rung 2; a ramp that never sheds then fails the run).
    #[serde(default)]
    pub expect_shedding: bool,
}

/// A parsed, validated fault plan.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Plan name (for reports).
    pub name: String,
    /// Messages published per topic (sequence numbers `0..messages`).
    pub messages: u64,
    /// Gap between publish rounds, in milliseconds.
    pub pace_ms: u64,
    /// Topics driven by the run.
    pub topics: Vec<PlanTopic>,
    /// Validated fault rules, in plan order.
    pub rules: Vec<CompiledRule>,
    /// Optional scripted Primary crash.
    pub crash: Option<CrashRule>,
    /// Failure-detector cadence (defaulted when absent).
    pub detector: DetectorRule,
    /// Checker tolerances.
    pub check: CheckPolicy,
    /// Optional offered-load ramp with overload control.
    pub overload: Option<OverloadRule>,
}

/// The raw deserialized document, before cross-field validation.
#[derive(Debug, Deserialize)]
struct RawPlan {
    #[serde(default)]
    name: String,
    #[serde(default = "default_messages")]
    messages: u64,
    #[serde(default = "default_pace_ms")]
    pace_ms: u64,
    topics: Vec<PlanTopic>,
    #[serde(default)]
    faults: Vec<FaultRule>,
    #[serde(default)]
    crash: Option<CrashRule>,
    #[serde(default)]
    detector: Option<DetectorRule>,
    #[serde(default)]
    check: Option<CheckPolicy>,
    #[serde(default)]
    overload: Option<OverloadRule>,
}

impl FaultPlan {
    /// Parses and validates a plan from TOML text.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Injected`]-free parse/validation errors as
    /// [`FrameError::Store`] (the plan is configuration, not traffic).
    pub fn from_toml_str(text: &str) -> Result<FaultPlan, FrameError> {
        let value = crate::toml::parse(text).map_err(FrameError::store)?;
        let raw = RawPlan::from_value(&value).map_err(FrameError::store)?;
        FaultPlan::validate(raw)
    }

    /// Loads and validates a plan file.
    ///
    /// # Errors
    ///
    /// I/O, parse and validation errors.
    pub fn load(path: &std::path::Path) -> Result<FaultPlan, FrameError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| FrameError::store(format!("{}: {e}", path.display())))?;
        FaultPlan::from_toml_str(&text)
    }

    fn validate(raw: RawPlan) -> Result<FaultPlan, FrameError> {
        if raw.topics.is_empty() {
            return Err(FrameError::store("plan has no topics"));
        }
        if raw.messages == 0 {
            return Err(FrameError::store("messages must be at least 1"));
        }
        let ids: Vec<u32> = raw.topics.iter().map(|t| t.id).collect();
        let mut rules = Vec::with_capacity(raw.faults.len());
        for (i, rule) in raw.faults.iter().enumerate() {
            let compiled = rule
                .compile()
                .map_err(|e| FrameError::store(format!("faults[{i}]: {e}")))?;
            if let Some(TopicId(t)) = compiled.topic {
                if !ids.contains(&t) {
                    return Err(FrameError::store(format!(
                        "faults[{i}]: topic {t} is not declared in [[topics]]"
                    )));
                }
            }
            rules.push(compiled);
        }
        if let Some(crash) = &raw.crash {
            if !ids.contains(&crash.topic) {
                return Err(FrameError::store(format!(
                    "crash.topic {} is not declared in [[topics]]",
                    crash.topic
                )));
            }
            if crash.at_seq >= raw.messages {
                return Err(FrameError::store(format!(
                    "crash.at_seq {} is past the last message {}",
                    crash.at_seq,
                    raw.messages - 1
                )));
            }
        }
        if let Some(ov) = &raw.overload {
            if ov.ramp.is_empty() {
                return Err(FrameError::store("overload.ramp must not be empty"));
            }
            if ov.ramp.contains(&0) {
                return Err(FrameError::store("overload.ramp entries must be >= 1"));
            }
            if ov.rounds_per_step == 0 {
                return Err(FrameError::store("overload.rounds_per_step must be >= 1"));
            }
            if ov.capacity_per_sec <= 0.0 {
                return Err(FrameError::store("overload.capacity_per_sec must be > 0"));
            }
            // The ramp *is* the publish schedule: require the declared
            // message count to match it so sequence-space windows (fault
            // rules, the crash trigger, the checker's 0..messages scan)
            // stay meaningful.
            let scheduled: u64 = ov.ramp.iter().sum::<u64>() * ov.rounds_per_step;
            if scheduled != raw.messages {
                return Err(FrameError::store(format!(
                    "messages = {} does not match the overload ramp's schedule \
                     (sum(ramp) x rounds_per_step = {scheduled})",
                    raw.messages
                )));
            }
        }
        Ok(FaultPlan {
            name: raw.name,
            messages: raw.messages,
            pace_ms: raw.pace_ms,
            topics: raw.topics,
            rules,
            crash: raw.crash,
            detector: raw.detector.unwrap_or_default(),
            check: raw.check.unwrap_or_default(),
            overload: raw.overload,
        })
    }

    /// Messages published per topic in each publish round: all ones for
    /// plans without an `[overload]` section, the diurnal ramp otherwise.
    /// `sum(round_bursts()) == messages` by construction.
    pub fn round_bursts(&self) -> Vec<u64> {
        match &self.overload {
            None => vec![1; self.messages as usize],
            Some(ov) => ov
                .ramp
                .iter()
                .flat_map(|&b| std::iter::repeat_n(b, ov.rounds_per_step as usize))
                .collect(),
        }
    }

    /// The burst multiplier of the round that published `seq` (1 when the
    /// plan has no ramp). Sequence numbers past the schedule report the
    /// final round's burst.
    pub fn burst_of_seq(&self, seq: u64) -> u64 {
        let bursts = match &self.overload {
            None => return 1,
            Some(ov) => ov,
        };
        let mut next = 0u64;
        let mut last = 1u64;
        for &b in &bursts.ramp {
            for _ in 0..bursts.rounds_per_step {
                next += b;
                last = b;
                if seq < next {
                    return b;
                }
            }
        }
        last
    }

    /// The period of `topic`, for virtual-time delay sources (aperiodic
    /// topics fall back to the publish pace).
    pub fn period_of(&self, topic: TopicId) -> Duration {
        self.topics
            .iter()
            .find(|t| t.id == topic.0)
            .and_then(|t| t.period_ms)
            .map_or(Duration::from_millis(self.pace_ms), Duration::from_millis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = r#"
        name = "smoke"
        messages = 6
        pace_ms = 10

        [[topics]]
        id = 1
        period_ms = 10
        deadline_ms = 100
        loss_tolerance = 0
        retention = 4
        subscribers = [1]

        [[faults]]
        hop = "primary_to_backup"
        action = "drop"
        topic = 1
        from_seq = 2
        until_seq = 4

        [crash]
        topic = 1
        at_seq = 4

        [detector]
        interval_ms = 5
        timeout_ms = 15
    "#;

    #[test]
    fn full_plan_parses_and_validates() {
        let plan = FaultPlan::from_toml_str(PLAN).unwrap();
        assert_eq!(plan.name, "smoke");
        assert_eq!(plan.messages, 6);
        assert_eq!(plan.topics[0].spec().retention, 4);
        assert_eq!(plan.rules.len(), 1);
        let rule = &plan.rules[0];
        assert_eq!(rule.surface, Surface::Frame(Hop::PrimaryToBackup));
        assert_eq!(rule.action, Action::Drop);
        assert!(rule.covers(TopicId(1), 2) && rule.covers(TopicId(1), 3));
        assert!(!rule.covers(TopicId(1), 4), "until_seq is exclusive");
        assert!(!rule.covers(TopicId(2), 2), "topic filter");
        assert_eq!(plan.crash.unwrap().at_seq, 4);
        assert_eq!(plan.detector.timeout_ms, 15);
        assert_eq!(plan.check.allow_unexplained_misses, 0);
    }

    #[test]
    fn bad_plans_are_rejected() {
        assert!(
            FaultPlan::from_toml_str("messages = 3").is_err(),
            "no topics"
        );
        let bad_hop = PLAN.replace("primary_to_backup", "warp_drive");
        assert!(FaultPlan::from_toml_str(&bad_hop).is_err());
        let bad_action = PLAN.replace("\"drop\"", "\"melt\"");
        assert!(FaultPlan::from_toml_str(&bad_action).is_err());
        let bad_crash = PLAN.replace("at_seq = 4", "at_seq = 99");
        assert!(FaultPlan::from_toml_str(&bad_crash).is_err());
        let bad_topic = PLAN.replace("topic = 1\n        from_seq", "topic = 9\n        from_seq");
        assert!(FaultPlan::from_toml_str(&bad_topic).is_err());
    }

    #[test]
    fn overload_ramp_parses_and_schedules_bursts() {
        let text = r#"
            messages = 16
            pace_ms = 10

            [[topics]]
            id = 1
            deadline_ms = 100

            [overload]
            capacity_per_sec = 400.0
            ramp = [1, 2, 4, 1]
            rounds_per_step = 2
            expect_shedding = true
        "#;
        let plan = FaultPlan::from_toml_str(text).unwrap();
        let ov = plan.overload.as_ref().unwrap();
        assert_eq!(ov.escalate_ticks, 1, "defaulted");
        assert_eq!(ov.cooldown_ticks, 2, "defaulted");
        assert!(ov.expect_shedding);
        let bursts = plan.round_bursts();
        assert_eq!(bursts, vec![1, 1, 2, 2, 4, 4, 1, 1]);
        assert_eq!(bursts.iter().sum::<u64>(), plan.messages);
        // seq → burst of the publishing round: seqs 0,1 are the two
        // burst-1 rounds; 2..5 the burst-2 rounds; 6..13 burst-4; 14,15
        // the closing burst-1 rounds.
        assert_eq!(plan.burst_of_seq(0), 1);
        assert_eq!(plan.burst_of_seq(3), 2);
        assert_eq!(plan.burst_of_seq(6), 4);
        assert_eq!(plan.burst_of_seq(13), 4);
        assert_eq!(plan.burst_of_seq(14), 1);

        let mismatched = text.replace("messages = 16", "messages = 10");
        assert!(FaultPlan::from_toml_str(&mismatched).is_err());
        let zero_burst = text.replace("[1, 2, 4, 1]", "[1, 0, 4, 1]");
        assert!(FaultPlan::from_toml_str(&zero_burst).is_err());
        let no_capacity = text.replace("capacity_per_sec = 400.0", "capacity_per_sec = 0.0");
        assert!(FaultPlan::from_toml_str(&no_capacity).is_err());
    }

    #[test]
    fn plans_without_overload_publish_one_per_round() {
        let plan = FaultPlan::from_toml_str(PLAN).unwrap();
        assert!(plan.overload.is_none());
        assert_eq!(plan.round_bursts(), vec![1; 6]);
        assert_eq!(plan.burst_of_seq(3), 1);
    }

    #[test]
    fn stall_is_surface_checked() {
        let worker = r#"
            [[topics]]
            id = 1
            deadline_ms = 100

            [[faults]]
            hop = "worker"
            action = "stall"
            stall_ms = 5
        "#;
        let plan = FaultPlan::from_toml_str(worker).unwrap();
        assert_eq!(plan.rules[0].surface, Surface::Worker);
        let bad = worker.replace("\"stall\"", "\"drop\"");
        assert!(FaultPlan::from_toml_str(&bad).is_err());
        let bad2 = worker.replace("\"worker\"", "\"publisher_to_primary\"");
        assert!(FaultPlan::from_toml_str(&bad2).is_err());
    }
}
