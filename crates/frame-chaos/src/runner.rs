//! The chaos runner: executes a [`FaultPlan`] against a live
//! [`RtSystem`] and hands the evidence to the invariant checker.
//!
//! The runner owns everything the plan leaves to the harness: building
//! the system with the injector installed, driving the publish schedule,
//! pulling the crash trigger at its scripted sequence number, draining
//! subscriber channels, and assembling the [`ChaosEvidence`]. Faults
//! themselves are the injector's business — the runner never flips a coin.
//!
//! Time is *logical*: the runner injects a [`SimClock`] into the system
//! and advances it in detector-interval sub-steps, waiting between steps
//! (on the wall clock) until the brokers have quiesced. Every publish,
//! delivery, failure-detector poll, promotion and metrics sample is
//! therefore stamped at a schedule-determined instant — which is what
//! makes the `metrics.jsonl` timeline byte-identical across same-seed
//! runs of a delay-free plan, and the promotion/deadline-miss set
//! deterministic for every plan.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use frame_clock::{Clock, SimClock};
use frame_core::{BrokerConfig, OverloadConfig};
use frame_obs::{HealthConfig, Sampler, SamplerConfig, TimelinePoint};
use frame_rt::{FaultHook, RtPublisher, RtSystem};
use frame_telemetry::{HeartbeatKind, IncidentKind, Stage, Telemetry};
use frame_types::{Duration, FrameError, NetworkParams, PublisherId, SubscriberId, Time, TopicId};

use crate::inject::{ChaosInjector, InjectedFault};
use crate::invariant::{self, ArrivalOrder, ChaosEvidence, DeliveryCounts, Verdict};
use crate::plan::{Action, DelaySource, FaultPlan};

/// Everything a finished chaos run produces.
pub struct ChaosReport {
    /// The invariant checker's verdict.
    pub verdict: Verdict,
    /// The deterministic injected-fault log.
    pub incidents: Vec<InjectedFault>,
    /// The same log as byte-stable JSONL (the CI artifact).
    pub incidents_jsonl: String,
    /// Messages delivered per `(subscriber, topic)` pair.
    pub delivered: DeliveryCounts,
    /// Deadline misses observed by the flight recorder.
    pub deadline_misses: usize,
    /// The metrics timeline, one point per logical sub-step.
    pub timeline: Vec<TimelinePoint>,
    /// The timeline as JSONL (the `metrics.jsonl` artifact) —
    /// byte-identical across same-seed runs of a delay-free plan.
    pub metrics_jsonl: String,
    /// `(topic, seq)` shed by the overload controller, in order.
    pub sheds: Vec<(u32, u64)>,
}

/// How long a broker must hold a stable counter fingerprint (wall time)
/// before a sub-step is considered quiesced. Scripted wall-clock delays
/// (delayed frames, stalled workers) widen the window so a parked frame
/// always lands inside the sub-step that scheduled it.
fn stability_window(plan: &FaultPlan) -> StdDuration {
    let mut slack_ms = 0u64;
    for rule in &plan.rules {
        let bound = match rule.action {
            Action::Delay(DelaySource::Constant(d)) => d.as_millis(),
            Action::Delay(DelaySource::Jittered { base, jitter }) => {
                base.as_millis() + jitter.as_millis()
            }
            // The diurnal model replays Fig 8's cloud envelope; bound it
            // by the envelope's worst case rather than computing it.
            Action::Delay(DelaySource::Diurnal) => 60,
            Action::Stall(d) => d.as_millis(),
            Action::Drop | Action::Duplicate(_) | Action::Truncate(_) => 0,
        };
        slack_ms = slack_ms.max(bound);
    }
    StdDuration::from_millis((3 + slack_ms).min(200))
}

/// The live run state: the system under test plus the logical clock, the
/// synchronous failure detector, and the metrics sampler.
struct Driver {
    sys: RtSystem,
    publisher: Arc<RtPublisher>,
    clock: SimClock,
    telemetry: Telemetry,
    injector: Arc<ChaosInjector>,
    sampler: Sampler,
    timeline: Vec<TimelinePoint>,
    metrics_jsonl: String,
    stable_window: StdDuration,
    detector_timeout_ms: u64,
    lt_ms: u64,
    last_ack_ms: u64,
    stall_until_ms: u64,
    promoted: bool,
    /// Overload control-tick cadence in logical ms (0 = no controller).
    /// One tick per publish round keeps the differentiated offered-rate
    /// signal aligned with the ramp instead of the sub-step grain.
    control_cadence_ms: u64,
    next_control_ms: u64,
    /// `LoadShed` incidents seen so far, accumulated every sub-step so
    /// the flight recorder's bounded incident ring cannot age them out
    /// before the checker reads them.
    sheds: BTreeSet<(u32, u64)>,
    /// Same accumulation for `DeadlineMiss` incidents.
    misses: BTreeSet<(u32, u64)>,
}

impl Driver {
    /// One logical sub-step: advance the clock, wait for the brokers to
    /// quiesce, run any due overload control tick, sample the metrics
    /// timeline, then run one detector round. Sampling *before* the
    /// detector acts makes a crash window visible as `Degraded` at the
    /// very sub-step that detects it; ticking the controller before
    /// sampling makes every rung change visible at the sub-step that
    /// decided it.
    fn sub_step(&mut self, dt_ms: u64) {
        self.lt_ms += dt_ms;
        self.clock.advance_to(Time::from_millis(self.lt_ms));
        self.quiesce();
        if self.control_cadence_ms > 0 && self.lt_ms >= self.next_control_ms {
            self.sys
                .primary
                .control_tick_at(Time::from_millis(self.lt_ms));
            while self.next_control_ms <= self.lt_ms {
                self.next_control_ms += self.control_cadence_ms;
            }
        }
        let point = self
            .sampler
            .observe(&self.telemetry.snapshot(), Time::from_millis(self.lt_ms));
        let tp = TimelinePoint::from_sample(&point);
        self.metrics_jsonl.push_str(&tp.to_json_line());
        self.metrics_jsonl.push('\n');
        self.timeline.push(tp);
        self.drain_incidents();
        self.detector_step();
    }

    /// Copies the flight recorder's current shed/miss incidents into the
    /// run-long accumulators (the ring is bounded; a long ramp would
    /// otherwise evict early evidence).
    fn drain_incidents(&mut self) {
        for i in &self.telemetry.flight_snapshot().incidents {
            match i.kind {
                IncidentKind::LoadShed => {
                    self.sheds.insert((i.topic.0, i.seq.0));
                }
                IncidentKind::DeadlineMiss => {
                    self.misses.insert((i.topic.0, i.seq.0));
                }
                _ => {}
            }
        }
    }

    /// Waits (wall time) until the counter fingerprint has been stable for
    /// the plan's stability window, so everything in flight at this
    /// logical instant has landed before it is sampled.
    fn quiesce(&self) {
        let cap = std::time::Instant::now() + StdDuration::from_millis(400);
        let mut last = self.fingerprint();
        let mut stable_since = std::time::Instant::now();
        loop {
            std::thread::sleep(StdDuration::from_millis(1));
            let now = std::time::Instant::now();
            let cur = self.fingerprint();
            if cur != last {
                last = cur;
                stable_since = now;
            } else if now.duration_since(stable_since) >= self.stable_window {
                return;
            }
            if now >= cap {
                return;
            }
        }
    }

    /// Every counter that moves when work is in flight — deliberately
    /// excluding heartbeats (they beat while idle) and latency histograms
    /// (their values are what we're waiting on, not whether work remains).
    fn fingerprint(&self) -> String {
        let snap = self.telemetry.snapshot();
        let slos: Vec<(u32, u64, u64, u64, u64)> = snap
            .slos
            .iter()
            .map(|s| {
                (
                    s.topic.0,
                    s.delivered,
                    s.deadline_misses,
                    s.lost,
                    s.loss_bound_violations,
                )
            })
            .collect();
        let queues: Vec<(u32, u64)> = snap.queues.iter().map(|q| (q.broker.0, q.depth)).collect();
        let decisions: Vec<(&str, u64)> = snap
            .decisions
            .iter()
            .map(|d| (d.kind.name(), d.count))
            .collect();
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{}",
            self.sys.primary.stats(),
            self.sys.backup.stats(),
            snap.admits,
            slos,
            queues,
            decisions,
            snap.incident_count,
        )
    }

    /// One failure-detector round at the current logical instant: poll the
    /// Primary, and declare the crash once the logical silence exceeds the
    /// plan's timeout — then promote the Backup and trigger the
    /// publisher's retention re-send, exactly like the wall-clock
    /// coordinator, but at a schedule-determined time.
    fn detector_step(&mut self) {
        if self.promoted {
            return;
        }
        let now = Time::from_millis(self.lt_ms);
        self.telemetry.heartbeat(HeartbeatKind::Detector, now);
        if self.lt_ms < self.stall_until_ms {
            return;
        }
        if let Some(stall) = self.injector.on_detector_poll() {
            // A scripted detector stall postpones polls in *logical* time,
            // stretching the realized fail-over deterministically.
            self.stall_until_ms = self.lt_ms + stall.as_millis() as u64;
            return;
        }
        if self.sys.poll_primary() {
            self.last_ack_ms = self.lt_ms;
            self.telemetry.heartbeat(HeartbeatKind::PrimaryAck, now);
        } else if self.lt_ms.saturating_sub(self.last_ack_ms) >= self.detector_timeout_ms {
            let silence = Duration::from_millis(self.lt_ms - self.last_ack_ms);
            self.telemetry
                .record_stage(Stage::FailoverDetection, silence);
            let _ = self.sys.backup.promote();
            // Promotion runs synchronously while the clock is parked, so
            // its logical duration is zero by construction.
            self.telemetry
                .record_stage(Stage::Promotion, Duration::ZERO);
            self.publisher.fail_over();
            self.promoted = true;
        }
    }
}

/// Runs `plan` with `seed`: builds a Primary/Backup pair with the seeded
/// injector installed and a logical clock, publishes the schedule
/// (crashing the Primary where scripted), samples the metrics timeline at
/// every detector sub-step, drains deliveries, and checks every
/// invariant.
///
/// # Errors
///
/// Admission rejections and system construction failures; a failed
/// *invariant* is not an error — it is a [`Verdict`] with
/// `passed == false`.
pub fn run(plan: &FaultPlan, seed: u64) -> Result<ChaosReport, FrameError> {
    let telemetry = Telemetry::new();
    let injector = ChaosInjector::new(plan.clone(), seed, telemetry.clone());
    let clock = SimClock::new();
    let mut builder = RtSystem::builder(BrokerConfig::frame())
        .telemetry(telemetry.clone())
        .clock(Arc::new(clock.clone()))
        .chaos(injector.clone() as Arc<dyn FaultHook>);
    if let Some(ov) = &plan.overload {
        // Manual mode: the driver ticks the controller at deterministic
        // logical instants (one per publish round), so every rung change
        // and shed decision is schedule-determined.
        builder = builder.overload_manual(OverloadConfig {
            capacity_per_sec: ov.capacity_per_sec,
            target_queue_depth: 0, // quiesced samples always read empty
            enter_pressure: ov.enter_pressure,
            exit_pressure: ov.exit_pressure,
            escalate_ticks: ov.escalate_ticks,
            cooldown_ticks: ov.cooldown_ticks,
            tick_interval: Duration::from_millis(plan.pace_ms.max(1)),
            ..OverloadConfig::new(NetworkParams::paper_example())
        });
    }
    let mut sys = builder.start()?;

    let mut specs = Vec::new();
    for topic in &plan.topics {
        let spec = topic.spec();
        sys.add_topic(spec, topic.subscriber_ids())?;
        specs.push(spec);
    }
    let publisher = sys.add_publisher(PublisherId(0), &specs)?;

    // One channel per distinct subscriber id across all topics.
    let mut subscribers: Vec<u32> = plan
        .topics
        .iter()
        .flat_map(|t| t.subscribers.iter().copied())
        .collect();
    subscribers.sort_unstable();
    subscribers.dedup();
    let receivers: Vec<(u32, crossbeam::channel::Receiver<frame_rt::Delivered>)> = subscribers
        .iter()
        .map(|&s| (s, sys.subscribe(SubscriberId(s))))
        .collect();

    // No wall-clock fail-over coordinator: the driver below runs one
    // detector round per logical sub-step instead, so detection and
    // promotion land at schedule-determined instants.
    let interval_ms = plan.detector.interval_ms.max(1);
    let sampler = Sampler::new(SamplerConfig {
        cadence: Duration::from_millis(interval_ms),
        health: HealthConfig {
            // Two missed polls of logical silence reads as a Degraded
            // Primary — tight enough that the crash window is visible in
            // the sampled health verdict before promotion heals it.
            primary_silence: Duration::from_millis(2 * interval_ms),
            ..HealthConfig::default()
        },
        ..SamplerConfig::default()
    });
    let control_cadence_ms = plan.overload.as_ref().map_or(0, |_| plan.pace_ms.max(1));
    let mut driver = Driver {
        stable_window: stability_window(plan),
        detector_timeout_ms: plan.detector.timeout_ms,
        sys,
        publisher,
        clock,
        telemetry: telemetry.clone(),
        injector: injector.clone(),
        sampler,
        timeline: Vec::new(),
        metrics_jsonl: String::new(),
        lt_ms: 0,
        last_ack_ms: 0,
        stall_until_ms: 0,
        promoted: false,
        control_cadence_ms,
        // First control tick at the first round boundary: it establishes
        // the rate baseline; from then on every tick differentiates the
        // offered counters over exactly one round.
        next_control_ms: control_cadence_ms,
        sheds: BTreeSet::new(),
        misses: BTreeSet::new(),
    };

    // Drive the schedule: one publish round per ramp burst (one message
    // per topic per round without an [overload] section), advanced in
    // detector-interval sub-steps so the Primary has processed a round
    // before the next one — and, crucially, before a scripted crash. That
    // keeps the set of frames that crossed each hop (and so the incident
    // and metrics logs) schedule-determined rather than race-determined.
    let mut crashed = false;
    let mut next_seq = 0u64;
    for burst in plan.round_bursts() {
        for _ in 0..burst {
            for topic in &plan.topics {
                let payload = format!("{:016}", next_seq).into_bytes();
                // Publishing into a crashed Primary is part of the
                // scenario: the message lands in the retention buffer and
                // is re-sent on fail-over, so a send error here is
                // evidence, not a bug.
                let _ = driver.publisher.publish(TopicId(topic.id), payload);
            }
            next_seq += 1;
            // Let each burst iteration land before the next, so what each
            // sub-step samples is schedule-determined, not race-determined
            // (per-topic delivery order itself is kept by the broker's
            // per-topic claim; `in_order_delivery` checks it). Offered-rate
            // pressure is counter-based, so the overload controller sees
            // the burst all the same.
            driver.quiesce();
        }
        let mut remaining = plan.pace_ms.max(1);
        while remaining > 0 {
            let dt = interval_ms.min(remaining);
            driver.sub_step(dt);
            remaining -= dt;
        }
        if let Some(crash) = plan.crash {
            if !crashed && crash.at_seq < next_seq {
                crashed = true;
                driver.sys.crash_primary();
                telemetry.incident(
                    IncidentKind::FaultInjected,
                    TopicId(crash.topic),
                    frame_types::SeqNo(crash.at_seq),
                    driver.clock.now(),
                    format!("scripted Primary crash after seq {}", crash.at_seq),
                );
            }
        }
    }

    // Settle: keep stepping until a crash in the last rounds has been
    // detected, promoted and re-delivered, with deadline slack on top.
    let deadline_ms = plan
        .topics
        .iter()
        .map(|t| t.deadline_ms)
        .max()
        .unwrap_or(100);
    let mut remaining = plan.detector.timeout_ms + interval_ms + deadline_ms;
    while remaining > 0 {
        let dt = interval_ms.min(remaining);
        driver.sub_step(dt);
        remaining -= dt;
    }

    // Everything has quiesced; the channels just need emptying.
    let mut delivered: DeliveryCounts = BTreeMap::new();
    let mut arrivals: ArrivalOrder = BTreeMap::new();
    for (sub, rx) in &receivers {
        while let Ok(d) = rx.recv_timeout(StdDuration::from_millis(100)) {
            let key = (*sub, d.message.topic.0);
            let count = delivered
                .entry(key)
                .or_default()
                .entry(d.message.seq.0)
                .or_insert(0);
            if *count == 0 {
                arrivals.entry(key).or_default().push(d.message.seq.0);
            }
            *count += 1;
        }
    }

    // One final drain so anything recorded after the last sub-step's scan
    // (channel-emptying above cannot create incidents, but belt and
    // braces) is in the accumulators.
    driver.drain_incidents();
    let Driver {
        sys,
        timeline,
        metrics_jsonl,
        sheds,
        misses,
        ..
    } = driver;
    sys.shutdown();

    let deadline_misses: Vec<(u32, u64)> = misses.into_iter().collect();
    let sheds: Vec<(u32, u64)> = sheds.into_iter().collect();
    let evidence = ChaosEvidence {
        delivered: delivered.clone(),
        arrivals,
        backup_order: injector.backup_order(),
        deadline_misses: deadline_misses.clone(),
        sheds: sheds.clone(),
    };
    let verdict = invariant::check(plan, &evidence);
    Ok(ChaosReport {
        verdict,
        incidents: injector.incident_log(),
        incidents_jsonl: injector.incident_jsonl(),
        delivered,
        deadline_misses: deadline_misses.len(),
        timeline,
        metrics_jsonl,
        sheds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_passes_all_invariants() {
        let plan = FaultPlan::from_toml_str(
            r#"
            messages = 5
            pace_ms = 5

            [[topics]]
            id = 1
            period_ms = 10
            deadline_ms = 200
            loss_tolerance = 0
            retention = 6
            subscribers = [1]
        "#,
        )
        .unwrap();
        let report = run(&plan, 1).unwrap();
        assert!(report.verdict.passed, "{}", report.verdict.render());
        assert!(report.incidents.is_empty(), "no faults scripted");
        let counts = report.delivered.get(&(1, 1)).expect("deliveries");
        assert_eq!(counts.len(), 5, "all seqs delivered");
        // The timeline sampled the run: cumulative deliveries end at 5,
        // and a healthy run never leaves the healthy verdict.
        let last = report.timeline.last().expect("timeline sampled");
        assert_eq!(last.delivered, 5);
        assert!(report.timeline.iter().all(|p| p.health == "healthy"));
        assert_eq!(report.metrics_jsonl.lines().count(), report.timeline.len());
    }

    #[test]
    fn overload_ramp_degrades_on_the_ladder_and_replays_byte_identically() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/plans/overload_ramp.toml");
        let plan = FaultPlan::load(&path).unwrap();
        let a = run(&plan, 7).unwrap();
        assert!(a.verdict.passed, "{}", a.verdict.render());

        // The ramp forced real shedding, every drop attributed — and the
        // hard topic (L_i = 0) was never touched.
        assert!(!a.sheds.is_empty(), "scripted ramp must shed");
        assert!(
            a.sheds.iter().all(|&(topic, _)| topic != 1),
            "hard topic shed: {:?}",
            a.sheds
        );

        // The ladder climbed to eviction at the peak and de-escalated
        // back to normal service once the ramp drained.
        let peak = a.timeline.iter().map(|p| p.rung).max().unwrap_or(0);
        assert_eq!(peak, 3, "peak rung");
        assert_eq!(a.timeline.last().unwrap().rung, 0, "settled to normal");
        // Degradation is visible in the sampled health verdict while the
        // rung is raised (the `Degraded` overload reason).
        assert!(a
            .timeline
            .iter()
            .any(|p| p.rung > 0 && p.health == "degraded"));

        // Same plan + same seed ⇒ byte-identical artifacts (the chaos
        // gauntlet's reproducibility bar, now including control ticks).
        let b = run(&plan, 7).unwrap();
        assert_eq!(a.incidents_jsonl, b.incidents_jsonl);
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl);
        assert_eq!(a.sheds, b.sheds);
    }

    #[test]
    fn dropped_deliveries_break_lemma1_and_the_checker_sees_it() {
        // Sever broker→subscriber for 3 consecutive seqs on an L_i = 0
        // topic with no recovery path for dispatches: the loss bound MUST
        // fail — proving the checker reads subscriber-side truth, not the
        // broker's belief.
        let plan = FaultPlan::from_toml_str(
            r#"
            messages = 6
            pace_ms = 5

            [[topics]]
            id = 1
            period_ms = 10
            deadline_ms = 200
            loss_tolerance = 0
            retention = 6
            subscribers = [1]

            [[faults]]
            hop = "broker_to_subscriber"
            action = "drop"
            topic = 1
            from_seq = 2
            until_seq = 5
        "#,
        )
        .unwrap();
        let report = run(&plan, 3).unwrap();
        assert!(!report.verdict.passed);
        let lemma1 = &report.verdict.checks[0];
        assert!(!lemma1.passed);
        assert!(lemma1.detail.contains("3 consecutive"), "{}", lemma1.detail);
        assert_eq!(report.incidents.len(), 3, "three dropped frames logged");
    }
}
