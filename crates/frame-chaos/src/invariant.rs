//! The post-run invariant checker: replays a chaos run's evidence and
//! asserts the paper's guarantees held *despite* the injected faults.
//!
//! One check per guarantee:
//!
//! * **Lemma 1 (loss bound)** — for every topic with a finite `L_i`, no
//!   subscriber observed more than `L_i` consecutive missing sequence
//!   numbers. Evidence: the per-subscriber delivered-sequence sets
//!   collected at the runner's channel ends (subscriber-side truth, so a
//!   broker→subscriber drop counts as a loss even though the broker
//!   believes it delivered).
//! * **Lemma 2 (deadline budget)** — every recorded deadline miss is
//!   attributable to an injected fault window or to the crash-recovery
//!   window; a miss with no scripted cause means the budget decomposition
//!   leaks somewhere. Evidence: `DeadlineMiss` incidents from the flight
//!   recorder.
//! * **Table 3 (replica before prune)** — in the Primary's emission
//!   stream, no `(topic, seq)` is ever pruned before it was replicated.
//!   Evidence: the injector's emission-order observations, captured while
//!   the emitting worker holds the topic's claim.
//! * **Exactly-once dispatch** — without a crash or scripted duplication,
//!   every delivered sequence arrives exactly once; with them, duplicates
//!   are allowed only where the script explains them (fail-over re-sends
//!   of retained messages, `duplicate` fault windows).
//! * **Per-topic order** — each subscriber sees a topic's sequence numbers
//!   first arrive in increasing order, unless a scripted cause explains
//!   the inversion. Every seq-gap loss counter assumes this order.
//!   Evidence: first arrivals in channel order, per subscriber and topic.

use std::collections::BTreeMap;

use frame_rt::BackupEffectKind;
use frame_types::{LossTolerance, TopicId};
use serde::Serialize;

use crate::inject::BackupObservation;
use crate::plan::{Action, FaultPlan, Surface};

/// Delivery counts per subscriber: `(subscriber, topic) → seq → count`.
pub type DeliveryCounts = BTreeMap<(u32, u32), BTreeMap<u64, u32>>;

/// First arrivals per subscriber: `(subscriber, topic) → seqs`, in the
/// order the subscriber's channel yielded them (duplicates left out).
pub type ArrivalOrder = BTreeMap<(u32, u32), Vec<u64>>;

/// Everything the checker replays.
pub struct ChaosEvidence {
    /// Subscriber-side delivery counts from the runner's channels.
    pub delivered: DeliveryCounts,
    /// Subscriber-side first arrivals, in channel order.
    pub arrivals: ArrivalOrder,
    /// Primary→Backup emission order from the injector.
    pub backup_order: Vec<BackupObservation>,
    /// `(topic, seq)` of every `DeadlineMiss` incident in the flight
    /// recorder.
    pub deadline_misses: Vec<(u32, u64)>,
    /// `(topic, seq)` of every `LoadShed` incident — the overload
    /// controller's admission-boundary drops (rung 2) and eviction
    /// rejections (rung 3), accumulated across the run.
    pub sheds: Vec<(u32, u64)>,
}

/// One check's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct CheckResult {
    /// Stable check name.
    pub name: String,
    /// Whether the invariant held.
    pub passed: bool,
    /// What was verified or how it failed.
    pub detail: String,
}

/// The run's verdict: all checks, pass only if every one passed.
#[derive(Clone, Debug, Serialize)]
pub struct Verdict {
    /// Conjunction of all checks.
    pub passed: bool,
    /// Individual results, in fixed order.
    pub checks: Vec<CheckResult>,
}

impl Verdict {
    /// A one-line rendering per check plus the final word.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(if c.passed { "PASS " } else { "FAIL " });
            out.push_str(&c.name);
            out.push_str(": ");
            out.push_str(&c.detail);
            out.push('\n');
        }
        out.push_str(if self.passed {
            "verdict: PASS\n"
        } else {
            "verdict: FAIL\n"
        });
        out
    }
}

/// Runs every invariant check against the evidence.
pub fn check(plan: &FaultPlan, evidence: &ChaosEvidence) -> Verdict {
    let checks = vec![
        check_loss_bound(plan, evidence),
        check_deadline_budget(plan, evidence),
        check_table3_order(evidence),
        check_dispatch_multiplicity(plan, evidence),
        check_overload_ladder(plan, evidence),
        check_in_order_delivery(plan, evidence),
    ];
    Verdict {
        passed: checks.iter().all(|c| c.passed),
        checks,
    }
}

/// Longest run of consecutive missing sequence numbers in `0..messages`.
fn longest_loss_run(delivered: &BTreeMap<u64, u32>, messages: u64) -> u64 {
    let mut worst = 0u64;
    let mut run = 0u64;
    for seq in 0..messages {
        if delivered.contains_key(&seq) {
            run = 0;
        } else {
            run += 1;
            worst = worst.max(run);
        }
    }
    worst
}

/// Lemma 1: per topic, per subscriber, consecutive losses ≤ `L_i`.
fn check_loss_bound(plan: &FaultPlan, evidence: &ChaosEvidence) -> CheckResult {
    let mut failures = Vec::new();
    let mut verified = 0usize;
    for topic in &plan.topics {
        let bound = match topic.spec().loss_tolerance {
            LossTolerance::Consecutive(l) => u64::from(l),
            LossTolerance::BestEffort => continue,
        };
        for &sub in &topic.subscribers {
            let empty = BTreeMap::new();
            let delivered = evidence.delivered.get(&(sub, topic.id)).unwrap_or(&empty);
            let worst = longest_loss_run(delivered, plan.messages);
            verified += 1;
            if worst > bound {
                failures.push(format!(
                    "topic {} subscriber {}: {} consecutive losses > L_i {}",
                    topic.id, sub, worst, bound
                ));
            }
        }
    }
    CheckResult {
        name: "lemma1_loss_bound".into(),
        passed: failures.is_empty(),
        detail: if failures.is_empty() {
            format!("{verified} subscriber/topic pairs within L_i")
        } else {
            failures.join("; ")
        },
    }
}

/// Whether a deadline miss at `(topic, seq)` has a scripted explanation.
fn miss_is_explained(plan: &FaultPlan, topic: u32, seq: u64) -> bool {
    // Any fault rule whose window covers the message perturbs its path
    // (a delayed/dropped/stalled frame legitimately misses; a dropped
    // replica forces recovery work). Detector stalls stretch fail-over
    // and so explain misses anywhere once a crash is scripted.
    for rule in &plan.rules {
        match rule.surface {
            Surface::Frame(_) | Surface::Worker => {
                if rule.covers(TopicId(topic), seq) {
                    return true;
                }
            }
            Surface::Detector => {
                if plan.crash.is_some() {
                    return true;
                }
            }
        }
    }
    // Crash recovery: messages retained at the crash (the `N_i` newest at
    // `at_seq`) plus everything published during the fail-over blackout
    // re-arrive late by up to `x + ΔBB`; their misses are the scripted
    // fail-over cost, not a budget leak.
    if let Some(crash) = plan.crash {
        let retention = plan
            .topics
            .iter()
            .find(|t| t.id == topic)
            .map_or(0, |t| u64::from(t.retention));
        if seq + retention >= crash.at_seq {
            return true;
        }
    }
    // Scripted overload: a message published in a burst round arrived as
    // part of offered load deliberately past capacity — its miss is the
    // ramp's cost, and the overload check (not Lemma 2) judges whether
    // the controller degraded acceptably.
    if plan.overload.is_some() && plan.burst_of_seq(seq) > 1 {
        return true;
    }
    false
}

/// Lemma 2: every deadline miss is attributable to a scripted fault.
fn check_deadline_budget(plan: &FaultPlan, evidence: &ChaosEvidence) -> CheckResult {
    let unexplained: Vec<&(u32, u64)> = evidence
        .deadline_misses
        .iter()
        .filter(|(topic, seq)| !miss_is_explained(plan, *topic, *seq))
        .collect();
    let allowed = plan.check.allow_unexplained_misses;
    let passed = unexplained.len() as u64 <= allowed;
    CheckResult {
        name: "lemma2_deadline_budget".into(),
        passed,
        detail: if passed {
            "all deadline misses attributed to scripted faults".to_string()
        } else {
            format!(
                "{} unexplained deadline misses (allowed {allowed}), first at {:?}",
                unexplained.len(),
                unexplained[0]
            )
        },
    }
}

/// Table 3: a prune never precedes its replica in the emission stream.
fn check_table3_order(evidence: &ChaosEvidence) -> CheckResult {
    let mut replicated: std::collections::BTreeSet<(u32, u64)> = Default::default();
    let mut violations = Vec::new();
    for obs in &evidence.backup_order {
        let key = (obs.topic.0, obs.seq.0);
        match obs.kind {
            BackupEffectKind::Replica => {
                replicated.insert(key);
            }
            BackupEffectKind::Prune => {
                if !replicated.contains(&key) {
                    violations.push(format!(
                        "prune for topic {} seq {} emitted before its replica",
                        key.0, key.1
                    ));
                }
            }
        }
    }
    CheckResult {
        name: "table3_replica_before_prune".into(),
        passed: violations.is_empty(),
        detail: if violations.is_empty() {
            format!(
                "{} backup effects in replica-before-prune order",
                evidence.backup_order.len()
            )
        } else {
            violations.join("; ")
        },
    }
}

/// Whether duplicate deliveries of `(topic, seq)` have a scripted cause.
fn duplicate_is_explained(plan: &FaultPlan, topic: u32, seq: u64) -> bool {
    for rule in &plan.rules {
        if let (Surface::Frame(_), Action::Duplicate(_)) = (rule.surface, rule.action) {
            if rule.covers(TopicId(topic), seq) {
                return true;
            }
        }
    }
    if let Some(crash) = plan.crash {
        // Fail-over re-sends the publisher's retained window; the Backup
        // may re-dispatch anything whose prune was lost with the Primary.
        let retention = plan
            .topics
            .iter()
            .find(|t| t.id == topic)
            .map_or(0, |t| u64::from(t.retention));
        if seq + retention >= crash.at_seq {
            return true;
        }
    }
    false
}

/// Exactly-once: duplicates only where the script explains them.
fn check_dispatch_multiplicity(plan: &FaultPlan, evidence: &ChaosEvidence) -> CheckResult {
    let mut violations = Vec::new();
    let mut singles = 0usize;
    for ((sub, topic), counts) in &evidence.delivered {
        for (&seq, &count) in counts {
            if count == 1 {
                singles += 1;
            } else if !duplicate_is_explained(plan, *topic, seq) {
                violations.push(format!(
                    "topic {topic} seq {seq} delivered {count}x to subscriber {sub}"
                ));
            }
        }
    }
    CheckResult {
        name: "exactly_once_dispatch".into(),
        passed: violations.is_empty(),
        detail: if violations.is_empty() {
            format!("{singles} deliveries exactly-once; duplicates all scripted")
        } else {
            violations.join("; ")
        },
    }
}

/// Whether a missing `(topic, seq)` has a non-overload scripted cause: a
/// fault rule perturbing its frame path, or the crash-recovery window.
fn loss_has_fault_cause(plan: &FaultPlan, topic: u32, seq: u64) -> bool {
    for rule in &plan.rules {
        if matches!(rule.surface, Surface::Frame(_)) && rule.covers(TopicId(topic), seq) {
            return true;
        }
    }
    if let Some(crash) = plan.crash {
        let retention = plan
            .topics
            .iter()
            .find(|t| t.id == topic)
            .map_or(0, |t| u64::from(t.retention));
        if seq + retention >= crash.at_seq {
            return true;
        }
    }
    false
}

/// Per-topic order: for every (subscriber, topic), sequence numbers first
/// arrive strictly increasing. An inversion — a seq arriving after a
/// larger one — is explained only when one of its two seqs has a scripted
/// cause by [`loss_has_fault_cause`]: a frame-surface fault rule (a
/// delayed, duplicated or dropped frame may be overtaken), or the
/// crash-recovery window. The crash exemption exists because a promoted
/// Backup's recovery jobs and the publishers' re-sends share one EDF
/// queue, so a re-send can overtake the recovery of an older seq; the
/// cross-promotion ordering contract is still open (ROADMAP item 7(c)).
fn check_in_order_delivery(plan: &FaultPlan, evidence: &ChaosEvidence) -> CheckResult {
    let mut violations = Vec::new();
    let mut explained = 0usize;
    for ((sub, topic), seqs) in &evidence.arrivals {
        for pair in seqs.windows(2) {
            let (earlier, later) = (pair[0], pair[1]);
            if later > earlier {
                continue;
            }
            if loss_has_fault_cause(plan, *topic, earlier)
                || loss_has_fault_cause(plan, *topic, later)
            {
                explained += 1;
            } else {
                violations.push(format!(
                    "topic {topic} subscriber {sub}: seq {later} arrived after seq {earlier}"
                ));
            }
        }
    }
    CheckResult {
        name: "in_order_delivery".into(),
        passed: violations.is_empty(),
        detail: if violations.is_empty() {
            format!(
                "{} subscriber/topic streams in order; {explained} inversions scripted",
                evidence.arrivals.len()
            )
        } else {
            violations.join("; ")
        },
    }
}

/// Overload ladder: every controller decision is safe and attributed.
///
/// * no `LoadShed` ever lands on a hard topic (`L_i = 0`) — the shard's
///   run guard plus the controller's eligibility rule leave no path;
/// * on a loss-bounded topic, the longest *consecutive* shed run stays
///   within `L_i` even while the pressure signal is saturated;
/// * every sequence number a subscriber never saw is attributed: either a
///   `LoadShed` incident names it, a fault rule covers it, or it falls in
///   the crash-recovery window — silent loss fails the check;
/// * shedding only happens under a scripted `[overload]` ramp, and a plan
///   that declares `expect_shedding` must actually reach rung 2.
fn check_overload_ladder(plan: &FaultPlan, evidence: &ChaosEvidence) -> CheckResult {
    let mut violations = Vec::new();

    // Index sheds per topic for run-length and attribution scans.
    let mut shed_by_topic: BTreeMap<u32, std::collections::BTreeSet<u64>> = BTreeMap::new();
    for &(topic, seq) in &evidence.sheds {
        shed_by_topic.entry(topic).or_default().insert(seq);
    }

    if plan.overload.is_none() && !evidence.sheds.is_empty() {
        violations.push(format!(
            "{} sheds without an [overload] section in the plan",
            evidence.sheds.len()
        ));
    }

    for topic in &plan.topics {
        let empty = std::collections::BTreeSet::new();
        let sheds = shed_by_topic.get(&topic.id).unwrap_or(&empty);
        match topic.loss_tolerance {
            Some(0) => {
                if let Some(seq) = sheds.iter().next() {
                    violations.push(format!(
                        "topic {} is hard (L_i = 0) but was shed at seq {seq} ({} total)",
                        topic.id,
                        sheds.len()
                    ));
                }
            }
            Some(bound) => {
                let mut run = 0u64;
                let mut worst = 0u64;
                for seq in 0..plan.messages {
                    if sheds.contains(&seq) {
                        run += 1;
                        worst = worst.max(run);
                    } else {
                        run = 0;
                    }
                }
                if worst > u64::from(bound) {
                    violations.push(format!(
                        "topic {}: {} consecutive sheds > L_i {}",
                        topic.id, worst, bound
                    ));
                }
            }
            None => {}
        }
        // Attribution: every never-delivered seq must have a named cause.
        for &sub in &topic.subscribers {
            let empty_counts = BTreeMap::new();
            let delivered = evidence
                .delivered
                .get(&(sub, topic.id))
                .unwrap_or(&empty_counts);
            for seq in 0..plan.messages {
                if delivered.contains_key(&seq)
                    || sheds.contains(&seq)
                    || loss_has_fault_cause(plan, topic.id, seq)
                {
                    continue;
                }
                violations.push(format!(
                    "topic {} seq {seq} never reached subscriber {sub} and no \
                     shed incident or fault window explains it",
                    topic.id
                ));
            }
        }
    }

    if let Some(ov) = &plan.overload {
        if ov.expect_shedding && evidence.sheds.is_empty() {
            violations.push(
                "plan expects shedding but the controller never shed (ramp too gentle \
                 or the ladder never reached rung 2)"
                    .to_string(),
            );
        }
    }

    CheckResult {
        name: "overload_shed_attribution".into(),
        passed: violations.is_empty(),
        detail: if violations.is_empty() {
            format!(
                "{} sheds, all on shed-eligible topics within L_i; every loss attributed",
                evidence.sheds.len()
            )
        } else {
            violations.join("; ")
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frame_types::SeqNo;

    fn plan(toml: &str) -> FaultPlan {
        FaultPlan::from_toml_str(toml).unwrap()
    }

    const BASE: &str = r#"
        messages = 8

        [[topics]]
        id = 1
        period_ms = 10
        deadline_ms = 100
        loss_tolerance = 1
        retention = 2
        subscribers = [1]
    "#;

    fn full_delivery(messages: u64) -> DeliveryCounts {
        let mut m = BTreeMap::new();
        m.insert((1, 1), (0..messages).map(|s| (s, 1)).collect());
        m
    }

    fn evidence(delivered: DeliveryCounts) -> ChaosEvidence {
        let arrivals = delivered
            .iter()
            .map(|(key, counts)| (*key, counts.keys().copied().collect()))
            .collect();
        ChaosEvidence {
            delivered,
            arrivals,
            backup_order: Vec::new(),
            deadline_misses: Vec::new(),
            sheds: Vec::new(),
        }
    }

    #[test]
    fn clean_run_passes_everything() {
        let v = check(&plan(BASE), &evidence(full_delivery(8)));
        assert!(v.passed, "{}", v.render());
        assert_eq!(v.checks.len(), 6);
    }

    #[test]
    fn loss_run_beyond_tolerance_fails_lemma1() {
        let mut delivered = full_delivery(8);
        let counts = delivered.get_mut(&(1, 1)).unwrap();
        counts.remove(&3);
        counts.remove(&4); // 2 consecutive > L_i = 1
        let v = check(&plan(BASE), &evidence(delivered));
        assert!(!v.passed);
        assert!(!v.checks[0].passed, "{}", v.checks[0].detail);

        let mut delivered = full_delivery(8);
        delivered.get_mut(&(1, 1)).unwrap().remove(&3); // 1 loss = L_i
        let v = check(&plan(BASE), &evidence(delivered));
        assert!(v.checks[0].passed);
    }

    #[test]
    fn missing_subscriber_stream_counts_as_loss() {
        let v = check(&plan(BASE), &evidence(BTreeMap::new()));
        assert!(!v.checks[0].passed, "absent stream = total loss");
    }

    #[test]
    fn unexplained_miss_fails_lemma2_scripted_miss_passes() {
        let mut e = evidence(full_delivery(8));
        e.deadline_misses.push((1, 5));
        let v = check(&plan(BASE), &e);
        assert!(!v.checks[1].passed);

        let scripted = format!(
            "{BASE}
            [[faults]]
            hop = \"broker_to_subscriber\"
            action = \"delay\"
            delay_ms = 50
            topic = 1
            from_seq = 5
            until_seq = 6
        "
        );
        let v = check(&plan(&scripted), &e);
        assert!(v.checks[1].passed, "{}", v.checks[1].detail);
    }

    #[test]
    fn crash_window_explains_misses_and_duplicates() {
        let crashy = format!(
            "{BASE}
            [crash]
            topic = 1
            at_seq = 5
        "
        );
        let p = plan(&crashy);
        let mut e = evidence(full_delivery(8));
        e.deadline_misses.push((1, 4)); // retained at crash (retention 2: 4, 5)
        e.delivered.get_mut(&(1, 1)).unwrap().insert(4, 2); // re-dispatch
        let v = check(&p, &e);
        assert!(v.passed, "{}", v.render());

        // A duplicate far before the crash window is NOT explained.
        e.delivered.get_mut(&(1, 1)).unwrap().insert(0, 2);
        let v = check(&p, &e);
        assert!(!v.checks[3].passed);
    }

    const OVERLOAD: &str = r#"
        messages = 8
        pace_ms = 10

        [[topics]]
        id = 1
        deadline_ms = 100
        loss_tolerance = 0
        subscribers = [1]

        [[topics]]
        id = 2
        deadline_ms = 100
        loss_tolerance = 2
        subscribers = [1]

        [overload]
        capacity_per_sec = 100.0
        ramp = [1, 2, 1]
        rounds_per_step = 2
        expect_shedding = true
    "#;

    fn overload_delivery(skip: &[(u32, u64)]) -> DeliveryCounts {
        let mut m: DeliveryCounts = BTreeMap::new();
        for topic in [1u32, 2] {
            let counts: BTreeMap<u64, u32> = (0..8)
                .filter(|&s| !skip.contains(&(topic, s)))
                .map(|s| (s, 1))
                .collect();
            m.insert((1, topic), counts);
        }
        m
    }

    #[test]
    fn attributed_sheds_within_li_pass_the_overload_check() {
        let p = plan(OVERLOAD);
        // Topic 2 (L_i = 2) shed twice in the burst window; topic 1 intact.
        let mut e = evidence(overload_delivery(&[(2, 3), (2, 4)]));
        e.sheds = vec![(2, 3), (2, 4)];
        let v = check(&p, &e);
        assert!(v.passed, "{}", v.render());
        assert!(
            v.checks[4].detail.contains("2 sheds"),
            "{}",
            v.checks[4].detail
        );
    }

    #[test]
    fn shed_on_hard_topic_fails() {
        let p = plan(OVERLOAD);
        let mut e = evidence(overload_delivery(&[(1, 3)]));
        e.sheds = vec![(1, 3)];
        let v = check(&p, &e);
        assert!(!v.checks[4].passed);
        assert!(
            v.checks[4].detail.contains("hard"),
            "{}",
            v.checks[4].detail
        );
    }

    #[test]
    fn shed_run_beyond_li_fails_even_with_attribution() {
        let p = plan(OVERLOAD);
        let skip = [(2u32, 3u64), (2, 4), (2, 5)]; // 3 consecutive > L_i = 2
        let mut e = evidence(overload_delivery(&skip));
        e.sheds = skip.to_vec();
        let v = check(&p, &e);
        assert!(!v.checks[4].passed);
        assert!(
            v.checks[4].detail.contains("consecutive sheds"),
            "{}",
            v.checks[4].detail
        );
    }

    #[test]
    fn silent_loss_without_shed_incident_fails_attribution() {
        let p = plan(OVERLOAD);
        let e = evidence(overload_delivery(&[(2, 3)])); // lost but never shed
        let v = check(&p, &e);
        assert!(!v.checks[4].passed);
        assert!(
            v.checks[4].detail.contains("never reached subscriber"),
            "{}",
            v.checks[4].detail
        );
    }

    #[test]
    fn expected_shedding_must_happen_and_unscripted_sheds_fail() {
        let p = plan(OVERLOAD);
        let v = check(&p, &evidence(overload_delivery(&[])));
        assert!(!v.checks[4].passed, "expect_shedding unmet must fail");

        // Sheds on a plan with no [overload] section are unscripted.
        let mut e = evidence(full_delivery(8));
        e.sheds = vec![(1, 2)];
        let v = check(&plan(BASE), &e);
        assert!(!v.checks[4].passed);
        assert!(
            v.checks[4].detail.contains("without an [overload] section"),
            "{}",
            v.checks[4].detail
        );
    }

    #[test]
    fn burst_round_misses_are_explained_by_the_ramp() {
        let p = plan(OVERLOAD);
        let mut e = evidence(overload_delivery(&[]));
        e.deadline_misses.push((1, 3)); // seq 3 is in a burst-3 round
        let v = check(&p, &e);
        assert!(v.checks[1].passed, "{}", v.checks[1].detail);
        e.deadline_misses.push((1, 0)); // seq 0 is a burst-1 round: no excuse
        let v = check(&p, &e);
        assert!(!v.checks[1].passed);
    }

    #[test]
    fn prune_before_replica_fails_table3() {
        let mut e = evidence(full_delivery(8));
        e.backup_order = vec![
            BackupObservation {
                topic: TopicId(1),
                seq: SeqNo(0),
                kind: BackupEffectKind::Replica,
            },
            BackupObservation {
                topic: TopicId(1),
                seq: SeqNo(0),
                kind: BackupEffectKind::Prune,
            },
            BackupObservation {
                topic: TopicId(1),
                seq: SeqNo(1),
                kind: BackupEffectKind::Prune,
            },
        ];
        let v = check(&plan(BASE), &e);
        assert!(!v.checks[2].passed);
        assert!(v.checks[2].detail.contains("seq 1"));

        e.backup_order.truncate(2);
        let v = check(&plan(BASE), &e);
        assert!(v.checks[2].passed);
    }

    #[test]
    fn unscripted_inversion_fails_in_order_delivery() {
        let mut e = evidence(full_delivery(8));
        e.arrivals.insert((1, 1), vec![0, 1, 3, 2, 4, 5, 6, 7]);
        let v = check(&plan(BASE), &e);
        assert!(!v.checks[5].passed);
        assert!(
            v.checks[5].detail.contains("seq 2 arrived after seq 3"),
            "{}",
            v.checks[5].detail
        );

        // A delay window over seq 3 explains its being overtaken.
        let scripted = format!(
            "{BASE}
            [[faults]]
            hop = \"broker_to_subscriber\"
            action = \"delay\"
            delay_ms = 50
            topic = 1
            from_seq = 3
            until_seq = 4
        "
        );
        let v = check(&plan(&scripted), &e);
        assert!(v.checks[5].passed, "{}", v.checks[5].detail);
    }
}
