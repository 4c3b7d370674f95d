//! End-to-end observability of a running [`frame_rt::RtSystem`]: the live
//! snapshot must reflect real traffic, and a fail-over must leave the
//! paper-visible decision sequence (Promote, then its RecoveryDispatch
//! jobs) in the decision trace in that order.

use std::time::Duration as StdDuration;

use frame_core::{BrokerConfig, BrokerRole};
use frame_rt::RtSystem;
use frame_telemetry::{DecisionKind, Stage};
use frame_types::{Duration, PublisherId, SubscriberId, TopicId, TopicSpec};

#[test]
fn snapshot_reflects_live_traffic() {
    let mut sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");
    let spec = TopicSpec::category(0, TopicId(1));
    sys.add_topic(spec, vec![SubscriberId(1)]).unwrap();
    let publisher = sys.add_publisher(PublisherId(0), &[spec]).unwrap();
    let rx = sys.subscribe(SubscriberId(1));

    for _ in 0..10 {
        publisher
            .publish(TopicId(1), &b"0123456789abcdef"[..])
            .unwrap();
    }
    for _ in 0..10 {
        rx.recv_timeout(StdDuration::from_secs(2))
            .expect("delivery");
    }

    // A worker records its DispatchExec sample after the delivery has
    // left, so the last sample can land just after the subscriber wakes:
    // give it a bounded moment before reading the snapshot.
    let settled = std::time::Instant::now() + StdDuration::from_secs(2);
    let mut snap = sys.snapshot();
    while snap.stage(Stage::DispatchExec).map_or(0, |h| h.len()) < 10
        && std::time::Instant::now() < settled
    {
        std::thread::sleep(StdDuration::from_millis(1));
        snap = sys.snapshot();
    }
    assert!(snap.decision_count(DecisionKind::Dispatch) >= 10);
    let dispatch = snap.stage(Stage::DispatchExec).expect("dispatch stage");
    assert!(dispatch.len() >= 10);
    assert!(dispatch.p50() <= dispatch.p99());
    assert!(dispatch.p99() <= dispatch.max());
    let transit = snap.stage(Stage::Transit).expect("transit stage");
    assert!(transit.len() >= 10);
    // The topic was registered on both brokers, so a per-topic series
    // exists and saw every delivery.
    let topic = snap
        .topics
        .iter()
        .find(|t| t.topic == TopicId(1))
        .expect("per-topic series");
    assert!(topic.histogram.len() >= 10);

    // Both exporters render the same snapshot without panicking.
    let prom = sys.render_prometheus();
    assert!(prom.contains("frame_decisions_total{kind=\"dispatch\"}"));
    let json = sys.render_json();
    let parsed = frame_telemetry::from_json(&json).unwrap();
    assert_eq!(
        parsed.decision_count(DecisionKind::Dispatch),
        snap.decision_count(DecisionKind::Dispatch)
    );
    sys.shutdown();
}

#[test]
fn failover_traces_promote_then_recovery_dispatches() {
    let mut sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");
    // Category 2 replicates under Proposition 1, so copies sit in the
    // Backup Buffer when the Primary dies.
    let spec = TopicSpec::category(2, TopicId(1));
    sys.add_topic(spec, vec![SubscriberId(1)]).unwrap();
    let publisher = sys.add_publisher(PublisherId(0), &[spec]).unwrap();
    let rx = sys.subscribe(SubscriberId(1));
    sys.start_failover_coordinator(Duration::from_millis(5), Duration::from_millis(20));

    for _ in 0..5 {
        publisher
            .publish(TopicId(1), &b"0123456789abcdef"[..])
            .unwrap();
    }
    for _ in 0..5 {
        rx.recv_timeout(StdDuration::from_secs(2))
            .expect("delivery");
    }

    sys.crash_primary();
    // Wait for the coordinator to detect the crash, promote the Backup and
    // time the promotion. The role flips inside `promote()`, before the
    // coordinator records the stage, so the role alone is not enough.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(3);
    while sys
        .snapshot()
        .stage(Stage::Promotion)
        .is_none_or(|h| h.is_empty())
    {
        assert!(
            std::time::Instant::now() < deadline,
            "fail-over never fired"
        );
        std::thread::sleep(StdDuration::from_millis(5));
    }
    assert_eq!(sys.backup.role(), BrokerRole::Primary);

    let events = sys.telemetry().drain_trace();
    let promote_at = events
        .iter()
        .position(|e| e.kind == DecisionKind::Promote)
        .expect("Promote event in trace");
    let recoveries: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == DecisionKind::RecoveryDispatch)
        .map(|(i, _)| i)
        .collect();
    assert!(
        recoveries.iter().all(|&i| i > promote_at),
        "every RecoveryDispatch must trace after Promote"
    );
    // Whether recovery jobs exist depends on how many replicas the prune
    // raced; the detection/promotion stages must have been timed either way.
    let snap = sys.snapshot();
    assert!(snap
        .stage(Stage::FailoverDetection)
        .is_some_and(|h| h.len() == 1));
    assert!(snap.stage(Stage::Promotion).is_some_and(|h| h.len() == 1));
    // Promote is a singular event; draining must have consumed it.
    assert!(!sys
        .telemetry()
        .drain_trace()
        .iter()
        .any(|e| e.kind == DecisionKind::Promote));
    sys.shutdown();
}
