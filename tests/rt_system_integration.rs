//! Integration tests of the threaded runtime: the same guarantees the
//! simulator checks, exercised on real threads with real time.

use std::collections::BTreeSet;
use std::time::Duration as StdDuration;

use frame::core::{BrokerConfig, BrokerRole, DeliveryTracker};
use frame::rt::RtSystem;
use frame::types::{Duration, PublisherId, SubscriberId, TopicId, TopicSpec};

#[test]
fn multi_topic_multi_subscriber_delivery() {
    let mut sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");
    let a = TopicSpec::category(0, TopicId(1));
    let b = TopicSpec::category(2, TopicId(2));
    // Topic b has two subscribers.
    sys.add_topic(a, vec![SubscriberId(1)]).unwrap();
    sys.add_topic(b, vec![SubscriberId(2), SubscriberId(3)])
        .unwrap();
    let p = sys.add_publisher(PublisherId(0), &[a, b]).unwrap();
    let rx1 = sys.subscribe(SubscriberId(1));
    let rx2 = sys.subscribe(SubscriberId(2));
    let rx3 = sys.subscribe(SubscriberId(3));

    for _ in 0..10 {
        p.publish(TopicId(1), &b"a"[..]).unwrap();
        p.publish(TopicId(2), &b"b"[..]).unwrap();
    }
    let drain = |rx: &crossbeam::channel::Receiver<frame::rt::Delivered>, n: usize| {
        (0..n)
            .map(|_| {
                rx.recv_timeout(StdDuration::from_secs(2))
                    .expect("delivery")
                    .message
                    .seq
                    .raw()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(drain(&rx1, 10), (0..10).collect::<Vec<_>>());
    assert_eq!(drain(&rx2, 10), (0..10).collect::<Vec<_>>());
    assert_eq!(drain(&rx3, 10), (0..10).collect::<Vec<_>>());
    sys.shutdown();
}

#[test]
fn crash_failover_preserves_zero_loss_topics() {
    // Both recovery paths at once: a retention-covered topic and a
    // replication-covered topic, with continuous publishing through the
    // crash. Specs are chosen admissible for a 10 ms publish cadence with
    // the paper's 50 ms fail-over budget: Lemma 1 needs
    // (N+L)·T >= ΔPB + ΔBB + x, and Proposition 1 suppresses replication
    // only when (N+L)·T − D >= x + ΔBB − ΔBS (≈ 49 ms here).
    let mut sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");
    use frame::types::LossTolerance;
    let retained = TopicSpec::new(TopicId(1))
        .period(Duration::from_millis(10))
        .deadline(Duration::from_millis(50))
        .loss_tolerance(LossTolerance::ZERO)
        .retention(12); // (12·10 − 50) = 70 ms > 49 ms → replication suppressed
    let replicated = TopicSpec::new(TopicId(2))
        .period(Duration::from_millis(10))
        .deadline(Duration::from_millis(100))
        .loss_tolerance(LossTolerance::ZERO)
        .retention(6); // admissible (60 ms > 50.1 ms) but still needs replication
    sys.add_topic(retained, vec![SubscriberId(1)]).unwrap();
    sys.add_topic(replicated, vec![SubscriberId(2)]).unwrap();
    let p = sys
        .add_publisher(PublisherId(0), &[retained, replicated])
        .unwrap();
    let rx1 = sys.subscribe(SubscriberId(1));
    let rx2 = sys.subscribe(SubscriberId(2));
    sys.start_failover_coordinator(Duration::from_millis(5), Duration::from_millis(20));

    const N: u64 = 30;
    for i in 0..N {
        p.publish(TopicId(1), &b"x"[..]).unwrap();
        p.publish(TopicId(2), &b"y"[..]).unwrap();
        if i == N / 2 {
            sys.crash_primary();
        }
        std::thread::sleep(StdDuration::from_millis(10));
    }
    // Give the detector + recovery time to finish.
    std::thread::sleep(StdDuration::from_millis(200));

    let collect = |rx: &crossbeam::channel::Receiver<frame::rt::Delivered>| {
        let mut tracker = DeliveryTracker::new();
        let mut seen = BTreeSet::new();
        while let Ok(d) = rx.recv_timeout(StdDuration::from_millis(300)) {
            tracker.accept(d.message.topic, d.message.seq, d.dispatched_at);
            seen.insert(d.message.seq.raw());
        }
        (tracker, seen)
    };
    let (t1, s1) = collect(&rx1);
    let (t2, s2) = collect(&rx2);

    assert_eq!(
        s1.len() as u64,
        N,
        "retention topic lost messages: got {s1:?}"
    );
    assert_eq!(
        s2.len() as u64,
        N,
        "replicated topic lost messages: got {s2:?}"
    );
    assert!(t1.meets(TopicId(1), retained.loss_tolerance));
    assert!(t2.meets(TopicId(2), replicated.loss_tolerance));
    assert_eq!(sys.backup.role(), BrokerRole::Primary);
    sys.shutdown();
}

#[test]
fn latency_stays_small_under_light_load() {
    let mut sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");
    let spec = TopicSpec::category(0, TopicId(1));
    sys.add_topic(spec, vec![SubscriberId(1)]).unwrap();
    let p = sys.add_publisher(PublisherId(0), &[spec]).unwrap();
    let rx = sys.subscribe(SubscriberId(1));

    let mut max_ns: u64 = 0;
    for _ in 0..100 {
        p.publish(TopicId(1), &b"z"[..]).unwrap();
        let d = rx.recv_timeout(StdDuration::from_secs(2)).unwrap();
        let lat = d.dispatched_at.saturating_since(d.message.created_at);
        max_ns = max_ns.max(lat.as_nanos());
    }
    // Broker-side latency on an idle in-process system should be far below
    // the 50 ms deadline — allow a very generous 10 ms for CI noise.
    assert!(
        max_ns < 10_000_000,
        "broker latency unexpectedly high: {max_ns} ns"
    );
    sys.shutdown();
}

#[test]
fn aperiodic_emergency_topic_survives_failover() {
    // §III-D.4: rare but time-critical messages modeled as T = ∞, L = 0.
    // Admission requires N > 0 and Proposition 1 removes replication (the
    // tolerance window is unbounded), so retention alone must carry an
    // emergency notification through a crash.
    use frame::types::LossTolerance;
    let mut sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");
    // Period stays at the builder's aperiodic default (T = ∞).
    let emergency = TopicSpec::new(TopicId(9))
        .deadline(frame::types::Duration::from_millis(50))
        .loss_tolerance(LossTolerance::ZERO)
        .retention(1);
    sys.add_topic(emergency, vec![SubscriberId(1)]).unwrap();
    let p = sys.add_publisher(PublisherId(0), &[emergency]).unwrap();
    let rx = sys.subscribe(SubscriberId(1));
    sys.start_failover_coordinator(Duration::from_millis(5), Duration::from_millis(20));

    // The emergency fires exactly while the Primary is dead.
    sys.crash_primary();
    p.publish(TopicId(9), &b"EMERGENCY"[..]).unwrap();
    // Fail-over re-sends the retained copy.
    let d = rx
        .recv_timeout(StdDuration::from_secs(3))
        .expect("emergency recovered via retention");
    assert_eq!(d.message.payload.as_ref(), b"EMERGENCY");
    assert_eq!(sys.backup.role(), BrokerRole::Primary);
    sys.shutdown();
}

#[test]
fn duplicate_suppression_across_failover() {
    // A replicated topic whose copies may arrive twice (backup buffer +
    // retention re-send): the subscriber-side tracker must end with exactly
    // one accepted copy per sequence.
    let mut sys = RtSystem::builder(BrokerConfig::fcfs_minus())
        .start()
        .expect("builder start");
    let spec = TopicSpec::category(2, TopicId(7));
    sys.add_topic(spec, vec![SubscriberId(1)]).unwrap();
    let p = sys.add_publisher(PublisherId(0), &[spec]).unwrap();
    let rx = sys.subscribe(SubscriberId(1));
    sys.start_failover_coordinator(Duration::from_millis(5), Duration::from_millis(20));

    for _ in 0..10 {
        p.publish(TopicId(7), &b"q"[..]).unwrap();
        std::thread::sleep(StdDuration::from_millis(3));
    }
    // Let the replicate-everything pipeline drain before the crash so the
    // Backup Buffer holds all ten (unpruned) copies.
    std::thread::sleep(StdDuration::from_millis(100));
    sys.crash_primary();
    std::thread::sleep(StdDuration::from_millis(150));
    for _ in 0..5 {
        p.publish(TopicId(7), &b"q"[..]).unwrap();
    }

    let mut tracker = DeliveryTracker::new();
    let mut total = 0u64;
    while let Ok(d) = rx.recv_timeout(StdDuration::from_millis(300)) {
        tracker.accept(d.message.topic, d.message.seq, d.dispatched_at);
        total += 1;
    }
    // FCFS- re-dispatches the whole unpruned backup buffer, so raw
    // deliveries exceed distinct ones.
    assert!(total >= tracker.accepted(TopicId(7)));
    assert!(
        tracker.duplicates(TopicId(7)) > 0,
        "FCFS- should have produced duplicate deliveries (got {total} total)"
    );
    assert_eq!(tracker.accepted(TopicId(7)), 15);
    sys.shutdown();
}
