//! Contention stress for the threaded broker.
//!
//! The threaded broker holds one `frame_core::Broker` behind one lock;
//! each admitting thread runs the jobs it can claim and sends a job's
//! effects after dropping that lock, while it still holds the topic's
//! claim. That is only correct if, under real thread interleavings:
//!
//! 1. no message is ever dispatched twice to the same subscriber (the
//!    claim hands each job to exactly one thread, and Table-3 stale
//!    checks drop overwritten slots rather than re-delivering);
//! 2. for every topic, the Backup-bound wire order respects Table 3 — a
//!    prune may never overtake the replica it discards, even with many
//!    threads sending effects concurrently outside the lock;
//! 3. the paper's per-topic consecutive-loss bound `L_i` survives a
//!    mid-stream Primary crash.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::unbounded;
use frame_clock::{Clock, MonotonicClock};
use frame_core::{admit, BrokerConfig, BrokerRole, DeliveryTracker};
use frame_rt::{BackupEffect, RtBroker, RtSystem};
use frame_telemetry::Telemetry;
use frame_types::{
    BrokerId, Duration, Message, NetworkParams, PublisherId, SeqNo, SubscriberId, Time, TopicId,
    TopicSpec,
};

const TOPICS: u32 = 1024;
const MSGS_PER_TOPIC: u64 = 3;
const ADMITTERS: u32 = 8;
const SUBSCRIBER_CHANNELS: u32 = 4;

fn payload() -> &'static [u8] {
    b"0123456789abcdef"
}

/// Floods a Primary from eight admitting threads across ~1k category-2
/// topics (each topic published by one thread, in seq order, while every
/// thread runs whichever jobs it claims), then checks exactly-once
/// dispatch and the per-topic replica-before-prune wire order at a
/// monitor standing in for the Backup.
#[test]
fn sharded_broker_exactly_once_and_table3_order_under_contention() {
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let primary = RtBroker::spawn(
        BrokerId(0),
        BrokerRole::Primary,
        BrokerConfig::frame(),
        clock.clone(),
        Telemetry::new(),
        None,
    );
    let net = NetworkParams::paper_example();
    for t in 1..=TOPICS {
        // Category 2: replication required under Proposition 1, so every
        // message exercises the dispatch/replicate coordination.
        let spec = TopicSpec::category(2, TopicId(t));
        primary
            .register_topic(
                admit(&spec, &net).unwrap(),
                vec![SubscriberId(t % SUBSCRIBER_CHANNELS)],
            )
            .unwrap();
    }
    // The monitor plays the Backup: the sink runs while the emitting thread
    // holds the topic's claim, so the channel holds the exact order the
    // threads emitted.
    let (backup_tx, backup_rx) = unbounded::<Vec<BackupEffect>>();
    primary.connect_backup(Arc::new(move |effects| {
        let _ = backup_tx.send(effects);
    }));
    let mut delivery_rx = Vec::new();
    for s in 0..SUBSCRIBER_CHANNELS {
        let (tx, rx) = unbounded();
        primary.connect_subscriber(SubscriberId(s), tx, None);
        delivery_rx.push(rx);
    }

    let total = u64::from(TOPICS) * MSGS_PER_TOPIC;
    let admitters: Vec<_> = (0..ADMITTERS)
        .map(|a| {
            let (primary, clock) = (primary.clone(), clock.clone());
            std::thread::spawn(move || {
                for seq in 0..MSGS_PER_TOPIC {
                    for t in (1..=TOPICS).filter(|t| t % ADMITTERS == a) {
                        primary.publish(Message::new(
                            TopicId(t),
                            PublisherId(a),
                            SeqNo(seq),
                            clock.now(),
                            payload(),
                        ));
                    }
                }
            })
        })
        .collect();
    for a in admitters {
        a.join().expect("admitting thread");
    }

    // 1. Exactly-once dispatch: every (topic, seq) delivered once, on the
    //    channel of the topic's subscriber, and nothing delivered twice.
    let mut seen: HashSet<(u32, u64)> = HashSet::new();
    let deadline = Instant::now() + StdDuration::from_secs(30);
    while (seen.len() as u64) < total {
        assert!(
            Instant::now() < deadline,
            "only {} of {total} deliveries arrived",
            seen.len()
        );
        let mut idle = true;
        for (s, rx) in delivery_rx.iter().enumerate() {
            while let Ok(d) = rx.try_recv() {
                idle = false;
                assert_eq!(
                    d.message.topic.0 % SUBSCRIBER_CHANNELS,
                    s as u32,
                    "delivery routed to the wrong subscriber channel"
                );
                assert!(
                    seen.insert((d.message.topic.0, d.message.seq.raw())),
                    "duplicate dispatch of topic-{} #{}",
                    d.message.topic.0,
                    d.message.seq.raw()
                );
            }
        }
        if idle {
            std::thread::sleep(StdDuration::from_millis(2));
        }
    }

    // 2. Table-3 wire order per topic: walk the monitor channel in emission
    //    order; every prune must follow the replica for the same copy.
    let mut replicated: HashSet<(u32, u64)> = HashSet::new();
    let mut prunes = 0u64;
    let apply =
        |effect: BackupEffect, replicated: &mut HashSet<(u32, u64)>, prunes: &mut u64| match effect
        {
            BackupEffect::Replica(m) => {
                replicated.insert((m.topic.0, m.seq.raw()));
            }
            BackupEffect::Prune(key) => {
                assert!(
                    replicated.contains(&(key.topic.0, key.seq.raw())),
                    "prune overtook its replica for topic-{} #{}",
                    key.topic.0,
                    key.seq.raw()
                );
                *prunes += 1;
            }
        };
    while let Ok(batch) = backup_rx.recv_timeout(StdDuration::from_millis(300)) {
        for e in batch {
            apply(e, &mut replicated, &mut prunes);
        }
    }
    assert!(
        !replicated.is_empty(),
        "no replicas crossed the wire — coordination never exercised"
    );
    assert!(
        prunes > 0,
        "no prunes crossed the wire — coordination never exercised"
    );

    let stats = primary.stats();
    assert_eq!(stats.dispatches, total, "every admitted message dispatched");
    primary.shutdown();
}

/// Crashes the Primary mid-stream on a zero-loss replicated topic
/// (category 2: `L_i = 0`, `N_i = 1`) while publishing at the topic
/// period, and checks the subscriber's consecutive-loss bound holds
/// across fail-over.
#[test]
fn consecutive_loss_bound_survives_midstream_crash() {
    let spec = TopicSpec::category(2, TopicId(1));
    let mut sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");
    sys.add_topic(spec, vec![SubscriberId(1)]).unwrap();
    let publisher = sys.add_publisher(PublisherId(0), &[spec]).unwrap();
    let rx = sys.subscribe(SubscriberId(1));
    sys.start_failover_coordinator(Duration::from_millis(5), Duration::from_millis(20));

    // Publish at the topic period T_i (100 ms); the fail-over window
    // (detection + promotion, well under T_i here) then spans at most one
    // creation, which is exactly what retention N_i = 1 plus replication
    // covers.
    const BEFORE_CRASH: u64 = 4;
    const AFTER_CRASH: u64 = 4;
    let period = spec.period.to_std();
    for _ in 0..BEFORE_CRASH {
        publisher.publish(TopicId(1), payload()).unwrap();
        std::thread::sleep(period);
    }
    sys.crash_primary();
    for _ in 0..AFTER_CRASH {
        publisher.publish(TopicId(1), payload()).unwrap();
        std::thread::sleep(period);
    }
    assert_eq!(sys.backup.role(), BrokerRole::Primary, "fail-over happened");

    // Fold everything the subscriber saw (fail-over may duplicate; the
    // tracker suppresses duplicates, exactly like the paper's subscriber).
    let mut tracker = DeliveryTracker::new();
    let quiet = StdDuration::from_millis(500);
    while let Ok(d) = rx.recv_timeout(quiet) {
        tracker.accept(TopicId(1), d.message.seq, Time::ZERO);
    }
    let last = BEFORE_CRASH + AFTER_CRASH - 1;
    assert!(
        tracker.accepted(TopicId(1)) > 0,
        "subscriber saw no messages"
    );
    assert!(
        tracker.meets(TopicId(1), spec.loss_tolerance),
        "L_i violated: max consecutive losses = {} (tolerance {:?})",
        tracker.max_consecutive_losses(TopicId(1)),
        spec.loss_tolerance
    );
    // The stream must also have caught up past the crash point.
    assert_eq!(
        tracker.max_consecutive_losses(TopicId(1)),
        0,
        "category 2 is zero-loss"
    );
    assert!(
        tracker.accepted(TopicId(1)) == last + 1,
        "all {} messages must arrive (got {})",
        last + 1,
        tracker.accepted(TopicId(1))
    );
    sys.shutdown();
}
