//! Live fail-over: crash the Primary mid-stream and watch the Backup take
//! over with zero message loss, recovered by publisher retention re-sends
//! and (for replicated topics) the pruned Backup Buffer.
//!
//! ```sh
//! cargo run --example failover_demo
//! ```

use std::collections::BTreeSet;
use std::time::Duration as StdDuration;

use frame::core::{BrokerConfig, BrokerRole};
use frame::rt::RtSystem;
use frame::types::{Duration, PublisherId, SubscriberId, TopicId, TopicSpec};

fn main() {
    let mut sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");

    // Two zero-loss topics with different recovery paths:
    //  - cat 0 recovers via publisher retention (Prop 1 suppresses
    //    replication),
    //  - cat 2 recovers via the replicated Backup Buffer.
    let retained_topic = TopicSpec::category(0, TopicId(1));
    let replicated_topic = TopicSpec::category(2, TopicId(2));
    sys.add_topic(retained_topic, vec![SubscriberId(1)])
        .unwrap();
    sys.add_topic(replicated_topic, vec![SubscriberId(2)])
        .unwrap();
    let publisher = sys
        .add_publisher(PublisherId(0), &[retained_topic, replicated_topic])
        .unwrap();
    let rx1 = sys.subscribe(SubscriberId(1));
    let rx2 = sys.subscribe(SubscriberId(2));

    // Detector: poll every 5 ms, suspect after 20 ms — well inside the
    // 50 ms fail-over budget the admission test assumed.
    sys.start_failover_coordinator(Duration::from_millis(5), Duration::from_millis(20));

    const BEFORE: u64 = 10;
    const AFTER: u64 = 10;

    println!("publishing {BEFORE} messages per topic through the Primary…");
    for _ in 0..BEFORE {
        publisher.publish(TopicId(1), &b"retained"[..]).unwrap();
        publisher.publish(TopicId(2), &b"replicated"[..]).unwrap();
        std::thread::sleep(StdDuration::from_millis(50));
    }

    println!("*** crashing the Primary (SIGKILL equivalent) ***");
    sys.crash_primary();

    // Keep publishing through the crash window; until the publisher learns
    // of the crash these go to a dead broker and survive only in the
    // retention buffer / Backup Buffer.
    for _ in 0..AFTER {
        publisher.publish(TopicId(1), &b"retained"[..]).unwrap();
        publisher.publish(TopicId(2), &b"replicated"[..]).unwrap();
        std::thread::sleep(StdDuration::from_millis(50));
    }

    let collect = |rx: &crossbeam::channel::Receiver<frame::rt::Delivered>| {
        let mut seen = BTreeSet::new();
        while let Ok(d) = rx.recv_timeout(StdDuration::from_millis(300)) {
            seen.insert(d.message.seq.raw());
        }
        seen
    };
    let s1 = collect(&rx1);
    let s2 = collect(&rx2);

    println!(
        "topic 1 (retention recovery):  {}/{} distinct messages delivered",
        s1.len(),
        BEFORE + AFTER
    );
    println!(
        "topic 2 (replication recovery): {}/{} distinct messages delivered",
        s2.len(),
        BEFORE + AFTER
    );
    report_gaps("topic 1", &s1);
    report_gaps("topic 2", &s2);
    assert_eq!(
        sys.backup.role(),
        BrokerRole::Primary,
        "backup was promoted"
    );
    println!(
        "new Primary recovered {} backup copies, skipped {} pruned ones, \
         accepted {} retention re-sends",
        sys.backup.stats().recovery_dispatches,
        sys.backup.stats().recovery_skipped,
        sys.backup.stats().resends_in,
    );
    sys.shutdown();
}

fn report_gaps(name: &str, seen: &BTreeSet<u64>) {
    let Some(&max) = seen.iter().max() else {
        println!("{name}: nothing delivered!");
        return;
    };
    let missing: Vec<u64> = (0..=max).filter(|s| !seen.contains(s)).collect();
    if missing.is_empty() {
        println!("{name}: zero loss (no sequence gaps)");
    } else {
        println!("{name}: lost sequences {missing:?}");
    }
}
