//! Integration of the durable retention store with the threaded runtime:
//! a publisher process "restarts", recovers its retention buffer from disk,
//! and re-sends the retained messages into a live broker — extending the
//! paper's loss-tolerance story to publisher crashes.

use std::collections::HashMap;
use std::time::Duration as StdDuration;

use frame::core::BrokerConfig;
use frame::rt::RtSystem;
use frame::store::{PersistentRetention, SyncPolicy};
use frame::types::{Message, PublisherId, SeqNo, SubscriberId, Time, TopicId, TopicSpec};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("frame-durable-int-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn publisher_restart_recovers_retention_and_resends() {
    let dir = tmpdir("restart-resend");
    let topic = TopicId(1);
    let depths: HashMap<TopicId, u32> = [(topic, 3u32)].into_iter().collect();

    // "First life" of the publisher: retain five messages durably, then
    // crash (drop without any clean shutdown).
    {
        let (mut store, _) =
            PersistentRetention::open(&dir, depths.clone(), SyncPolicy::Always).unwrap();
        for seq in 0..5 {
            store
                .retain(Message::new(
                    topic,
                    PublisherId(7),
                    SeqNo(seq),
                    Time::from_millis(seq * 50),
                    &b"0123456789abcdef"[..],
                ))
                .unwrap();
        }
    }

    // "Second life": recover and push the retained tail into a live broker
    // (the fail-over re-send path).
    let (store, report) = PersistentRetention::open(&dir, depths, SyncPolicy::Always).unwrap();
    assert_eq!(report.records, 5);
    let recovered = store.snapshot(topic);
    assert_eq!(
        recovered.iter().map(|m| m.seq.raw()).collect::<Vec<_>>(),
        vec![2, 3, 4],
        "latest N=3 survive the restart"
    );

    let sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");
    let spec = TopicSpec::category(0, topic);
    sys.add_topic(spec, vec![SubscriberId(1)]).unwrap();
    let rx = sys.subscribe(SubscriberId(1));
    for m in recovered {
        sys.primary.resend(m);
    }
    for expect in [2u64, 3, 4] {
        let d = rx
            .recv_timeout(StdDuration::from_secs(2))
            .expect("recovered delivery");
        assert_eq!(d.message.seq, SeqNo(expect));
    }
    sys.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
