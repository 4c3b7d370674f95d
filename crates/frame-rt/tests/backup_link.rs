//! The Primary→Backup link as a reactor connection: a Primary
//! `ReactorServer` linked with `connect_backup` to a Backup
//! `ReactorServer` over loopback. The link must keep the Table-3
//! replica-before-prune order on the wire, lose nothing handed to it
//! before its loop adopts the stream, and, once the Backup is gone, drop
//! and count what it is handed while the Primary keeps delivering.

use std::sync::Arc;
use std::time::{Duration, Instant};

use frame_clock::{Clock, MonotonicClock};
use frame_core::{admit, BrokerConfig, BrokerRole, BrokerStats};
use frame_rt::{ReactorServer, RtBroker, RtBrokerThreads, TcpPublisher, TcpSubscriber};
use frame_telemetry::Telemetry;
use frame_types::{
    BrokerId, Message, NetworkParams, PublisherId, SeqNo, SubscriberId, TopicId, TopicSpec,
};

const SUBSCRIBER: SubscriberId = SubscriberId(1);
const PAYLOAD: &[u8] = b"0123456789abcdef";

/// A linked pair. Each Backup topic keeps more copies than any test
/// publishes, so a prune can only miss its replica by overtaking it.
struct Pair {
    clock: Arc<dyn Clock>,
    primary: RtBroker,
    backup: RtBroker,
    primary_server: ReactorServer,
    backup_server: Option<ReactorServer>,
    threads: Vec<RtBrokerThreads>,
}

impl Pair {
    fn start(topics: u32) -> Pair {
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let config = BrokerConfig {
            backup_buffer_capacity: 1024,
            ..BrokerConfig::frame()
        };
        let spawn = |id, role| {
            RtBroker::spawn(
                BrokerId(id),
                role,
                config,
                2,
                clock.clone(),
                Telemetry::new(),
                None,
            )
        };
        let (primary, pt) = spawn(0, BrokerRole::Primary);
        let (backup, bt) = spawn(1, BrokerRole::Backup);
        let net = NetworkParams::paper_example();
        for topic in 0..topics {
            // Category 2: zero loss tolerance, replication required.
            let spec = TopicSpec::category(2, TopicId(topic));
            for b in [&primary, &backup] {
                b.register_topic(admit(&spec, &net).unwrap(), vec![SUBSCRIBER])
                    .unwrap();
            }
        }
        let backup_server = ReactorServer::bind("127.0.0.1:0", backup.clone()).unwrap();
        let primary_server = ReactorServer::bind("127.0.0.1:0", primary.clone()).unwrap();
        primary_server
            .connect_backup(backup_server.local_addr())
            .unwrap();
        Pair {
            clock,
            primary,
            backup,
            primary_server,
            backup_server: Some(backup_server),
            threads: vec![pt, bt],
        }
    }

    fn message(&self, topic: u32, seq: u64) -> Message {
        Message::new(
            TopicId(topic),
            PublisherId(0),
            SeqNo(seq),
            self.clock.now(),
            PAYLOAD,
        )
    }

    /// Waits until the Primary has admitted `total` messages and its
    /// counters stop moving, then returns them.
    fn primary_drained(&self, total: u64) -> BrokerStats {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut last = self.primary.stats();
        loop {
            std::thread::sleep(Duration::from_millis(50));
            let now = self.primary.stats();
            if now.messages_in == total && self.primary.queue_len() == 0 && now == last {
                return now;
            }
            assert!(Instant::now() < deadline, "primary never drained: {now:?}");
            last = now;
        }
    }

    /// Waits until the Backup has received every replica and applied every
    /// prune the drained Primary sent, or fails after a deadline.
    fn assert_backup_matches(&self, primary: &BrokerStats) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let backup = self.backup.stats();
            if backup.replicas_received == primary.replications
                && backup.prunes_applied == primary.prunes_sent
            {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "link lost or reordered effects: primary sent {} replicas / {} prunes, \
                 backup received {} / applied {}",
                primary.replications,
                primary.prunes_sent,
                backup.replicas_received,
                backup.prunes_applied,
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn shutdown(mut self) {
        self.primary.shutdown();
        self.backup.shutdown();
        self.primary_server.shutdown();
        if let Some(server) = self.backup_server.take() {
            server.shutdown();
        }
        for t in self.threads {
            t.join();
        }
    }
}

/// Write-queue drops summed over the Primary's reactor loops.
fn write_queue_drops(broker: &RtBroker) -> u64 {
    broker
        .telemetry()
        .snapshot()
        .reactor_loops
        .iter()
        .map(|l| l.write_queue_drops)
        .sum()
}

#[test]
fn table3_order_holds_on_the_link() {
    const TOPICS: u32 = 16;
    const PER_TOPIC: u64 = 200;
    let pair = Pair::start(TOPICS);
    let mut publisher = TcpPublisher::connect(pair.primary_server.local_addr()).unwrap();
    for seq in 0..PER_TOPIC {
        for topic in 0..TOPICS {
            publisher.publish(pair.message(topic, seq)).unwrap();
        }
        // Paced rounds keep each message's replica and prune close
        // together on the link, often in one frame, where a reorder shows.
        std::thread::sleep(Duration::from_micros(500));
    }
    let primary = pair.primary_drained(u64::from(TOPICS) * PER_TOPIC);
    assert!(primary.replications > 0, "nothing replicated: {primary:?}");
    assert!(primary.prunes_sent > 0, "nothing pruned: {primary:?}");
    // `prunes_applied` counts only prunes that find their replica, so a
    // prune that overtook its replica shows up as a shortfall here.
    pair.assert_backup_matches(&primary);
    pair.shutdown();
}

#[test]
fn nothing_is_lost_at_attach() {
    const TOPICS: u32 = 4;
    const PER_TOPIC: u64 = 50;
    // Publishing in-process straight after `connect_backup` returns hands
    // effects to the sink before the owning loop can have adopted the
    // stream.
    let pair = Pair::start(TOPICS);
    for seq in 0..PER_TOPIC {
        for topic in 0..TOPICS {
            pair.primary.publish(pair.message(topic, seq));
        }
    }
    let primary = pair.primary_drained(u64::from(TOPICS) * PER_TOPIC);
    assert!(primary.replications > 0, "nothing replicated: {primary:?}");
    pair.assert_backup_matches(&primary);
    pair.shutdown();
}

#[test]
fn lost_link_drops_are_counted_and_delivery_goes_on() {
    let mut pair = Pair::start(1);
    let addr = pair.primary_server.local_addr();
    let sub = TcpSubscriber::connect(addr, SUBSCRIBER).unwrap();
    // Give the Subscribe frame a moment to register.
    std::thread::sleep(Duration::from_millis(50));
    let mut publisher = TcpPublisher::connect(addr).unwrap();
    let mut next = 0u64;
    let mut publish_and_receive = |pair: &Pair, count: u64| {
        for _ in 0..count {
            publisher.publish(pair.message(0, next)).unwrap();
            let m = sub
                .deliveries()
                .recv_timeout(Duration::from_secs(3))
                .expect("delivery");
            assert_eq!(m.seq, SeqNo(next));
            next += 1;
        }
    };

    publish_and_receive(&pair, 20);
    let linked = pair.primary_drained(20);
    pair.assert_backup_matches(&linked);
    assert_eq!(write_queue_drops(&pair.primary), 0);

    // The Backup's server goes: the link sees EOF and closes.
    pair.backup_server.take().unwrap().shutdown();
    let deadline = Instant::now() + Duration::from_secs(5);
    while write_queue_drops(&pair.primary) == 0 {
        assert!(Instant::now() < deadline, "no drop counted after link loss");
        publish_and_receive(&pair, 1);
        std::thread::sleep(Duration::from_millis(5));
    }
    let dropped = write_queue_drops(&pair.primary);
    // Every later message still reaches the subscriber, and each effect
    // handed to the closed link is counted again.
    publish_and_receive(&pair, 20);
    assert!(
        write_queue_drops(&pair.primary) > dropped,
        "drops stopped counting at {dropped}"
    );
    pair.shutdown();
}
