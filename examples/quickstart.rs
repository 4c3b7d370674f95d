//! Quickstart: a FRAME broker pair in-process, one QoS-differentiated
//! topic, publish → subscribe round trip.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use frame::core::{dispatch_deadline, replication_needed, BrokerConfig};
use frame::rt::RtSystem;
use frame::types::{NetworkParams, PublisherId, SubscriberId, TopicId, TopicSpec};

fn main() {
    // A category-0 topic from the paper's Table 2: 50 ms period, 50 ms
    // end-to-end deadline, zero loss tolerance, publisher retains the two
    // latest messages.
    let spec = TopicSpec::category(0, TopicId(1));
    let net = NetworkParams::paper_example();

    println!("topic {}:", spec.id);
    println!(
        "  period T = {}, deadline D = {}",
        spec.period, spec.deadline
    );
    println!(
        "  dispatch deadline (Lemma 2): D^d = {}",
        dispatch_deadline(&spec, &net).unwrap()
    );
    println!(
        "  replication needed (Prop 1)? {}",
        replication_needed(&spec, &net).unwrap()
    );

    // Start the threaded runtime: Primary + Backup running EDF + selective
    // replication + coordination (the FRAME config); each publish runs its
    // jobs on the publishing thread.
    let mut sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");
    sys.add_topic(spec, vec![SubscriberId(1)])
        .expect("admissible");
    let publisher = sys.add_publisher(PublisherId(0), &[spec]).unwrap();
    let deliveries = sys.subscribe(SubscriberId(1));

    for _ in 0..5 {
        publisher
            .publish(TopicId(1), &b"0123456789abcdef"[..])
            .unwrap();
    }
    for _ in 0..5 {
        let d = deliveries
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("delivery");
        let latency = d.dispatched_at.saturating_since(d.message.created_at);
        println!(
            "  delivered {} with broker latency {latency}",
            d.message.seq
        );
    }

    let stats = sys.primary.stats();
    println!(
        "broker stats: {} in, {} dispatched, {} replications suppressed by Prop 1",
        stats.messages_in, stats.dispatches, stats.replications_suppressed
    );
    sys.shutdown();
}
