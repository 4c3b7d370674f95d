//! The paper's motivating IIoT scenario (Fig 1): a wind-farm edge with
//! emergency-response, monitoring and logging applications sharing one
//! broker pair, each with different latency/loss-tolerance requirements
//! (Table 2 categories).
//!
//! Demonstrates requirement differentiation end to end on the threaded
//! runtime: admission, Proposition 1 replication decisions, and per-class
//! delivery latencies.
//!
//! ```sh
//! cargo run --example iiot_windfarm
//! ```

use std::collections::BTreeMap;
use std::time::Duration as StdDuration;

use frame::core::{replication_needed, BrokerConfig, DeliveryTracker};
use frame::rt::RtSystem;
use frame::types::{Duration, NetworkParams, PublisherId, SubscriberId, TopicId, TopicSpec};

struct App {
    name: &'static str,
    category: u8,
    topics: u32,
}

fn main() {
    let apps = [
        App {
            name: "emergency-response (cat 0)",
            category: 0,
            topics: 3,
        },
        App {
            name: "emergency-lossy    (cat 1)",
            category: 1,
            topics: 3,
        },
        App {
            name: "turbine-monitoring (cat 2)",
            category: 2,
            topics: 6,
        },
        App {
            name: "vibration-monitor  (cat 3)",
            category: 3,
            topics: 6,
        },
        App {
            name: "best-effort-stats  (cat 4)",
            category: 4,
            topics: 6,
        },
        App {
            name: "cloud-logging      (cat 5)",
            category: 5,
            topics: 2,
        },
    ];
    let net = NetworkParams::paper_example();

    let mut sys = RtSystem::builder(BrokerConfig::frame())
        .start()
        .expect("builder start");

    // Register topics, one subscriber each; remember spec per topic.
    let mut next_id = 0u32;
    let mut specs: Vec<(usize, TopicSpec)> = Vec::new(); // (app index, spec)
    for (ai, app) in apps.iter().enumerate() {
        for _ in 0..app.topics {
            let spec = TopicSpec::category(app.category, TopicId(next_id));
            sys.add_topic(spec, vec![SubscriberId(next_id)])
                .expect("Table 2 categories are admissible");
            specs.push((ai, spec));
            next_id += 1;
        }
    }

    println!(
        "Admitted {} topics across {} applications.\n",
        next_id,
        apps.len()
    );
    println!("Proposition 1 replication decisions:");
    for app in &apps {
        let spec = TopicSpec::category(app.category, TopicId(0));
        let needed = replication_needed(&spec, &net).unwrap();
        println!(
            "  {:<28} L={:<3} D={:<6} → {}",
            app.name,
            spec.loss_tolerance.to_string(),
            spec.deadline.to_string(),
            if needed {
                "replicate to Backup"
            } else {
                "suppressed (publisher retention suffices)"
            }
        );
    }

    // One publisher proxy per application.
    let mut publishers = Vec::new();
    for (ai, _) in apps.iter().enumerate() {
        let mine: Vec<TopicSpec> = specs
            .iter()
            .filter(|(a, _)| *a == ai)
            .map(|&(_, s)| s)
            .collect();
        publishers.push(sys.add_publisher(PublisherId(ai as u32), &mine).unwrap());
    }
    let receivers: Vec<_> = (0..next_id)
        .map(|i| sys.subscribe(SubscriberId(i)))
        .collect();

    // Publish a few periods of traffic per app (period-proportional).
    const ROUNDS: u64 = 10;
    for round in 0..ROUNDS {
        for (ai, app) in apps.iter().enumerate() {
            // Emit only on multiples of the topic period relative to the
            // fastest (50 ms) class.
            let ratio = TopicSpec::category(app.category, TopicId(0))
                .period
                .as_millis()
                / 50;
            if round % ratio != 0 {
                continue;
            }
            for (a, spec) in &specs {
                if *a == ai {
                    publishers[ai]
                        .publish(spec.id, &b"0123456789abcdef"[..])
                        .unwrap();
                }
            }
        }
        std::thread::sleep(StdDuration::from_millis(50));
    }

    // Drain deliveries and report per-application latency + loss stats.
    let mut tracker = DeliveryTracker::new();
    let mut per_app: BTreeMap<usize, (u64, Duration)> = BTreeMap::new();
    for (ti, rx) in receivers.iter().enumerate() {
        while let Ok(d) = rx.recv_timeout(StdDuration::from_millis(100)) {
            let latency = d.dispatched_at.saturating_since(d.message.created_at);
            tracker.accept(d.message.topic, d.message.seq, d.dispatched_at);
            let app = specs[ti].0;
            let e = per_app.entry(app).or_insert((0, Duration::ZERO));
            e.0 += 1;
            e.1 = e.1.max(latency);
        }
    }

    println!("\nDelivery summary:");
    for (ai, (count, max_latency)) in &per_app {
        let app = &apps[*ai];
        let ok = specs
            .iter()
            .filter(|(a, _)| a == ai)
            .all(|(_, s)| tracker.meets(s.id, s.loss_tolerance));
        println!(
            "  {:<28} {count:>3} msgs, max broker latency {max_latency}, loss-tolerance {}",
            app.name,
            if ok { "met" } else { "VIOLATED" }
        );
    }

    let stats = sys.primary.stats();
    println!(
        "\nPrimary: {} messages, {} dispatches, {} replications, {} suppressed by Prop 1",
        stats.messages_in, stats.dispatches, stats.replications, stats.replications_suppressed
    );
    println!(
        "Backup: {} replicas received, {} pruned by coordination",
        sys.backup.stats().replicas_received,
        sys.backup.stats().prunes_applied
    );
    sys.shutdown();
}
