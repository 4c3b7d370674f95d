//! Worker-pool throughput of the threaded broker.
//!
//! Measures end-to-end broker throughput (publish → admit → schedule →
//! dispatch → subscriber hand-off) for 1/2/4/8 delivery workers under EDF
//! and FCFS, and writes `BENCH_broker_throughput.json` at the repo root —
//! the perf-trajectory convention described in ROADMAP.md.
//!
//! Each finished job carries an emulated downstream wire service time
//! ([`frame_rt::RtBroker::set_job_service_time`]): on the paper's testbed
//! a Dispatcher spends most of a dispatch blocked on socket writes toward
//! subscriber hosts, and that blocked time — not broker CPU — is what a
//! worker pool overlaps. In-process channels erase it, which would make
//! pool sizing invisible on CPU-starved runners; restoring it makes the
//! scaling curve reflect the architecture (one broker lock + per-topic
//! claims, effects sent outside the lock) rather than the host's core
//! count.
//!
//! Custom harness (`harness = false`): run with
//! `cargo bench -p frame-bench --bench broker_throughput` (add `--quick`
//! for a CI-sized run).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::unbounded;
use frame_clock::{Clock, MonotonicClock};
use frame_core::{admit, BrokerConfig, BrokerRole, SchedulingPolicy};
use frame_rt::RtBroker;
use frame_telemetry::Telemetry;
use frame_types::{
    BrokerId, Duration, Message, NetworkParams, PublisherId, SeqNo, SubscriberId, TopicId,
    TopicSpec,
};
use serde::Serialize;

const TOPICS: u32 = 256;
const FANOUT: u32 = 4;
const SERVICE_TIME_US: u64 = 200;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct RunResult {
    policy: &'static str,
    workers: usize,
    msgs_per_sec: f64,
    elapsed_ms: f64,
    messages: u64,
    dispatches: u64,
    queue_high_watermark: u64,
    /// Hot-path heap allocations per published message (sum over the
    /// admitting publisher and worker roles below) — the figure the perf
    /// gate watches.
    allocs_per_msg: f64,
    /// Per-role resource deltas over this run (allocations, CPU,
    /// syscalls), from the frame-telemetry role profile.
    roles: Vec<frame_bench::RoleCost>,
}

#[derive(Serialize)]
struct Speedups {
    edf_2w_over_1w: f64,
    edf_4w_over_1w: f64,
    edf_8w_over_1w: f64,
    fcfs_4w_over_1w: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    command: &'static str,
    host: frame_bench::HostMeta,
    quick: bool,
    topics: u32,
    fanout: u32,
    messages_per_run: u64,
    repeats: usize,
    job_service_time_us: u64,
    /// Whether the counting global allocator was compiled in; when false
    /// every `allocs_per_msg` figure reads 0 and the gate skips it.
    alloc_profiling: bool,
    note: &'static str,
    results: Vec<RunResult>,
    speedup: Speedups,
}

/// One full pass: flood `messages` across the topics, wait until every
/// subscriber channel drained its copy of each, return msgs/sec.
fn run_once(policy: SchedulingPolicy, workers: usize, messages: u64) -> RunResult {
    let profile_before = frame_telemetry::snapshot_roles();
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let config = BrokerConfig {
        policy,
        ..BrokerConfig::frame()
    };
    let (broker, threads) = RtBroker::spawn(
        BrokerId(0),
        BrokerRole::Primary,
        config,
        workers,
        clock.clone(),
        Telemetry::disabled(),
        None,
    );
    broker.set_job_service_time(Duration::from_micros(SERVICE_TIME_US));
    let net = NetworkParams::paper_example();
    let subscribers: Vec<SubscriberId> = (0..FANOUT).map(SubscriberId).collect();
    for t in 0..TOPICS {
        // Category 1: dispatch-only under Proposition 1 (loss tolerance
        // covers fail-over), so the measured path is the dispatch plane.
        let spec = TopicSpec::category(1, TopicId(t));
        broker
            .register_topic(admit(&spec, &net).unwrap(), subscribers.clone())
            .unwrap();
    }
    let mut drainers = Vec::new();
    for s in &subscribers {
        let (tx, rx) = unbounded();
        broker.connect_subscriber(*s, tx, None);
        drainers.push(std::thread::spawn(move || {
            let mut got = 0u64;
            while got < messages {
                match rx.recv_timeout(std::time::Duration::from_secs(60)) {
                    Ok(_) => got += 1,
                    Err(_) => break,
                }
            }
            got
        }));
    }

    let start = Instant::now();
    let publisher = {
        let broker = broker.clone();
        std::thread::spawn(move || {
            // Admission runs on the publishing thread, as it does on a
            // reactor loop, so its cost is charged to that hot-path role.
            frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Reactor, 0);
            for i in 0..messages {
                let topic = (i % u64::from(TOPICS)) as u32;
                let seq = i / u64::from(TOPICS);
                broker.publish(Message::new(
                    TopicId(topic),
                    PublisherId(0),
                    SeqNo(seq),
                    clock.now(),
                    &b"0123456789abcdef"[..],
                ));
            }
            frame_telemetry::stamp_thread_cpu();
        })
    };
    publisher.join().expect("publisher");
    let mut drained = 0u64;
    for d in drainers {
        drained += d.join().expect("drainer");
    }
    let elapsed = start.elapsed();
    assert_eq!(
        drained,
        messages * u64::from(FANOUT),
        "every message must reach every subscriber"
    );
    let stats = broker.stats();
    broker.shutdown();
    threads.join();
    // Worker threads stamp their CPU totals on exit, so the diff is
    // only complete once the pool has joined.
    let roles = frame_bench::role_costs(
        &profile_before,
        &frame_telemetry::snapshot_roles(),
        messages,
    );
    RunResult {
        policy: match policy {
            SchedulingPolicy::Edf => "edf",
            SchedulingPolicy::Fcfs => "fcfs",
        },
        workers,
        msgs_per_sec: messages as f64 / elapsed.as_secs_f64(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        messages,
        dispatches: stats.dispatches,
        queue_high_watermark: stats.queue_high_watermark,
        allocs_per_msg: frame_bench::hot_path_allocs_per_msg(&roles),
        roles,
    }
}

fn best_of(repeats: usize, policy: SchedulingPolicy, workers: usize, messages: u64) -> RunResult {
    let mut best: Option<RunResult> = None;
    for _ in 0..repeats {
        let r = run_once(policy, workers, messages);
        if best
            .as_ref()
            .is_none_or(|b| r.msgs_per_sec > b.msgs_per_sec)
        {
            best = Some(r);
        }
    }
    best.expect("at least one repeat")
}

fn throughput_of(results: &[RunResult], policy: &str, workers: usize) -> f64 {
    results
        .iter()
        .find(|r| r.policy == policy && r.workers == workers)
        .map(|r| r.msgs_per_sec)
        .expect("matrix covers this configuration")
}

fn main() {
    // Cargo's bench runner appends flags like `--bench`; only `--quick`
    // (or FRAME_BENCH_QUICK=1) is ours.
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("FRAME_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (messages, repeats) = if quick { (1_500, 1) } else { (6_000, 2) };

    let mut results = Vec::new();
    for policy in [SchedulingPolicy::Edf, SchedulingPolicy::Fcfs] {
        for workers in WORKER_COUNTS {
            let r = best_of(repeats, policy, workers, messages);
            eprintln!(
                "{:<5} workers={}  {:>10.0} msgs/s  ({:.0} ms)  {:.1} allocs/msg",
                r.policy, r.workers, r.msgs_per_sec, r.elapsed_ms, r.allocs_per_msg
            );
            results.push(r);
        }
    }

    let speedup = Speedups {
        edf_2w_over_1w: throughput_of(&results, "edf", 2) / throughput_of(&results, "edf", 1),
        edf_4w_over_1w: throughput_of(&results, "edf", 4) / throughput_of(&results, "edf", 1),
        edf_8w_over_1w: throughput_of(&results, "edf", 8) / throughput_of(&results, "edf", 1),
        fcfs_4w_over_1w: throughput_of(&results, "fcfs", 4) / throughput_of(&results, "fcfs", 1),
    };
    eprintln!(
        "speedup over 1 worker (edf): 2w={:.2}x 4w={:.2}x 8w={:.2}x",
        speedup.edf_2w_over_1w, speedup.edf_4w_over_1w, speedup.edf_8w_over_1w
    );

    let report = BenchReport {
        bench: "broker_throughput",
        command: "cargo bench -p frame-bench --bench broker_throughput",
        host: frame_bench::HostMeta::capture(),
        quick,
        topics: TOPICS,
        fanout: FANOUT,
        messages_per_run: messages,
        repeats,
        job_service_time_us: SERVICE_TIME_US,
        alloc_profiling: frame_telemetry::alloc_profiling_enabled(),
        note: "Each job carries an emulated downstream wire service time \
               (set_job_service_time), so msgs/sec reflects how well the \
               worker pool overlaps dispatch work under the one-lock + \
               claim design, independent of host core count. Per-run \
               `roles` rows attribute allocations, CPU and syscalls to \
               broker roles via the frame-telemetry profile table; \
               `allocs_per_msg` sums the hot-path roles.",
        results,
        speedup,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_broker_throughput.json"
    );
    std::fs::write(path, json + "\n").expect("write BENCH_broker_throughput.json");
    eprintln!("wrote {path}");

    // Sanity: the matrix covered every (policy, workers) pair exactly once.
    let mut seen = HashSet::new();
    for r in &report.results {
        assert!(seen.insert((r.policy, r.workers)));
    }
}
