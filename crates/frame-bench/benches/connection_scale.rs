//! Publisher fan-in scaling of the reactor TCP ingress.
//!
//! Sweeps a ladder of simulated publishers (1k → 100k) against a live
//! broker served by [`frame_rt::ReactorServer`], measuring ingest
//! throughput, p50/p99 admit→deliver latency, and resident memory per
//! connection, and writes `BENCH_connection_scale.json` at the repo root
//! (the perf-trajectory convention described in ROADMAP.md).
//!
//! Both endpoints live in this process (loopback), so every connection
//! costs two file descriptors and the ladder is capped by
//! `RLIMIT_NOFILE`: when a rung asks for more publishers than the fd
//! budget allows, publishers are multiplexed round-robin over the capped
//! connection count and the rung is marked `fd_capped` — throughput and
//! latency still reflect the requested publisher count, resident memory
//! reflects live sockets. Deliveries are drained through an in-process
//! subscriber channel so the measured latency isolates the ingress path
//! under test (socket → decode → admit → dispatch → hand-off).
//!
//! Custom harness (`harness = false`): run with
//! `cargo bench -p frame-bench --bench connection_scale` (add `--quick`
//! for the CI-sized 1k-only run).

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::unbounded;
use frame_bench::HostMeta;
use frame_clock::{Clock, MonotonicClock};
use frame_core::{admit, BrokerConfig, BrokerRole};
use frame_rt::{ReactorServer, RtBroker, WireCodec, WireMsg};
use frame_telemetry::Telemetry;
use frame_types::{
    BrokerId, Message, NetworkParams, PublisherId, SeqNo, SubscriberId, TopicId, TopicSpec,
};
use serde::Serialize;

const TOPICS: u32 = 64;
/// Messages each simulated publisher sends.
const ROUNDS: usize = 2;
/// Client-side writer threads (each owns a slice of the connections).
const WRITERS: usize = 4;
/// File descriptors left unclaimed for the process itself (stdio, poller
/// fds, telemetry, the listener).
const FD_MARGIN: u64 = 500;
/// The full publisher ladder; rungs above the fd budget multiplex.
const LADDER: [usize; 5] = [1_000, 4_000, 16_000, 32_000, 100_000];

#[derive(Serialize)]
struct RungResult {
    publishers: usize,
    connections: usize,
    /// Connections were capped by `RLIMIT_NOFILE`; publishers were
    /// multiplexed round-robin over the live sockets.
    fd_capped: bool,
    messages: u64,
    msgs_per_sec: f64,
    elapsed_ms: f64,
    p50_admit_to_deliver_us: u64,
    p99_admit_to_deliver_us: u64,
    /// Resident-set growth per live connection (both loopback endpoints
    /// plus server-side state; negative values are measurement noise).
    per_conn_rss_bytes: i64,
    reactor_wakeups: u64,
    reactor_budget_exhaustions: u64,
    reactor_write_queue_drops: u64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    command: &'static str,
    host: HostMeta,
    quick: bool,
    topics: u32,
    rounds: usize,
    /// Loopback connections the fd limit allows (both endpoints counted).
    fd_conn_budget: usize,
    note: &'static str,
    results: Vec<RungResult>,
}

/// Resident set size in bytes, from `/proc/self/status` (0 off-Linux).
fn rss_bytes() -> i64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            if let Some(kb) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<i64>().ok())
            {
                return kb * 1024;
            }
        }
    }
    0
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// One rung: a fresh broker + reactor server, `connections` live sockets
/// carrying `publishers` round-robin, full-delivery assertion, teardown.
fn run_rung(publishers: usize, conn_budget: usize) -> RungResult {
    let connections = publishers.min(conn_budget);
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let telemetry = Telemetry::new();
    let broker = RtBroker::spawn(
        BrokerId(0),
        BrokerRole::Primary,
        BrokerConfig::frame(),
        clock.clone(),
        telemetry.clone(),
        None,
    );
    let net = NetworkParams::paper_example();
    for t in 0..TOPICS {
        // Category 1: dispatch-only under Proposition 1, so the measured
        // path is ingress → admit → dispatch with no replication traffic.
        let spec = TopicSpec::category(1, TopicId(t));
        broker
            .register_topic(admit(&spec, &net).unwrap(), vec![SubscriberId(0)])
            .unwrap();
    }
    let (tx, rx) = unbounded();
    broker.connect_subscriber(SubscriberId(0), tx, None);
    let server = ReactorServer::bind("127.0.0.1:0", broker.clone()).expect("bind reactor");
    let addr = server.local_addr();

    let rss_before = rss_bytes();
    let mut streams = Vec::with_capacity(connections);
    for _ in 0..connections {
        streams.push(TcpStream::connect(addr).expect("connect"));
    }
    // Let the reactor finish adopting the backlog (it registers
    // asynchronously) before sampling memory.
    std::thread::sleep(std::time::Duration::from_millis(
        100 + (connections / 100) as u64,
    ));
    let per_conn_rss_bytes = (rss_bytes() - rss_before) / connections as i64;

    // Partition connections across writer threads; publisher p writes on
    // connection p % connections, so rungs above the fd budget multiplex.
    let mut parts: Vec<Vec<(usize, TcpStream)>> = (0..WRITERS).map(|_| Vec::new()).collect();
    for (idx, stream) in streams.into_iter().enumerate() {
        parts[idx % WRITERS].push((idx, stream));
    }
    let expected = (publishers * ROUNDS) as u64;
    let drain_clock = clock.clone();
    let drainer = std::thread::spawn(move || {
        let mut lat_us = Vec::with_capacity(expected as usize);
        while lat_us.len() < expected as usize {
            match rx.recv_timeout(std::time::Duration::from_secs(120)) {
                Ok(d) => lat_us.push(
                    drain_clock
                        .now()
                        .saturating_since(d.message.created_at)
                        .as_micros(),
                ),
                Err(_) => break,
            }
        }
        lat_us
    });

    let start = Instant::now();
    let mut writers = Vec::new();
    for part in parts {
        let clock = clock.clone();
        writers.push(std::thread::spawn(move || {
            let mut part = part;
            let mut codec = WireCodec::new();
            let blocks = publishers.div_ceil(connections);
            for round in 0..ROUNDS {
                // Interleave across this thread's connections block by
                // block so traffic multiplexes instead of draining one
                // socket at a time.
                for block in 0..blocks {
                    for (idx, stream) in &mut part {
                        let p = block * connections + *idx;
                        if p >= publishers {
                            continue;
                        }
                        // seq unique per topic: publishers sharing a topic
                        // differ in p / TOPICS.
                        let seq = (p / TOPICS as usize) * ROUNDS + round;
                        let msg = Message::new(
                            TopicId((p % TOPICS as usize) as u32),
                            PublisherId(p as u32),
                            SeqNo(seq as u64),
                            clock.now(),
                            &b"0123456789abcdef"[..],
                        );
                        codec
                            .encode_into(stream, &WireMsg::Publish(msg))
                            .expect("publish frame");
                    }
                }
            }
            part // keep sockets open until the rung is drained
        }));
    }
    let parts: Vec<_> = writers
        .into_iter()
        .map(|w| w.join().expect("writer"))
        .collect();
    let mut lat_us = drainer.join().expect("drainer");
    let elapsed = start.elapsed();
    assert_eq!(
        lat_us.len() as u64,
        expected,
        "every published message must be delivered ({publishers} publishers)"
    );
    lat_us.sort_unstable();

    let snap = telemetry.snapshot();
    let (mut wakeups, mut budget_exhaustions, mut write_drops) = (0u64, 0u64, 0u64);
    for l in &snap.reactor_loops {
        wakeups += l.wakeups;
        budget_exhaustions += l.budget_exhaustions;
        write_drops += l.write_queue_drops;
    }
    drop(parts);
    server.shutdown();
    broker.shutdown();
    RungResult {
        publishers,
        connections,
        fd_capped: connections < publishers,
        messages: expected,
        msgs_per_sec: expected as f64 / elapsed.as_secs_f64(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        p50_admit_to_deliver_us: percentile(&lat_us, 0.50),
        p99_admit_to_deliver_us: percentile(&lat_us, 0.99),
        per_conn_rss_bytes,
        reactor_wakeups: wakeups,
        reactor_budget_exhaustions: budget_exhaustions,
        reactor_write_queue_drops: write_drops,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("FRAME_BENCH_QUICK").is_ok_and(|v| v == "1");
    let host = HostMeta::capture();
    // Every loopback connection costs two fds in this process.
    let fd_conn_budget = (host.nofile_soft.saturating_sub(FD_MARGIN) / 2).max(64) as usize;
    let ladder: Vec<usize> = if quick {
        vec![LADDER[0]]
    } else {
        LADDER.to_vec()
    };

    let mut results = Vec::new();
    for publishers in ladder {
        let r = run_rung(publishers, fd_conn_budget);
        eprintln!(
            "pubs={:<7} conns={:<6} {:>9.0} msgs/s  p99={:>7}us  rss/conn={}B{}",
            r.publishers,
            r.connections,
            r.msgs_per_sec,
            r.p99_admit_to_deliver_us,
            r.per_conn_rss_bytes,
            if r.fd_capped { "  (fd-capped)" } else { "" }
        );
        results.push(r);
    }

    let report = BenchReport {
        bench: "connection_scale",
        command: "cargo bench -p frame-bench --bench connection_scale",
        host,
        quick,
        topics: TOPICS,
        rounds: ROUNDS,
        fd_conn_budget,
        note: "Loopback fan-in: both endpoints share this process, so each \
               connection is two fds and rungs beyond RLIMIT_NOFILE \
               multiplex publishers over the capped connection count \
               (fd_capped). Deliveries drain through an in-process \
               subscriber channel, isolating the ingress path under test. \
               per_conn_rss_bytes counts both endpoints. Each rung \
               floods its whole offered load at once, so admit→deliver \
               percentiles include queueing behind the rung's entire \
               backlog and grow with publisher count by construction; \
               the scaling signal is msgs_per_sec staying flat as \
               connections multiply.",
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_connection_scale.json"
    );
    std::fs::write(path, json + "\n").expect("write BENCH_connection_scale.json");
    eprintln!("wrote {path}");
}
