//! Cost of per-message tracing, pinned at two levels.
//!
//! 1. `core_*`: the sans-IO pipeline (publish → admit+stamp → take_job →
//!    finish_job) through the core [`Broker`] facade. Pure CPU, no wire,
//!    no threads — the worst case for observability overhead, reported
//!    for trend tracking (a per-message cost in nanoseconds, not a
//!    percentage gate).
//! 2. `broker_*`: the threaded [`RtBroker`] driven by four admitting
//!    threads with emulated downstream wire service time, i.e. the same
//!    lock-overlap model `broker_throughput` measures. This is where the
//!    acceptance budget applies: enabling tracing must cost ≤5%
//!    throughput.
//!
//! `enabled` pays the full tentpole path — TraceCtx stamps on
//! admit/pop/lock/deliver, budget attribution, per-topic SLO counters and
//! one flight-recorder ring-slot write per delivery; `disabled` is the
//! no-op [`Telemetry::disabled`] handle, where every stamp site collapses
//! to one branch. The broker pipeline adds a third variant, `sampled`:
//! tracing enabled *plus* the `frame-obs` background sampler snapshotting
//! the registry at its default cadence — the steady-state cost of the
//! metrics time-series pipeline, gated at ≤1% on top of `enabled`.
//!
//! Writes `BENCH_trace_overhead.json` at the repo root. Custom harness
//! (`harness = false`): run with
//! `cargo bench -p frame-bench --bench trace_overhead` (add `--quick` for
//! a CI-sized run).

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::unbounded;
use frame_clock::{Clock, MonotonicClock};
use frame_core::{admit, Broker, BrokerConfig, BrokerRole};
use frame_rt::RtBroker;
use frame_telemetry::Telemetry;
use frame_types::{
    BrokerId, Duration, Message, NetworkParams, PublisherId, SeqNo, SubscriberId, Time, TopicId,
    TopicSpec,
};
use serde::Serialize;

const TOPICS: u32 = 256;
const FANOUT: u32 = 4;
const SERVICE_TIME_US: u64 = 200;
const PUBLISHERS: u32 = 4;
const BATCH: u64 = 1_000;

type MakeTelemetry = fn() -> Telemetry;

const VARIANTS: [(&str, MakeTelemetry); 2] = [
    ("disabled", Telemetry::disabled),
    ("enabled", Telemetry::new),
];

/// Broker-pipeline matrix: the third column is "run the background
/// `frame-obs` sampler alongside" (only meaningful with tracing on).
const BROKER_VARIANTS: [(&str, MakeTelemetry, bool); 3] = [
    ("disabled", Telemetry::disabled, false),
    ("enabled", Telemetry::new, false),
    ("sampled", Telemetry::new, true),
];

#[derive(Serialize)]
struct RunResult {
    pipeline: &'static str,
    variant: &'static str,
    /// Admitting threads (broker pipeline only; the core pass runs on
    /// the bench's own thread).
    publishers: Option<u32>,
    msgs_per_sec: f64,
    elapsed_ms: f64,
    messages: u64,
    /// Hot-path heap allocations per published message (broker pipeline
    /// only; the sans-IO core pass runs on the unattributed main thread).
    allocs_per_msg: f64,
    /// Declared allocation budget for this row, allocs/msg. Rows that pay
    /// for a feature by design (per-message tracing allocates its flight-
    /// recorder records) stamp the budget they are allowed; `bench_gate`
    /// uses it in place of the global absolute ceiling, which is meant
    /// for the untraced steady-state delivery path.
    alloc_budget: Option<f64>,
    /// Per-role resource deltas over this run (broker pipeline only).
    roles: Vec<frame_bench::RoleCost>,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    command: &'static str,
    host: frame_bench::HostMeta,
    quick: bool,
    repeats: usize,
    /// Whether the counting global allocator was compiled in — the
    /// overhead figures below are measured with profiling active, so the
    /// ≤5% budget covers the traced *and* profiled hot path.
    alloc_profiling: bool,
    note: &'static str,
    results: Vec<RunResult>,
    /// Sans-IO per-message cost of tracing, nanoseconds (trend metric).
    core_trace_cost_ns_per_msg: f64,
    /// Throughput lost on the threaded broker pipeline by turning tracing
    /// on, percent (negative = noise). Gated at ≤5%.
    broker_overhead_pct: f64,
    overhead_budget_pct: f64,
    /// Additional throughput lost by running the `frame-obs` background
    /// sampler on top of `enabled` tracing (steady state, default 100 ms
    /// cadence), percent (negative = noise). Gated at ≤1%.
    sampler_overhead_pct: f64,
    sampler_budget_pct: f64,
}

/// Sans-IO: one full publish→dispatch pass through the core facade.
fn run_core(variant: &'static str, make: MakeTelemetry, messages: u64) -> RunResult {
    let net = NetworkParams::paper_example();
    let mut b = Broker::new(BrokerId(0), BrokerRole::Primary, BrokerConfig::frame());
    b.set_telemetry(make());
    for t in 0..TOPICS {
        let spec = TopicSpec::category((t % 6) as u8, TopicId(t));
        b.register_topic(admit(&spec, &net).unwrap(), vec![SubscriberId(t)])
            .unwrap();
    }
    let mut seq = 0u64;
    let start = Instant::now();
    while seq < messages {
        let now = Time::from_nanos(seq * 1_000);
        for i in 0..BATCH.min(messages - seq) {
            let topic = ((seq + i) % u64::from(TOPICS)) as u32;
            b.on_message(
                Message::new(
                    TopicId(topic),
                    PublisherId(0),
                    SeqNo((seq + i) / u64::from(TOPICS)),
                    now,
                    Bytes::from_static(b"0123456789abcdef"),
                ),
                now,
            )
            .unwrap();
        }
        while let Some(active) = b.take_job(now) {
            std::hint::black_box(b.finish_job(&active, now).len());
        }
        seq += BATCH;
    }
    let elapsed = start.elapsed();
    RunResult {
        pipeline: "core",
        variant,
        publishers: None,
        msgs_per_sec: messages as f64 / elapsed.as_secs_f64(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        messages,
        allocs_per_msg: 0.0,
        alloc_budget: None,
        roles: Vec::new(),
    }
}

/// Threaded: the `broker_throughput` pipeline (EDF, admitting threads that
/// run their own jobs, emulated downstream wire time) with the chosen
/// telemetry handle, optionally with the background metrics sampler
/// running at its default cadence.
fn run_broker(
    variant: &'static str,
    make: MakeTelemetry,
    messages: u64,
    with_sampler: bool,
) -> RunResult {
    let profile_before = frame_telemetry::snapshot_roles();
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let broker = RtBroker::spawn(
        BrokerId(0),
        BrokerRole::Primary,
        BrokerConfig::frame(),
        clock.clone(),
        make(),
        None,
    );
    broker.set_job_service_time(Duration::from_micros(SERVICE_TIME_US));
    let net = NetworkParams::paper_example();
    let subscribers: Vec<SubscriberId> = (0..FANOUT).map(SubscriberId).collect();
    for t in 0..TOPICS {
        let spec = TopicSpec::category(1, TopicId(t));
        broker
            .register_topic(admit(&spec, &net).unwrap(), subscribers.clone())
            .unwrap();
    }
    let mut obs = with_sampler.then(|| {
        // Each topic adds one SLO-burn series on top of the broker-wide
        // ones the default cap is sized for; a sampler shedding series
        // would measure a cheaper sampler than operators run.
        let defaults = frame_obs::SamplerConfig::default();
        frame_obs::spawn_sampler(
            broker.telemetry().clone(),
            clock.clone(),
            frame_obs::SamplerConfig {
                max_series: defaults.max_series + TOPICS as usize,
                ..defaults
            },
        )
    });
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
    let threads: Vec<_> = (0..PUBLISHERS)
        .map(|p| {
            let (broker, clock) = (broker.clone(), clock.clone());
            std::thread::spawn(move || {
                // Admission and the jobs it claims run on the publishing
                // thread, as they do on a reactor loop, so their cost is
                // charged to that hot-path role.
                frame_telemetry::register_thread_role(
                    frame_telemetry::RoleKind::Reactor,
                    p as usize,
                );
                // Each topic has one publisher, so its seqs stay in order.
                for i in (0..messages).filter(|i| i % u64::from(PUBLISHERS) == u64::from(p)) {
                    broker.publish(Message::new(
                        TopicId((i % u64::from(TOPICS)) as u32),
                        PublisherId(p),
                        SeqNo(i / u64::from(TOPICS)),
                        clock.now(),
                        &b"0123456789abcdef"[..],
                    ));
                }
                frame_telemetry::stamp_thread_cpu();
            })
        })
        .collect();
    for t in threads {
        t.join().expect("publisher");
    }
    let mut drained = 0u64;
    for d in drainers {
        drained += d.join().expect("drainer");
    }
    let elapsed = start.elapsed();
    assert_eq!(drained, messages * u64::from(FANOUT));
    if let Some(s) = obs.as_mut() {
        s.shutdown();
    }
    broker.shutdown();
    let roles = frame_bench::role_costs(
        &profile_before,
        &frame_telemetry::snapshot_roles(),
        messages,
    );
    RunResult {
        pipeline: "broker",
        variant,
        publishers: Some(PUBLISHERS),
        msgs_per_sec: messages as f64 / elapsed.as_secs_f64(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        messages,
        allocs_per_msg: frame_bench::hot_path_allocs_per_msg(&roles),
        // Tracing stages incident details into the flight ring's recycled
        // buffers, so the traced path only out-allocates the untraced one
        // while the incident ring warms up; the budget leaves room for
        // that warmup plus profiling jitter, nothing more. The untraced
        // row keeps the gate's 0.5 hot-path ceiling.
        alloc_budget: if variant == "disabled" {
            None
        } else {
            Some(1.0)
        },
        roles,
    }
}

/// Runs every variant `repeats` times, interleaved (off/on/off/on…) so
/// slow drift on a shared host biases no side; keeps each variant's
/// best run.
fn bench_matrix<V: Copy>(
    repeats: usize,
    variants: &[V],
    run: impl Fn(V) -> RunResult,
) -> Vec<RunResult> {
    let mut best: Vec<Option<RunResult>> = (0..variants.len()).map(|_| None).collect();
    for _ in 0..repeats {
        for (i, v) in variants.iter().enumerate() {
            let r = run(*v);
            if best[i]
                .as_ref()
                .is_none_or(|b| r.msgs_per_sec > b.msgs_per_sec)
            {
                best[i] = Some(r);
            }
        }
    }
    best.into_iter()
        .map(|b| b.expect("at least one repeat"))
        .collect()
}

fn throughput_of(results: &[RunResult], pipeline: &str, variant: &str) -> f64 {
    results
        .iter()
        .find(|r| r.pipeline == pipeline && r.variant == variant)
        .map(|r| r.msgs_per_sec)
        .expect("matrix covers this configuration")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("FRAME_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (core_messages, broker_messages, repeats) = if quick {
        (100_000, 3_000, 2)
    } else {
        (400_000, 12_000, 4)
    };

    let mut results = bench_matrix(repeats, &VARIANTS, |(v, m)| run_core(v, m, core_messages));
    results.extend(bench_matrix(repeats, &BROKER_VARIANTS, |(v, m, s)| {
        run_broker(v, m, broker_messages, s)
    }));
    for r in &results {
        eprintln!(
            "{:<6} {:<9} {:>12.0} msgs/s  ({:.0} ms)",
            r.pipeline, r.variant, r.msgs_per_sec, r.elapsed_ms
        );
    }

    let core_off = throughput_of(&results, "core", "disabled");
    let core_on = throughput_of(&results, "core", "enabled");
    let core_trace_cost_ns_per_msg = (1.0 / core_on - 1.0 / core_off) * 1e9;
    let broker_off = throughput_of(&results, "broker", "disabled");
    let broker_on = throughput_of(&results, "broker", "enabled");
    let broker_overhead_pct = (broker_off / broker_on - 1.0) * 100.0;
    let broker_sampled = throughput_of(&results, "broker", "sampled");
    let sampler_overhead_pct = (broker_on / broker_sampled - 1.0) * 100.0;
    eprintln!("core tracing cost: {core_trace_cost_ns_per_msg:.0} ns/msg");
    eprintln!("broker tracing overhead: {broker_overhead_pct:+.2}% (budget 5%)");
    eprintln!("sampler steady-state overhead: {sampler_overhead_pct:+.2}% (budget 1%)");

    let report = BenchReport {
        bench: "trace_overhead",
        command: "cargo bench -p frame-bench --bench trace_overhead",
        host: frame_bench::HostMeta::capture(),
        quick,
        repeats,
        alloc_profiling: frame_telemetry::alloc_profiling_enabled(),
        note: "`core` is the sans-IO facade (pure CPU, worst case for \
               tracing; the cost is reported per message). `broker` rows \
               model lock overlap: `publishers` admitting threads run the \
               jobs they claim, each with emulated downstream wire time — \
               the broker_throughput pipeline — and the ≤5% acceptance \
               budget applies there. `sampled` adds the frame-obs background \
               sampler (default 100 ms cadence) on top of `enabled`; its \
               steady-state cost is gated at ≤1%.",
        results,
        core_trace_cost_ns_per_msg,
        broker_overhead_pct,
        overhead_budget_pct: 5.0,
        sampler_overhead_pct,
        sampler_budget_pct: 1.0,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_trace_overhead.json"
    );
    std::fs::write(path, json + "\n").expect("write BENCH_trace_overhead.json");
    eprintln!("wrote {path}");
}
