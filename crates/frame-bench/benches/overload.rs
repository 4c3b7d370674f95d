//! Goodput under overload: admission-boundary controller on vs. off.
//!
//! A sans-IO [`Broker`] is driven on a pure logical clock in 1 ms steps.
//! Each step publishes the rung's offered load (round-robin over a
//! 12-topic mix spanning the controller's eligibility rules) and then
//! drains at most [`CAPACITY_JOBS_PER_STEP`] jobs — a fixed-rate service
//! plane. Offered rungs sweep 0.5× to 3× of that capacity.
//!
//! Without the controller, overload stacks the EDF queue without bound:
//! every popped job is eventually past its absolute deadline, so capacity
//! is burned executing doomed dispatches and *goodput* (on-time
//! deliveries per second) collapses. With the controller, pressure on the
//! queue-depth term walks the degradation ladder — suppress optional
//! replication, shed `L_i`-bounded runs on tolerant topics, evict
//! best-effort topics — and admission oscillates around capacity on the
//! controller's hysteresis, so the queue stays inside the deadline
//! horizon and goodput holds near the service rate.
//!
//! Everything runs on the logical clock: same inputs, same numbers, every
//! run. The report fails the process if the controlled broker's goodput
//! at the top rung is not at least [`ADVANTAGE_FLOOR`]× the uncontrolled
//! broker's, so CI catches a controller regression without a baseline.
//!
//! Writes `BENCH_overload.json` at the repo root. Custom harness
//! (`harness = false`): run with
//! `cargo bench -p frame-bench --bench overload` (add `--quick` for a
//! CI-sized run).

use frame_core::{admit, Broker, BrokerConfig, BrokerRole, OverloadConfig};
use frame_telemetry::RoleKind;
use frame_types::{
    BrokerId, Duration, Message, NetworkParams, PublisherId, SeqNo, SubscriberId, Time, TopicId,
    TopicSpec,
};
use serde::Serialize;

/// Service slots per 1 ms step (8 000 jobs/s). A job is one dispatch or
/// one replication; the drain loop models a fixed-rate delivery plane.
const CAPACITY_JOBS_PER_STEP: u64 = 8;

/// Table-2 categories for the 12-topic mix, one publish slot each per
/// round-robin cycle. Two hard topics (cat 0 and cat 2: `L_i = 0`, never
/// sheddable; cat 2 also replicates, so rung 1 has something to
/// suppress), three tolerant topics (`L_i = 3`: sheddable in runs of at
/// most 3) and seven best-effort topics (sheddable without bound,
/// evictable at rung 3). At the 3× rung the non-sheddable floor — hard
/// dispatches plus suppressed-replication-era cat-2 jobs plus 1-in-4
/// tolerant admissions — still fits inside capacity, so the controller
/// *can* save the run; whether it does is what this bench measures.
const CATS: [u8; 12] = [0, 2, 1, 3, 3, 4, 4, 4, 4, 4, 4, 4];

/// Offered-load rungs: messages per step (label, msgs/step).
const RUNGS: [(&str, u64); 4] = [("0.5x", 4), ("1x", 8), ("2x", 16), ("3x", 24)];

/// Controlled goodput at the top rung must beat uncontrolled by this
/// factor or the bench exits non-zero (deterministic, so no flake risk).
const ADVANTAGE_FLOOR: f64 = 1.3;

#[derive(Serialize)]
struct RungResult {
    rung: &'static str,
    variant: &'static str,
    offered_per_sec: f64,
    /// Goodput: dispatch jobs completed *before* their absolute deadline,
    /// per logical second. Named `msgs_per_sec` so `bench_gate`'s
    /// throughput-regression check applies to it.
    msgs_per_sec: f64,
    /// Late dispatches as a fraction of offered messages.
    miss_rate: f64,
    offered: u64,
    on_time: u64,
    late: u64,
    /// Messages dropped at the admission boundary by the controller
    /// (rung-2 sheds plus rung-3 evicted-topic rejects).
    shed: u64,
    queue_high_watermark: u64,
    /// Ladder rung at the end of the run (0 = normal service).
    final_rung: u64,
    escalations: u64,
    deescalations: u64,
    allocs_per_msg: f64,
    /// The sans-IO facade returns a fresh `Vec<Effect>` per executed job
    /// and the EDF heap grows with the backlog, so this loop allocates by
    /// design; the budget replaces the gate's pooled-delivery ceiling.
    alloc_budget: Option<f64>,
    roles: Vec<frame_bench::RoleCost>,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    command: &'static str,
    host: frame_bench::HostMeta,
    quick: bool,
    alloc_profiling: bool,
    capacity_jobs_per_sec: u64,
    steps: u64,
    note: &'static str,
    results: Vec<RungResult>,
    /// Controlled / uncontrolled goodput at the top rung. Gated at
    /// `advantage_floor` by the bench itself (deterministic workload).
    goodput_advantage_top_rung: f64,
    advantage_floor: f64,
}

/// Runs one rung: publish `offered_per_step` messages per 1 ms step,
/// drain at most `CAPACITY_JOBS_PER_STEP` jobs, and (when `controlled`)
/// tick the overload controller on its cadence.
fn run_rung(rung: &'static str, offered_per_step: u64, steps: u64, controlled: bool) -> RungResult {
    let net = NetworkParams::paper_example();
    let mut b = Broker::new(BrokerId(0), BrokerRole::Primary, BrokerConfig::frame());
    for (i, cat) in CATS.iter().enumerate() {
        let spec = TopicSpec::category(*cat, TopicId(i as u32));
        b.register_topic(admit(&spec, &net).unwrap(), vec![SubscriberId(i as u32)])
            .unwrap();
    }
    if controlled {
        // Depth-driven: more than ~4 steps of backlog reads as saturated.
        // The hysteresis (enter 1.0 / exit 0.5, climb after 2 hot ticks,
        // descend after 4 cool ones) makes admission oscillate around the
        // service rate instead of pinning the ladder at one rung.
        b.set_overload(OverloadConfig {
            target_queue_depth: 4 * CAPACITY_JOBS_PER_STEP,
            escalate_ticks: 2,
            cooldown_ticks: 4,
            tick_interval: Duration::from_millis(10),
            ..OverloadConfig::new(net)
        });
    }
    let tick_every = 10; // steps per control tick, = tick_interval / step

    let before = frame_telemetry::snapshot_roles();
    let mut counter = 0u64; // global publish counter: topic + seq derive from it
    for step in 0..steps {
        let now = Time::from_millis(step);
        for _ in 0..offered_per_step {
            let topic = (counter % CATS.len() as u64) as u32;
            let seq = counter / CATS.len() as u64;
            b.on_message(
                Message::new(
                    TopicId(topic),
                    PublisherId(0),
                    SeqNo(seq),
                    now,
                    bytes::Bytes::from_static(b"0123456789abcdef"),
                ),
                now,
            )
            .unwrap();
            counter += 1;
        }
        let mut budget = CAPACITY_JOBS_PER_STEP;
        while budget > 0 {
            let Some(active) = b.take_job(now) else { break };
            std::hint::black_box(b.finish_job(&active, now).len());
            budget -= 1;
        }
        if controlled && (step + 1) % tick_every == 0 {
            b.control_tick(now);
        }
    }
    let after = frame_telemetry::snapshot_roles();

    let stats = b.stats();
    let offered = stats.messages_in + stats.messages_shed;
    assert_eq!(offered, offered_per_step * steps, "every publish accounted");
    let on_time = stats.dispatches - stats.dispatch_deadline_misses;
    let secs = steps as f64 / 1_000.0;
    let roles = frame_bench::role_costs(&before, &after, offered);
    RungResult {
        rung,
        variant: if controlled {
            "controlled"
        } else {
            "uncontrolled"
        },
        offered_per_sec: offered as f64 / secs,
        msgs_per_sec: on_time as f64 / secs,
        miss_rate: stats.dispatch_deadline_misses as f64 / offered as f64,
        offered,
        on_time,
        late: stats.dispatch_deadline_misses,
        shed: stats.messages_shed,
        queue_high_watermark: stats.queue_high_watermark,
        final_rung: b.overload().map_or(0, |c| c.rung().index() as u64),
        escalations: b.overload().map_or(0, |c| c.escalations()),
        deescalations: b.overload().map_or(0, |c| c.deescalations()),
        allocs_per_msg: frame_bench::hot_path_allocs_per_msg(&roles),
        alloc_budget: Some(2.5),
        roles,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("FRAME_BENCH_QUICK").is_ok_and(|v| v == "1");
    // Logical-clock workload: quick trims the horizon, not the physics.
    let steps: u64 = if quick { 1_200 } else { 4_000 };

    // Attribute the single-threaded drive loop as a reactor loop — the
    // role that admits and dispatches — so the allocation profile of that
    // path lands in a hot-path role slot instead of the unattributed
    // catch-all.
    frame_telemetry::register_thread_role(RoleKind::Reactor, 0);

    let mut results = Vec::new();
    for (rung, offered) in RUNGS {
        for controlled in [false, true] {
            let r = run_rung(rung, offered, steps, controlled);
            eprintln!(
                "{:<5} {:<12} goodput {:>8.0}/s  miss {:>5.1}%  shed {:>6}  \
                 rung {}  queue peak {}",
                r.rung,
                r.variant,
                r.msgs_per_sec,
                r.miss_rate * 100.0,
                r.shed,
                r.final_rung,
                r.queue_high_watermark,
            );
            results.push(r);
        }
    }

    let goodput = |rung: &str, variant: &str| {
        results
            .iter()
            .find(|r| r.rung == rung && r.variant == variant)
            .map(|r| r.msgs_per_sec)
            .expect("matrix covers this configuration")
    };
    let top = RUNGS[RUNGS.len() - 1].0;
    let advantage = goodput(top, "controlled") / goodput(top, "uncontrolled");
    eprintln!("top-rung ({top}) goodput advantage: {advantage:.2}x (floor {ADVANTAGE_FLOOR}x)");

    let report = BenchReport {
        bench: "overload",
        command: "cargo bench -p frame-bench --bench overload",
        host: frame_bench::HostMeta::capture(),
        quick,
        alloc_profiling: frame_telemetry::alloc_profiling_enabled(),
        capacity_jobs_per_sec: CAPACITY_JOBS_PER_STEP * 1_000,
        steps,
        note: "Sans-IO broker on a logical clock: 1 ms steps, fixed \
               service capacity, offered-load rungs as multiples of it. \
               `msgs_per_sec` is goodput — dispatches completed before \
               their absolute deadline, per logical second — so the \
               controlled/uncontrolled pair at each rung is the paper's \
               graceful-degradation claim in one number. Deterministic: \
               no wall-clock input, so rates are exactly reproducible.",
        results,
        goodput_advantage_top_rung: advantage,
        advantage_floor: ADVANTAGE_FLOOR,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overload.json");
    std::fs::write(path, json + "\n").expect("write BENCH_overload.json");
    eprintln!("wrote {path}");

    if advantage < ADVANTAGE_FLOOR {
        eprintln!(
            "FAIL: controlled goodput at the top rung must be at least \
             {ADVANTAGE_FLOOR}x uncontrolled, got {advantage:.2}x"
        );
        std::process::exit(1);
    }
}
