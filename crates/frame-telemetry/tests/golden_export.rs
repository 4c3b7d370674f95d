//! Golden exports: a literal, fully populated snapshot rendered through
//! every exporter and compared byte for byte with committed text.
//!
//! The snapshot is built by hand rather than recorded through a live
//! `Telemetry`, so the role table (process-global) and clocks cannot leak
//! into it. Every conditional block of every exporter is present: SLOs
//! with a deadline, heartbeats, queues, reactor loops, roles, incidents,
//! an active overload rung and a decision trace. Refactors of the
//! exporters must leave these files untouched.

use frame_telemetry::{
    flight_to_json, render_flight_pretty, render_pretty, render_prometheus, to_json, BudgetStage,
    DecisionCount, DecisionEvent, DecisionKind, FlightSnapshot, HeartbeatKind, HeartbeatSnapshot,
    Incident, IncidentKind, LatencyHistogram, OverloadSnapshot, QueueGaugeSnapshot,
    ReactorLoopSnapshot, RoleProfileSnapshot, SpanRecord, Stage, StageSnapshot, TelemetrySnapshot,
    TopicSloSnapshot, TopicSnapshot,
};
use frame_types::{BrokerId, Duration, SeqNo, SpanPoint, Time, TopicId, TraceCtx};

fn histogram(micros: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &us in micros {
        h.record(Duration::from_micros(us));
    }
    h
}

fn incident(kind: IncidentKind, at_us: u64, topic: u32, seq: u64, detail: &str) -> Incident {
    Incident {
        kind,
        at: Time::from_micros(at_us),
        topic: TopicId(topic),
        seq: SeqNo(seq),
        detail: detail.to_string(),
    }
}

fn role(name: &str, base: u64, hot_path: bool) -> RoleProfileSnapshot {
    RoleProfileSnapshot {
        role: name.to_string(),
        allocs: base,
        deallocs: base - 3,
        alloc_bytes: base * 64,
        dealloc_bytes: base * 60,
        current_bytes: base * 4,
        peak_bytes: base * 9,
        cpu_ns: base * 1_234_567,
        read_syscalls: base / 2,
        write_syscalls: base / 3,
        hot_path,
    }
}

fn snapshot() -> TelemetrySnapshot {
    let decision_counts = [120, 80, 40, 30, 2, 1, 75, 1, 6, 9];
    TelemetrySnapshot {
        stages: vec![
            StageSnapshot {
                stage: Stage::ProxyIngress,
                histogram: histogram(&[10, 20, 30]),
            },
            StageSnapshot {
                stage: Stage::DispatchExec,
                histogram: histogram(&[10, 100, 1_000]),
            },
            StageSnapshot {
                stage: Stage::Promotion,
                histogram: LatencyHistogram::new(),
            },
        ],
        topics: vec![
            TopicSnapshot {
                topic: TopicId(3),
                histogram: histogram(&[20, 200, 2_000]),
            },
            TopicSnapshot {
                topic: TopicId(12),
                histogram: histogram(&[5, 5]),
            },
        ],
        decisions: DecisionKind::ALL
            .iter()
            .zip(decision_counts)
            .map(|(&kind, count)| DecisionCount { kind, count })
            .collect(),
        trace: vec![
            DecisionEvent {
                at: Time::from_nanos(1_500),
                kind: DecisionKind::Replicate,
                topic: TopicId(3),
                seq: SeqNo(0),
            },
            DecisionEvent {
                at: Time::from_nanos(2_500),
                kind: DecisionKind::Dispatch,
                topic: TopicId(3),
                seq: SeqNo(0),
            },
            DecisionEvent {
                at: Time::from_millis(7),
                kind: DecisionKind::Promote,
                topic: TopicId(0),
                seq: SeqNo(4),
            },
        ],
        shard_contention: 17,
        slos: vec![
            TopicSloSnapshot {
                topic: TopicId(3),
                deadline_ns: 500_000,
                loss_bound: Some(2),
                delivered: 3,
                deadline_misses: 1,
                worst_stage: Some(BudgetStage::QueueWait),
                miss_by_stage: vec![0, 0, 1, 0, 0, 0],
                lost: 3,
                max_loss_run: 3,
                loss_bound_violations: 1,
            },
            TopicSloSnapshot {
                topic: TopicId(12),
                deadline_ns: 0,
                loss_bound: None,
                delivered: 2,
                deadline_misses: 0,
                worst_stage: None,
                miss_by_stage: vec![0; 6],
                lost: 1,
                max_loss_run: 1,
                loss_bound_violations: 0,
            },
        ],
        incident_count: 5,
        incidents: vec![
            incident(
                IncidentKind::LossBurst,
                2_800,
                3,
                1,
                "consecutive-loss run 3 > L_i 2",
            ),
            incident(
                IncidentKind::DeadlineMiss,
                2_800,
                3,
                4,
                "e2e 800000ns > D_i 500000ns, dominant queue_wait (680000ns)",
            ),
        ],
        admits: 42,
        heartbeats: HeartbeatKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| HeartbeatSnapshot {
                kind,
                beats: i as u64 * 10,
                last_beat_ns: i as u64 * 1_000_000,
            })
            .collect(),
        queues: vec![
            QueueGaugeSnapshot {
                broker: BrokerId(0),
                depth: 1,
                high_watermark: 4,
            },
            QueueGaugeSnapshot {
                broker: BrokerId(1),
                depth: 0,
                high_watermark: 9,
            },
        ],
        reactor_loops: vec![
            ReactorLoopSnapshot {
                loop_index: 0,
                registered_conns: 3,
                accepted: 5,
                wakeups: 1_000,
                budget_exhaustions: 2,
                write_queue_drops: 1,
                busy_ns: 3_000_000,
                parked_ns: 22_000_000_001,
            },
            ReactorLoopSnapshot {
                loop_index: 1,
                registered_conns: 2,
                accepted: 2,
                wakeups: 640,
                budget_exhaustions: 0,
                write_queue_drops: 0,
                busy_ns: 123_456_789,
                parked_ns: 0,
            },
        ],
        overload: OverloadSnapshot {
            rung: 2,
            escalations: 3,
            deescalations: 1,
            suppressed_topics: 4,
            shedding_topics: 2,
            evicted_topics: 0,
            pressure_millionths: 1_250_000,
        },
        roles: vec![
            role("reactor-0", 900, true),
            role("worker-1", 60, true),
            role("detector", 12, false),
        ],
    }
}

fn flight() -> FlightSnapshot {
    let mut trace = TraceCtx::new();
    trace.stamp(SpanPoint::ProxyRecv, Time::from_micros(2_010));
    trace.stamp(SpanPoint::Admitted, Time::from_micros(2_020));
    trace.stamp(SpanPoint::Popped, Time::from_micros(2_700));
    trace.stamp(SpanPoint::Locked, Time::from_micros(2_705));
    trace.stamp(SpanPoint::DeliverSend, Time::from_micros(2_720));
    FlightSnapshot {
        incident_count: 5,
        incidents: vec![
            incident(IncidentKind::Promotion, 900, 0, 4, "promoted"),
            incident(
                IncidentKind::LoadShed,
                1_200,
                7,
                11,
                "shed at admission: run 1",
            ),
            incident(
                IncidentKind::DeadlineMiss,
                2_800,
                3,
                4,
                "e2e 800000ns > D_i 500000ns, dominant queue_wait (680000ns)",
            ),
        ],
        spans: vec![
            SpanRecord::attribute(
                TopicId(3),
                SeqNo(0),
                Time::from_micros(1_000),
                Time::from_micros(1_100),
                None,
                500_000,
            ),
            SpanRecord::attribute(
                TopicId(3),
                SeqNo(4),
                Time::from_micros(2_000),
                Time::from_micros(2_800),
                Some(&trace),
                500_000,
            ),
        ],
    }
}

fn assert_golden(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read golden {path}: {e}"));
    if expected != actual {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!("{file} differs from its golden text at {line}:\n{actual}");
    }
}

#[test]
fn prometheus_text_is_golden() {
    assert_golden("snapshot.prom", &render_prometheus(&snapshot()));
}

#[test]
fn pretty_table_is_golden() {
    assert_golden("snapshot.pretty.txt", &render_pretty(&snapshot()));
}

#[test]
fn snapshot_json_is_golden() {
    assert_golden("snapshot.json", &to_json(&snapshot()));
}

#[test]
fn flight_pretty_is_golden() {
    assert_golden("flight.pretty.txt", &render_flight_pretty(&flight(), 2));
}

#[test]
fn flight_json_is_golden() {
    assert_golden("flight.json", &flight_to_json(&flight()));
}

/// The exported family names, in exposition order.
#[test]
fn prometheus_family_names_are_unchanged() {
    let text = render_prometheus(&snapshot());
    let names: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    assert_eq!(
        names,
        [
            "frame_stage_latency_ns",
            "frame_stage_latency_ns_max",
            "frame_stage_latency_ns_count",
            "frame_topic_latency_ns",
            "frame_topic_latency_ns_max",
            "frame_topic_latency_ns_count",
            "frame_topic_deadline_misses_total",
            "frame_topic_miss_by_stage_total",
            "frame_topic_max_loss_run",
            "frame_topic_loss_bound_violations_total",
            "frame_decisions_total",
            "frame_admitted_total",
            "frame_overload_rung",
            "frame_overload_transitions_total",
            "frame_overload_degraded_topics",
            "frame_overload_pressure_millionths",
            "frame_heartbeat_beats_total",
            "frame_heartbeat_last_beat_ns",
            "frame_queue_depth",
            "frame_queue_high_watermark",
            "frame_reactor_registered_conns",
            "frame_reactor_accepted_total",
            "frame_reactor_wakeups_total",
            "frame_reactor_read_budget_exhaustions_total",
            "frame_reactor_write_queue_drops_total",
            "frame_reactor_busy_seconds_total",
            "frame_reactor_parked_seconds_total",
            "frame_role_cpu_seconds_total",
            "frame_role_allocations_total",
            "frame_role_deallocations_total",
            "frame_role_allocated_bytes_total",
            "frame_role_heap_bytes",
            "frame_role_heap_peak_bytes",
            "frame_role_read_syscalls_total",
            "frame_role_write_syscalls_total",
            "frame_shard_contention_total",
            "frame_trace_retained_events",
            "frame_incidents_total",
        ]
    );
}
