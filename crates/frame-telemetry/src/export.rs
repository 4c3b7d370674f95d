//! Rendering a [`TelemetrySnapshot`] for humans and scrapers: Prometheus
//! text format, JSON, and the aligned table behind `frame-cli stats`.

use std::fmt::Write as _;

use crate::recorder::FlightSnapshot;
use crate::span::{BudgetStage, SpanRecord};
use crate::telemetry::TelemetrySnapshot;
use frame_types::SpanPoint;

/// Serializes a snapshot to compact JSON — the text a `Stats` reply
/// carries, so it stays small enough for one frame at thousands of
/// topics. Clients re-indent it for humans if they want.
pub fn to_json(snapshot: &TelemetrySnapshot) -> String {
    serde_json::to_string(snapshot).expect("snapshot serializes")
}

/// Parses a snapshot back from JSON (the inverse of [`to_json`]).
///
/// # Errors
///
/// Returns the underlying parse error on malformed input.
pub fn from_json(json: &str) -> Result<TelemetrySnapshot, serde_json::Error> {
    serde_json::from_str(json)
}

/// Serializes a flight-recorder snapshot to compact JSON — the text a
/// `Trace` reply carries.
pub fn flight_to_json(snapshot: &FlightSnapshot) -> String {
    serde_json::to_string(snapshot).expect("flight snapshot serializes")
}

/// Parses a flight-recorder snapshot back from JSON (the inverse of
/// [`flight_to_json`]).
///
/// # Errors
///
/// Returns the underlying parse error on malformed input.
pub fn flight_from_json(json: &str) -> Result<FlightSnapshot, serde_json::Error> {
    serde_json::from_str(json)
}

/// Escapes a label value per the Prometheus text exposition rules:
/// backslash, double quote and newline are backslash-escaped.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Incremental Prometheus text-exposition writer.
///
/// Declaring a family writes its `# HELP`/`# TYPE` pair; samples must
/// belong to the most recently declared family (Prometheus requires a
/// family's samples to be consecutive). The writer enforces the
/// conformance properties the exposition tests check: one HELP/TYPE pair
/// per family, escaped label values, no duplicate series.
pub struct PromWriter {
    out: String,
    families: std::collections::BTreeSet<String>,
    series: std::collections::BTreeSet<String>,
    current: String,
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> PromWriter {
        PromWriter {
            out: String::new(),
            families: std::collections::BTreeSet::new(),
            series: std::collections::BTreeSet::new(),
            current: String::new(),
        }
    }

    /// Declares a metric family: exactly one `# HELP`/`# TYPE` pair.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already declared (duplicate HELP/TYPE blocks
    /// are malformed exposition).
    pub fn family(&mut self, name: &str, metric_type: &str, help: &str) {
        assert!(
            self.families.insert(name.to_string()),
            "duplicate metric family {name}"
        );
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {metric_type}");
        self.current = name.to_string();
    }

    /// Emits one sample of the current family. Label values are escaped.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not the most recently declared family or the
    /// exact series (name + label set) was already emitted.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl std::fmt::Display) {
        assert_eq!(
            name, self.current,
            "sample {name} outside its family block (current: {})",
            self.current
        );
        let mut head = String::from(name);
        if !labels.is_empty() {
            head.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    head.push(',');
                }
                let _ = write!(head, "{k}=\"{}\"", escape_label_value(v));
            }
            head.push('}');
        }
        assert!(self.series.insert(head.clone()), "duplicate series {head}");
        let _ = writeln!(self.out, "{head} {value}");
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

impl Default for PromWriter {
    fn default() -> Self {
        PromWriter::new()
    }
}

/// Checks Prometheus text-exposition conformance: every sample's metric
/// name has exactly one `# HELP` and one `# TYPE` line (appearing before
/// its first sample), no duplicate series (name + label set), and every
/// sample line parses as `name value` or `name{labels} value` with a
/// numeric value.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn check_prometheus_conformance(text: &str) -> Result<(), String> {
    let mut helped = std::collections::BTreeSet::new();
    let mut typed = std::collections::BTreeSet::new();
    let mut series = std::collections::BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or_default().to_string();
            if !helped.insert(name.clone()) {
                return Err(format!("duplicate HELP for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap_or_default().to_string();
            if !typed.insert(name.clone()) {
                return Err(format!("duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((head, value)) = line.rsplit_once(' ') else {
            return Err(format!("unparseable sample line: {line}"));
        };
        if value.parse::<f64>().is_err() {
            return Err(format!("non-numeric value in: {line}"));
        }
        let name = head.split('{').next().unwrap_or_default();
        if name.is_empty() {
            return Err(format!("empty metric name in: {line}"));
        }
        if let Some(labels) = head.strip_prefix(name) {
            let braced = labels.starts_with('{') && labels.ends_with('}');
            if !labels.is_empty() && !braced {
                return Err(format!("malformed label set in: {line}"));
            }
        }
        if !helped.contains(name) {
            return Err(format!("sample {name} has no # HELP line"));
        }
        if !typed.contains(name) {
            return Err(format!("sample {name} has no # TYPE line"));
        }
        if !series.insert(head.to_string()) {
            return Err(format!("duplicate series {head}"));
        }
    }
    Ok(())
}

/// Renders a snapshot in the Prometheus text exposition format:
/// per-stage and per-topic quantile gauges, queue/heartbeat gauges, and
/// decision counters, all latencies in nanoseconds.
pub fn render_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut w = PromWriter::new();
    w.family(
        "frame_stage_latency_ns",
        "gauge",
        "Per-stage latency quantiles.",
    );
    for s in &snapshot.stages {
        for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
            w.sample(
                "frame_stage_latency_ns",
                &[("stage", s.stage.name()), ("quantile", label)],
                s.histogram.quantile(q).as_nanos(),
            );
        }
    }
    w.family(
        "frame_stage_latency_ns_max",
        "gauge",
        "Per-stage maximum latency.",
    );
    for s in &snapshot.stages {
        w.sample(
            "frame_stage_latency_ns_max",
            &[("stage", s.stage.name())],
            s.histogram.max().as_nanos(),
        );
    }
    w.family(
        "frame_stage_latency_ns_count",
        "counter",
        "Per-stage latency samples recorded.",
    );
    for s in &snapshot.stages {
        w.sample(
            "frame_stage_latency_ns_count",
            &[("stage", s.stage.name())],
            s.histogram.len(),
        );
    }
    w.family(
        "frame_topic_latency_ns",
        "gauge",
        "Per-topic creation-to-delivery latency.",
    );
    for t in &snapshot.topics {
        for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
            w.sample(
                "frame_topic_latency_ns",
                &[("topic", &t.topic.0.to_string()), ("quantile", label)],
                t.histogram.quantile(q).as_nanos(),
            );
        }
    }
    w.family(
        "frame_topic_latency_ns_max",
        "gauge",
        "Per-topic maximum creation-to-delivery latency.",
    );
    for t in &snapshot.topics {
        w.sample(
            "frame_topic_latency_ns_max",
            &[("topic", &t.topic.0.to_string())],
            t.histogram.max().as_nanos(),
        );
    }
    w.family(
        "frame_topic_latency_ns_count",
        "counter",
        "Per-topic deliveries recorded.",
    );
    for t in &snapshot.topics {
        w.sample(
            "frame_topic_latency_ns_count",
            &[("topic", &t.topic.0.to_string())],
            t.histogram.len(),
        );
    }
    if snapshot.slos.iter().any(|s| s.deadline_ns > 0) {
        w.family(
            "frame_topic_deadline_misses_total",
            "counter",
            "Deliveries exceeding D_i.",
        );
        for s in snapshot.slos.iter().filter(|s| s.deadline_ns > 0) {
            w.sample(
                "frame_topic_deadline_misses_total",
                &[("topic", &s.topic.0.to_string())],
                s.deadline_misses,
            );
        }
        w.family(
            "frame_topic_miss_by_stage_total",
            "counter",
            "Deadline misses by dominant budget stage.",
        );
        for s in snapshot.slos.iter().filter(|s| s.deadline_ns > 0) {
            for (i, count) in s.miss_by_stage.iter().enumerate() {
                let Some(stage) = BudgetStage::from_index(i) else {
                    continue;
                };
                w.sample(
                    "frame_topic_miss_by_stage_total",
                    &[("topic", &s.topic.0.to_string()), ("stage", stage.name())],
                    count,
                );
            }
        }
        w.family(
            "frame_topic_max_loss_run",
            "gauge",
            "Longest consecutive-loss run vs L_i.",
        );
        for s in snapshot.slos.iter().filter(|s| s.deadline_ns > 0) {
            w.sample(
                "frame_topic_max_loss_run",
                &[("topic", &s.topic.0.to_string())],
                s.max_loss_run,
            );
        }
        w.family(
            "frame_topic_loss_bound_violations_total",
            "counter",
            "Consecutive-loss runs exceeding L_i.",
        );
        for s in snapshot.slos.iter().filter(|s| s.deadline_ns > 0) {
            w.sample(
                "frame_topic_loss_bound_violations_total",
                &[("topic", &s.topic.0.to_string())],
                s.loss_bound_violations,
            );
        }
    }
    w.family(
        "frame_decisions_total",
        "counter",
        "Broker decisions by kind (Table 3).",
    );
    for d in &snapshot.decisions {
        w.sample("frame_decisions_total", &[("kind", d.kind.name())], d.count);
    }
    w.family(
        "frame_admitted_total",
        "counter",
        "Messages admitted at ingress.",
    );
    w.sample("frame_admitted_total", &[], snapshot.admits);
    w.family(
        "frame_overload_rung",
        "gauge",
        "Overload controller degradation rung (0 = normal service).",
    );
    w.sample("frame_overload_rung", &[], snapshot.overload.rung);
    w.family(
        "frame_overload_transitions_total",
        "counter",
        "Overload rung transitions by direction.",
    );
    w.sample(
        "frame_overload_transitions_total",
        &[("direction", "escalate")],
        snapshot.overload.escalations,
    );
    w.sample(
        "frame_overload_transitions_total",
        &[("direction", "deescalate")],
        snapshot.overload.deescalations,
    );
    w.family(
        "frame_overload_degraded_topics",
        "gauge",
        "Topics currently degraded by the overload controller, by mode.",
    );
    w.sample(
        "frame_overload_degraded_topics",
        &[("mode", "suppressed")],
        snapshot.overload.suppressed_topics,
    );
    w.sample(
        "frame_overload_degraded_topics",
        &[("mode", "shedding")],
        snapshot.overload.shedding_topics,
    );
    w.sample(
        "frame_overload_degraded_topics",
        &[("mode", "evicted")],
        snapshot.overload.evicted_topics,
    );
    w.family(
        "frame_overload_pressure_millionths",
        "gauge",
        "Blended overload pressure at the last control tick (1e6 = saturated).",
    );
    w.sample(
        "frame_overload_pressure_millionths",
        &[],
        snapshot.overload.pressure_millionths,
    );
    if !snapshot.heartbeats.is_empty() {
        w.family(
            "frame_heartbeat_beats_total",
            "counter",
            "Liveness beats by signal kind.",
        );
        for h in &snapshot.heartbeats {
            w.sample(
                "frame_heartbeat_beats_total",
                &[("kind", h.kind.name())],
                h.beats,
            );
        }
        w.family(
            "frame_heartbeat_last_beat_ns",
            "gauge",
            "Clock reading of the newest beat per signal kind.",
        );
        for h in &snapshot.heartbeats {
            w.sample(
                "frame_heartbeat_last_beat_ns",
                &[("kind", h.kind.name())],
                h.last_beat_ns,
            );
        }
    }
    if !snapshot.queues.is_empty() {
        w.family(
            "frame_queue_depth",
            "gauge",
            "Live jobs in a broker's scheduler queue.",
        );
        for q in &snapshot.queues {
            w.sample(
                "frame_queue_depth",
                &[("broker", &q.broker.0.to_string())],
                q.depth,
            );
        }
        w.family(
            "frame_queue_high_watermark",
            "gauge",
            "Deepest the scheduler queue has been.",
        );
        for q in &snapshot.queues {
            w.sample(
                "frame_queue_high_watermark",
                &[("broker", &q.broker.0.to_string())],
                q.high_watermark,
            );
        }
    }
    if !snapshot.reactor_loops.is_empty() {
        w.family(
            "frame_reactor_registered_conns",
            "gauge",
            "Connections registered with a reactor event loop's poller.",
        );
        for l in &snapshot.reactor_loops {
            w.sample(
                "frame_reactor_registered_conns",
                &[("loop", &l.loop_index.to_string())],
                l.registered_conns,
            );
        }
        w.family(
            "frame_reactor_accepted_total",
            "counter",
            "Connections accepted by a reactor event loop.",
        );
        for l in &snapshot.reactor_loops {
            w.sample(
                "frame_reactor_accepted_total",
                &[("loop", &l.loop_index.to_string())],
                l.accepted,
            );
        }
        w.family(
            "frame_reactor_wakeups_total",
            "counter",
            "Poller wakeups of a reactor event loop.",
        );
        for l in &snapshot.reactor_loops {
            w.sample(
                "frame_reactor_wakeups_total",
                &[("loop", &l.loop_index.to_string())],
                l.wakeups,
            );
        }
        w.family(
            "frame_reactor_read_budget_exhaustions_total",
            "counter",
            "Connections parked with their per-wakeup read budget spent.",
        );
        for l in &snapshot.reactor_loops {
            w.sample(
                "frame_reactor_read_budget_exhaustions_total",
                &[("loop", &l.loop_index.to_string())],
                l.budget_exhaustions,
            );
        }
        w.family(
            "frame_reactor_write_queue_drops_total",
            "counter",
            "Delivery frames dropped on full per-connection write queues.",
        );
        for l in &snapshot.reactor_loops {
            w.sample(
                "frame_reactor_write_queue_drops_total",
                &[("loop", &l.loop_index.to_string())],
                l.write_queue_drops,
            );
        }
        w.family(
            "frame_reactor_busy_seconds_total",
            "counter",
            "Wall time a reactor event loop spent working between waits.",
        );
        for l in &snapshot.reactor_loops {
            w.sample(
                "frame_reactor_busy_seconds_total",
                &[("loop", &l.loop_index.to_string())],
                format_args!("{:.9}", l.busy_ns as f64 / 1e9),
            );
        }
        w.family(
            "frame_reactor_parked_seconds_total",
            "counter",
            "Wall time a reactor event loop spent parked in poller waits.",
        );
        for l in &snapshot.reactor_loops {
            w.sample(
                "frame_reactor_parked_seconds_total",
                &[("loop", &l.loop_index.to_string())],
                format_args!("{:.9}", l.parked_ns as f64 / 1e9),
            );
        }
    }
    if !snapshot.roles.is_empty() {
        w.family(
            "frame_role_cpu_seconds_total",
            "counter",
            "CPU time self-stamped by a thread role (CLOCK_THREAD_CPUTIME_ID).",
        );
        for r in &snapshot.roles {
            w.sample(
                "frame_role_cpu_seconds_total",
                &[("role", &r.role)],
                format_args!("{:.9}", r.cpu_ns as f64 / 1e9),
            );
        }
        w.family(
            "frame_role_allocations_total",
            "counter",
            "Heap allocations charged to a thread role by the counting allocator.",
        );
        for r in &snapshot.roles {
            w.sample(
                "frame_role_allocations_total",
                &[("role", &r.role)],
                r.allocs,
            );
        }
        w.family(
            "frame_role_deallocations_total",
            "counter",
            "Heap deallocations charged to a thread role.",
        );
        for r in &snapshot.roles {
            w.sample(
                "frame_role_deallocations_total",
                &[("role", &r.role)],
                r.deallocs,
            );
        }
        w.family(
            "frame_role_allocated_bytes_total",
            "counter",
            "Heap bytes allocated by a thread role.",
        );
        for r in &snapshot.roles {
            w.sample(
                "frame_role_allocated_bytes_total",
                &[("role", &r.role)],
                r.alloc_bytes,
            );
        }
        w.family(
            "frame_role_heap_bytes",
            "gauge",
            "Live heap bytes currently attributed to a thread role.",
        );
        for r in &snapshot.roles {
            w.sample(
                "frame_role_heap_bytes",
                &[("role", &r.role)],
                r.current_bytes,
            );
        }
        w.family(
            "frame_role_heap_peak_bytes",
            "gauge",
            "High-water mark of live heap bytes attributed to a thread role.",
        );
        for r in &snapshot.roles {
            w.sample(
                "frame_role_heap_peak_bytes",
                &[("role", &r.role)],
                r.peak_bytes,
            );
        }
        w.family(
            "frame_role_read_syscalls_total",
            "counter",
            "Kernel read-family calls counted on the ingress paths, by role.",
        );
        for r in &snapshot.roles {
            w.sample(
                "frame_role_read_syscalls_total",
                &[("role", &r.role)],
                r.read_syscalls,
            );
        }
        w.family(
            "frame_role_write_syscalls_total",
            "counter",
            "Kernel write-family calls counted on the ingress paths, by role.",
        );
        for r in &snapshot.roles {
            w.sample(
                "frame_role_write_syscalls_total",
                &[("role", &r.role)],
                r.write_syscalls,
            );
        }
    }
    w.family(
        "frame_shard_contention_total",
        "counter",
        "Topic-shard lock contention events.",
    );
    w.sample(
        "frame_shard_contention_total",
        &[],
        snapshot.shard_contention,
    );
    w.family(
        "frame_trace_retained_events",
        "gauge",
        "Decision-trace events currently retained.",
    );
    w.sample("frame_trace_retained_events", &[], snapshot.trace.len());
    w.family(
        "frame_incidents_total",
        "counter",
        "Incidents recorded since start-up.",
    );
    w.sample("frame_incidents_total", &[], snapshot.incident_count);
    w.finish()
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the human-facing stats table: p50/p99/max per stage and per
/// topic, then the decision totals and the tail of the trace.
pub fn render_pretty(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p99", "max"
    );
    for s in &snapshot.stages {
        let h = &s.histogram;
        let _ = writeln!(
            out,
            "{:<20} {:>10} {:>10} {:>10} {:>10}",
            s.stage.name(),
            h.len(),
            fmt_ns(h.p50().as_nanos()),
            fmt_ns(h.p99().as_nanos()),
            fmt_ns(h.max().as_nanos())
        );
    }
    if !snapshot.topics.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<20} {:>10} {:>10} {:>10} {:>10}",
            "topic", "count", "p50", "p99", "max"
        );
        for t in &snapshot.topics {
            let h = &t.histogram;
            let _ = writeln!(
                out,
                "{:<20} {:>10} {:>10} {:>10} {:>10}",
                format!("topic-{}", t.topic.0),
                h.len(),
                fmt_ns(h.p50().as_nanos()),
                fmt_ns(h.p99().as_nanos()),
                fmt_ns(h.max().as_nanos())
            );
        }
    }
    let slos: Vec<_> = snapshot
        .slos
        .iter()
        .filter(|s| s.deadline_ns > 0 || s.deadline_misses > 0 || s.lost > 0)
        .collect();
    if !slos.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<20} {:>10} {:>10} {:>10} {:>14} {:>10} {:>12}",
            "slo", "deadline", "delivered", "misses", "worst_stage", "lost", "max_run/L_i"
        );
        for s in slos {
            let bound = s
                .loss_bound
                .map_or_else(|| "-".to_string(), |b| b.to_string());
            let _ = writeln!(
                out,
                "{:<20} {:>10} {:>10} {:>10} {:>14} {:>10} {:>12}",
                format!("topic-{}", s.topic.0),
                fmt_ns(s.deadline_ns),
                s.delivered,
                s.deadline_misses,
                s.worst_stage.map_or("-", BudgetStage::name),
                s.lost,
                format!("{}/{}", s.max_loss_run, bound)
            );
        }
    }
    let _ = writeln!(out, "\n{:<20} {:>10}", "decision", "count");
    for d in &snapshot.decisions {
        let _ = writeln!(out, "{:<20} {:>10}", d.kind.name(), d.count);
    }
    let _ = writeln!(
        out,
        "{:<20} {:>10}",
        "shard_contention", snapshot.shard_contention
    );
    let o = &snapshot.overload;
    if o.rung > 0 || o.escalations > 0 {
        let _ = writeln!(
            out,
            "\noverload: rung {} pressure {:.2} | suppressed {} shedding {} evicted {} | escalations {} de-escalations {}",
            o.rung,
            o.pressure(),
            o.suppressed_topics,
            o.shedding_topics,
            o.evicted_topics,
            o.escalations,
            o.deescalations
        );
    }
    if !snapshot.reactor_loops.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<20} {:>10} {:>10} {:>10} {:>14} {:>12}",
            "reactor", "conns", "accepted", "wakeups", "budget_exh", "write_drops"
        );
        for l in &snapshot.reactor_loops {
            let _ = writeln!(
                out,
                "{:<20} {:>10} {:>10} {:>10} {:>14} {:>12}",
                format!("loop-{}", l.loop_index),
                l.registered_conns,
                l.accepted,
                l.wakeups,
                l.budget_exhaustions,
                l.write_queue_drops
            );
        }
    }
    if !snapshot.roles.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<20} {:>10} {:>12} {:>12} {:>10} {:>8} {:>8}",
            "role", "cpu", "allocs", "live_bytes", "peak", "reads", "writes"
        );
        for r in &snapshot.roles {
            let _ = writeln!(
                out,
                "{:<20} {:>10} {:>12} {:>12} {:>10} {:>8} {:>8}",
                r.role,
                fmt_ns(r.cpu_ns),
                r.allocs,
                r.current_bytes,
                r.peak_bytes,
                r.read_syscalls,
                r.write_syscalls
            );
        }
    }
    if !snapshot.incidents.is_empty() {
        let _ = writeln!(
            out,
            "\nincidents ({} total, newest {} retained):",
            snapshot.incident_count,
            snapshot.incidents.len()
        );
        for i in &snapshot.incidents {
            let _ = writeln!(
                out,
                "  {} {} topic-{} #{} {}",
                i.at,
                i.kind.name(),
                i.topic.0,
                i.seq.0,
                i.detail
            );
        }
    }
    if !snapshot.trace.is_empty() {
        let _ = writeln!(out, "\ntrace (newest {} events):", snapshot.trace.len());
        for e in &snapshot.trace {
            let _ = writeln!(
                out,
                "  {} {} topic-{} #{}",
                e.at,
                e.kind.name(),
                e.topic.0,
                e.seq.0
            );
        }
    }
    out
}

/// Renders one message's span timeline: each stamped point with its
/// offset from creation, then the budget decomposition with a bar chart.
pub fn render_span_timeline(record: &SpanRecord) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "topic-{} #{}  e2e {}  deadline {}  {}",
        record.topic.0,
        record.seq.0,
        fmt_ns(record.e2e_ns),
        if record.deadline_ns > 0 {
            fmt_ns(record.deadline_ns)
        } else {
            "-".to_string()
        },
        if record.missed { "MISSED" } else { "on time" }
    );
    let created = record.created_ns;
    let _ = writeln!(out, "  {:<14} +0ns (publisher clock)", "created");
    for point in SpanPoint::ALL {
        match record.stamps.get(point) {
            Some(at) => {
                let _ = writeln!(
                    out,
                    "  {:<14} +{}",
                    point.name(),
                    fmt_ns(at.as_nanos().saturating_sub(created))
                );
            }
            None => {
                let _ = writeln!(out, "  {:<14} (unstamped)", point.name());
            }
        }
    }
    let _ = writeln!(
        out,
        "  {:<14} +{} (consumer clock)",
        "delivered",
        fmt_ns(record.delivered_ns.saturating_sub(created))
    );
    let _ = writeln!(out, "budget:");
    let total = record.e2e_ns.max(1);
    for slice in &record.slices {
        let width = ((slice.ns as u128 * 40) / total as u128) as usize;
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {}{}",
            slice.stage.name(),
            fmt_ns(slice.ns),
            "#".repeat(width),
            if Some(slice.stage) == record.dominant {
                " <- dominant"
            } else {
                ""
            }
        );
    }
    out
}

/// Renders a flight-recorder snapshot: the incident log and the newest
/// retained spans (fully expanded for up to `detail` of them, newest
/// first).
pub fn render_flight_pretty(snapshot: &FlightSnapshot, detail: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: {} spans retained, {} incidents total",
        snapshot.spans.len(),
        snapshot.incident_count
    );
    if let Some(incident) = snapshot.last_incident() {
        let _ = writeln!(
            out,
            "last incident: {} at {} topic-{} #{} {}",
            incident.kind.name(),
            incident.at,
            incident.topic.0,
            incident.seq.0,
            incident.detail
        );
    }
    for incident in snapshot.incidents.iter().rev().skip(1) {
        let _ = writeln!(
            out,
            "  earlier: {} at {} topic-{} #{} {}",
            incident.kind.name(),
            incident.at,
            incident.topic.0,
            incident.seq.0,
            incident.detail
        );
    }
    for record in snapshot.spans.iter().rev().take(detail) {
        out.push('\n');
        out.push_str(&render_span_timeline(record));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;
    use crate::telemetry::Telemetry;
    use crate::trace::DecisionKind;
    use frame_types::{Duration, SeqNo, Time, TopicId};

    fn sample() -> TelemetrySnapshot {
        let t = Telemetry::new();
        t.ensure_topic(TopicId(3));
        t.set_topic_slo(TopicId(3), Duration::from_micros(500), Some(2));
        for us in [10u64, 100, 1000] {
            t.record_stage(Stage::DispatchExec, Duration::from_micros(us));
            t.record_topic(TopicId(3), Duration::from_micros(us * 2));
        }
        // Two traced deliveries: seq 0 on time, then a gap of 3 (> L_i 2)
        // followed by seq 4 blowing the 500us deadline.
        let mut trace = frame_types::TraceCtx::new();
        trace.stamp(SpanPoint::ProxyRecv, Time::from_micros(1_010));
        trace.stamp(SpanPoint::Admitted, Time::from_micros(1_020));
        trace.stamp(SpanPoint::Popped, Time::from_micros(1_050));
        trace.stamp(SpanPoint::Locked, Time::from_micros(1_055));
        trace.stamp(SpanPoint::DeliverSend, Time::from_micros(1_070));
        t.record_delivery(
            TopicId(3),
            SeqNo(0),
            Time::from_micros(1_000),
            Time::from_micros(1_100),
            Some(&trace),
        );
        let mut slow = frame_types::TraceCtx::new();
        slow.stamp(SpanPoint::ProxyRecv, Time::from_micros(2_010));
        slow.stamp(SpanPoint::Admitted, Time::from_micros(2_020));
        slow.stamp(SpanPoint::Popped, Time::from_micros(2_700));
        slow.stamp(SpanPoint::Locked, Time::from_micros(2_705));
        slow.stamp(SpanPoint::DeliverSend, Time::from_micros(2_720));
        t.record_delivery(
            TopicId(3),
            SeqNo(4),
            Time::from_micros(2_000),
            Time::from_micros(2_800),
            Some(&slow),
        );
        t.decision(
            DecisionKind::Dispatch,
            TopicId(3),
            SeqNo(0),
            Time::from_nanos(1),
        );
        t.decision(
            DecisionKind::Suppress,
            TopicId(3),
            SeqNo(1),
            Time::from_nanos(2),
        );
        t.record_shard_contention();
        t.record_admit();
        t.record_admit();
        t.heartbeat(
            crate::telemetry::HeartbeatKind::Worker,
            Time::from_micros(9),
        );
        t.record_queue_depth(frame_types::BrokerId(0), 4);
        t.record_queue_depth(frame_types::BrokerId(0), 1);
        let gauges = t.reactor_gauges(0);
        gauges.record_accept();
        gauges.record_loop_time(3_000_000, 22_000_000);
        // Make sure at least one role row exists even when this test runs
        // alone (snapshot() folds in the process-global role table).
        crate::profile::register_thread_role(crate::profile::RoleKind::Other, 50);
        crate::profile::stamp_thread_cpu();
        t.snapshot()
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let json = to_json(&snap);
        let back = from_json(&json).expect("parse back");
        assert_eq!(back.stages.len(), snap.stages.len());
        assert_eq!(back.topics.len(), snap.topics.len());
        assert_eq!(back.trace, snap.trace);
        for (a, b) in snap.stages.iter().zip(&back.stages) {
            assert_eq!(a.stage, b.stage);
            assert_eq!(a.histogram.len(), b.histogram.len());
            assert_eq!(a.histogram.p99(), b.histogram.p99());
            assert_eq!(a.histogram.max(), b.histogram.max());
        }
        assert_eq!(
            back.decision_count(DecisionKind::Dispatch),
            snap.decision_count(DecisionKind::Dispatch)
        );
        assert_eq!(back.shard_contention, snap.shard_contention);
        // SLO fields survive the round trip exactly.
        assert_eq!(back.slos, snap.slos);
        assert_eq!(back.incident_count, snap.incident_count);
        assert_eq!(back.incidents.len(), snap.incidents.len());
        let slo = back.slo(TopicId(3)).expect("slo present");
        assert_eq!(slo.delivered, 2);
        assert_eq!(slo.deadline_misses, 1);
        assert_eq!(slo.worst_stage, Some(crate::span::BudgetStage::QueueWait));
        assert_eq!(slo.lost, 3);
        assert_eq!(slo.max_loss_run, 3);
        assert_eq!(slo.loss_bound_violations, 1);
    }

    #[test]
    fn flight_snapshot_json_round_trips() {
        let t = Telemetry::new();
        t.ensure_topic(TopicId(3));
        t.set_topic_slo(TopicId(3), Duration::from_micros(500), Some(2));
        let _ = sample_into(&t);
        let flight = t.flight_snapshot();
        assert!(!flight.spans.is_empty());
        assert!(flight.incident_count > 0);
        let json = serde_json::to_string(&flight).expect("serializes");
        let back: crate::recorder::FlightSnapshot =
            serde_json::from_str(&json).expect("parses back");
        assert_eq!(back.spans.len(), flight.spans.len());
        assert_eq!(back.incident_count, flight.incident_count);
        for (a, b) in flight.spans.iter().zip(&back.spans) {
            assert_eq!(a.topic, b.topic);
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.stamps, b.stamps);
            assert_eq!(a.e2e_ns, b.e2e_ns);
            assert_eq!(a.missed, b.missed);
            assert_eq!(a.dominant, b.dominant);
            assert_eq!(a.slice_sum_ns(), a.e2e_ns);
        }
        let rendered = render_flight_pretty(&back, 2);
        assert!(rendered.contains("last incident"));
        assert!(rendered.contains("dominant"));
    }

    /// Replays `sample()`'s deliveries into an existing handle.
    fn sample_into(t: &Telemetry) -> TelemetrySnapshot {
        let mut slow = frame_types::TraceCtx::new();
        slow.stamp(SpanPoint::ProxyRecv, Time::from_micros(2_010));
        slow.stamp(SpanPoint::Admitted, Time::from_micros(2_020));
        slow.stamp(SpanPoint::Popped, Time::from_micros(2_700));
        slow.stamp(SpanPoint::Locked, Time::from_micros(2_705));
        slow.stamp(SpanPoint::DeliverSend, Time::from_micros(2_720));
        t.record_delivery(
            TopicId(3),
            SeqNo(0),
            Time::from_micros(2_000),
            Time::from_micros(2_800),
            Some(&slow),
        );
        t.snapshot()
    }

    #[test]
    fn json_without_shard_contention_still_parses() {
        // Snapshots serialized before the field existed must deserialize.
        let json = r#"{"stages":[],"topics":[],"decisions":[],"trace":[]}"#;
        let back = from_json(json).expect("old snapshot parses");
        assert_eq!(back.shard_contention, 0);
    }

    #[test]
    fn prometheus_has_expected_series() {
        let text = render_prometheus(&sample());
        assert!(text.contains("frame_stage_latency_ns{stage=\"dispatch_exec\",quantile=\"0.99\"}"));
        assert!(text.contains("frame_stage_latency_ns_count{stage=\"dispatch_exec\"} 3"));
        assert!(text.contains("frame_topic_latency_ns{topic=\"3\",quantile=\"0.5\"}"));
        assert!(text.contains("frame_decisions_total{kind=\"dispatch\"} 1"));
        assert!(text.contains("frame_decisions_total{kind=\"suppress\"} 1"));
        assert!(text.contains("frame_shard_contention_total 1"));
        assert!(text.contains("frame_trace_retained_events 2"));
        // Exposition format sanity: every non-comment line is `name value`
        // or `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (head, value) = line.rsplit_once(' ').expect("metric line");
            assert!(!head.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
        }
    }

    #[test]
    fn prometheus_exports_gauges_heartbeats_and_admits() {
        let text = render_prometheus(&sample());
        assert!(text.contains("frame_admitted_total 2"));
        assert!(text.contains("frame_heartbeat_beats_total{kind=\"worker\"} 1"));
        assert!(text.contains("frame_heartbeat_beats_total{kind=\"detector\"} 0"));
        // Last store wins: depth 1, watermark remembers the 4.
        assert!(text.contains("frame_queue_depth{broker=\"0\"} 1"));
        assert!(text.contains("frame_queue_high_watermark{broker=\"0\"} 4"));
    }

    #[test]
    fn prometheus_exposition_is_conformant() {
        let text = render_prometheus(&sample());
        check_prometheus_conformance(&text).expect("conformant exposition");
        // Every sample family carries HELP and TYPE — including the
        // families that historically rode bare on a neighbour's block.
        for family in [
            "frame_stage_latency_ns_max",
            "frame_stage_latency_ns_count",
            "frame_topic_latency_ns_max",
            "frame_topic_latency_ns_count",
            "frame_topic_loss_bound_violations_total",
            "frame_trace_retained_events",
            "frame_incidents_total",
            "frame_queue_depth",
            "frame_heartbeat_beats_total",
            "frame_overload_rung",
            "frame_overload_transitions_total",
            "frame_overload_degraded_topics",
            "frame_overload_pressure_millionths",
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
        ] {
            assert!(
                text.contains(&format!("# HELP {family} ")),
                "missing HELP for {family}"
            );
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "missing TYPE for {family}"
            );
        }
    }

    #[test]
    fn conformance_checker_rejects_malformed_exposition() {
        check_prometheus_conformance("frame_orphan 1\n").expect_err("no HELP/TYPE");
        check_prometheus_conformance("# HELP m x\n# TYPE m gauge\nm{a=\"1\"} 1\nm{a=\"1\"} 2\n")
            .expect_err("duplicate series");
        check_prometheus_conformance("# HELP m x\n# TYPE m gauge\nm not-a-number\n")
            .expect_err("non-numeric value");
        check_prometheus_conformance("# HELP m x\n# HELP m y\n# TYPE m gauge\nm 1\n")
            .expect_err("duplicate HELP");
    }

    #[test]
    fn prom_writer_escapes_label_values() {
        let mut w = PromWriter::new();
        w.family("m", "gauge", "test");
        w.sample("m", &[("path", "a\\b\"c\nd")], 1);
        let text = w.finish();
        assert!(text.contains("m{path=\"a\\\\b\\\"c\\nd\"} 1"));
        check_prometheus_conformance(&text).expect("escaped exposition conforms");
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn pretty_table_mentions_stages_topics_decisions() {
        let text = render_pretty(&sample());
        assert!(text.contains("dispatch_exec"));
        assert!(text.contains("topic-3"));
        assert!(text.contains("suppress"));
        assert!(text.contains("p99"));
    }
}
