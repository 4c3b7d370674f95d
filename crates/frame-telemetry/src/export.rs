//! Rendering a [`TelemetrySnapshot`] for humans and scrapers: Prometheus
//! text format, JSON, and the aligned table behind `frame-cli stats`.

use std::fmt::Write as _;

use crate::histogram::LatencyHistogram;
use crate::profile::RoleProfileSnapshot;
use crate::recorder::FlightSnapshot;
use crate::span::{BudgetStage, SpanRecord};
use crate::telemetry::{
    DecisionCount, HeartbeatSnapshot, QueueGaugeSnapshot, ReactorLoopSnapshot, StageSnapshot,
    TelemetrySnapshot, TopicSloSnapshot, TopicSnapshot,
};
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
fn escape_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// A family with a fixed set of samples: `(name, TYPE, HELP, samples)`,
/// each sample a label set and its value.
pub type FixedFamily<'a> = (
    &'a str,
    &'a str,
    &'a str,
    &'a [(&'a [(&'a str, &'a str)], u64)],
);

/// Incremental Prometheus text-exposition writer.
///
/// Each family is written whole: its `# HELP`/`# TYPE` pair, then its
/// samples, so a family's samples are consecutive as Prometheus
/// requires. The writer enforces the conformance properties the
/// exposition tests check: one HELP/TYPE pair per family, escaped label
/// values, no duplicate series.
#[derive(Default)]
pub struct PromWriter {
    out: String,
    families: std::collections::BTreeSet<String>,
    series: std::collections::BTreeSet<String>,
    current: String,
}

impl PromWriter {
    /// An empty exposition.
    pub fn new() -> PromWriter {
        PromWriter::default()
    }

    /// Writes each family with its samples, in order.
    ///
    /// # Panics
    ///
    /// Panics if a family name was already declared or a series (name +
    /// label set) repeats.
    pub fn fixed(&mut self, families: &[FixedFamily<'_>]) {
        for (name, metric_type, help, samples) in families {
            self.family(name, metric_type, help);
            for (labels, value) in *samples {
                self.sample(name, labels, value);
            }
        }
    }

    /// Declares a metric family: exactly one `# HELP`/`# TYPE` pair.
    fn family(&mut self, name: &str, metric_type: &str, help: &str) {
        assert!(
            self.families.insert(name.to_string()),
            "duplicate metric family {name}"
        );
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {metric_type}");
        self.current = name.to_string();
    }

    /// Emits one sample of the current family. Label values are escaped.
    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl std::fmt::Display) {
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
                let _ = write!(head, "{k}=\"");
                escape_label_value(&mut head, v);
                head.push('"');
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

/// How a per-row family reads its samples from one snapshot row.
enum Read<R> {
    /// One integer sample.
    Int(fn(&R) -> u64),
    /// One sample: a nanosecond total, exported in seconds.
    Secs(fn(&R) -> u64),
    /// Several integer samples told apart by one more label: the reader
    /// yields the `i`-th (label value, sample) until it returns `None`.
    Split(&'static str, fn(&R, usize) -> Option<(&'static str, u64)>),
}

use Read::{Int, Secs, Split};

/// A family exported once per snapshot row: `(name, TYPE, HELP, read)`.
type RowFamily<R> = (&'static str, &'static str, &'static str, Read<R>);

/// The `i`-th exported latency quantile of `h`.
fn quantile(h: &LatencyHistogram, i: usize) -> Option<(&'static str, u64)> {
    let (q, label) = *[(0.5, "0.5"), (0.99, "0.99")].get(i)?;
    Some((label, h.quantile(q).as_nanos()))
}

const STAGE_FAMILIES: &[RowFamily<StageSnapshot>] = &[
    (
        "frame_stage_latency_ns",
        "gauge",
        "Per-stage latency quantiles.",
        Split("quantile", |s, i| quantile(&s.histogram, i)),
    ),
    (
        "frame_stage_latency_ns_max",
        "gauge",
        "Per-stage maximum latency.",
        Int(|s| s.histogram.max().as_nanos()),
    ),
    (
        "frame_stage_latency_ns_count",
        "counter",
        "Per-stage latency samples recorded.",
        Int(|s| s.histogram.len()),
    ),
];

const TOPIC_FAMILIES: &[RowFamily<TopicSnapshot>] = &[
    (
        "frame_topic_latency_ns",
        "gauge",
        "Per-topic creation-to-delivery latency.",
        Split("quantile", |t, i| quantile(&t.histogram, i)),
    ),
    (
        "frame_topic_latency_ns_max",
        "gauge",
        "Per-topic maximum creation-to-delivery latency.",
        Int(|t| t.histogram.max().as_nanos()),
    ),
    (
        "frame_topic_latency_ns_count",
        "counter",
        "Per-topic deliveries recorded.",
        Int(|t| t.histogram.len()),
    ),
];

const SLO_FAMILIES: &[RowFamily<TopicSloSnapshot>] = &[
    (
        "frame_topic_deadline_misses_total",
        "counter",
        "Deliveries exceeding D_i.",
        Int(|s| s.deadline_misses),
    ),
    (
        "frame_topic_miss_by_stage_total",
        "counter",
        "Deadline misses by dominant budget stage.",
        Split("stage", |s, i| {
            Some((BudgetStage::from_index(i)?.name(), *s.miss_by_stage.get(i)?))
        }),
    ),
    (
        "frame_topic_max_loss_run",
        "gauge",
        "Longest consecutive-loss run vs L_i.",
        Int(|s| s.max_loss_run),
    ),
    (
        "frame_topic_loss_bound_violations_total",
        "counter",
        "Consecutive-loss runs exceeding L_i.",
        Int(|s| s.loss_bound_violations),
    ),
];

const DECISION_FAMILIES: &[RowFamily<DecisionCount>] = &[(
    "frame_decisions_total",
    "counter",
    "Broker decisions by kind (Table 3).",
    Int(|d| d.count),
)];

const HEARTBEAT_FAMILIES: &[RowFamily<HeartbeatSnapshot>] = &[
    (
        "frame_heartbeat_beats_total",
        "counter",
        "Liveness beats by signal kind.",
        Int(|h| h.beats),
    ),
    (
        "frame_heartbeat_last_beat_ns",
        "gauge",
        "Clock reading of the newest beat per signal kind.",
        Int(|h| h.last_beat_ns),
    ),
];

const QUEUE_FAMILIES: &[RowFamily<QueueGaugeSnapshot>] = &[
    (
        "frame_queue_depth",
        "gauge",
        "Live jobs in a broker's scheduler queue.",
        Int(|q| q.depth),
    ),
    (
        "frame_queue_high_watermark",
        "gauge",
        "Deepest the scheduler queue has been.",
        Int(|q| q.high_watermark),
    ),
];

const REACTOR_FAMILIES: &[RowFamily<ReactorLoopSnapshot>] = &[
    (
        "frame_reactor_registered_conns",
        "gauge",
        "Connections registered with a reactor event loop's poller.",
        Int(|l| l.registered_conns),
    ),
    (
        "frame_reactor_accepted_total",
        "counter",
        "Connections accepted by a reactor event loop.",
        Int(|l| l.accepted),
    ),
    (
        "frame_reactor_wakeups_total",
        "counter",
        "Poller wakeups of a reactor event loop.",
        Int(|l| l.wakeups),
    ),
    (
        "frame_reactor_read_budget_exhaustions_total",
        "counter",
        "Connections parked with their per-wakeup read budget spent.",
        Int(|l| l.budget_exhaustions),
    ),
    (
        "frame_reactor_write_queue_drops_total",
        "counter",
        "Delivery frames dropped on full per-connection write queues.",
        Int(|l| l.write_queue_drops),
    ),
    (
        "frame_reactor_busy_seconds_total",
        "counter",
        "Wall time a reactor event loop spent working between waits.",
        Secs(|l| l.busy_ns),
    ),
    (
        "frame_reactor_parked_seconds_total",
        "counter",
        "Wall time a reactor event loop spent parked in poller waits.",
        Secs(|l| l.parked_ns),
    ),
];

const ROLE_FAMILIES: &[RowFamily<RoleProfileSnapshot>] = &[
    (
        "frame_role_cpu_seconds_total",
        "counter",
        "CPU time self-stamped by a thread role (CLOCK_THREAD_CPUTIME_ID).",
        Secs(|r| r.cpu_ns),
    ),
    (
        "frame_role_allocations_total",
        "counter",
        "Heap allocations charged to a thread role by the counting allocator.",
        Int(|r| r.allocs),
    ),
    (
        "frame_role_deallocations_total",
        "counter",
        "Heap deallocations charged to a thread role.",
        Int(|r| r.deallocs),
    ),
    (
        "frame_role_allocated_bytes_total",
        "counter",
        "Heap bytes allocated by a thread role.",
        Int(|r| r.alloc_bytes),
    ),
    (
        "frame_role_heap_bytes",
        "gauge",
        "Live heap bytes currently attributed to a thread role.",
        Int(|r| r.current_bytes),
    ),
    (
        "frame_role_heap_peak_bytes",
        "gauge",
        "High-water mark of live heap bytes attributed to a thread role.",
        Int(|r| r.peak_bytes),
    ),
    (
        "frame_role_read_syscalls_total",
        "counter",
        "Kernel read-family calls counted on the ingress paths, by role.",
        Int(|r| r.read_syscalls),
    ),
    (
        "frame_role_write_syscalls_total",
        "counter",
        "Kernel write-family calls counted on the ingress paths, by role.",
        Int(|r| r.write_syscalls),
    ),
];

/// Writes every family of `table`, each with one sample group per row,
/// the row labelled `key="label(row)"`.
fn write_rows<'a, R: 'a>(
    w: &mut PromWriter,
    table: &[RowFamily<R>],
    key: &str,
    rows: impl IntoIterator<Item = &'a R>,
    label: impl Fn(&R) -> String,
) {
    let rows: Vec<(String, &R)> = rows.into_iter().map(|r| (label(r), r)).collect();
    for (name, metric_type, help, read) in table {
        w.family(name, metric_type, help);
        for (value, row) in &rows {
            let labels = [(key, value.as_str())];
            match read {
                Int(f) => w.sample(name, &labels, f(row)),
                Secs(f) => w.sample(name, &labels, format_args!("{:.9}", f(row) as f64 / 1e9)),
                Split(sub, f) => {
                    for (sub_value, sample) in (0..).map_while(|i| f(row, i)) {
                        w.sample(name, &[labels[0], (sub, sub_value)], sample);
                    }
                }
            }
        }
    }
}

/// Renders a snapshot in the Prometheus text exposition format:
/// per-stage and per-topic quantile gauges, queue/heartbeat gauges, and
/// decision counters, all latencies in nanoseconds.
pub fn render_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut w = PromWriter::new();
    let stage = |s: &StageSnapshot| s.stage.name().to_string();
    write_rows(&mut w, STAGE_FAMILIES, "stage", &snapshot.stages, stage);
    let topic = |t: &TopicSnapshot| t.topic.0.to_string();
    write_rows(&mut w, TOPIC_FAMILIES, "topic", &snapshot.topics, topic);
    let slos = snapshot.slos.iter().filter(|s| s.deadline_ns > 0);
    if slos.clone().next().is_some() {
        let topic = |s: &TopicSloSnapshot| s.topic.0.to_string();
        write_rows(&mut w, SLO_FAMILIES, "topic", slos, topic);
    }
    let kind = |d: &DecisionCount| d.kind.name().to_string();
    write_rows(&mut w, DECISION_FAMILIES, "kind", &snapshot.decisions, kind);
    let o = &snapshot.overload;
    w.fixed(&[
        (
            "frame_admitted_total",
            "counter",
            "Messages admitted at ingress.",
            &[(&[], snapshot.admits)],
        ),
        (
            "frame_overload_rung",
            "gauge",
            "Overload controller degradation rung (0 = normal service).",
            &[(&[], o.rung)],
        ),
        (
            "frame_overload_transitions_total",
            "counter",
            "Overload rung transitions by direction.",
            &[
                (&[("direction", "escalate")], o.escalations),
                (&[("direction", "deescalate")], o.deescalations),
            ],
        ),
        (
            "frame_overload_degraded_topics",
            "gauge",
            "Topics currently degraded by the overload controller, by mode.",
            &[
                (&[("mode", "suppressed")], o.suppressed_topics),
                (&[("mode", "shedding")], o.shedding_topics),
                (&[("mode", "evicted")], o.evicted_topics),
            ],
        ),
        (
            "frame_overload_pressure_millionths",
            "gauge",
            "Blended overload pressure at the last control tick (1e6 = saturated).",
            &[(&[], o.pressure_millionths)],
        ),
    ]);
    if !snapshot.heartbeats.is_empty() {
        let kind = |h: &HeartbeatSnapshot| h.kind.name().to_string();
        write_rows(
            &mut w,
            HEARTBEAT_FAMILIES,
            "kind",
            &snapshot.heartbeats,
            kind,
        );
    }
    if !snapshot.queues.is_empty() {
        let broker = |q: &QueueGaugeSnapshot| q.broker.0.to_string();
        write_rows(&mut w, QUEUE_FAMILIES, "broker", &snapshot.queues, broker);
    }
    if !snapshot.reactor_loops.is_empty() {
        let index = |l: &ReactorLoopSnapshot| l.loop_index.to_string();
        write_rows(
            &mut w,
            REACTOR_FAMILIES,
            "loop",
            &snapshot.reactor_loops,
            index,
        );
    }
    if !snapshot.roles.is_empty() {
        let role = |r: &RoleProfileSnapshot| r.role.clone();
        write_rows(&mut w, ROLE_FAMILIES, "role", &snapshot.roles, role);
    }
    w.fixed(&[
        (
            "frame_shard_contention_total",
            "counter",
            "Contended acquisitions of the broker lock.",
            &[(&[], snapshot.shard_contention)],
        ),
        (
            "frame_trace_retained_events",
            "gauge",
            "Decision-trace events currently retained.",
            &[(&[], snapshot.trace.len() as u64)],
        ),
        (
            "frame_incidents_total",
            "counter",
            "Incidents recorded since start-up.",
            &[(&[], snapshot.incident_count)],
        ),
    ]);
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

/// Writes an aligned table: a header of space-separated column names,
/// then one line per row. The first column is left-aligned, the rest
/// right-aligned, each padded to its width.
fn table<const N: usize>(
    out: &mut String,
    header: &str,
    widths: [usize; N],
    rows: impl IntoIterator<Item = [String; N]>,
) {
    let mut names = header.split(' ');
    let header = std::array::from_fn(|_| names.next().unwrap_or_default().to_string());
    for row in std::iter::once(header).chain(rows) {
        for (i, (cell, width)) in row.iter().zip(widths).enumerate() {
            let _ = if i == 0 {
                write!(out, "{cell:<width$}")
            } else {
                write!(out, " {cell:>width$}")
            };
        }
        out.push('\n');
    }
}

/// A latency table row: sample count, p50, p99 and max.
fn latency_row(name: String, h: &LatencyHistogram) -> [String; 5] {
    let [p50, p99, max] = [h.p50(), h.p99(), h.max()].map(|d| fmt_ns(d.as_nanos()));
    [name, h.len().to_string(), p50, p99, max]
}

/// Renders the human-facing stats table: p50/p99/max per stage and per
/// topic, then the decision totals and the tail of the trace.
pub fn render_pretty(snapshot: &TelemetrySnapshot) -> String {
    const LATENCY: [usize; 5] = [20, 10, 10, 10, 10];
    let mut out = String::new();
    let stages = snapshot.stages.iter();
    let stages = stages.map(|s| latency_row(s.stage.name().to_string(), &s.histogram));
    table(&mut out, "stage count p50 p99 max", LATENCY, stages);
    if !snapshot.topics.is_empty() {
        out.push('\n');
        let topics = snapshot.topics.iter();
        let topics = topics.map(|t| latency_row(format!("topic-{}", t.topic.0), &t.histogram));
        table(&mut out, "topic count p50 p99 max", LATENCY, topics);
    }
    let mut slos = snapshot
        .slos
        .iter()
        .filter(|s| s.deadline_ns > 0 || s.deadline_misses > 0 || s.lost > 0)
        .peekable();
    if slos.peek().is_some() {
        out.push('\n');
        let header = "slo deadline delivered misses worst_stage lost max_run/L_i";
        let rows = slos.map(|s| {
            let bound = s.loss_bound.map_or("-".to_string(), |b| b.to_string());
            [
                format!("topic-{}", s.topic.0),
                fmt_ns(s.deadline_ns),
                s.delivered.to_string(),
                s.deadline_misses.to_string(),
                s.worst_stage.map_or("-", BudgetStage::name).to_string(),
                s.lost.to_string(),
                format!("{}/{}", s.max_loss_run, bound),
            ]
        });
        table(&mut out, header, [20, 10, 10, 10, 14, 10, 12], rows);
    }
    out.push('\n');
    let decisions = snapshot.decisions.iter();
    let decisions = decisions.map(|d| [d.kind.name().to_string(), d.count.to_string()]);
    let contention = [
        "shard_contention".to_string(),
        snapshot.shard_contention.to_string(),
    ];
    table(
        &mut out,
        "decision count",
        [20, 10],
        decisions.chain([contention]),
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
        out.push('\n');
        let header = "reactor conns accepted wakeups budget_exh write_drops";
        let rows = snapshot.reactor_loops.iter().map(|l| {
            let counts = [
                l.registered_conns,
                l.accepted,
                l.wakeups,
                l.budget_exhaustions,
                l.write_queue_drops,
            ];
            let [a, b, c, d, e] = counts.map(|n| n.to_string());
            [format!("loop-{}", l.loop_index), a, b, c, d, e]
        });
        table(&mut out, header, [20, 10, 10, 10, 14, 12], rows);
    }
    if !snapshot.roles.is_empty() {
        out.push('\n');
        let header = "role cpu allocs live_bytes peak reads writes";
        let rows = snapshot.roles.iter().map(|r| {
            let counts = [
                r.allocs,
                r.current_bytes,
                r.peak_bytes,
                r.read_syscalls,
                r.write_syscalls,
            ];
            let [a, b, c, d, e] = counts.map(|n| n.to_string());
            [r.role.clone(), fmt_ns(r.cpu_ns), a, b, c, d, e]
        });
        table(&mut out, header, [20, 10, 12, 12, 10, 8, 8], rows);
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
        let offset = record
            .stamps
            .get(point)
            .map_or("(unstamped)".to_string(), |at| {
                format!("+{}", fmt_ns(at.as_nanos().saturating_sub(created)))
            });
        let _ = writeln!(out, "  {:<14} {offset}", point.name());
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
    for (i, incident) in snapshot.incidents.iter().rev().enumerate() {
        let _ = writeln!(
            out,
            "{} {} at {} topic-{} #{} {}",
            if i == 0 {
                "last incident:"
            } else {
                "  earlier:"
            },
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
        t.set_topic_slo(TopicId(3), Duration::from_micros(500), Some(2));
        for us in [10u64, 100, 1000] {
            t.record_stage(Stage::DispatchExec, Duration::from_micros(us));
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
        let mut plain = String::new();
        escape_label_value(&mut plain, "plain");
        assert_eq!(plain, "plain");
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
