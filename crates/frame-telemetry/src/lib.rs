//! Observability for FRAME: per-stage latency histograms, decision
//! counters, a Table-3 decision trace, and Prometheus/JSON exporters.
//!
//! The crate is deliberately small and dependency-light (only
//! `frame-types` + serde) so every layer of the stack — the sans-IO broker
//! in `frame-core`, the threaded runtime in `frame-rt`, the simulator in
//! `frame-sim` and the CLI — can record into one shared [`Telemetry`]
//! registry:
//!
//! * [`LatencyHistogram`] — the log-bucketed (HDR-style) histogram, also
//!   re-exported by `frame-sim` for its offline metrics.
//! * [`AtomicHistogram`] / [`ShardedCounter`] — wait-free hot-path
//!   recording, folded into plain values at snapshot time.
//! * [`Stage`] — the pipeline stage taxonomy (proxy ingress → queue wait →
//!   dispatch/replicate execution → transit, plus fail-over detection and
//!   promotion).
//! * [`DecisionTrace`] — a lock-free ring of the paper-visible decisions
//!   (Table 3 rows, Proposition-1 suppressions, promotion and recovery),
//!   drainable while the broker keeps running.
//! * [`export`] — Prometheus text format, JSON round-tripping, and the
//!   aligned table rendered by `frame-cli stats`.
//! * [`profile`] — process-wide per-role resource accounting: a counting
//!   `#[global_allocator]` wrapper (feature `alloc-profile`, default-on),
//!   self-stamped per-thread CPU time and ingress syscall counters.
//!
//! A [`Telemetry::disabled`] handle turns every recording call into a
//! single branch, so instrumentation can stay in release builds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod export;
pub mod histogram;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod span;
pub mod stage;
pub mod telemetry;
pub mod trace;

pub use export::{
    check_prometheus_conformance, escape_label_value, flight_from_json, flight_to_json, from_json,
    render_flight_pretty, render_pretty, render_prometheus, render_span_timeline, to_json,
    PromWriter,
};
pub use histogram::LatencyHistogram;
pub use metrics::{AtomicHistogram, ShardedCounter};
pub use profile::{
    alloc_profiling_enabled, record_read_syscalls, record_write_syscalls, register_thread_role,
    snapshot_roles, stamp_thread_cpu, thread_cpu_now_ns, RoleKind, RoleProfileSnapshot,
};
pub use recorder::{FlightRecorder, FlightSnapshot, Incident, IncidentKind};
pub use span::{attribute, Attribution, BudgetSlice, BudgetStage, SpanRecord};
pub use stage::Stage;
pub use telemetry::{
    DecisionCount, HeartbeatKind, HeartbeatSnapshot, OverloadSnapshot, QueueGaugeSnapshot,
    ReactorGauges, ReactorLoopSnapshot, StageSnapshot, Telemetry, TelemetrySnapshot,
    TopicSloSnapshot, TopicSnapshot, DEFAULT_FLIGHT_CAPACITY, DEFAULT_INCIDENT_CAPACITY,
    DEFAULT_TRACE_CAPACITY,
};
pub use trace::{DecisionEvent, DecisionKind, DecisionTrace};
