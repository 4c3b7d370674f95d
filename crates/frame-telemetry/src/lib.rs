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
//! * [`Stage`] — the pipeline stage taxonomy (proxy ingress → queue wait →
//!   dispatch/replicate execution → transit, plus fail-over detection and
//!   promotion).
//! * The decision trace ([`DecisionEvent`]: Table 3 rows, Proposition-1
//!   suppressions, promotion and recovery) and the flight recorder's
//!   delivery spans ([`SpanRecord`]) — two instances of one lock-free
//!   record ring, readable while the broker keeps running.
//! * Exporters — Prometheus text format ([`render_prometheus`]), JSON
//!   round-tripping ([`to_json`]/[`from_json`]) and the aligned table
//!   rendered by `frame-cli stats` ([`render_pretty`]).
//! * Per-role resource accounting — a counting `#[global_allocator]`
//!   wrapper (feature `alloc-profile`, default-on), self-stamped
//!   per-thread CPU time and ingress syscall counters
//!   ([`snapshot_roles`]).
//!
//! A [`Telemetry::disabled`] handle turns every recording call into a
//! single branch, so instrumentation can stay in release builds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod export;
mod histogram;
mod metrics;
mod profile;
mod recorder;
mod ring;
mod span;
mod stage;
mod telemetry;
mod trace;

pub use export::{
    check_prometheus_conformance, flight_from_json, flight_to_json, from_json,
    render_flight_pretty, render_pretty, render_prometheus, render_span_timeline, to_json,
    FixedFamily, PromWriter,
};
pub use histogram::LatencyHistogram;
pub use profile::{
    alloc_profiling_enabled, record_read_syscalls, record_write_syscalls, register_thread_role,
    snapshot_roles, stamp_thread_cpu, thread_cpu_now_ns, RoleKind, RoleProfileSnapshot,
};
pub use recorder::{FlightSnapshot, Incident, IncidentKind};
pub use span::{attribute, Attribution, BudgetSlice, BudgetStage, SpanRecord};
pub use stage::Stage;
pub use telemetry::{
    DecisionCount, HeartbeatKind, HeartbeatSnapshot, OverloadSnapshot, QueueGaugeSnapshot,
    ReactorGauges, ReactorLoopSnapshot, StageSnapshot, Telemetry, TelemetrySnapshot,
    TopicSloSnapshot, TopicSnapshot,
};
pub use trace::{DecisionEvent, DecisionKind};
