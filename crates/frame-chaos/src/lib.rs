//! Deterministic fault injection for FRAME's threaded runtime.
//!
//! The paper's claims are *fault-tolerance* claims: Lemma 1 bounds
//! consecutive losses across a Primary crash, Lemma 2 decomposes the
//! end-to-end deadline into budgeted stages, Table 3 pins the
//! replica/prune coordination order. Unit tests exercise these on the
//! sans-IO core; this crate attacks the **threaded runtime** with
//! scripted faults and then proves, from evidence, that the guarantees
//! held anyway.
//!
//! A run has four moving parts:
//!
//! 1. a [`FaultPlan`] (TOML, parsed by [`toml`] and typed by [`plan`]) —
//!    topics, publish schedule, fault rules in sequence-number windows,
//!    an optional scripted Primary crash;
//! 2. the [`ChaosInjector`] — a [`frame_rt::FaultHook`] whose every
//!    decision is a pure hash of `(seed, rule, topic, seq)`, so the same
//!    plan and seed produce the same fault set regardless of thread
//!    interleaving;
//! 3. the [`runner`] — builds a Primary/Backup [`frame_rt::RtSystem`]
//!    with the injector installed, drives the schedule, pulls the crash
//!    trigger, drains subscribers;
//! 4. the [`invariant`] checker — replays the evidence (subscriber-side
//!    delivery sets, Primary→Backup emission order, flight-recorder
//!    deadline misses) and renders a [`Verdict`].
//!
//! ```no_run
//! use frame_chaos::{ChaosReport, FaultPlan};
//!
//! let plan = FaultPlan::load(std::path::Path::new("plan.toml")).unwrap();
//! let report: ChaosReport = frame_chaos::run(&plan, 7).unwrap();
//! assert!(report.verdict.passed, "{}", report.verdict.render());
//! // Same plan + same seed ⇒ byte-identical report.incidents_jsonl.
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod inject;
pub mod invariant;
pub mod plan;
pub mod runner;
pub mod toml;

pub use inject::{BackupObservation, ChaosInjector, InjectedFault};
pub use invariant::{check, ArrivalOrder, ChaosEvidence, CheckResult, DeliveryCounts, Verdict};
pub use plan::{
    Action, CheckPolicy, CompiledRule, CrashRule, DelaySource, DetectorRule, FaultPlan, FaultRule,
    OverloadRule, PlanTopic, Surface,
};
pub use runner::{run, ChaosReport};
