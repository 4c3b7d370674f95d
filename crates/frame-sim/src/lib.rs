//! Discrete-event simulation of the FRAME edge-computing testbed.
//!
//! The paper evaluates FRAME on seven physical hosts plus AWS EC2. This
//! crate substitutes a deterministic simulation: brokers run the real
//! `frame-core` state machine, but CPU time is modeled with per-operation
//! service times ([`params::ServiceParams`]) and the network with seeded
//! latency models from `frame-net`. The paper's four configurations
//! (FRAME+, FRAME, FCFS, FCFS-), the Table 2 workload mix, crash injection,
//! and the metrics behind Tables 4–5 and Figs 7–9 are all provided.
//!
//! # Quick start
//!
//! ```
//! use frame_sim::{run, ConfigName, SimConfig};
//!
//! let metrics = run(SimConfig::new(ConfigName::Frame, 55));
//! assert!(metrics.topics.iter().all(|t| t.max_consecutive_losses() == 0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capacity;
pub mod metrics;
pub mod multi_edge;
pub mod params;
pub mod system;
pub mod workload;

pub use capacity::{max_sustainable_topics, predict, CapacityPrediction};
pub use metrics::{mean_ci95, CpuUsage, ModuleUsage, RunMetrics, TopicMetrics};
pub use multi_edge::{cloud_ingest_scaling, max_edges_within_budget, CloudIngestReport};
pub use params::{ConfigName, CpuAllocation, ServiceParams, SimSchedule};
pub use system::{run, CloudLatency, CrashTarget, SimConfig};
pub use workload::{PublisherGroup, TopicInfo, Workload, PAYLOAD_SIZE};
