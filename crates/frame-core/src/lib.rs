//! The FRAME architecture: differentiated fault-tolerant real-time
//! messaging for edge computing.
//!
//! This crate implements the primary contribution of *FRAME: Fault Tolerant
//! and Real-Time Messaging for Edge Computing* (Wang, Gill, Lu — ICDCS
//! 2019):
//!
//! * [`bounds`] — the timing analysis: Lemma 1 (replication deadlines),
//!   Lemma 2 (dispatch deadlines), Proposition 1 (selective replication),
//!   the admission test, and the configuration helpers of §III-D.
//! * [`job`] — dispatch/replication jobs, the EDF Job Queue and the FCFS
//!   baseline queue, both with lazy cancellation.
//! * [`buffer`] — the ring buffers of the architecture (Message Buffer,
//!   Backup Buffer, Retention Buffer) with generation-checked handles and
//!   the coordination flags of Table 3.
//! * [`broker`] — the sans-IO broker state machine: Message Proxy, Job
//!   Generator, Message Delivery, dispatch–replicate coordination, and
//!   fault recovery (Backup promotion). It keeps its per-topic state in
//!   private shards and is the one state machine every embedding drives:
//!   the simulator pops jobs from it, the threaded runtime holds it
//!   behind one lock and claims jobs per topic.
//! * [`publisher`] — message creation, retention, and fail-over re-send.
//! * [`subscriber`] — duplicate suppression and consecutive-loss tracking.
//! * [`detector`] — the polling failure detector the Backup uses to watch
//!   its Primary.
//!
//! # Quick start
//!
//! ```
//! use frame_core::bounds::{admit, replication_needed};
//! use frame_types::{NetworkParams, TopicId, TopicSpec};
//!
//! let net = NetworkParams::paper_example();
//! let spec = TopicSpec::category(2, TopicId(7));
//!
//! // Admission test (paper §III-D.1).
//! let admitted = admit(&spec, &net).expect("category 2 is admissible");
//!
//! // Proposition 1: does this topic need broker replication at all?
//! assert!(replication_needed(&spec, &net).unwrap());
//!
//! // Bumping publisher retention by one removes the need (FRAME+).
//! let bumped = spec.with_extra_retention(1);
//! assert!(!replication_needed(&bumped, &net).unwrap());
//! # let _ = admitted;
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod broker;
pub mod buffer;
pub mod detector;
pub mod job;
pub mod overload;
pub mod publisher;
mod shard;
pub mod subscriber;

pub use bounds::{
    admit, deadline_ordering, dispatch_deadline, min_admissible_retention, replication_deadline,
    replication_needed, AdmittedTopic, Deadline, DeadlineKind, LabelledDeadline, PseudoDeadlines,
};
pub use broker::{ActiveJob, Broker, BrokerConfig, BrokerRole, BrokerStats, Effect};
pub use buffer::{BufferedMessage, CopyFlags, RingBuffer, SlotRef};
pub use detector::{PollingDetector, PrimaryStatus};
pub use job::{BufferSource, EdfQueue, FcfsQueue, Job, JobId, JobKind, JobQueue, SchedulingPolicy};
pub use overload::{OverloadConfig, OverloadController, Rung};
pub use publisher::{PublishTarget, Publisher, RetentionBuffer};
pub use subscriber::{AcceptOutcome, DeliveryTracker};
