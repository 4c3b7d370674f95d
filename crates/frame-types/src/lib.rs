//! Shared vocabulary types for the FRAME messaging system.
//!
//! This crate defines the domain model of the paper *FRAME: Fault Tolerant
//! and Real-Time Messaging for Edge Computing* (ICDCS 2019): time points and
//! durations ([`time`]), strongly-typed identifiers ([`ids`]), per-topic QoS
//! specifications ([`spec`]), messages ([`message`]), deployment
//! configuration ([`config`]) and the workspace-wide error type ([`error`]).
//!
//! Everything here is deliberately passive — no threads, no I/O — so the
//! same types serve the discrete-event simulator (`frame-sim`), the
//! threaded runtime (`frame-rt`) and the analysis code (`frame-core`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod ids;
pub mod message;
pub mod spec;
pub mod time;
pub mod trace;
pub mod wire;

pub use config::{Hop, NetworkParams, SystemConfig};
pub use error::{AdmissionFailure, FrameError, Result};
pub use ids::{BrokerId, HostId, PublisherId, SeqNo, SubscriberId, TopicId};
pub use message::{Message, MessageKey};
pub use spec::{Destination, LossTolerance, SubscriberRequirement, TopicSpec};
pub use time::{Duration, Time};
pub use trace::{SpanPoint, TraceCtx};
pub use wire::{
    BackupEffect, DecodeError, EncodedFrame, FrameSink, FrameWriteQueue, WireCodec, WireMsg,
    MAX_FRAME_LEN,
};
