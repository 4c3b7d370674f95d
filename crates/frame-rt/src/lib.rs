//! Threaded runtime for FRAME.
//!
//! The discrete-event simulator (`frame-sim`) reproduces the paper's
//! evaluation with modeled CPU time; this crate runs the *same* sans-IO
//! broker core on real threads, mirroring the paper's implementation
//! structure (§V): a pool of delivery worker threads blocking on the EDF
//! Job Queue, with a polling failure detector and live Primary→Backup
//! fail-over. The Message Proxy is not a thread: admission runs on the
//! caller's thread — a reactor event loop ([`ReactorServer`]) for socket
//! traffic, the publisher's own thread in-process ([`RtBroker::publish`]).
//!
//! A broker is built by one constructor, [`RtBroker::spawn`], and a
//! subscriber attaches with one call, [`RtBroker::connect_subscriber`].
//! Over TCP the [`ReactorServer`] serves the broker side, the Primary's
//! link to its Backup included ([`ReactorServer::connect_backup`]), and
//! [`tcp`] holds the clients. The bytes on the wire — frames, the encoder
//! and both stream readers — belong to [`frame_types::wire`]; this crate
//! re-exports the names its users reach for ([`read_frame`],
//! [`write_frame`], [`FrameDecoder`], [`WireMsg`], …).
//!
//! # Quick start
//!
//! ```
//! use frame_core::BrokerConfig;
//! use frame_rt::RtSystem;
//! use frame_types::{PublisherId, SubscriberId, TopicId, TopicSpec};
//!
//! let mut sys = RtSystem::builder(BrokerConfig::frame()).start().unwrap();
//! let spec = TopicSpec::category(0, TopicId(1));
//! sys.add_topic(spec, vec![SubscriberId(1)]).unwrap();
//! let publisher = sys.add_publisher(PublisherId(0), &[spec]).unwrap();
//! let deliveries = sys.subscribe(SubscriberId(1));
//!
//! publisher.publish(TopicId(1), &b"0123456789abcdef"[..]).unwrap();
//! let d = deliveries.recv().unwrap();
//! assert_eq!(d.message.topic, TopicId(1));
//! sys.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod broker_rt;
pub mod fault;
pub mod reactor;
pub mod system;
pub mod tcp;

pub use broker_rt::{
    BackupEffect, BackupSink, Delivered, DeliveryNotify, RtBroker, RtBrokerThreads,
};
pub use fault::{BackupEffectKind, FaultHook, FrameFate, Hop, SharedFaultHook};
pub use reactor::{ReactorConfig, ReactorServer};
pub use system::{RtPublisher, RtSystem, RtSystemBuilder};
pub use tcp::{TcpPublisher, TcpSubscriber};
// The wire format and its readers and writers live with the passive
// vocabulary types; re-export the pieces transports and tools reach for
// alongside the runtime.
pub use frame_types::wire::{
    read_frame, read_frame_checked, write_frame, Decoded, EncodedFrame, FrameDecoder, FrameSink,
    FrameWriteQueue, WireCodec, WireMsg, MAX_FRAME_LEN,
};
