//! Error types shared across the FRAME crates.

use core::fmt;

use crate::config::Hop;
use crate::ids::{BrokerId, SubscriberId, TopicId};

/// Errors produced by FRAME components.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum FrameError {
    /// A topic failed the admission test of the paper (§III-D.1):
    /// either its dispatch deadline `D^d_i` or its replication deadline
    /// `D^r_i` is negative under the configured network parameters.
    AdmissionRejected {
        /// The rejected topic.
        topic: TopicId,
        /// Human-readable reason ("dispatch deadline negative", ...).
        reason: AdmissionFailure,
    },
    /// An operation referenced a topic unknown to the component.
    UnknownTopic(TopicId),
    /// An operation referenced a subscriber unknown to the component.
    UnknownSubscriber(SubscriberId),
    /// An operation referenced a broker unknown to the component.
    UnknownBroker(BrokerId),
    /// The same topic was registered twice.
    DuplicateTopic(TopicId),
    /// A buffer with bounded capacity rejected a push.
    BufferFull {
        /// Capacity of the buffer that rejected the push.
        capacity: usize,
    },
    /// The component has shut down and no longer accepts work.
    ShuttingDown,
    /// A broker refused an operation that is only valid in the other role
    /// (e.g. asking a Backup to dispatch during fault-free operation).
    WrongRole {
        /// What was attempted.
        operation: &'static str,
    },
    /// Configuration could not be parsed or is internally inconsistent.
    InvalidConfig(String),
    /// A network operation failed (socket error, peer disconnected,
    /// channel closed, ...). Replaces ad-hoc `io::Error` plumbing on the
    /// wire paths.
    Net(String),
    /// A storage operation failed (flight dump, bench log, plan file, ...).
    /// Replaces ad-hoc `io::Error` plumbing on the persistence paths.
    Store(String),
    /// The operation failed because a scripted fault was injected on `hop`
    /// by the chaos engine — distinguishable from a *real* [`Self::Net`]
    /// failure so invariant checkers and operators can tell them apart.
    Injected {
        /// The hop the fault was injected on.
        hop: Hop,
        /// What the injector did ("drop seq 5", "sever window", ...).
        detail: String,
    },
}

impl FrameError {
    /// Wraps a network-layer failure (typically an `io::Error`) into
    /// [`FrameError::Net`].
    pub fn net(err: impl fmt::Display) -> FrameError {
        FrameError::Net(err.to_string())
    }

    /// Wraps a storage-layer failure (typically an `io::Error`) into
    /// [`FrameError::Store`].
    pub fn store(err: impl fmt::Display) -> FrameError {
        FrameError::Store(err.to_string())
    }

    /// Builds an [`FrameError::Injected`] for a scripted fault on `hop`.
    pub fn injected(hop: Hop, detail: impl Into<String>) -> FrameError {
        FrameError::Injected {
            hop,
            detail: detail.into(),
        }
    }
}

/// The specific admission-test clause that failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum AdmissionFailure {
    /// `D^d_i < 0`: the end-to-end deadline cannot absorb the network
    /// latencies (`D_i < ΔPB + ΔBS`).
    DispatchDeadlineNegative,
    /// `D^r_i < 0`: the tolerance window cannot absorb latencies plus
    /// fail-over time (`(N_i+L_i)·T_i < ΔPB + ΔBB + x`). Raising `N_i`
    /// (publisher retention) is the paper's remedy.
    ReplicationDeadlineNegative,
}

impl fmt::Display for AdmissionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionFailure::DispatchDeadlineNegative => {
                write!(f, "dispatch deadline D^d would be negative (D < ΔPB + ΔBS)")
            }
            AdmissionFailure::ReplicationDeadlineNegative => write!(
                f,
                "replication deadline D^r would be negative ((N+L)·T < ΔPB + ΔBB + x); \
                 increase publisher retention N"
            ),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::AdmissionRejected { topic, reason } => {
                write!(f, "{topic} is not admissible: {reason}")
            }
            FrameError::UnknownTopic(t) => write!(f, "unknown topic {t}"),
            FrameError::UnknownSubscriber(s) => write!(f, "unknown subscriber {s}"),
            FrameError::UnknownBroker(b) => write!(f, "unknown broker {b}"),
            FrameError::DuplicateTopic(t) => write!(f, "{t} is already registered"),
            FrameError::BufferFull { capacity } => {
                write!(f, "buffer full (capacity {capacity})")
            }
            FrameError::ShuttingDown => write!(f, "component is shutting down"),
            FrameError::WrongRole { operation } => {
                write!(
                    f,
                    "operation `{operation}` is not valid in this broker role"
                )
            }
            FrameError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            FrameError::Net(msg) => write!(f, "network error: {msg}"),
            FrameError::Store(msg) => write!(f, "storage error: {msg}"),
            FrameError::Injected { hop, detail } => {
                write!(f, "injected fault on {hop}: {detail}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Convenience alias used across the workspace.
pub type Result<T, E = FrameError> = core::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_usefully() {
        let e = FrameError::AdmissionRejected {
            topic: TopicId(3),
            reason: AdmissionFailure::ReplicationDeadlineNegative,
        };
        let s = e.to_string();
        assert!(s.contains("topic-3"));
        assert!(s.contains("increase publisher retention"));

        assert!(FrameError::BufferFull { capacity: 8 }
            .to_string()
            .contains("capacity 8"));
        assert!(FrameError::WrongRole {
            operation: "dispatch"
        }
        .to_string()
        .contains("dispatch"));
    }

    #[test]
    fn layer_wrappers_and_injected_render() {
        let net = FrameError::net(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "peer gone",
        ));
        assert!(net.to_string().contains("network error"));
        assert!(net.to_string().contains("peer gone"));

        let store = FrameError::store("disk full");
        assert_eq!(store, FrameError::Store("disk full".to_string()));

        let injected = FrameError::injected(Hop::PrimaryToBackup, "drop seq 5");
        let s = injected.to_string();
        assert!(s.contains("injected fault"));
        assert!(s.contains("primary_to_backup"));
        assert!(s.contains("drop seq 5"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&FrameError::ShuttingDown);
    }
}
