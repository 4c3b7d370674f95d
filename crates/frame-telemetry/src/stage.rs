//! The pipeline stage taxonomy.
//!
//! Every latency sample recorded through [`crate::Telemetry`] is attached
//! to one stage of the message's journey through a FRAME deployment. The
//! stages partition the paper's end-to-end latency (Table 5, Fig 8) so a
//! regression in any one stage is visible in isolation.

use serde::{Deserialize, Serialize};

/// One stage of the publish→deliver pipeline (or of fail-over).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Stage {
    /// Message Proxy ingress: receiving a publisher message, buffering it
    /// and generating its job(s) (paper Fig 4, "Message Proxy" + "Job
    /// Generator").
    ProxyIngress,
    /// Time a job spent waiting in the EDF (or FCFS) Job Queue between its
    /// release and the moment a thread claimed it.
    QueueWait,
    /// Executing a dispatch job: resolving the message and pushing it to
    /// every subscriber channel.
    DispatchExec,
    /// Executing a replication job: pushing the replica to the Backup peer.
    ReplicateExec,
    /// Broker→subscriber transit: message creation to delivery hand-off
    /// (the paper's end-to-end latency as measured in Table 5).
    Transit,
    /// Fail-over detection: last acknowledged poll to the crash verdict
    /// (the detection component of the paper's `x` budget, Fig 9).
    FailoverDetection,
    /// Backup promotion: scanning the Backup Buffer and enqueueing
    /// recovery dispatches (the promotion component of `x`).
    Promotion,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::ProxyIngress,
        Stage::QueueWait,
        Stage::DispatchExec,
        Stage::ReplicateExec,
        Stage::Transit,
        Stage::FailoverDetection,
        Stage::Promotion,
    ];

    /// Stable snake_case name (used as the Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ProxyIngress => "proxy_ingress",
            Stage::QueueWait => "queue_wait",
            Stage::DispatchExec => "dispatch_exec",
            Stage::ReplicateExec => "replicate_exec",
            Stage::Transit => "transit",
            Stage::FailoverDetection => "failover_detection",
            Stage::Promotion => "promotion",
        }
    }

    /// Dense index into per-stage arrays.
    #[inline]
    pub(crate) fn index(self) -> usize {
        match self {
            Stage::ProxyIngress => 0,
            Stage::QueueWait => 1,
            Stage::DispatchExec => 2,
            Stage::ReplicateExec => 3,
            Stage::Transit => 4,
            Stage::FailoverDetection => 5,
            Stage::Promotion => 6,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
