//! Counters the brokers already export, fetched over the wire
//! (`WireMsg::Stats` → `frame_telemetry::from_json`) at the start and end
//! of a measured window and reduced to per-message deltas.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use frame_rt::{read_frame, write_frame, WireMsg};
use frame_telemetry::{DecisionKind, Stage, TelemetrySnapshot};

/// Fetches one broker's telemetry snapshot.
pub fn fetch(addr: SocketAddr) -> Result<TelemetrySnapshot, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    write_frame(&mut s, &WireMsg::Stats).map_err(|e| e.to_string())?;
    match read_frame(&mut s).map_err(|e| format!("Stats reply: {e}"))? {
        WireMsg::StatsJson(json) => frame_telemetry::from_json(&json).map_err(|e| e.to_string()),
        other => Err(format!("unexpected Stats reply {other:?}")),
    }
}

/// The cumulative counters of one snapshot that the benchmark diffs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub wakeups: u64,
    pub budget_exhaustions: u64,
    pub write_queue_drops: u64,
    pub busy_ns: u64,
    pub parked_ns: u64,
    pub reactor_reads: u64,
    pub reactor_writes: u64,
    pub bridge_writes: u64,
    pub worker_cpu_ns: u64,
    pub hot_path_allocs: u64,
    pub shard_contention: u64,
    pub replicate: u64,
    pub cancel: u64,
    pub abort: u64,
    pub stale_skip: u64,
    pub prune: u64,
}

impl Counters {
    pub fn of(s: &TelemetrySnapshot) -> Counters {
        let mut c = Counters {
            shard_contention: s.shard_contention,
            ..Counters::default()
        };
        for l in &s.reactor_loops {
            c.wakeups += l.wakeups;
            c.budget_exhaustions += l.budget_exhaustions;
            c.write_queue_drops += l.write_queue_drops;
            c.busy_ns += l.busy_ns;
            c.parked_ns += l.parked_ns;
        }
        for r in &s.roles {
            if r.role.starts_with("reactor") {
                c.reactor_reads += r.read_syscalls;
                c.reactor_writes += r.write_syscalls;
            }
            if r.role.starts_with("backup-bridge") {
                c.bridge_writes += r.write_syscalls;
            }
            if r.role.starts_with("worker") {
                c.worker_cpu_ns += r.cpu_ns;
            }
            if r.hot_path {
                c.hot_path_allocs += r.allocs;
            }
        }
        for d in &s.decisions {
            let slot = match d.kind {
                DecisionKind::Replicate => &mut c.replicate,
                DecisionKind::Cancel => &mut c.cancel,
                DecisionKind::Abort => &mut c.abort,
                DecisionKind::StaleSkip => &mut c.stale_skip,
                DecisionKind::Prune => &mut c.prune,
                _ => continue,
            };
            *slot += d.count;
        }
        c
    }

    /// `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
            budget_exhaustions: self
                .budget_exhaustions
                .saturating_sub(earlier.budget_exhaustions),
            write_queue_drops: self
                .write_queue_drops
                .saturating_sub(earlier.write_queue_drops),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            parked_ns: self.parked_ns.saturating_sub(earlier.parked_ns),
            reactor_reads: self.reactor_reads.saturating_sub(earlier.reactor_reads),
            reactor_writes: self.reactor_writes.saturating_sub(earlier.reactor_writes),
            bridge_writes: self.bridge_writes.saturating_sub(earlier.bridge_writes),
            worker_cpu_ns: self.worker_cpu_ns.saturating_sub(earlier.worker_cpu_ns),
            hot_path_allocs: self.hot_path_allocs.saturating_sub(earlier.hot_path_allocs),
            shard_contention: self
                .shard_contention
                .saturating_sub(earlier.shard_contention),
            replicate: self.replicate.saturating_sub(earlier.replicate),
            cancel: self.cancel.saturating_sub(earlier.cancel),
            abort: self.abort.saturating_sub(earlier.abort),
            stale_skip: self.stale_skip.saturating_sub(earlier.stale_skip),
            prune: self.prune.saturating_sub(earlier.prune),
        }
    }
}

/// Stage quantile in µs from a snapshot's cumulative histogram (the
/// warm-up contributes a handful of samples next to the window's
/// thousands).
pub fn stage_us(s: &TelemetrySnapshot, stage: Stage, q: f64) -> f64 {
    s.stage(stage)
        .filter(|h| !h.is_empty())
        .map_or(0.0, |h| h.quantile(q).as_nanos() as f64 / 1e3)
}

/// Deepest the delivery queue has been, across the snapshot's brokers.
pub fn queue_high_watermark(s: &TelemetrySnapshot) -> u64 {
    s.queues.iter().map(|q| q.high_watermark).max().unwrap_or(0)
}
