//! Hot-path metric primitives: a wait-free atomic histogram and a sharded
//! counter, both folded into plain values at snapshot time.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use frame_types::Duration;

use crate::histogram::{LatencyHistogram, BUCKETS};

/// A concurrently-recordable [`LatencyHistogram`]: the same log-bucketed
/// layout, but every bucket is a relaxed [`AtomicU64`], so delivery
/// workers record without locks or allocation. [`AtomicHistogram::snapshot`]
/// folds it into an ordinary [`LatencyHistogram`] for querying.
pub(crate) struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    max_ns: AtomicU64,
    min_ns: AtomicU64,
    /// Sum of samples in nanoseconds. A `u64` holds ~584 years of
    /// accumulated nanoseconds — ample for a live registry (the offline
    /// histogram keeps `u128` because simulations merge many runs).
    sum_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Records one latency sample. Wait-free: two relaxed RMW ops in the
    /// common case (the sample total is derived from the buckets at
    /// snapshot time, and max/min only pay a CAS when they actually move).
    #[inline]
    pub(crate) fn record(&self, latency: Duration) {
        let ns = latency.as_nanos();
        self.counts[LatencyHistogram::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
        if ns < self.min_ns.load(Ordering::Relaxed) {
            self.min_ns.fetch_min(ns, Ordering::Relaxed);
        }
    }

    /// Folds the live buckets into an ordinary histogram. Concurrent
    /// recording continues; the snapshot is a consistent-enough view (each
    /// field is read once, so totals may trail in-flight samples by a few).
    pub(crate) fn snapshot(&self) -> LatencyHistogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        // The total comes from the folded buckets, so quantile ranks are
        // consistent with the counts actually copied.
        let total: u64 = counts.iter().sum();
        LatencyHistogram::from_parts(
            counts,
            total,
            self.max_ns.load(Ordering::Relaxed),
            self.min_ns.load(Ordering::Relaxed),
            u128::from(self.sum_ns.load(Ordering::Relaxed)),
        )
    }
}

const SHARDS: usize = 16;

/// Padded to a cache line so shards on different cores don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCounter(AtomicU64);

/// A counter sharded across cache lines: concurrent workers increment
/// distinct shards (assigned per thread, round-robin), and
/// [`ShardedCounter::get`] folds them. Wait-free on the increment path.
#[derive(Default)]
pub(crate) struct ShardedCounter {
    shards: [PaddedCounter; SHARDS],
}

/// Round-robin shard assignment, fixed per thread on first use.
#[inline]
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

impl ShardedCounter {
    /// Increments this thread's shard.
    #[inline]
    pub(crate) fn incr(&self) {
        self.shards[thread_shard()]
            .0
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Increments the shard picked by `hint % SHARDS`. Lets callers that
    /// already hold a distributed value (e.g. a ring write index) spread
    /// contention without the thread-local lookup of [`ShardedCounter::incr`].
    #[inline]
    pub(crate) fn incr_spread(&self, hint: u64) {
        self.shards[(hint % SHARDS as u64) as usize]
            .0
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Folds every shard into the current total.
    pub(crate) fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn atomic_histogram_matches_plain() {
        let a = AtomicHistogram::default();
        let mut p = LatencyHistogram::new();
        for us in 1..=1000u64 {
            a.record(Duration::from_micros(us));
            p.record(Duration::from_micros(us));
        }
        let s = a.snapshot();
        assert_eq!(s.len(), p.len());
        assert_eq!(s.max(), p.max());
        assert_eq!(s.min(), p.min());
        assert_eq!(s.mean(), p.mean());
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), p.quantile(q), "q={q}");
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(AtomicHistogram::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(Duration::from_nanos(t * 1_000 + i % 997));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().len(), 40_000);
    }

    #[test]
    fn sharded_counter_folds_across_threads() {
        let c = Arc::new(ShardedCounter::default());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }
}
