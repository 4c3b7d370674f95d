//! The one lock-free record ring behind the decision trace and the flight
//! recorder's span ring: a fixed-capacity ring of `[u64; W]` records,
//! readable while writers keep recording.
//!
//! Each slot carries a stamp: [`EMPTY`] until first written, [`CLAIMED`]
//! while a writer is mid-record, otherwise the (write index + 1) of the
//! record it holds. The protocol is a seqlock (crossbeam's `SeqLock`
//! pattern):
//!
//! * a writer claims a write index with one relaxed `fetch_add`, stores
//!   `CLAIMED`, issues a release fence, stores the words relaxed, then
//!   publishes the stamp `index + 1` with a release store. The fence keeps
//!   the word stores from becoming visible before `CLAIMED` does;
//! * a reader loads the stamp (acquire), copies the words (relaxed),
//!   issues an acquire fence and re-loads the stamp. The fence keeps the
//!   word loads from moving after the second stamp load, so a record
//!   overwritten mid-copy shows a changed stamp and is skipped.
//!
//! Both fences compile to nothing on x86. Reading never blocks a writer.
//!
//! One race stays open: two writers whose indices are a whole ring apart
//! (the ring lapped inside one `record` call) write the same slot at once,
//! and the later-finishing writer can stamp words partly written by the
//! other. A lap takes a full ring's worth of records (1024 spans or 4096
//! decisions), so this needs a writer preempted for that long mid-record.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Stamp of a slot never written.
const EMPTY: u64 = 0;
/// Stamp of a slot whose words are in flux.
const CLAIMED: u64 = u64::MAX;

struct Slot<const W: usize> {
    stamp: AtomicU64,
    words: [AtomicU64; W],
}

/// A fixed-capacity ring of `[u64; W]` records. The oldest records are
/// overwritten once the ring is full.
pub(crate) struct Ring<const W: usize> {
    slots: Box<[Slot<W>]>,
    /// Monotone count of records ever written (the next write index).
    head: AtomicU64,
    /// Write index up to which [`Ring::drain`] has consumed.
    drained: AtomicU64,
}

impl<const W: usize> Ring<W> {
    /// A ring retaining the newest `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Ring<W> {
        assert!(capacity > 0, "ring capacity must be positive");
        Ring {
            slots: (0..capacity)
                .map(|_| Slot {
                    stamp: AtomicU64::new(EMPTY),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Writes one record and returns its write index. Lock-free: one
    /// relaxed RMW, then `W + 2` stores; never blocks or allocates.
    #[inline]
    pub(crate) fn record(&self, words: [u64; W]) -> u64 {
        let index = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        slot.stamp.store(CLAIMED, Ordering::Relaxed);
        fence(Ordering::Release);
        for (cell, word) in slot.words.iter().zip(words) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.stamp.store(index + 1, Ordering::Release);
        index
    }

    /// Decodes the retained records with write index in `[from, head)`,
    /// oldest first, skipping slots overwritten or mid-write and records
    /// `decode` rejects. Returns them with the head they extend to.
    pub(crate) fn collect_since<R>(
        &self,
        from: u64,
        mut decode: impl FnMut([u64; W]) -> Option<R>,
    ) -> (Vec<R>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = from.max(head.saturating_sub(cap));
        let mut records = Vec::with_capacity((head - start) as usize);
        for index in start..head {
            let slot = &self.slots[(index % cap) as usize];
            let before = slot.stamp.load(Ordering::Acquire);
            if before != index + 1 {
                continue; // overwritten, or still in flight
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.stamp.load(Ordering::Relaxed) != before {
                continue; // torn read: a writer lapped us mid-copy
            }
            records.extend(decode(words));
        }
        (records, head)
    }

    /// Decodes the records written since the previous drain (oldest
    /// first) and advances the drain watermark. Writers are never paused.
    pub(crate) fn drain<R>(&self, decode: impl FnMut([u64; W]) -> Option<R>) -> Vec<R> {
        let from = self.drained.load(Ordering::Acquire);
        let (records, head) = self.collect_since(from, decode);
        // A racing drain may have advanced further; keep the max.
        self.drained.fetch_max(head, Ordering::AcqRel);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(records: Vec<[u64; 2]>) -> Vec<u64> {
        records.iter().map(|r| r[1]).collect()
    }

    #[test]
    fn records_and_collects_in_order() {
        let ring = Ring::<2>::new(8);
        for seq in 0..3 {
            assert_eq!(ring.record([7, seq]), seq);
        }
        let (records, head) = ring.collect_since(0, Some);
        assert_eq!(records, vec![[7, 0], [7, 1], [7, 2]]);
        assert_eq!(head, 3);
    }

    #[test]
    fn wraparound_keeps_newest() {
        let ring = Ring::<2>::new(4);
        for seq in 0..10 {
            ring.record([0, seq]);
        }
        assert_eq!(seqs(ring.collect_since(0, Some).0), [6, 7, 8, 9]);
    }

    #[test]
    fn drain_consumes_then_resumes() {
        let ring = Ring::<2>::new(8);
        ring.record([0, 0]);
        ring.record([0, 1]);
        assert_eq!(ring.drain(Some).len(), 2);
        assert!(ring.drain(Some).is_empty(), "second drain sees nothing new");
        ring.record([0, 2]);
        assert_eq!(seqs(ring.drain(Some)), [2]);
    }

    #[test]
    fn drain_after_wraparound_skips_overwritten() {
        let ring = Ring::<2>::new(4);
        for seq in 0..3 {
            ring.record([0, seq]);
        }
        assert_eq!(ring.drain(Some).len(), 3);
        // Overflow the ring twice over; only the newest 4 survive.
        for seq in 3..20 {
            ring.record([0, seq]);
        }
        assert_eq!(seqs(ring.drain(Some)), [16, 17, 18, 19]);
    }

    #[test]
    fn decode_rejections_are_skipped() {
        let ring = Ring::<2>::new(8);
        for seq in 0..4 {
            ring.record([seq % 2, seq]);
        }
        let odd = ring.collect_since(0, |r| (r[0] == 1).then_some(r[1])).0;
        assert_eq!(odd, [1, 3]);
    }

    /// Four writers each write records whose words all equal one value
    /// while a reader copies the ring: every record read must be whole.
    #[test]
    fn concurrent_readers_never_see_torn_records() {
        use std::sync::Arc;
        const W: usize = 9;
        let ring = Arc::new(Ring::<W>::new(64));
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        ring.record([w << 32 | i; W]);
                    }
                })
            })
            .collect();
        while !writers.iter().all(|w| w.is_finished()) {
            for record in ring.drain(Some) {
                assert!(
                    record.iter().all(|&w| w == record[0]),
                    "torn record {record:?}"
                );
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let (rest, head) = ring.collect_since(0, Some);
        assert_eq!(head, 80_000);
        assert_eq!(rest.len(), 64, "the newest ring's worth survives");
        assert!(rest.iter().all(|r| r.iter().all(|&w| w == r[0])));
    }
}
