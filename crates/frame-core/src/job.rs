//! Jobs and job queues: EDF scheduling of dispatch and replication work.
//!
//! Every message arrival at a broker produces a *dispatching job* and —
//! when Proposition 1 does not suppress it — a *replicating job*
//! (paper §IV-A). Jobs carry an absolute deadline and are executed by the
//! Message Delivery module in deadline order ([`EdfQueue`]). The FCFS
//! baseline of the evaluation uses arrival order ([`FcfsQueue`]).
//!
//! Cancellation: the dispatch–replicate coordination of Table 3 cancels a
//! pending replication job once its message has been dispatched. Both
//! queues implement O(1) lazy cancellation — cancelled ids are skipped at
//! pop time.

use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use frame_types::{MessageKey, SubscriberId, Time, TopicId};
use serde::{Deserialize, Serialize};

use crate::buffer::SlotRef;

/// Unique id of a job within one broker, in creation order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// What a job does when executed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum JobKind {
    /// Push the message to every subscriber of its topic.
    Dispatch,
    /// Push a copy of the message to the Backup broker.
    Replicate,
}

/// Which buffer a job's [`SlotRef`] points into.
///
/// During fault recovery, jobs created by the promoted Backup refer to the
/// Backup Buffer rather than the Message Buffer (paper §IV-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BufferSource {
    /// The Primary's Message Buffer.
    Message,
    /// The Backup Buffer (recovery dispatches).
    Backup,
    /// Messages re-sent by publishers during recovery are dispatched
    /// directly (they are re-inserted into the Message Buffer by the new
    /// Primary, so this variant also resolves against it) — kept distinct
    /// for observability.
    Resend,
}

/// A schedulable unit of work: dispatch or replicate one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Job {
    /// Unique id (creation order).
    pub id: JobId,
    /// Dispatch or replicate.
    pub kind: JobKind,
    /// The topic of the message.
    pub topic: TopicId,
    /// Identity of the message this job refers to.
    pub key: MessageKey,
    /// Position of the message in the source buffer.
    pub slot: SlotRef,
    /// Which buffer `slot` points into.
    pub source: BufferSource,
    /// Release time (the message's broker-arrival time `t_p`).
    pub release: Time,
    /// Absolute deadline (`t_p + D^d_i` or `t_p + D^r_i`); [`Time::MAX`]
    /// encodes an unbounded deadline.
    pub deadline: Time,
}

/// A single subscriber push produced by expanding a dispatch job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchTarget {
    /// The subscriber to push to.
    pub subscriber: SubscriberId,
}

/// A queue of jobs with lazy cancellation.
///
/// The two implementations differ only in ordering: [`EdfQueue`] pops the
/// earliest absolute deadline first, [`FcfsQueue`] pops in insertion order.
pub trait JobQueue: Send {
    /// Enqueues a job.
    fn push(&mut self, job: Job);
    /// Dequeues the next non-cancelled job, or `None` if empty.
    fn pop(&mut self) -> Option<Job>;
    /// Marks a job as cancelled; it will be skipped at pop time. Unknown or
    /// already-popped ids are ignored.
    fn cancel(&mut self, id: JobId);
    /// Number of live (non-cancelled) jobs.
    fn len(&self) -> usize;
    /// Whether no live jobs remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Deadline of the next live job without removing it.
    fn peek_deadline(&mut self) -> Option<Time>;
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct EdfEntry {
    deadline: Time,
    id: JobId,
}

// BinaryHeap is a max-heap; invert the ordering for earliest-deadline-first.
// Ties break by job id (creation order), making pops deterministic.
impl Ord for EdfEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for EdfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Earliest-Deadline-First job queue (the paper's EDF Job Queue, §IV-A).
///
/// `push`/`pop`/`cancel` are O(log n); cancelled entries are dropped lazily
/// when they surface at the top of the heap.
#[derive(Default)]
pub struct EdfQueue {
    heap: BinaryHeap<EdfEntry>,
    jobs: HashMap<JobId, Job>,
}

impl EdfQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EdfQueue::default()
    }
}

impl JobQueue for EdfQueue {
    fn push(&mut self, job: Job) {
        match self.jobs.entry(job.id) {
            Entry::Occupied(_) => panic!("duplicate job id {:?}", job.id),
            Entry::Vacant(v) => {
                v.insert(job);
            }
        }
        self.heap.push(EdfEntry {
            deadline: job.deadline,
            id: job.id,
        });
    }

    fn pop(&mut self) -> Option<Job> {
        while let Some(entry) = self.heap.pop() {
            if let Some(job) = self.jobs.remove(&entry.id) {
                return Some(job);
            }
            // Cancelled: skip.
        }
        None
    }

    fn cancel(&mut self, id: JobId) {
        self.jobs.remove(&id);
    }

    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn peek_deadline(&mut self) -> Option<Time> {
        while let Some(entry) = self.heap.peek() {
            if self.jobs.contains_key(&entry.id) {
                return Some(entry.deadline);
            }
            self.heap.pop();
        }
        None
    }
}

/// First-Come-First-Serve job queue: the undifferentiated baseline of the
/// paper's evaluation (§VI). Jobs pop in insertion order regardless of
/// deadline.
#[derive(Default)]
pub struct FcfsQueue {
    queue: VecDeque<Job>,
    cancelled: std::collections::HashSet<JobId>,
    live: usize,
}

impl FcfsQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        FcfsQueue::default()
    }
}

impl JobQueue for FcfsQueue {
    fn push(&mut self, job: Job) {
        self.queue.push_back(job);
        self.live += 1;
    }

    fn pop(&mut self) -> Option<Job> {
        while let Some(job) = self.queue.pop_front() {
            if self.cancelled.remove(&job.id) {
                continue;
            }
            self.live -= 1;
            return Some(job);
        }
        None
    }

    fn cancel(&mut self, id: JobId) {
        // Only count a cancellation if the job is actually queued.
        if self.queue.iter().any(|j| j.id == id) && self.cancelled.insert(id) {
            self.live -= 1;
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn peek_deadline(&mut self) -> Option<Time> {
        while let Some(job) = self.queue.front() {
            if self.cancelled.contains(&job.id) {
                let j = self.queue.pop_front().unwrap();
                self.cancelled.remove(&j.id);
                continue;
            }
            return Some(job.deadline);
        }
        None
    }
}

/// A broker's job queue plus job-id allocation and the queue
/// high-watermark.
///
/// A worker pool takes work with [`Scheduler::claim`] and hands it back
/// with [`Scheduler::release`], which keep at most one job per topic in
/// flight: a job popped while its topic is held is parked (still counted
/// by [`Scheduler::len`]) and handed to the holder in pop order. Without
/// this, two workers holding `seq 1` and `seq 2` of one topic could
/// deliver them out of order.
pub(crate) struct Scheduler {
    queue: Box<dyn JobQueue>,
    /// Topics with a claimed job in flight, each with its parked jobs in
    /// pop order. At most one entry per worker, so scans are short.
    held: HashMap<TopicId, VecDeque<Job>>,
    parked: usize,
    next_job_id: u64,
    high_watermark: u64,
}

impl Scheduler {
    /// Creates an empty scheduler for `policy`.
    pub(crate) fn new(policy: SchedulingPolicy) -> Self {
        Scheduler {
            queue: policy.make_queue(),
            held: HashMap::new(),
            parked: 0,
            next_job_id: 0,
            high_watermark: 0,
        }
    }

    /// Allocates the next job id (creation order).
    pub(crate) fn alloc_job_id(&mut self) -> JobId {
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;
        id
    }

    /// Enqueues a job, updating the high-watermark.
    pub(crate) fn push(&mut self, job: Job) {
        self.queue.push(job);
        self.high_watermark = self.high_watermark.max(self.len() as u64);
    }

    /// Dequeues the next non-cancelled job.
    pub(crate) fn pop(&mut self) -> Option<Job> {
        self.queue.pop()
    }

    /// Dequeues the next job whose topic is not held and holds its topic
    /// until [`Scheduler::release`]. Jobs of held topics met on the way
    /// are parked behind their holder.
    pub(crate) fn claim(&mut self) -> Option<Job> {
        while let Some(job) = self.queue.pop() {
            match self.held.entry(job.topic) {
                Entry::Occupied(mut parked) => {
                    parked.get_mut().push_back(job);
                    self.parked += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert(VecDeque::new());
                    return Some(job);
                }
            }
        }
        None
    }

    /// Finishes the claimed job of `topic`: returns the topic's next
    /// parked job, which the caller now runs with the topic still held,
    /// or releases the topic when none is parked.
    pub(crate) fn release(&mut self, topic: TopicId) -> Option<Job> {
        let parked = self.held.get_mut(&topic)?;
        let next = parked.pop_front();
        match next {
            Some(_) => self.parked -= 1,
            None => {
                self.held.remove(&topic);
            }
        }
        next
    }

    /// Cancels a queued or parked job (lazy; unknown ids are ignored).
    pub(crate) fn cancel(&mut self, id: JobId) {
        self.queue.cancel(id);
        for parked in self.held.values_mut() {
            if let Some(i) = parked.iter().position(|j| j.id == id) {
                parked.remove(i);
                self.parked -= 1;
                return;
            }
        }
    }

    /// Live (non-cancelled) jobs waiting, queued or parked.
    pub(crate) fn len(&self) -> usize {
        self.queue.len() + self.parked
    }

    /// Highest number of live jobs ever waiting in the queue.
    pub(crate) fn high_watermark(&self) -> u64 {
        self.high_watermark
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("len", &self.len())
            .field("next_job_id", &self.next_job_id)
            .field("high_watermark", &self.high_watermark)
            .finish()
    }
}

/// The scheduling policy of a broker's delivery queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// Earliest deadline first (FRAME).
    Edf,
    /// Arrival order (baseline).
    Fcfs,
}

impl SchedulingPolicy {
    /// Instantiates the queue for this policy.
    pub fn make_queue(self) -> Box<dyn JobQueue> {
        match self {
            SchedulingPolicy::Edf => Box::new(EdfQueue::new()),
            SchedulingPolicy::Fcfs => Box::new(FcfsQueue::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frame_types::SeqNo;

    fn job(id: u64, deadline_ms: u64) -> Job {
        Job {
            id: JobId(id),
            kind: JobKind::Dispatch,
            topic: TopicId(1),
            key: MessageKey {
                topic: TopicId(1),
                seq: SeqNo(id),
            },
            slot: SlotRef::default_for_test(),
            source: BufferSource::Message,
            release: Time::ZERO,
            deadline: Time::from_millis(deadline_ms),
        }
    }

    impl SlotRef {
        fn default_for_test() -> SlotRef {
            // Construct through a real buffer to keep the type opaque.
            let mut rb = crate::buffer::RingBuffer::new(1);
            let (r, _) = rb.push(());
            r
        }
    }

    #[test]
    fn edf_pops_in_deadline_order() {
        let mut q = EdfQueue::new();
        q.push(job(1, 300));
        q.push(job(2, 100));
        q.push(job(3, 200));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().id, JobId(2));
        assert_eq!(q.pop().unwrap().id, JobId(3));
        assert_eq!(q.pop().unwrap().id, JobId(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn edf_ties_break_by_creation_order() {
        let mut q = EdfQueue::new();
        q.push(job(5, 100));
        q.push(job(2, 100));
        q.push(job(9, 100));
        assert_eq!(q.pop().unwrap().id, JobId(2));
        assert_eq!(q.pop().unwrap().id, JobId(5));
        assert_eq!(q.pop().unwrap().id, JobId(9));
    }

    #[test]
    fn edf_cancel_skips_job() {
        let mut q = EdfQueue::new();
        q.push(job(1, 100));
        q.push(job(2, 200));
        q.cancel(JobId(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().id, JobId(2));
        assert!(q.is_empty());
    }

    #[test]
    fn edf_cancel_unknown_is_noop() {
        let mut q = EdfQueue::new();
        q.push(job(1, 100));
        q.cancel(JobId(99));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn edf_peek_deadline_skips_cancelled() {
        let mut q = EdfQueue::new();
        q.push(job(1, 100));
        q.push(job(2, 200));
        q.cancel(JobId(1));
        assert_eq!(q.peek_deadline(), Some(Time::from_millis(200)));
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn edf_rejects_duplicate_ids() {
        let mut q = EdfQueue::new();
        q.push(job(1, 100));
        q.push(job(1, 200));
    }

    #[test]
    fn fcfs_pops_in_insertion_order_ignoring_deadlines() {
        let mut q = FcfsQueue::new();
        q.push(job(1, 300));
        q.push(job(2, 100));
        q.push(job(3, 200));
        assert_eq!(q.pop().unwrap().id, JobId(1));
        assert_eq!(q.pop().unwrap().id, JobId(2));
        assert_eq!(q.pop().unwrap().id, JobId(3));
    }

    #[test]
    fn fcfs_cancel_and_len() {
        let mut q = FcfsQueue::new();
        q.push(job(1, 100));
        q.push(job(2, 100));
        q.push(job(3, 100));
        q.cancel(JobId(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().id, JobId(1));
        assert_eq!(q.pop().unwrap().id, JobId(3));
        assert!(q.pop().is_none());
        // Cancelling something no longer queued is a no-op.
        q.cancel(JobId(1));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn fcfs_peek_deadline() {
        let mut q = FcfsQueue::new();
        q.push(job(1, 300));
        q.push(job(2, 100));
        q.cancel(JobId(1));
        assert_eq!(q.peek_deadline(), Some(Time::from_millis(100)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn policy_factory() {
        let mut q = SchedulingPolicy::Edf.make_queue();
        q.push(job(1, 200));
        q.push(job(2, 100));
        assert_eq!(q.pop().unwrap().id, JobId(2));

        let mut q = SchedulingPolicy::Fcfs.make_queue();
        q.push(job(1, 200));
        q.push(job(2, 100));
        assert_eq!(q.pop().unwrap().id, JobId(1));
    }

    fn job_of(id: u64, topic: u32, deadline_ms: u64) -> Job {
        let mut j = job(id, deadline_ms);
        j.topic = TopicId(topic);
        j.key.topic = TopicId(topic);
        j
    }

    #[test]
    fn claim_parks_jobs_of_a_held_topic_behind_their_holder() {
        let mut s = Scheduler::new(SchedulingPolicy::Edf);
        s.push(job_of(1, 1, 100));
        s.push(job_of(2, 1, 200));
        s.push(job_of(3, 2, 300));
        assert_eq!(s.claim().unwrap().id, JobId(1));
        // Topic 1 is held: job 2 is parked, not handed to a second worker.
        assert_eq!(s.claim().unwrap().id, JobId(3));
        assert!(s.claim().is_none());
        // The parked job still counts as waiting.
        assert_eq!(s.len(), 1);
        assert_eq!(s.release(TopicId(1)).unwrap().id, JobId(2));
        assert_eq!(s.len(), 0);
        assert!(s.release(TopicId(1)).is_none());
        assert!(s.release(TopicId(2)).is_none());
        // Both topics are free again.
        s.push(job_of(4, 1, 400));
        assert_eq!(s.claim().unwrap().id, JobId(4));
    }

    #[test]
    fn cancel_reaches_parked_jobs_and_len_counts_them() {
        let mut s = Scheduler::new(SchedulingPolicy::Fcfs);
        for id in 1..=3 {
            s.push(job_of(id, 1, 100 * id));
        }
        assert_eq!(s.claim().unwrap().id, JobId(1));
        assert!(s.claim().is_none());
        assert_eq!(s.len(), 2);
        assert_eq!(s.high_watermark(), 3);
        s.cancel(JobId(2));
        assert_eq!(s.len(), 1);
        // A parked job is counted when the high-watermark moves.
        s.push(job_of(4, 2, 50));
        s.push(job_of(5, 2, 60));
        assert_eq!(s.high_watermark(), 3);
        assert_eq!(s.release(TopicId(1)).unwrap().id, JobId(3));
        assert!(s.release(TopicId(1)).is_none());
        assert_eq!(s.claim().unwrap().id, JobId(4));
    }

    #[test]
    fn unbounded_deadline_sorts_last_in_edf() {
        let mut q = EdfQueue::new();
        let mut j = job(1, 0);
        j.deadline = Time::MAX;
        q.push(j);
        q.push(job(2, 100));
        assert_eq!(q.pop().unwrap().id, JobId(2));
        assert_eq!(q.pop().unwrap().id, JobId(1));
    }
}
