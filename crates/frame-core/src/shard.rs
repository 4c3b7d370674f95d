//! The per-topic state of the broker.
//!
//! [`TopicShard`] owns every piece of broker state that belongs to exactly
//! one topic: its Message Buffer ring, the Table-3 coordination flags, the
//! pending-replication map and the Backup Buffer ring. The job queue and
//! job-id allocation live beside it in the broker's [`Scheduler`], which
//! [`TopicShard::admit`] and [`TopicShard::recovery_jobs`] push into.
//!
//! Every flag transition, cancellation and prune of Table 3 concerns a
//! single `(topic, seq)` copy, so the coordination is a per-topic
//! protocol: a replica and the prune that discards it always leave the
//! same shard, in Table-3 order. The [`Broker`](crate::broker::Broker) is
//! the only caller.

use std::collections::HashMap;
use std::sync::Arc;

use frame_telemetry::{DecisionKind, IncidentKind, Telemetry};
use frame_types::{Message, MessageKey, SeqNo, SpanPoint, SubscriberId, Time, TopicId};

use crate::bounds::{AdmittedTopic, Deadline};
use crate::broker::{ActiveJob, BrokerConfig, BrokerStats, Effect};
use crate::buffer::{BufferedMessage, RingBuffer, SlotRef};
use crate::job::{BufferSource, Job, JobId, JobKind, Scheduler};

/// Broker-level inputs to [`TopicShard::admit`] that are not per-topic
/// state.
#[derive(Clone, Copy)]
pub(crate) struct AdmitCtx<'a> {
    /// The broker configuration.
    pub(crate) config: &'a BrokerConfig,
    /// Whether a Backup peer currently exists to replicate to.
    pub(crate) has_backup_peer: bool,
}

/// Outcome of resolving a popped job against its shard.
#[derive(Debug)]
pub(crate) enum Resolution {
    /// The job is executable; run it and hand the result to
    /// [`TopicShard::finish_into`].
    Active(ActiveJob),
    /// The job was skipped (stale slot, or a Table-3 replication abort);
    /// pop the next one.
    Skipped,
}

struct BackupEntry {
    message: Message,
    discard: bool,
}

/// All broker state belonging to one topic.
pub(crate) struct TopicShard {
    topic: TopicId,
    admitted: AdmittedTopic,
    subscribers: Arc<[SubscriberId]>,
    messages: RingBuffer<BufferedMessage>,
    pending_replication: HashMap<SeqNo, JobId>,
    backup: RingBuffer<BackupEntry>,
    backup_index: HashMap<SeqNo, SlotRef>,
    telemetry: Telemetry,
    /// Overload rung 1: the controller suppressed replication for this
    /// topic (Proposition 1 says it is optional). Dynamic counterpart of
    /// `BrokerConfig::selective_replication`.
    replication_suppressed: bool,
    /// Overload rung 2: the controller is shedding this topic at the
    /// admission boundary (within `L_i`).
    shedding: bool,
    /// Overload rung 3: this best-effort topic is evicted — nothing is
    /// admitted until the controller restores it.
    evicted: bool,
    /// Consecutive messages shed so far in the current run. Reset on
    /// every admitted message; compared against `L_i` so the controller
    /// can never manufacture a Lemma-1 violation.
    shed_run: u32,
}

impl TopicShard {
    /// Creates the shard for an admitted topic. The Message Buffer ring is
    /// lazily allocated, so the configured capacity costs nothing until
    /// messages actually queue up.
    pub(crate) fn new(
        admitted: AdmittedTopic,
        subscribers: Vec<SubscriberId>,
        config: &BrokerConfig,
        telemetry: Telemetry,
    ) -> Self {
        TopicShard {
            topic: admitted.spec.id,
            admitted,
            subscribers: subscribers.into(),
            messages: RingBuffer::new(config.message_buffer_capacity),
            pending_replication: HashMap::new(),
            backup: RingBuffer::new(config.backup_buffer_capacity),
            backup_index: HashMap::new(),
            telemetry,
            replication_suppressed: false,
            shedding: false,
            evicted: false,
            shed_run: 0,
        }
    }

    /// The topic's admitted spec and pseudo deadlines.
    pub(crate) fn admitted(&self) -> &AdmittedTopic {
        &self.admitted
    }

    /// Replaces the telemetry handle.
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Overload rung 1: dynamically suppress (or restore) replication for
    /// this topic. Returns whether the state changed.
    pub(crate) fn set_replication_suppressed(&mut self, on: bool) -> bool {
        let changed = self.replication_suppressed != on;
        self.replication_suppressed = on;
        changed
    }

    /// Overload rung 2: start (or stop) shedding this topic at the
    /// admission boundary. Refused (returns `false`) for hard-bound
    /// topics (`L_i = 0`): Lemma 1 leaves them no shed budget. Ending a
    /// shed phase resets the run counter.
    pub(crate) fn set_shedding(&mut self, on: bool) -> bool {
        if on && self.admitted.spec.loss_tolerance.bound() == Some(0) {
            return false;
        }
        let changed = self.shedding != on;
        self.shedding = on;
        if !on {
            self.shed_run = 0;
        }
        changed
    }

    /// Overload rung 3: evict (or restore) this topic. Returns whether
    /// the state changed. The caller is responsible for only evicting
    /// topics whose loss tolerance permits it and for re-running the
    /// admission test on restore.
    pub(crate) fn set_evicted(&mut self, on: bool) -> bool {
        let changed = self.evicted != on;
        self.evicted = on;
        if !on {
            self.shed_run = 0;
        }
        changed
    }

    /// Whether this topic is currently evicted.
    pub(crate) fn is_evicted(&self) -> bool {
        self.evicted
    }

    /// Whether rung-2 shedding may drop the next message without the
    /// consecutive run exceeding `L_i` (best-effort topics have no
    /// bound). At `shed_run == L_i` the next message *must* be admitted,
    /// which resets the run — so the controller can never manufacture a
    /// Lemma-1 violation no matter how long the pressure lasts.
    fn shed_budget_left(&self) -> bool {
        match self.admitted.spec.loss_tolerance.bound() {
            Some(l) => self.shed_run < l,
            None => true,
        }
    }

    fn dispatch_abs_deadline(&self, message: &Message) -> Time {
        message
            .created_at
            .saturating_add(self.admitted.deadlines.dispatch)
    }

    fn replicate_abs_deadline(&self, message: &Message) -> Time {
        match self.admitted.deadlines.replicate {
            Deadline::Finite(d) => message.created_at.saturating_add(d),
            Deadline::Unbounded => Time::MAX,
        }
    }

    /// Message Proxy entry point for this topic: buffers the message and
    /// generates its job(s) into `sched`.
    pub(crate) fn admit(
        &mut self,
        message: Message,
        now: Time,
        source: BufferSource,
        ctx: AdmitCtx<'_>,
        sched: &mut Scheduler,
        stats: &mut BrokerStats,
    ) {
        let key = message.key();
        if self.evicted {
            // Rung 3: the topic is out of the admission set entirely.
            // Only best-effort topics get here (the controller's
            // eligibility rule), so no loss bound is at stake.
            stats.messages_shed += 1;
            self.telemetry
                .decision(DecisionKind::Shed, self.topic, key.seq, now);
            self.telemetry
                .incident_with(IncidentKind::LoadShed, self.topic, key.seq, now, |d| {
                    d.push_str("rejected at admission: topic evicted");
                });
            return;
        }
        if self.shedding && self.shed_budget_left() {
            // Rung 2: drop at the admission boundary, never letting the
            // consecutive run exceed L_i (Lemma 1). The run resets on the
            // next admitted message below.
            self.shed_run += 1;
            stats.messages_shed += 1;
            self.telemetry
                .decision(DecisionKind::Shed, self.topic, key.seq, now);
            let run = self.shed_run;
            let bound = self.admitted.spec.loss_tolerance.bound();
            self.telemetry
                .incident_with(IncidentKind::LoadShed, self.topic, key.seq, now, |d| {
                    use std::fmt::Write;
                    let _ = match bound {
                        Some(l) => write!(d, "shed at admission: run {run}/{l}"),
                        None => write!(d, "shed at admission: run {run} (best-effort)"),
                    };
                });
            return;
        }
        self.shed_run = 0;
        stats.messages_in += 1;
        if source == BufferSource::Resend {
            stats.resends_in += 1;
        }
        let dispatch_deadline = self.dispatch_abs_deadline(&message);
        let suppress = self.replication_suppressed
            || (ctx.config.selective_replication && !self.admitted.deadlines.replication_needed);
        let replicate = ctx.has_backup_peer && !suppress;
        let replicate_deadline = self.replicate_abs_deadline(&message);
        let subscriber_count = self.subscribers.len() as u32;

        let (slot, evicted) = self
            .messages
            .push(BufferedMessage::new(message, subscriber_count));
        if let Some(old) = evicted {
            if !old.flags.dispatched {
                stats.evicted_undispatched += 1;
            }
            self.pending_replication.remove(&old.message.seq);
        }

        // The FCFS baselines replicate first, then dispatch (§VI-A); under
        // EDF the queue order is decided by deadlines, so insertion order
        // only breaks exact ties.
        if replicate {
            let id = sched.alloc_job_id();
            sched.push(Job {
                id,
                kind: JobKind::Replicate,
                topic: self.topic,
                key,
                slot,
                source,
                release: now,
                deadline: replicate_deadline,
            });
            self.pending_replication.insert(key.seq, id);
        } else if suppress && ctx.has_backup_peer {
            stats.replications_suppressed += 1;
            self.telemetry
                .decision(DecisionKind::Suppress, self.topic, key.seq, now);
        }

        let id = sched.alloc_job_id();
        sched.push(Job {
            id,
            kind: JobKind::Dispatch,
            topic: self.topic,
            key,
            slot,
            source,
            release: now,
            deadline: dispatch_deadline,
        });
    }

    /// Resolves a popped job against this shard's buffers, applying the
    /// skip rules: stale slots, and — with `coordination` — replication
    /// jobs whose message was already dispatched (Table 3, Replicate
    /// step 1).
    pub(crate) fn resolve(
        &mut self,
        job: Job,
        coordination: bool,
        now: Time,
        stats: &mut BrokerStats,
    ) -> Resolution {
        let resolved = match job.source {
            BufferSource::Message | BufferSource::Resend => self
                .messages
                .get(job.slot)
                .map(|bm| (bm.message.clone(), bm.flags)),
            BufferSource::Backup => self
                .backup
                .get(job.slot)
                .filter(|e| !e.discard)
                .map(|e| (e.message.clone(), Default::default())),
        };
        let Some((message, flags)) = resolved else {
            stats.stale_jobs_skipped += 1;
            self.telemetry
                .decision(DecisionKind::StaleSkip, job.topic, job.key.seq, now);
            self.pending_replication.remove(&job.key.seq);
            return Resolution::Skipped;
        };
        if job.kind == JobKind::Replicate && coordination && flags.dispatched {
            stats.replications_aborted += 1;
            self.telemetry
                .decision(DecisionKind::Abort, job.topic, job.key.seq, now);
            self.pending_replication.remove(&job.key.seq);
            return Resolution::Skipped;
        }
        let subscribers: Arc<[SubscriberId]> = match job.kind {
            JobKind::Dispatch => self.subscribers.clone(),
            JobKind::Replicate => Arc::new([]),
        };
        let will_coordinate = job.kind == JobKind::Dispatch
            && coordination
            && (flags.replicated || self.pending_replication.contains_key(&job.key.seq));
        Resolution::Active(ActiveJob {
            job,
            message,
            subscribers,
            will_coordinate,
        })
    }

    /// Commits a completed job: flag transitions, Table-3 coordination, and
    /// the effects the runtime must perform, appended to a caller-owned
    /// buffer so hot loops can reuse one allocation across jobs. Backup-bound
    /// effects (`Replicate`/`Prune`) appear in Table-3 order. Returns the
    /// queued replication job this dispatch cancels (Table 3, Dispatch
    /// step 2), which the caller removes from the scheduler; the
    /// cancellation is already counted in the stats.
    pub(crate) fn finish_into(
        &mut self,
        active: &ActiveJob,
        coordination: bool,
        now: Time,
        stats: &mut BrokerStats,
        effects: &mut Vec<Effect>,
    ) -> Option<JobId> {
        let mut cancel = None;
        if now > active.job.deadline {
            match active.job.kind {
                JobKind::Dispatch => stats.dispatch_deadline_misses += 1,
                JobKind::Replicate => stats.replication_deadline_misses += 1,
            }
        }
        match active.job.kind {
            JobKind::Dispatch => {
                stats.dispatches += 1;
                self.telemetry.decision(
                    DecisionKind::Dispatch,
                    active.job.topic,
                    active.job.key.seq,
                    now,
                );
                // Clone once, stamp the hand-off instant, then fan out:
                // every subscriber sees the same span timeline. A threaded
                // runtime may re-stamp at the actual socket/channel write.
                let mut delivered = active.message.clone();
                if let Some(trace) = delivered.trace.as_mut() {
                    trace.stamp(SpanPoint::DeliverSend, now);
                }
                if let Some((&last, rest)) = active.subscribers.split_last() {
                    for &subscriber in rest {
                        effects.push(Effect::Deliver {
                            subscriber,
                            message: delivered.clone(),
                        });
                    }
                    effects.push(Effect::Deliver {
                        subscriber: last,
                        message: delivered,
                    });
                }
                // Table 3, Dispatch steps 2–3.
                let mut was_replicated = false;
                if let Some(bm) = self.messages.get_mut(active.job.slot) {
                    bm.flags.dispatched = true;
                    was_replicated = bm.flags.replicated;
                }
                if coordination {
                    if let Some(job_id) = self.pending_replication.remove(&active.job.key.seq) {
                        cancel = Some(job_id);
                        stats.replications_cancelled += 1;
                        self.telemetry.decision(
                            DecisionKind::Cancel,
                            active.job.topic,
                            active.job.key.seq,
                            now,
                        );
                    }
                    if was_replicated {
                        stats.prunes_sent += 1;
                        self.telemetry.decision(
                            DecisionKind::Prune,
                            active.job.topic,
                            active.job.key.seq,
                            now,
                        );
                        effects.push(Effect::Prune {
                            key: active.job.key,
                        });
                    }
                }
            }
            JobKind::Replicate => {
                // Table 3, Replicate steps 2–3.
                stats.replications += 1;
                self.telemetry.decision(
                    DecisionKind::Replicate,
                    active.job.topic,
                    active.job.key.seq,
                    now,
                );
                self.pending_replication.remove(&active.job.key.seq);
                if let Some(bm) = self.messages.get_mut(active.job.slot) {
                    bm.flags.replicated = true;
                }
                effects.push(Effect::Replicate {
                    message: active.message.clone(),
                });
            }
        }
        cancel
    }

    /// Backup entry point: stores a replica pushed by the Primary.
    pub(crate) fn on_replica(&mut self, message: Message, stats: &mut BrokerStats) {
        stats.replicas_received += 1;
        let seq = message.seq;
        let (slot, evicted) = self.backup.push(BackupEntry {
            message,
            discard: false,
        });
        if let Some(old) = evicted {
            self.backup_index.remove(&old.message.seq);
        }
        self.backup_index.insert(seq, slot);
    }

    /// Backup entry point: marks a copy `Discard` (Table 3, Dispatch step 3
    /// → Backup side). Unknown seqs are ignored; double prunes are
    /// idempotent.
    pub(crate) fn on_prune(&mut self, seq: SeqNo, stats: &mut BrokerStats) {
        if let Some(&slot) = self.backup_index.get(&seq) {
            if let Some(entry) = self.backup.get_mut(slot) {
                if !entry.discard {
                    entry.discard = true;
                    stats.prunes_applied += 1;
                }
            }
        }
    }

    /// Live, non-discarded copies in this shard's Backup Buffer.
    pub(crate) fn backup_live(&self) -> usize {
        self.backup.iter().filter(|(_, e)| !e.discard).count()
    }

    /// Promotion for this topic: enqueues a recovery dispatch for every
    /// non-discarded backup copy, in sequence order (paper §IV-A). Returns
    /// the number of jobs created.
    pub(crate) fn recovery_jobs(
        &mut self,
        now: Time,
        sched: &mut Scheduler,
        stats: &mut BrokerStats,
    ) -> usize {
        let mut copies: Vec<(SlotRef, SeqNo, Time)> = self
            .backup
            .iter()
            .filter(|(_, e)| !e.discard)
            .map(|(slot, e)| {
                (
                    slot,
                    e.message.seq,
                    e.message
                        .created_at
                        .saturating_add(self.admitted.deadlines.dispatch),
                )
            })
            .collect();
        stats.recovery_skipped += (self.backup.len() - copies.len()) as u64;
        copies.sort_by_key(|&(_, seq, _)| seq);
        let created = copies.len();
        for (slot, seq, deadline) in copies {
            let id = sched.alloc_job_id();
            sched.push(Job {
                id,
                kind: JobKind::Dispatch,
                topic: self.topic,
                key: MessageKey {
                    topic: self.topic,
                    seq,
                },
                slot,
                source: BufferSource::Backup,
                release: now,
                deadline,
            });
            self.telemetry
                .decision(DecisionKind::RecoveryDispatch, self.topic, seq, now);
        }
        stats.recovery_dispatches += created as u64;
        created
    }
}

impl std::fmt::Debug for TopicShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopicShard")
            .field("topic", &self.topic)
            .field("subscribers", &self.subscribers.len())
            .field("buffered", &self.messages.len())
            .field("pending_replication", &self.pending_replication.len())
            .field("backup_live", &self.backup_live())
            .finish()
    }
}
