//! The discrete-event simulator: publishers, two brokers with modeled CPU
//! modules, edge and cloud subscribers, failure detection, and crash
//! injection.
//!
//! The simulator replaces the paper's seven-host testbed. Each broker host
//! models the paper's CPU allocation (§VI-A): one core dedicated to the
//! Message Proxy (a single-server FIFO) and two cores for Message Delivery
//! (a multi-server queue executing jobs popped from the broker's
//! EDF/FCFS queue). All service times come from
//! [`crate::params::ServiceParams`]; all network transits
//! come from seeded [`frame_net`] latency models, so a run is a
//! deterministic function of its configuration.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bytes::Bytes;
use frame_clock::SyncErrorModel;
use frame_core::PublishTarget as Target;
use frame_core::{
    admit, ActiveJob, Broker, BrokerRole, JobKind, PollingDetector, PrimaryStatus, Publisher,
};
use frame_net::{Jittered, LatencyModel};
use frame_types::{
    BrokerId, Duration, Message, MessageKey, NetworkParams, PublisherId, Time, TopicId,
};

use crate::metrics::{CpuUsage, RunMetrics, TopicMetrics};
use crate::params::{ConfigName, CpuAllocation, ServiceParams, SimSchedule};
use crate::workload::Workload;
use frame_telemetry::LatencyHistogram;

/// Which broker the injected crash kills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashTarget {
    /// Kill the Primary (the paper's experiment): triggers fail-over.
    Primary,
    /// Kill the Backup: the Primary must keep meeting deadlines while its
    /// replication target is gone (the model tolerates one broker failure).
    Backup,
}

/// How the cloud link behaves during the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CloudLatency {
    /// Steady: 20.7 ms floor with up to 2 ms of jitter.
    Steady,
    /// Diurnal variation reproducing the envelope of the paper's Fig 8,
    /// with the 24-hour cycle compressed to `day`.
    Diurnal {
        /// Length of one compressed diurnal cycle.
        day: Duration,
        /// Per-sample spike probability.
        spike_probability: f64,
    },
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Which of the paper's four configurations to run.
    pub config: ConfigName,
    /// Total topic count (a paper workload size).
    pub total_topics: usize,
    /// Warm-up/measure/crash schedule.
    pub schedule: SimSchedule,
    /// CPU service-time model.
    pub service: ServiceParams,
    /// Cores per broker module.
    pub cpu: CpuAllocation,
    /// Timing bounds used for admission and deadline computation.
    pub net: NetworkParams,
    /// Random seed (network jitter).
    pub seed: u64,
    /// Topic indices whose per-message latency series should be recorded.
    pub series_topics: Vec<usize>,
    /// Cloud-link behaviour.
    pub cloud: CloudLatency,
    /// Which broker the scheduled crash (if any) kills.
    pub crash_target: CrashTarget,
    /// Per-run service-time jitter: all service times are scaled by one
    /// factor drawn uniformly from `[1 - j, 1 + j]` per run (seeded).
    /// Models run-to-run host performance variance; the paper's wide
    /// confidence intervals at the capacity edge (FRAME at 13 525 topics)
    /// arise from this.
    pub service_jitter_pct: f64,
    /// Clock-synchronization error of edge subscriber hosts relative to
    /// the Primary's clock (the paper synced them with PTPd to within
    /// 0.05 ms). Perturbs *measured* latency only.
    pub sync_error_edge: SyncErrorModel,
    /// Clock-synchronization error of the cloud subscriber host (the paper
    /// used chrony/NTP: errors in milliseconds).
    pub sync_error_cloud: SyncErrorModel,
}

impl SimConfig {
    /// A run of `config` at `total_topics`, compressed schedule, no crash.
    pub fn new(config: ConfigName, total_topics: usize) -> Self {
        SimConfig {
            config,
            total_topics,
            schedule: SimSchedule::compressed(false),
            service: ServiceParams::default(),
            cpu: CpuAllocation::default(),
            net: NetworkParams::paper_example(),
            seed: 1,
            series_topics: Vec::new(),
            cloud: CloudLatency::Steady,
            crash_target: CrashTarget::Primary,
            service_jitter_pct: 0.03,
            sync_error_edge: SyncErrorModel::PERFECT,
            sync_error_cloud: SyncErrorModel::PERFECT,
        }
    }

    /// Enables the crash injection of the schedule kind in use.
    #[must_use]
    pub fn with_crash(mut self) -> Self {
        self.schedule = SimSchedule {
            crash_offset: Some(self.schedule.measure / 2),
            ..self.schedule
        };
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

const PAYLOAD: &[u8] = b"0123456789abcdef"; // 16 bytes, as in the paper.

/// Simulation events.
enum Ev {
    PublishBatch {
        publisher: usize,
    },
    BatchArrive {
        broker: usize,
        msgs: Vec<Message>,
        resend: bool,
    },
    ProxyDone {
        broker: usize,
    },
    JobDone {
        broker: usize,
        active: Box<ActiveJob>,
    },
    SubscriberDeliver {
        message: Message,
        sent_at: Time,
    },
    ReplicaArrive {
        message: Message,
    },
    PruneArrive {
        key: MessageKey,
    },
    Poll,
    DetectorAck,
    Crash,
    PublisherFailover {
        publisher: usize,
    },
}

struct Entry {
    at: Time,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Proxy work items (FIFO, single server).
enum ProxyTask {
    Batch { msgs: Vec<Message>, resend: bool },
    Replica(Message),
    Prune(MessageKey),
}

struct ProxyState {
    queue: VecDeque<ProxyTask>,
    busy: bool,
}

const PRIMARY: usize = 0;
const BACKUP: usize = 1;

struct Sim {
    cfg: SimConfig,
    workload: Workload,
    queue: BinaryHeap<Reverse<Entry>>,
    next_ev_seq: u64,
    now: Time,

    brokers: [Broker; 2],
    proxies: [ProxyState; 2],
    delivery_busy: [u32; 2],
    publishers: Vec<Publisher>,

    // Latency models (one-way), seeded from cfg.seed.
    lat_pb: Jittered,
    lat_bb: Jittered,
    lat_edge: Jittered,
    lat_cloud: Box<dyn LatencyModel>,

    detector: PollingDetector,
    promoted: bool,
    crashed: bool,
    crash_time: Option<Time>,
    backup_crash_time: Option<Time>,

    metrics: Vec<TopicMetrics>,
    latency_by_category: Vec<LatencyHistogram>,
    cpu: CpuUsage,
    w0: Time,
    w1: Time,
    hard_end: Time,
}

impl Sim {
    fn new(mut cfg: SimConfig) -> Sim {
        // Per-run service jitter (see SimConfig::service_jitter_pct).
        if cfg.service_jitter_pct > 0.0 {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9));
            let j = cfg.service_jitter_pct.min(0.5);
            let factor = rng.gen_range(1.0 - j..=1.0 + j);
            cfg.service = cfg.service.scaled(factor);
        }
        let workload = Workload::paper(cfg.total_topics, cfg.config.extra_retention());
        let broker_cfg = cfg.config.broker_config();
        let mut primary = Broker::new(BrokerId(0), BrokerRole::Primary, broker_cfg);
        let mut backup = Broker::new(BrokerId(1), BrokerRole::Backup, broker_cfg);

        for t in &workload.topics {
            let admitted = admit(&t.spec, &cfg.net)
                .unwrap_or_else(|e| panic!("workload topic failed admission: {e}"));
            primary
                .register_topic(admitted, vec![t.subscriber])
                .expect("unique topic ids");
            backup
                .register_topic(admitted, vec![t.subscriber])
                .expect("unique topic ids");
        }

        let mut publishers = Vec::with_capacity(workload.publishers.len());
        for (i, group) in workload.publishers.iter().enumerate() {
            let mut p = Publisher::new(PublisherId(i as u32));
            for &ti in &group.topics {
                let t = &workload.topics[ti];
                p.register_topic(t.spec.id, t.spec.retention)
                    .expect("unique per publisher");
            }
            publishers.push(p);
        }

        let w0 = Time::ZERO + cfg.schedule.warmup;
        let w1 = w0 + cfg.schedule.measure;
        let hard_end = w1 + Duration::from_secs(2);

        let mut metrics: Vec<TopicMetrics> = (0..workload.topic_count())
            .map(|_| TopicMetrics::default())
            .collect();
        for &i in &cfg.series_topics {
            metrics[i] = std::mem::take(&mut metrics[i]).with_series();
        }

        let lat_pb = Jittered::new(
            Duration::from_micros(30),
            Duration::from_micros(40),
            cfg.seed.wrapping_mul(3).wrapping_add(1),
        );
        let lat_bb = Jittered::new(
            Duration::from_micros(40),
            Duration::from_micros(20),
            cfg.seed.wrapping_mul(5).wrapping_add(2),
        );
        let lat_edge = Jittered::new(
            Duration::from_micros(250),
            Duration::from_micros(500),
            cfg.seed.wrapping_mul(7).wrapping_add(3),
        );
        let lat_cloud: Box<dyn LatencyModel> = match cfg.cloud {
            CloudLatency::Steady => Box::new(Jittered::new(
                Duration::from_millis_f64(20.7),
                Duration::from_millis(2),
                cfg.seed.wrapping_mul(11).wrapping_add(4),
            )),
            CloudLatency::Diurnal {
                day,
                spike_probability,
            } => Box::new(
                frame_net::DiurnalCloud::paper_fig8(cfg.seed.wrapping_mul(13).wrapping_add(5))
                    .with_day(day)
                    .with_spike_probability(spike_probability),
            ),
        };

        let detector = PollingDetector::paper_defaults(Time::ZERO);

        Sim {
            cfg,
            workload,
            queue: BinaryHeap::new(),
            next_ev_seq: 0,
            now: Time::ZERO,
            brokers: [primary, backup],
            proxies: [
                ProxyState {
                    queue: VecDeque::new(),
                    busy: false,
                },
                ProxyState {
                    queue: VecDeque::new(),
                    busy: false,
                },
            ],
            delivery_busy: [0, 0],
            publishers,
            lat_pb,
            lat_bb,
            lat_edge,
            lat_cloud,
            detector,
            promoted: false,
            crashed: false,
            crash_time: None,
            backup_crash_time: None,
            metrics,
            latency_by_category: (0..6).map(|_| LatencyHistogram::new()).collect(),
            cpu: CpuUsage::default(),
            w0,
            w1,
            hard_end,
        }
    }

    fn push_ev(&mut self, at: Time, ev: Ev) {
        let seq = self.next_ev_seq;
        self.next_ev_seq += 1;
        self.queue.push(Reverse(Entry { at, seq, ev }));
    }

    fn primary_up(&self, at: Time) -> bool {
        match self.crash_time {
            Some(c) => at < c,
            None => true,
        }
    }

    fn broker_up(&self, broker: usize, at: Time) -> bool {
        if broker == PRIMARY {
            self.primary_up(at)
        } else {
            match self.backup_crash_time {
                Some(c) => at < c,
                None => true,
            }
        }
    }

    fn topic_index(&self, id: TopicId) -> usize {
        id.raw() as usize
    }

    fn run(mut self) -> RunMetrics {
        // Seed initial events.
        let phases: Vec<(usize, Duration)> = self
            .workload
            .publishers
            .iter()
            .enumerate()
            .map(|(i, g)| (i, g.phase))
            .collect();
        for (i, phase) in phases {
            self.push_ev(Time::ZERO + phase, Ev::PublishBatch { publisher: i });
        }
        self.push_ev(Time::ZERO, Ev::Poll);
        if let Some(t) = self.cfg.schedule.crash_at() {
            self.push_ev(t, Ev::Crash);
        }

        while let Some(Reverse(entry)) = self.queue.pop() {
            if entry.at > self.hard_end {
                break;
            }
            self.now = entry.at;
            self.handle(entry.ev);
        }

        RunMetrics {
            topics: std::mem::take(&mut self.metrics),
            latency_by_category: std::mem::take(&mut self.latency_by_category),
            cpu: self.cpu,
            primary_stats: self.brokers[PRIMARY].stats(),
            backup_stats: self.brokers[BACKUP].stats(),
            window: self.cfg.schedule.measure,
            delivery_cores: self.cfg.cpu.delivery_cores,
            proxy_cores: self.cfg.cpu.proxy_cores,
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::PublishBatch { publisher } => self.on_publish_batch(publisher),
            Ev::BatchArrive {
                broker,
                msgs,
                resend,
            } => self.on_batch_arrive(broker, msgs, resend),
            Ev::ProxyDone { broker } => self.on_proxy_done(broker),
            Ev::JobDone { broker, active } => self.on_job_done(broker, *active),
            Ev::SubscriberDeliver { message, sent_at } => {
                self.on_subscriber_deliver(message, sent_at)
            }
            Ev::ReplicaArrive { message } => {
                self.enqueue_proxy(BACKUP, ProxyTask::Replica(message))
            }
            Ev::PruneArrive { key } => self.enqueue_proxy(BACKUP, ProxyTask::Prune(key)),
            Ev::Poll => self.on_poll(),
            Ev::DetectorAck => self.detector.on_ack(self.now),
            Ev::Crash => self.on_crash(),
            Ev::PublisherFailover { publisher } => self.on_publisher_failover(publisher),
        }
    }

    fn on_publish_batch(&mut self, publisher: usize) {
        if self.now >= self.w1 {
            return; // publishing stops at the end of the measurement phase
        }
        let group = &self.workload.publishers[publisher];
        let period = group.period;
        let topics = group.topics.clone();
        let in_window = self.now >= self.w0;

        let mut msgs = Vec::with_capacity(topics.len());
        for ti in topics {
            let id = self.workload.topics[ti].spec.id;
            let msg = self.publishers[publisher]
                .publish(id, self.now, Bytes::from_static(PAYLOAD))
                .expect("registered topic");
            if in_window {
                self.metrics[ti].on_publish(msg.seq.raw());
            }
            msgs.push(msg);
        }

        let target = match self.publishers[publisher].target() {
            Target::Primary => PRIMARY,
            Target::Backup => BACKUP,
        };
        self.send_batch(target, msgs, false);
        self.push_ev(self.now + period, Ev::PublishBatch { publisher });
    }

    fn send_batch(&mut self, broker: usize, msgs: Vec<Message>, resend: bool) {
        // Batch transit over the publisher→broker link. If the destination
        // has crashed, the batch is dropped (retention still holds copies).
        if broker == PRIMARY && !self.primary_up(self.now) {
            return;
        }
        let transit = self.lat_pb.sample(self.now);
        let at = self.now + transit;
        if broker == PRIMARY && !self.primary_up(at) {
            return; // died while in flight
        }
        self.push_ev(
            at,
            Ev::BatchArrive {
                broker,
                msgs,
                resend,
            },
        );
    }

    fn enqueue_proxy(&mut self, broker: usize, task: ProxyTask) {
        if !self.broker_up(broker, self.now) {
            return;
        }
        self.proxies[broker].queue.push_back(task);
        if !self.proxies[broker].busy {
            self.start_next_proxy_task(broker);
        }
    }

    fn on_batch_arrive(&mut self, broker: usize, msgs: Vec<Message>, resend: bool) {
        self.enqueue_proxy(broker, ProxyTask::Batch { msgs, resend });
    }

    fn proxy_task_service(&self, broker: usize, task: &ProxyTask) -> Duration {
        let s = &self.cfg.service;
        match task {
            ProxyTask::Batch { msgs, .. } => {
                let mut total = Duration::ZERO;
                for m in msgs {
                    let ti = self.topic_index(m.topic);
                    let replicates = self.topic_replicates(broker, ti);
                    let jobs = 1 + u64::from(replicates);
                    total = total
                        + s.proxy_per_message
                        + Duration::from_nanos(s.proxy_per_job.as_nanos() * jobs);
                }
                total
            }
            ProxyTask::Replica(_) => s.backup_replica_in,
            ProxyTask::Prune(_) => s.backup_prune_in,
        }
    }

    /// Whether the broker will generate a replication job for this topic
    /// (used for proxy service-time estimation).
    fn topic_replicates(&self, broker: usize, ti: usize) -> bool {
        if broker == BACKUP && !self.promoted {
            return false;
        }
        if self.promoted {
            return false; // no backup peer after promotion
        }
        let bc = self.cfg.config.broker_config();
        if bc.selective_replication {
            // Mirror the Proposition 1 verdict computed at admission.
            frame_core::replication_needed(&self.workload.topics[ti].spec, &self.cfg.net)
                .unwrap_or(true)
        } else {
            true
        }
    }

    fn start_next_proxy_task(&mut self, broker: usize) {
        let Some(task) = self.proxies[broker].queue.pop_front() else {
            self.proxies[broker].busy = false;
            return;
        };
        let service = self.proxy_task_service(broker, &task);
        let usage = if broker == PRIMARY {
            &mut self.cpu.primary_proxy
        } else {
            &mut self.cpu.backup_proxy
        };
        usage.add(self.now, service, self.w0, self.w1);
        self.proxies[broker].busy = true;
        // Stash the task to apply at completion.
        self.proxies[broker].queue.push_front(task);
        self.push_ev(self.now + service, Ev::ProxyDone { broker });
    }

    fn on_proxy_done(&mut self, broker: usize) {
        if !self.broker_up(broker, self.now) {
            self.proxies[broker].busy = false;
            return;
        }
        let Some(task) = self.proxies[broker].queue.pop_front() else {
            self.proxies[broker].busy = false;
            return;
        };
        match task {
            ProxyTask::Batch { msgs, resend } => {
                for m in msgs {
                    let res = if resend {
                        self.brokers[broker].on_resend(m, self.now)
                    } else {
                        self.brokers[broker].on_message(m, self.now)
                    };
                    // A batch racing promotion can hit the Backup before it
                    // becomes Primary; those messages are lost in flight,
                    // exactly like messages to a crashed Primary.
                    let _ = res;
                }
            }
            ProxyTask::Replica(m) => {
                let _ = self.brokers[broker].on_replica(m, self.now);
            }
            ProxyTask::Prune(k) => {
                let _ = self.brokers[broker].on_prune(k, self.now);
            }
        }
        self.try_start_delivery(broker);
        self.start_next_proxy_task(broker);
    }

    fn try_start_delivery(&mut self, broker: usize) {
        if !self.broker_up(broker, self.now) {
            return;
        }
        while self.delivery_busy[broker] < self.cfg.cpu.delivery_cores {
            let before = self.brokers[broker].stats();
            let Some(active) = self.brokers[broker].take_job(self.now) else {
                break;
            };
            let after = self.brokers[broker].stats();
            let skips = (after.stale_jobs_skipped - before.stale_jobs_skipped)
                + (after.replications_aborted - before.replications_aborted);

            let s = &self.cfg.service;
            let mut service = Duration::from_nanos(s.skip.as_nanos() * skips);
            service += match active.job.kind {
                JobKind::Dispatch => {
                    let extra = active.subscribers.len().saturating_sub(1) as u64;
                    let mut d = s.dispatch
                        + Duration::from_nanos(s.dispatch_extra_subscriber.as_nanos() * extra);
                    if active.will_coordinate {
                        d += s.coordination;
                    }
                    d
                }
                JobKind::Replicate => s.replicate,
            };

            let usage = if broker == PRIMARY {
                &mut self.cpu.primary_delivery
            } else {
                &mut self.cpu.backup_delivery
            };
            usage.add(self.now, service, self.w0, self.w1);
            self.delivery_busy[broker] += 1;
            self.push_ev(
                self.now + service,
                Ev::JobDone {
                    broker,
                    active: Box::new(active),
                },
            );
        }
    }

    fn on_job_done(&mut self, broker: usize, active: ActiveJob) {
        if !self.broker_up(broker, self.now) {
            return; // the job died with the host
        }
        self.delivery_busy[broker] -= 1;
        let effects = self.brokers[broker].finish_job(&active, self.now);
        for effect in effects {
            match effect {
                frame_core::Effect::Deliver { message, .. } => {
                    let ti = self.topic_index(message.topic);
                    let transit = match self.workload.topics[ti].spec.destination {
                        frame_types::Destination::Edge => self.lat_edge.sample(self.now),
                        frame_types::Destination::Cloud => self.lat_cloud.sample(self.now),
                    };
                    self.push_ev(
                        self.now + transit,
                        Ev::SubscriberDeliver {
                            message,
                            sent_at: self.now,
                        },
                    );
                }
                frame_core::Effect::Replicate { message } => {
                    if self.primary_up(self.now) || broker == BACKUP {
                        let transit = self.lat_bb.sample(self.now);
                        self.push_ev(self.now + transit, Ev::ReplicaArrive { message });
                    }
                }
                frame_core::Effect::Prune { key } => {
                    let transit = self.lat_bb.sample(self.now);
                    self.push_ev(self.now + transit, Ev::PruneArrive { key });
                }
            }
        }
        self.try_start_delivery(broker);
    }

    fn on_subscriber_deliver(&mut self, message: Message, sent_at: Time) {
        let ti = self.topic_index(message.topic);
        let deadline = self.workload.topics[ti].spec.deadline;
        // Measured end-to-end latency as the subscriber host would compute
        // it: its (imperfectly synchronized) clock minus the publisher's
        // creation timestamp.
        let sync = match self.workload.topics[ti].spec.destination {
            frame_types::Destination::Edge => self.cfg.sync_error_edge,
            frame_types::Destination::Cloud => self.cfg.sync_error_cloud,
        };
        let skew_ns = sync.offset_nanos as f64 + self.now.as_nanos() as f64 * sync.drift_ppm / 1e6;
        let observed_now = if skew_ns >= 0.0 {
            self.now
                .saturating_add(Duration::from_nanos(skew_ns as u64))
        } else {
            self.now
                .saturating_sub(Duration::from_nanos((-skew_ns) as u64))
        };
        let latency = observed_now.saturating_since(message.created_at);
        let transit = self.now.saturating_since(sent_at);
        let m = &mut self.metrics[ti];
        if m.on_delivery(message.seq.raw(), latency, deadline) {
            m.record_transit(message.seq.raw(), transit);
            let cat = self.workload.topics[ti].category as usize;
            self.latency_by_category[cat].record(latency);
        }
    }

    fn on_poll(&mut self) {
        if self.promoted || !self.broker_up(BACKUP, self.now) {
            return;
        }
        self.detector.on_poll_sent(self.now);
        if self.primary_up(self.now) {
            let rtt = self.lat_bb.sample(self.now).saturating_mul(2);
            self.push_ev(self.now + rtt, Ev::DetectorAck);
        }
        if self.detector.status(self.now) == PrimaryStatus::Crashed {
            self.promote_backup();
            return;
        }
        let next = self.detector.next_poll_at();
        self.push_ev(next, Ev::Poll);
    }

    fn promote_backup(&mut self) {
        self.promoted = true;
        let created = self.brokers[BACKUP]
            .promote(self.now)
            .expect("backup promotes once");
        let _ = created;
        self.try_start_delivery(BACKUP);
    }

    fn on_crash(&mut self) {
        self.crashed = true;
        match self.cfg.crash_target {
            CrashTarget::Primary => {
                self.crash_time = Some(self.now);
                // Publishers redirect after their fail-over time x.
                let x = self.cfg.net.failover;
                for p in 0..self.publishers.len() {
                    self.push_ev(self.now + x, Ev::PublisherFailover { publisher: p });
                }
            }
            CrashTarget::Backup => {
                // The Primary keeps serving; replicas/prunes to the dead
                // Backup are dropped by the broker_up guards.
                self.backup_crash_time = Some(self.now);
            }
        }
    }

    fn on_publisher_failover(&mut self, publisher: usize) {
        let retained = self.publishers[publisher].fail_over();
        if !retained.is_empty() {
            self.send_batch(BACKUP, retained, true);
        }
    }
}

/// Runs one simulation and returns its metrics.
pub fn run(cfg: SimConfig) -> RunMetrics {
    Sim::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(config: ConfigName, crash: bool) -> SimConfig {
        let mut c = SimConfig::new(config, 25 + 30); // 10 per scalable cat
        c.schedule = SimSchedule {
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(4),
            crash_offset: crash.then(|| Duration::from_secs(2)),
        };
        c
    }

    #[test]
    fn fault_free_frame_delivers_everything_on_time() {
        let m = run(tiny(ConfigName::Frame, false));
        for (i, t) in m.topics.iter().enumerate() {
            assert!(t.published > 0, "topic {i} published nothing");
            assert_eq!(
                t.max_consecutive_losses(),
                0,
                "topic {i} lost messages in a fault-free run"
            );
            assert!(
                t.latency_success_rate() > 0.99,
                "topic {i} missed deadlines: {}",
                t.latency_success_rate()
            );
        }
    }

    #[test]
    fn fault_free_all_configs_meet_requirements_at_low_load() {
        for cfg in ConfigName::ALL {
            let m = run(tiny(cfg, false));
            let idxs: Vec<usize> = (0..m.topics.len()).collect();
            let w = Workload::paper(55, cfg.extra_retention());
            assert!(
                m.loss_tolerance_success(&idxs, &w) >= 100.0,
                "{cfg} lost messages at low load"
            );
            assert!(m.latency_success(&idxs) > 99.0, "{cfg} missed deadlines");
        }
    }

    #[test]
    fn crash_run_meets_loss_tolerance_under_frame() {
        let m = run(tiny(ConfigName::Frame, true).with_seed(7));
        let w = Workload::paper(55, 0);
        let idxs: Vec<usize> = (0..m.topics.len()).collect();
        let rate = m.loss_tolerance_success(&idxs, &w);
        assert!(
            rate >= 100.0,
            "FRAME must meet loss tolerance across a crash, got {rate}"
        );
        // The backup took over: it dispatched something.
        assert!(m.backup_stats.dispatches > 0);
    }

    #[test]
    fn crash_run_meets_loss_tolerance_under_frame_plus() {
        let m = run(tiny(ConfigName::FramePlus, true).with_seed(3));
        let w = Workload::paper(55, 1);
        let idxs: Vec<usize> = (0..m.topics.len()).collect();
        assert!(m.loss_tolerance_success(&idxs, &w) >= 100.0);
        // FRAME+ never replicates: the backup received no replicas.
        assert_eq!(m.backup_stats.replicas_received, 0);
        // Recovery happened via publisher re-sends.
        assert!(m.backup_stats.resends_in > 0);
    }

    #[test]
    fn frame_suppresses_replication_fcfs_does_not() {
        let frame = run(tiny(ConfigName::Frame, false));
        let fcfs = run(tiny(ConfigName::Fcfs, false));
        assert!(frame.primary_stats.replications_suppressed > 0);
        assert!(fcfs.primary_stats.replications_suppressed == 0);
        assert!(
            fcfs.primary_stats.replications > frame.primary_stats.replications,
            "FCFS replicates strictly more"
        );
        // And the backup proxy works harder under FCFS.
        assert!(fcfs.backup_proxy_util() > frame.backup_proxy_util());
    }

    #[test]
    fn coordination_keeps_backup_buffer_pruned() {
        let fcfs = run(tiny(ConfigName::Fcfs, false));
        let fcfs_minus = run(tiny(ConfigName::FcfsMinus, false));
        assert!(fcfs.primary_stats.prunes_sent > 0);
        assert_eq!(fcfs_minus.primary_stats.prunes_sent, 0);
        assert!(fcfs.backup_stats.prunes_applied > 0);
        assert_eq!(fcfs_minus.backup_stats.prunes_applied, 0);
    }

    #[test]
    fn fcfs_minus_recovery_dispatches_full_backup_buffer() {
        let m = run(tiny(ConfigName::FcfsMinus, true));
        // Without pruning, the backup buffer is full at recovery: 10 copies
        // per replicated topic get (re)dispatched.
        assert!(
            m.backup_stats.recovery_dispatches > m.backup_stats.recovery_skipped,
            "FCFS- must dispatch unpruned copies: {} vs {}",
            m.backup_stats.recovery_dispatches,
            m.backup_stats.recovery_skipped
        );
        assert!(m.backup_stats.recovery_dispatches > 100);
    }

    #[test]
    fn frame_recovery_backup_buffer_mostly_pruned() {
        let m = run(tiny(ConfigName::Frame, true));
        // FRAME prunes aggressively: almost everything in the backup buffer
        // was discarded by recovery time.
        assert!(
            m.backup_stats.recovery_dispatches <= m.backup_stats.recovery_skipped / 4 + 5,
            "FRAME backup buffer should be nearly empty at promotion: {} live vs {} skipped",
            m.backup_stats.recovery_dispatches,
            m.backup_stats.recovery_skipped
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(tiny(ConfigName::Frame, true).with_seed(42));
        let b = run(tiny(ConfigName::Frame, true).with_seed(42));
        assert_eq!(a.primary_stats, b.primary_stats);
        assert_eq!(a.backup_stats, b.backup_stats);
        let la: Vec<u64> = a.topics.iter().map(|t| t.delivered).collect();
        let lb: Vec<u64> = b.topics.iter().map(|t| t.delivered).collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn cpu_utilization_is_positive_and_bounded() {
        let m = run(tiny(ConfigName::Fcfs, false));
        let u = m.primary_delivery_util();
        assert!(u > 0.0 && u <= 1.0, "delivery util {u}");
        let p = m.primary_proxy_util();
        assert!(p > 0.0 && p <= 1.0, "proxy util {p}");
    }

    #[test]
    fn series_recording_works() {
        let mut cfg = tiny(ConfigName::Frame, false);
        cfg.series_topics = vec![0];
        let m = run(cfg);
        let series = m.topics[0].series.as_ref().unwrap();
        assert!(!series.is_empty());
        assert!(m.topics[0].bs_series.as_ref().unwrap().len() == series.len());
        assert!(m.topics[1].series.is_none());
    }

    #[test]
    fn clock_sync_error_perturbs_measured_latency_only() {
        use frame_clock::SyncErrorModel;
        let base = run(tiny(ConfigName::Frame, false));
        let mut cfg = tiny(ConfigName::Frame, false);
        // Cloud subscriber clock 3 ms ahead (NTP-grade): measured cloud
        // latencies inflate, edge unaffected, and nothing is lost.
        cfg.sync_error_cloud = SyncErrorModel::ntp_grade(3);
        let skewed = run(cfg);
        let w = Workload::paper(55, 0);
        let cat5 = w.category_topics(5);
        let cat0 = w.category_topics(0);
        for &i in &cat5 {
            let b = base.topics[i].latency_mean().unwrap();
            let s = skewed.topics[i].latency_mean().unwrap();
            assert!(
                s > b + frame_types::Duration::from_millis(2),
                "cloud latency must appear ~3ms larger: {b} vs {s}"
            );
            assert_eq!(skewed.topics[i].max_consecutive_losses(), 0);
        }
        for &i in &cat0 {
            let b = base.topics[i].latency_mean().unwrap();
            let s = skewed.topics[i].latency_mean().unwrap();
            let diff = s.saturating_sub(b).max(b.saturating_sub(s));
            assert!(
                diff < frame_types::Duration::from_millis(1),
                "edge latency must be unaffected"
            );
        }
    }

    #[test]
    fn diurnal_cloud_latency_still_meets_cat5_loss_tolerance() {
        let mut cfg = tiny(ConfigName::Frame, false);
        cfg.cloud = CloudLatency::Diurnal {
            day: Duration::from_secs(4),
            spike_probability: 1e-3,
        };
        let m = run(cfg);
        let w = Workload::paper(55, 0);
        let cat5 = w.category_topics(5);
        assert!(m.loss_tolerance_success(&cat5, &w) >= 100.0);
    }
}
