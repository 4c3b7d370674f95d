//! The open-loop load generator: one sender (the calling thread) and one
//! receiver thread, one publisher socket and one subscriber socket to the
//! current Primary.
//!
//! The sender offers each message at its scheduled instant whether or not
//! earlier ones were delivered, stamps `created_at` with that *intended*
//! instant and records how late it actually sent. The receiver reads every
//! delivery with `read_frame`, verifies the payload, and — when a kill
//! cycle has armed it — plays failure detector and coordinator: on the
//! Primary's socket error it subscribes on the Backup, sends
//! `WireMsg::Promote`, and tells the sender to fail over.

use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::time::{Duration, Instant};

use frame_core::Publisher;
use frame_rt::{read_frame, write_frame, TcpPublisher, WireMsg};
use frame_types::{PublisherId, SubscriberId, Time, TopicId};

use crate::check::{Delivery, Offered};
use crate::workload::{payload, payload_matches, Slot, TopicPlan, SUBSCRIBER, WARMUP_TOPIC};

/// The run's time origin: every timestamp the benchmark keeps is ns since
/// `t0`; `created_at` on the wire is `unix0` plus that.
#[derive(Clone, Copy)]
pub struct Epoch {
    t0: Instant,
    unix0: u64,
}

impl Epoch {
    pub fn new() -> Epoch {
        let unix0 = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        Epoch {
            t0: Instant::now(),
            unix0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn created_at(&self, ns: u64) -> Time {
        Time::from_nanos(self.unix0 + ns)
    }

    fn rel(&self, t: Time) -> u64 {
        t.as_nanos().wrapping_sub(self.unix0)
    }
}

/// Timestamps of one receiver-driven failover (ns since the epoch).
#[derive(Clone, Copy, Debug)]
pub struct Promotion {
    pub eof_ns: u64,
    pub promote_sent_ns: u64,
    pub promoted_ns: u64,
    /// Recovery dispatches the Backup reported (`Promoted(n)`).
    pub recovered: u64,
    pub addr: SocketAddr,
}

/// Receiver → sender message.
pub enum RxEvent {
    Delivery(Delivery),
    Promoted(Promotion),
}

/// What the receiver thread needs.
pub struct RxConfig<'a> {
    pub epoch: Epoch,
    pub seed: u64,
    pub payload_len: usize,
    /// Set by the sender just before it kills the Primary; the receiver
    /// then fails over to `backup` on the socket error instead of exiting.
    pub armed: &'a AtomicBool,
    pub backup: SocketAddr,
    /// Record a span around every `read_frame` call.
    pub traced: bool,
}

/// Connects a subscriber socket for the benchmark's subscriber id.
pub fn subscribe(addr: SocketAddr) -> std::io::Result<BufReader<TcpStream>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &WireMsg::Subscribe(SubscriberId(SUBSCRIBER)))?;
    Ok(BufReader::with_capacity(256 * 1024, stream))
}

/// Span of one `read_frame` call that returned a delivery.
pub type ReadSpan = (u64, u64);

/// The receiver loop; returns its `read_frame` spans when traced. Ends at
/// the subscriber socket's error unless armed for a failover.
pub fn receive(
    mut reader: BufReader<TcpStream>,
    cfg: &RxConfig<'_>,
    tx: &Sender<RxEvent>,
) -> Vec<ReadSpan> {
    let mut spans = Vec::new();
    let mut after_promotion = false;
    let mut pending: Option<(u64, u64)> = None;
    loop {
        let start = cfg.epoch.now_ns();
        match read_frame(&mut reader) {
            Ok(WireMsg::Deliver(m)) => {
                let recv_ns = cfg.epoch.now_ns();
                if cfg.traced {
                    spans.push((start, recv_ns));
                }
                let len = if m.topic.0 == WARMUP_TOPIC {
                    16
                } else {
                    cfg.payload_len
                };
                let d = Delivery {
                    topic: m.topic.0,
                    seq: m.seq.0,
                    recv_ns,
                    created_ns: cfg.epoch.rel(m.created_at),
                    payload_ok: payload_matches(cfg.seed, m.topic.0, m.seq.0, &m.payload, len),
                    after_promotion,
                };
                if tx.send(RxEvent::Delivery(d)).is_err() {
                    return spans;
                }
            }
            Ok(WireMsg::Promoted(recovered)) => {
                let Some((eof_ns, promote_sent_ns)) = pending.take() else {
                    continue;
                };
                let p = Promotion {
                    eof_ns,
                    promote_sent_ns,
                    promoted_ns: cfg.epoch.now_ns(),
                    recovered,
                    addr: cfg.backup,
                };
                if tx.send(RxEvent::Promoted(p)).is_err() {
                    return spans;
                }
            }
            Ok(_) => {}
            Err(_) => {
                let eof_ns = cfg.epoch.now_ns();
                if after_promotion || !cfg.armed.load(Ordering::SeqCst) {
                    return spans;
                }
                // Subscribe, then promote on the same connection: the
                // broker applies one connection's frames in order, so the
                // subscription exists before any recovery dispatch.
                let Ok(mut next) = subscribe(cfg.backup) else {
                    return spans;
                };
                let promote_sent_ns = cfg.epoch.now_ns();
                if write_frame(next.get_mut(), &WireMsg::Promote).is_err() {
                    return spans;
                }
                pending = Some((eof_ns, promote_sent_ns));
                reader = next;
                after_promotion = true;
            }
        }
    }
}

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: i32 = 29;

/// Shrinks the calling thread's timer slack from the default 50 µs to
/// 1 µs, so the sender's sleeps end at the intended send instant instead
/// of up to 50 µs after it.
pub fn tighten_timer_slack() {
    // SAFETY: prctl(PR_SET_TIMERSLACK, n) only sets a per-thread scheduler
    // parameter; it takes integer arguments and touches no memory of ours.
    unsafe {
        crate::proc::prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// How much later than the latest deadline a phase waits for stragglers.
const SETTLE_MARGIN_NS: u64 = 100_000_000;

/// The sender side of one Primary+Backup pair: the publisher state, the
/// open sockets, and everything offered and delivered so far.
pub struct Session {
    pub epoch: Epoch,
    seed: u64,
    core: Publisher,
    next_seq: HashMap<u32, u64>,
    publisher: Option<TcpPublisher>,
    rx: Receiver<RxEvent>,
    pub offered: Vec<Offered>,
    pub deliveries: Vec<Delivery>,
    /// Distinct `(topic, seq)` delivered, so duplicates cannot end a
    /// settle early.
    delivered: HashSet<(u32, u64)>,
    pub promotion: Option<Promotion>,
    /// When the sender finished its retention re-sends after promotion.
    pub resumed_ns: Option<u64>,
    /// Intended → actual send, per offered message.
    pub lag_ns: Vec<u64>,
    /// Spans around `TcpPublisher::publish` (traced sessions only).
    pub publish_spans: Vec<(u64, u64)>,
    traced: bool,
    warmups: u64,
}

/// One phase's offered range and timing.
#[derive(Clone, Debug)]
pub struct PhaseRun {
    pub end_ns: u64,
    pub kill_ns: Option<u64>,
    pub offered: std::ops::Range<usize>,
}

impl Session {
    /// Registers every topic of the pair's manifest with the publisher core
    /// and connects the publisher socket.
    pub fn new(
        epoch: Epoch,
        seed: u64,
        topics: &[TopicPlan],
        primary: SocketAddr,
        rx: Receiver<RxEvent>,
        traced: bool,
    ) -> Result<Session, String> {
        let mut core = Publisher::new(PublisherId(1));
        core.register_topic(TopicId(WARMUP_TOPIC), 0)
            .map_err(|e| e.to_string())?;
        for t in topics {
            core.register_topic(TopicId(t.id), t.retention)
                .map_err(|e| e.to_string())?;
        }
        let publisher = TcpPublisher::connect(primary).map_err(|e| e.to_string())?;
        Ok(Session {
            epoch,
            seed,
            core,
            next_seq: HashMap::new(),
            publisher: Some(publisher),
            rx,
            offered: Vec::new(),
            deliveries: Vec::new(),
            delivered: HashSet::new(),
            promotion: None,
            resumed_ns: None,
            lag_ns: Vec::new(),
            publish_spans: Vec::new(),
            traced,
            warmups: 0,
        })
    }

    /// Publishes warm-up messages until one comes back. `Subscribe` has no
    /// acknowledgement, so the first may reach the broker before the
    /// subscription does and be dispatched to no one; one is re-sent every
    /// 20 ms.
    pub fn warm_up(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let seq = self.warmups;
            self.warmups += 1;
            let now = self.epoch.now_ns();
            let msg = self
                .core
                .publish(
                    TopicId(WARMUP_TOPIC),
                    self.epoch.created_at(now),
                    payload(self.seed, WARMUP_TOPIC, seq, 16),
                )
                .map_err(|e| e.to_string())?;
            self.publisher
                .as_mut()
                .ok_or("no publisher connection")?
                .publish(msg)
                .map_err(|e| e.to_string())?;
            let resend_at = Instant::now() + Duration::from_millis(20);
            loop {
                let left = resend_at.saturating_duration_since(Instant::now());
                match self.rx.recv_timeout(left) {
                    Ok(RxEvent::Delivery(d)) if d.topic == WARMUP_TOPIC => {
                        return if d.payload_ok {
                            Ok(())
                        } else {
                            Err(format!("warm-up came back wrong: {d:?}"))
                        };
                    }
                    Ok(ev) => self.absorb(ev),
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => break,
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                        return Err("subscriber connection closed before the warm-up".to_owned())
                    }
                }
            }
            if Instant::now() > deadline {
                return Err("warm-up message never arrived".to_owned());
            }
        }
    }

    fn absorb(&mut self, ev: RxEvent) {
        match ev {
            RxEvent::Delivery(d) if d.topic == WARMUP_TOPIC => {}
            RxEvent::Delivery(d) => {
                self.delivered.insert((d.topic, d.seq));
                self.deliveries.push(d);
            }
            RxEvent::Promoted(p) => self.promotion = Some(p),
        }
    }

    fn drain(&mut self) {
        while let Ok(ev) = self.rx.try_recv() {
            self.absorb(ev);
        }
    }

    /// Once the receiver reports a promotion: reconnect to the promoted
    /// Backup and re-send every retained message (`N_i` per topic).
    fn maybe_fail_over(&mut self) {
        let Some(p) = self.promotion else { return };
        if self.resumed_ns.is_some() {
            return;
        }
        self.publisher = TcpPublisher::connect(p.addr).ok();
        let retained = self.core.fail_over();
        if let Some(publisher) = self.publisher.as_mut() {
            for m in retained {
                if publisher.resend(m).is_err() {
                    break;
                }
            }
        }
        self.resumed_ns = Some(self.epoch.now_ns());
    }

    /// Sleeps until `at_ns`, handling receiver events meanwhile.
    fn wait_until(&mut self, at_ns: u64) {
        loop {
            self.drain();
            self.maybe_fail_over();
            let now = self.epoch.now_ns();
            if now >= at_ns {
                return;
            }
            std::thread::sleep(Duration::from_nanos((at_ns - now).min(2_000_000)));
        }
    }

    /// Offers `slots` of `topics` open-loop, starting now. With `kill`, the
    /// callback fires at that offset (it `SIGKILL`s the Primary).
    pub fn run_phase(
        &mut self,
        phase: u32,
        topics: &[TopicPlan],
        slots: &[Slot],
        mut kill: Option<(u64, &mut dyn FnMut())>,
    ) -> PhaseRun {
        let first = self.offered.len();
        let start_ns = self.epoch.now_ns() + 1_000_000;
        let mut kill_ns = None;
        for slot in slots {
            let due = start_ns + slot.at_ns;
            if let Some((at, _)) = &kill {
                if start_ns + *at <= due {
                    let (at, fire) = kill.take().expect("checked above");
                    self.wait_until(start_ns + at);
                    kill_ns = Some(self.epoch.now_ns());
                    fire();
                }
            }
            self.wait_until(due);
            let t = &topics[slot.topic];
            let seq = self.next_seq.entry(t.id).or_insert(0);
            let this_seq = *seq;
            *seq += 1;
            let msg = self
                .core
                .publish(
                    TopicId(t.id),
                    self.epoch.created_at(due),
                    payload(self.seed, t.id, this_seq, t.payload_len),
                )
                .expect("topic registered at session start");
            self.offered.push(Offered {
                topic: t.id,
                seq: this_seq,
                intended_ns: due,
                phase,
            });
            let sent = self.epoch.now_ns();
            self.lag_ns.push(sent - due);
            if let Some(publisher) = self.publisher.as_mut() {
                // A dead Primary fails the write; the message is lost
                // unless retention re-sends it after promotion.
                if publisher.publish(msg).is_err() {
                    self.publisher = None;
                }
            }
            if self.traced {
                self.publish_spans.push((sent, self.epoch.now_ns()));
            }
        }
        let end_ns = slots.last().map_or(start_ns, |s| start_ns + s.at_ns);
        PhaseRun {
            end_ns,
            kill_ns,
            offered: first..self.offered.len(),
        }
    }

    /// Waits until every message offered so far has been delivered, or
    /// until `max_deadline` plus a margin has passed since the last offer.
    /// With `crash_from`, messages offered from then until the publisher
    /// resumed on the promoted Backup may stay lost: the wait ends once the
    /// failover is done and every other message arrived.
    pub fn settle(&mut self, run: &PhaseRun, max_deadline_ns: u64, crash_from: Option<u64>) {
        let give_up = run.end_ns + max_deadline_ns + SETTLE_MARGIN_NS;
        loop {
            self.drain();
            self.maybe_fail_over();
            let done = match crash_from {
                None => self.delivered.len() >= self.offered.len(),
                Some(from) => self.resumed_ns.is_some_and(|to| {
                    self.offered.iter().all(|o| {
                        (from..=to).contains(&o.intended_ns)
                            || self.delivered.contains(&(o.topic, o.seq))
                    })
                }),
            };
            if done || self.epoch.now_ns() >= give_up {
                return;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}
