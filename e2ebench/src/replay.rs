//! The traced replay: the workload's seeded messages pushed one at a time,
//! single-threaded, through each layer's public functions on the blocking
//! path, with one span per call recorded from this file:
//!
//! ```text
//! publisher encode → FrameDecoder::feed → Broker::on_message → take_job
//!   → finish_job → Deliver encode → FrameWriteQueue::write_vectored_some
//!   → loopback socket → subscriber read_frame
//! ```
//!
//! Replication effects go to a Backup `Broker` (`on_replica`/`on_prune`),
//! and a separate pass times `Broker::promote` on a Backup holding the
//! buffer those effects built. Spans stay in memory until the end, then
//! are written out; each layer's self time is its span minus its
//! children.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use frame_core::{admit, Broker, BrokerConfig, BrokerRole, Effect, JobKind};
use frame_rt::{read_frame, Decoded, FrameDecoder, WireMsg};
use frame_telemetry::RoleKind;
use frame_types::wire::{FrameSink, FrameWriteQueue, WireCodec};
use frame_types::{
    BrokerId, Message, NetworkParams, PublisherId, SeqNo, SubscriberId, Time, TopicId,
};

use crate::check::quantile;
use crate::workload::{payload, schedule, TopicPlan, SUBSCRIBER};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span; 0 for a root.
    pub parent: usize,
    /// The message key, `topic << 32 | seq`.
    pub id: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: usize, id: u64) -> usize {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.spans.len()
    }

    fn close(&mut self, handle: usize) {
        self.spans[handle - 1].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Each span's duration minus the durations of its direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent - 1] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.id
            )?;
        }
        out.flush()
    }
}

/// The spans on the path a delivery waits for, in order.
pub const BLOCKING: [&str; 8] = [
    "wire.encode_publish",
    "tcp.decode_feed",
    "broker.on_message",
    "broker.take_job",
    "broker.finish_job",
    "wire.encode_deliver",
    "tcp.writev",
    "tcp.read_frame",
];

/// Per-layer self times (µs, median over messages of each message's
/// total in that layer) and the other replay figures.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    pub messages: usize,
    pub layer_us: Vec<(&'static str, f64)>,
    /// Median over messages of the sum of blocking-path self times.
    pub blocking_sum_us: f64,
    pub on_replica_us: f64,
    pub frame_bytes: f64,
    pub allocs_per_encode: f64,
    pub promote_us: f64,
    /// (payload bytes, encode µs, decode µs): the codec split.
    pub codec: Vec<(usize, f64, f64)>,
}

impl Replay {
    pub fn layer(&self, name: &str) -> f64 {
        self.layer_us
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |l| l.1)
    }
}

fn key(m: &Message) -> u64 {
    (u64::from(m.topic.0) << 32) | m.seq.0
}

fn broker(role: BrokerRole, topics: &[TopicPlan]) -> Result<Broker, String> {
    let id = BrokerId(u32::from(role == BrokerRole::Backup));
    let mut b = Broker::new(id, role, BrokerConfig::frame());
    let net = NetworkParams::paper_example();
    for t in topics {
        let admitted = admit(&t.spec(), &net).map_err(|e| e.to_string())?;
        b.register_topic(admitted, vec![SubscriberId(SUBSCRIBER)])
            .map_err(|e| e.to_string())?;
    }
    Ok(b)
}

fn loopback() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let writer = TcpStream::connect(listener.local_addr()?)?;
    let (reader, _) = listener.accept()?;
    writer.set_nodelay(true)?;
    Ok((writer, reader))
}

fn median_us(mut ns: Vec<u64>) -> f64 {
    quantile(&mut ns, 0.5) as f64 / 1e3
}

/// Replays the first `count` offered messages of `topics`.
pub fn replay(
    seed: u64,
    topics: &[TopicPlan],
    count: usize,
    dump: &Path,
) -> Result<Replay, String> {
    let mut primary = broker(BrokerRole::Primary, topics)?;
    let mut backup = broker(BrokerRole::Backup, topics)?;
    let (mut sock_w, mut sock_r) = loopback().map_err(|e| e.to_string())?;
    let mut codec = WireCodec::new();
    let mut decoder = FrameDecoder::new();
    let mut queue = FrameWriteQueue::bounded(256 * 1024);
    let mut tracer = Tracer::new();
    let mut seqs = vec![0u64; topics.len()];
    let mut frame_bytes = Vec::new();
    let mut backup_effects: Vec<Effect> = Vec::new();
    let clock = Instant::now();
    let now = || Time::from_nanos(clock.elapsed().as_nanos() as u64 + 1_000_000_000);
    let horizon = 60_000_000_000;
    let slots = schedule(topics, horizon);
    let mut per_message: Vec<(usize, usize)> = Vec::new();
    for slot in slots.iter().take(count) {
        let t = &topics[slot.topic];
        let seq = seqs[slot.topic];
        seqs[slot.topic] += 1;
        let m = Message::new(
            TopicId(t.id),
            PublisherId(1),
            SeqNo(seq),
            now(),
            payload(seed, t.id, seq, t.payload_len),
        );
        let id = key(&m);
        let first_span = tracer.spans.len();
        let root = tracer.open("message", 0, id);

        let h = tracer.open("wire.encode_publish", root, id);
        let frame = codec
            .encode(&WireMsg::Publish(m))
            .map_err(|e| e.to_string())?;
        tracer.close(h);
        frame_bytes.push(frame.len() as u64);

        let h = tracer.open("tcp.decode_feed", root, id);
        let mut decoded = None;
        decoder
            .feed(frame.as_bytes(), &mut |d| decoded = Some(d))
            .map_err(|e| e.to_string())?;
        tracer.close(h);
        let Some(Decoded::Frame(WireMsg::Publish(m))) = decoded else {
            return Err("replay: publish frame did not decode".to_owned());
        };

        let h = tracer.open("broker.on_message", root, id);
        primary.on_message(m, now()).map_err(|e| e.to_string())?;
        tracer.close(h);

        loop {
            let h = tracer.open("broker.take_job", root, id);
            let job = primary.take_job(now());
            tracer.close(h);
            let Some(job) = job else {
                tracer.spans[h - 1].name = "broker.take_job_idle";
                break;
            };
            let replica_job = job.job.kind == JobKind::Replicate;
            if replica_job {
                tracer.spans[h - 1].name = "broker.take_job_replica";
            }
            let name = if replica_job {
                "broker.finish_job_replica"
            } else {
                "broker.finish_job"
            };
            let h = tracer.open(name, root, id);
            let effects = primary.finish_job(&job, now());
            tracer.close(h);
            for effect in effects {
                match effect {
                    Effect::Deliver { message, .. } => {
                        let h = tracer.open("wire.encode_deliver", root, id);
                        let frame = codec
                            .encode(&WireMsg::Deliver(message))
                            .map_err(|e| e.to_string())?;
                        tracer.close(h);
                        let h = tracer.open("tcp.writev", root, id);
                        queue.push_delivery(frame);
                        queue
                            .write_vectored_some(&mut sock_w)
                            .map_err(|e| e.to_string())?;
                        tracer.close(h);
                        let h = tracer.open("tcp.read_frame", root, id);
                        let got = read_frame(&mut sock_r).map_err(|e| e.to_string())?;
                        tracer.close(h);
                        if !matches!(got, WireMsg::Deliver(_)) {
                            return Err("replay: subscriber read a non-delivery".to_owned());
                        }
                    }
                    Effect::Replicate { message } => {
                        let h = tracer.open("backup.on_replica", root, id);
                        backup
                            .on_replica(message.clone(), now())
                            .map_err(|e| e.to_string())?;
                        tracer.close(h);
                        backup_effects.push(Effect::Replicate { message });
                    }
                    Effect::Prune { key } => {
                        let h = tracer.open("backup.on_prune", root, id);
                        backup.on_prune(key, now()).map_err(|e| e.to_string())?;
                        tracer.close(h);
                        backup_effects.push(Effect::Prune { key });
                    }
                }
            }
        }
        tracer.close(root);
        per_message.push((first_span, tracer.spans.len()));
    }

    let self_ns = tracer.self_times();
    let mut layer: std::collections::HashMap<&str, Vec<u64>> = Default::default();
    let mut blocking_sums = Vec::new();
    for &(from, to) in &per_message {
        let mut totals: std::collections::HashMap<&str, u64> = Default::default();
        for (span, ns) in tracer.spans[from..to].iter().zip(&self_ns[from..to]) {
            *totals.entry(span.name).or_default() += ns;
        }
        blocking_sums.push(
            BLOCKING
                .iter()
                .map(|n| totals.get(n).copied().unwrap_or(0))
                .sum(),
        );
        for (name, ns) in totals {
            layer.entry(name).or_default().push(ns);
        }
    }
    let med = |name: &str| layer.get(name).cloned().map_or(0.0, median_us);
    tracer.write(dump).map_err(|e| e.to_string())?;

    let promote_us = time_promote(topics, &backup_effects)?;
    Ok(Replay {
        messages: per_message.len(),
        layer_us: BLOCKING.iter().map(|&n| (n, med(n))).collect(),
        blocking_sum_us: median_us(blocking_sums),
        on_replica_us: med("backup.on_replica"),
        frame_bytes: quantile(&mut frame_bytes, 0.5) as f64,
        allocs_per_encode: allocs_per_encode(seed, topics)?,
        promote_us,
        codec: [16, 16 * 1024]
            .into_iter()
            .map(|len| codec_split(seed, len))
            .collect::<Result<_, _>>()?,
    })
}

/// `Broker::promote` on a Backup that applied the replay's replica and
/// prune stream (the buffer it would hold at a kill), median of 21.
fn time_promote(topics: &[TopicPlan], effects: &[Effect]) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..21 {
        let mut b = broker(BrokerRole::Backup, topics)?;
        for e in effects {
            match e {
                Effect::Replicate { message } => b.on_replica(message.clone(), Time::ZERO),
                Effect::Prune { key } => b.on_prune(*key, Time::ZERO),
                Effect::Deliver { .. } => Ok(()),
            }
            .map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        b.promote(Time::from_secs(1)).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_nanos() as u64);
    }
    Ok(median_us(times))
}

/// Median encode and `FrameDecoder::feed` time of a `Publish` frame with
/// a `len`-byte payload.
fn codec_split(seed: u64, len: usize) -> Result<(usize, f64, f64), String> {
    let mut codec = WireCodec::new();
    let mut decoder = FrameDecoder::new();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let reps = if len > 1024 { 60 } else { 2000 };
    for seq in 0..reps {
        let m = Message::new(
            TopicId(1),
            PublisherId(1),
            SeqNo(seq),
            Time::ZERO,
            payload(seed, 1, seq, len),
        );
        let t = Instant::now();
        let frame = codec
            .encode(&WireMsg::Publish(m))
            .map_err(|e| e.to_string())?;
        enc.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let mut ok = false;
        decoder
            .feed(frame.as_bytes(), &mut |d| {
                ok = matches!(d, Decoded::Frame(_))
            })
            .map_err(|e| e.to_string())?;
        dec.push(t.elapsed().as_nanos() as u64);
        if !ok {
            return Err("codec split: frame did not decode".to_owned());
        }
    }
    Ok((len, median_us(enc), median_us(dec)))
}

fn total_allocs() -> u64 {
    frame_telemetry::snapshot_roles()
        .iter()
        .map(|r| r.allocs)
        .sum()
}

/// Heap allocations per `WireCodec::encode` of a warm codec, from the
/// repository's counting allocator.
fn allocs_per_encode(seed: u64, topics: &[TopicPlan]) -> Result<f64, String> {
    frame_telemetry::register_thread_role(RoleKind::Other, 0);
    let t = &topics[0];
    let messages: Vec<WireMsg> = (0..1000)
        .map(|seq| {
            WireMsg::Publish(Message::new(
                TopicId(t.id),
                PublisherId(1),
                SeqNo(seq),
                Time::ZERO,
                payload(seed, t.id, seq, t.payload_len),
            ))
        })
        .collect();
    let mut codec = WireCodec::new();
    codec.encode(&messages[0]).map_err(|e| e.to_string())?;
    let (a, b) = (total_allocs(), total_allocs());
    let overhead = b - a;
    let before = total_allocs();
    for m in &messages {
        std::hint::black_box(codec.encode(m).map_err(|e| e.to_string())?);
    }
    let after = total_allocs();
    Ok((after - before).saturating_sub(overhead) as f64 / messages.len() as f64)
}
