//! The `frame-cli` subcommands, exposed as library functions so they can be
//! tested without spawning processes.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use frame_clock::{Clock, MonotonicClock};
use frame_core::{
    admit, dispatch_deadline, min_admissible_retention, replication_deadline, replication_needed,
    BrokerConfig, BrokerRole, Deadline, Publisher,
};
use frame_rt::{ReactorServer, RtBroker, TcpPublisher, TcpSubscriber};
use frame_telemetry::Telemetry;
use frame_types::{BrokerId, PublisherId, SubscriberId};

use crate::manifest::Manifest;

/// Shared stop flag (Ctrl-C or test-driven).
pub type StopFlag = Arc<AtomicBool>;

/// Parses a broker configuration name.
///
/// # Errors
///
/// Returns an error message on unknown names.
pub fn parse_config(name: &str) -> Result<BrokerConfig, String> {
    match name {
        "frame" => Ok(BrokerConfig::frame()),
        "fcfs" => Ok(BrokerConfig::fcfs()),
        "fcfs-" => Ok(BrokerConfig::fcfs_minus()),
        other => Err(format!(
            "unknown config `{other}` (expected frame | fcfs | fcfs-)"
        )),
    }
}

/// `frame-cli admit`: run the admission test over a manifest and print the
/// verdicts. Returns the number of rejected topics.
pub fn cmd_admit(manifest: &Manifest, out: &mut impl std::io::Write) -> std::io::Result<usize> {
    let mut rejected = 0;
    for t in &manifest.topics {
        let (spec, _) = t.to_spec();
        write!(out, "topic {}: ", spec.id)?;
        match admit(&spec, &manifest.network) {
            Ok(_) => {
                let dd = dispatch_deadline(&spec, &manifest.network).unwrap();
                let dr = match replication_deadline(&spec, &manifest.network).unwrap() {
                    Deadline::Finite(d) => d.to_string(),
                    Deadline::Unbounded => "inf".to_owned(),
                };
                let rep = replication_needed(&spec, &manifest.network).unwrap();
                writeln!(
                    out,
                    "ADMIT  D^d={dd}  D^r={dr}  replication={}",
                    if rep {
                        "required"
                    } else {
                        "suppressed (Prop 1)"
                    }
                )?;
            }
            Err(e) => {
                rejected += 1;
                write!(out, "REJECT  {e}")?;
                if let Some(n) = min_admissible_retention(&spec, &manifest.network) {
                    if n > spec.retention {
                        write!(out, "  (fix: retention >= {n})")?;
                    }
                }
                writeln!(out)?;
            }
        }
    }
    Ok(rejected)
}

/// A running broker process: server plus broker handle and — with
/// `--obs` — the metrics sampler and HTTP scrape endpoint. With
/// `--backup-addr` the server also owns the link to the Backup.
pub struct RunningBroker {
    /// The broker.
    pub broker: RtBroker,
    /// Its TCP front end.
    pub server: ReactorServer,
    /// The `/metrics` + `/healthz` listener, when `--obs` was given.
    pub obs: Option<(frame_obs::ObsSampler, frame_obs::ObsServer)>,
}

impl RunningBroker {
    /// Stops everything.
    pub fn shutdown(self) {
        if let Some((mut sampler, mut server)) = self.obs {
            server.shutdown();
            sampler.shutdown();
        }
        self.broker.shutdown();
        self.server.shutdown();
    }
}

/// `frame-cli broker`: start a broker from a manifest and serve TCP.
///
/// # Errors
///
/// Admission failures, duplicate topics, or bind errors as strings.
pub fn cmd_broker(
    manifest: &Manifest,
    listen: &str,
    role: BrokerRole,
    config: BrokerConfig,
    backup_addr: Option<SocketAddr>,
    obs_addr: Option<&str>,
) -> Result<RunningBroker, String> {
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let broker = RtBroker::spawn(
        BrokerId(match role {
            BrokerRole::Primary => 0,
            BrokerRole::Backup => 1,
        }),
        role,
        config,
        clock.clone(),
        Telemetry::new(),
        None,
    );
    for t in &manifest.topics {
        let (spec, subscribers) = t.to_spec();
        let admitted = admit(&spec, &manifest.network).map_err(|e| e.to_string())?;
        broker
            .register_topic(admitted, subscribers)
            .map_err(|e| e.to_string())?;
    }
    let obs = match obs_addr {
        None => None,
        Some(addr) => {
            let sampler = frame_obs::spawn_sampler(
                broker.telemetry().clone(),
                clock,
                frame_obs::SamplerConfig::default(),
            );
            let obs_server =
                frame_obs::ObsServer::bind(addr, broker.telemetry().clone(), sampler.shared())
                    .map_err(|e| e.to_string())?;
            Some((sampler, obs_server))
        }
    };
    let server = ReactorServer::bind(listen, broker.clone()).map_err(|e| e.to_string())?;
    if let Some(addr) = backup_addr {
        server.connect_backup(addr).map_err(|e| e.to_string())?;
    }
    Ok(RunningBroker {
        broker,
        server,
        obs,
    })
}

/// `frame-cli publish`: publish every manifest topic periodically until
/// `stop` is set or `max_rounds` completes. Returns messages sent.
///
/// # Errors
///
/// Connection errors as strings.
pub fn cmd_publish(
    manifest: &Manifest,
    addr: SocketAddr,
    publisher_id: u32,
    max_rounds: u64,
    stop: &StopFlag,
) -> Result<u64, String> {
    let mut conn = TcpPublisher::connect(addr).map_err(|e| e.to_string())?;
    let clock = MonotonicClock::new();
    let mut core = Publisher::new(PublisherId(publisher_id));
    let mut specs = Vec::new();
    for t in &manifest.topics {
        let (spec, _) = t.to_spec();
        core.register_topic(spec.id, spec.retention)
            .map_err(|e| e.to_string())?;
        specs.push(spec);
    }
    // Publish on the smallest period grid; each topic fires on multiples of
    // its own period.
    let base_ms = specs
        .iter()
        .filter(|s| s.period != frame_types::Duration::MAX)
        .map(|s| s.period.as_millis())
        .min()
        .unwrap_or(100)
        .max(1);
    let mut sent = 0u64;
    for round in 0..max_rounds {
        if stop.load(Ordering::Acquire) {
            break;
        }
        for spec in &specs {
            if spec.period == frame_types::Duration::MAX {
                continue; // aperiodic topics publish only on demand
            }
            if (round * base_ms) % spec.period.as_millis() != 0 {
                continue;
            }
            let msg = core
                .publish(spec.id, clock.now(), &b"0123456789abcdef"[..])
                .map_err(|e| e.to_string())?;
            conn.publish(msg).map_err(|e| e.to_string())?;
            sent += 1;
        }
        std::thread::sleep(std::time::Duration::from_millis(base_ms));
    }
    Ok(sent)
}

/// `frame-cli subscribe`: receive deliveries and write one line per message
/// until `stop` is set or `max_messages` arrive. Returns messages received.
///
/// # Errors
///
/// Connection errors as strings.
pub fn cmd_subscribe(
    addr: SocketAddr,
    subscriber_id: u32,
    max_messages: u64,
    stop: &StopFlag,
    out: &mut impl std::io::Write,
) -> Result<u64, String> {
    let sub =
        TcpSubscriber::connect(addr, SubscriberId(subscriber_id)).map_err(|e| e.to_string())?;
    let clock = MonotonicClock::new();
    let mut received = 0u64;
    while received < max_messages && !stop.load(Ordering::Acquire) {
        match sub
            .deliveries()
            .recv_timeout(std::time::Duration::from_millis(200))
        {
            Ok(m) => {
                received += 1;
                let _ = writeln!(
                    out,
                    "{} {} ({} bytes) at {}",
                    m.topic,
                    m.seq,
                    m.payload.len(),
                    clock.now()
                );
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
    }
    Ok(received)
}

/// `frame-cli detector`: poll the Primary over TCP; once it stops
/// acknowledging for `timeout`, send `Promote` to the Backup. Returns the
/// number of recovery dispatches the Backup reported, or `None` if `stop`
/// was set before a crash was detected.
///
/// # Errors
///
/// Connection errors to the Backup (the whole point is that the Primary
/// may die, so its errors are expected and non-fatal).
pub fn cmd_detector(
    primary: SocketAddr,
    backup: SocketAddr,
    interval: std::time::Duration,
    timeout: std::time::Duration,
    stop: &StopFlag,
) -> Result<Option<u64>, String> {
    use frame_rt::{read_frame, WireMsg};
    use frame_types::wire::WireCodec;
    let clock = MonotonicClock::new();
    let mut detector = frame_core::PollingDetector::new(
        frame_types::Duration::from_std(interval),
        frame_types::Duration::from_std(timeout),
        clock.now(),
    );
    // One codec for the detector's lifetime: each poll reuses its
    // serialization scratch instead of re-allocating per connection.
    let mut codec = WireCodec::new();
    let mut token = 0u64;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(None);
        }
        detector.on_poll_sent(clock.now());
        token += 1;
        // Fresh connection per poll: also detects a dead host, not only a
        // dead process.
        let acked = (|codec: &mut WireCodec| -> std::io::Result<bool> {
            let mut s = std::net::TcpStream::connect_timeout(&primary, timeout)?;
            s.set_read_timeout(Some(timeout))?;
            codec.encode_into(&mut s, &WireMsg::Poll(token))?;
            matches!(read_frame(&mut s)?, WireMsg::PollAck(t) if t == token)
                .then_some(true)
                .ok_or_else(|| std::io::Error::other("bad ack"))
        })(&mut codec)
        .unwrap_or(false);
        if acked {
            detector.on_ack(clock.now());
        }
        if detector.status(clock.now()) == frame_core::PrimaryStatus::Crashed {
            let mut s = std::net::TcpStream::connect(backup).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .map_err(|e| e.to_string())?;
            codec
                .encode_into(&mut s, &WireMsg::Promote)
                .map_err(|e| e.to_string())?;
            return match read_frame(&mut s).map_err(|e| e.to_string())? {
                WireMsg::Promoted(n) => Ok(Some(n)),
                other => Err(format!("unexpected promotion reply: {other:?}")),
            };
        }
        std::thread::sleep(interval);
    }
}

/// Fetches a broker's live telemetry snapshot over TCP as raw JSON — the
/// shared poll step behind `stats`, `stats --watch` and `top`.
fn fetch_stats_json(addr: SocketAddr) -> Result<String, String> {
    use frame_rt::{read_frame, write_frame, WireMsg};
    let mut s = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write_frame(&mut s, &WireMsg::Stats).map_err(|e| e.to_string())?;
    match read_frame(&mut s).map_err(|e| e.to_string())? {
        WireMsg::StatsJson(json) => Ok(json),
        other => Err(format!("unexpected stats reply: {other:?}")),
    }
}

/// The minimum pause between watch ticks. A zero interval would make
/// [`watch`] spin flat out — hammering the broker with Stats fetches and
/// the terminal with screen-clears — so anything below this is floored.
pub const WATCH_FLOOR: std::time::Duration = std::time::Duration::from_millis(100);

/// The shared polling loop behind `top` and `stats --watch`: runs `tick`
/// up to `max_rounds` times with `interval` of sleep *before* each one
/// (every tick observes a full interval of activity), stopping early when
/// `stop` is set. Intervals below [`WATCH_FLOOR`] are floored to it.
fn watch(
    interval: std::time::Duration,
    max_rounds: u64,
    stop: &StopFlag,
    mut tick: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let interval = interval.max(WATCH_FLOOR);
    for _ in 0..max_rounds {
        // Sleep in short slices so Ctrl-C doesn't wait out the interval.
        let deadline = std::time::Instant::now() + interval;
        while std::time::Instant::now() < deadline {
            if stop.load(Ordering::Acquire) {
                return Ok(());
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            std::thread::sleep(left.min(std::time::Duration::from_millis(50)));
        }
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        tick()?;
    }
    Ok(())
}

/// `frame-cli stats`: fetch a broker's live telemetry snapshot over TCP and
/// render it. `format` is `pretty` (per-stage/per-topic p50/p99/max table),
/// `json` (the wire snapshot as-is), or `prometheus` (text exposition
/// format for scraping).
///
/// # Errors
///
/// Connection/protocol errors, or an unknown format name.
pub fn cmd_stats(
    addr: SocketAddr,
    format: &str,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    let json = fetch_stats_json(addr)?;
    let rendered = match format {
        "json" | "pretty" | "prometheus" => {
            let snapshot = frame_telemetry::from_json(&json)
                .map_err(|e| format!("malformed snapshot: {e}"))?;
            match format {
                // The wire carries compact JSON; humans get it indented.
                "json" => serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?,
                "pretty" => frame_telemetry::render_pretty(&snapshot),
                _ => frame_telemetry::render_prometheus(&snapshot),
            }
        }
        other => {
            return Err(format!(
                "unknown format `{other}` (expected pretty | json | prometheus)"
            ))
        }
    };
    writeln!(out, "{rendered}").map_err(|e| e.to_string())
}

/// `frame-cli stats --watch`: re-render `cmd_stats` every `interval`,
/// clearing the screen between renders, until `stop` is set (or
/// `max_rounds` renders for tests). The first render is immediate; the
/// rest ride the shared [`watch`] loop.
///
/// # Errors
///
/// Same as [`cmd_stats`].
pub fn cmd_stats_watch(
    addr: SocketAddr,
    format: &str,
    interval: std::time::Duration,
    max_rounds: u64,
    stop: &StopFlag,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    cmd_stats(addr, format, out)?;
    watch(interval, max_rounds.saturating_sub(1), stop, || {
        write!(out, "\x1b[2J\x1b[H").map_err(|e| e.to_string())?;
        cmd_stats(addr, format, out)
    })
}

/// `frame-cli top`: a live single-screen view of a broker — rates, queue
/// watermarks, heartbeats, per-topic SLO counters and the health verdict.
///
/// Polls the broker's stats surface every `interval` and differentiates
/// consecutive snapshots through a client-side [`frame_obs::Sampler`], so
/// the broker needs no extra support beyond `stats`. `clear_screen`
/// drives the live ANSI refresh; `--once` uses one round without it.
///
/// # Errors
///
/// Connection/protocol errors as strings.
pub fn cmd_top(
    addr: SocketAddr,
    interval: std::time::Duration,
    max_rounds: u64,
    clear_screen: bool,
    stop: &StopFlag,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    let clock = MonotonicClock::new();
    let mut sampler = frame_obs::Sampler::new(frame_obs::SamplerConfig {
        cadence: frame_types::Duration::from_std(interval),
        ..Default::default()
    });
    // Prime: rates are deltas, so the first render needs a predecessor.
    // The broker snapshots at request arrival, so stamp each sample with
    // the clock *before* the fetch — response-transfer latency must not
    // age the heartbeats.
    let now = clock.now();
    let snap = frame_telemetry::from_json(&fetch_stats_json(addr)?)
        .map_err(|e| format!("malformed snapshot: {e}"))?;
    sampler.observe(&snap, now);
    let width = terminal_width();
    let mut first = true;
    let mut render = || -> Result<(), String> {
        let now = clock.now();
        let snap = frame_telemetry::from_json(&fetch_stats_json(addr)?)
            .map_err(|e| format!("malformed snapshot: {e}"))?;
        let point = sampler.observe(&snap, now);
        let screen = clip_to_width(&render_top(addr, &point, &snap), width);
        if clear_screen {
            // Full clear only once; afterwards repaint in place (home the
            // cursor, erase to end-of-line per line, erase below at the
            // end) so the refresh never flickers through a blank frame.
            let prefix = if first { "\x1b[2J\x1b[H" } else { "\x1b[H" };
            first = false;
            let mut painted = String::with_capacity(screen.len() + 64);
            painted.push_str(prefix);
            for line in screen.lines() {
                painted.push_str(line);
                painted.push_str("\x1b[K\r\n");
            }
            painted.push_str("\x1b[J");
            write!(out, "{painted}").map_err(|e| e.to_string())
        } else {
            write!(out, "{screen}").map_err(|e| e.to_string())
        }
    };
    watch(interval, max_rounds, stop, &mut render)
}

/// The terminal width `top` clips its lines to: `$COLUMNS` when set and
/// sane (the shell exports it on resize), otherwise no clipping. Reading
/// the tty size without libc would need a raw ioctl; the env fallback
/// degrades to full-width lines, which terminals wrap on their own.
fn terminal_width() -> Option<usize> {
    std::env::var("COLUMNS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&w| w >= 20)
}

/// Clips every line of a rendered screen to `width` characters so an
/// in-place repaint never wraps (wrapped lines would scroll the screen
/// and break the home-cursor redraw).
fn clip_to_width(screen: &str, width: Option<usize>) -> String {
    let Some(width) = width else {
        return screen.to_string();
    };
    let mut s = String::with_capacity(screen.len());
    for line in screen.lines() {
        if line.chars().count() > width {
            s.extend(line.chars().take(width));
        } else {
            s.push_str(line);
        }
        s.push('\n');
    }
    s
}

/// Renders one `top` screen from a differentiated sample plus the raw
/// snapshot it came from.
fn render_top(
    addr: SocketAddr,
    p: &frame_obs::SamplePoint,
    snap: &frame_telemetry::TelemetrySnapshot,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "frame top — {addr} — t {:.1}s — health {}",
        p.t_ns as f64 / 1e9,
        p.health.verdict.name().to_uppercase(),
    );
    let _ = writeln!(
        s,
        "rates/s   admit {:>8.1}  deliver {:>8.1}  replicate {:>8.1}  miss {:>6.1}  loss {:>6.1}  allocs/msg {}",
        p.admit_rate(),
        p.deliver_rate(),
        p.replicate_rate(),
        p.miss_rate(),
        p.loss_rate(),
        p.allocs_per_message()
            .map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
    );
    let _ = writeln!(
        s,
        "queues    depth {} (high {})",
        p.queue_depth, p.queue_watermark,
    );
    let beats: Vec<String> = snap
        .heartbeats
        .iter()
        .filter(|h| h.beats > 0)
        .map(|h| format!("{} {}", h.kind.name(), h.beats))
        .collect();
    let _ = writeln!(
        s,
        "beats     {}",
        if beats.is_empty() {
            "(none yet)".to_owned()
        } else {
            beats.join("   ")
        }
    );
    if !p.roles.is_empty() {
        let _ = writeln!(
            s,
            "roles     {:<14} {:>6}  {:>10}  {:>9}  {:>8}  {:>8}",
            "role", "cpu%", "allocs/s", "live_kb", "reads/s", "writes/s"
        );
        for r in &p.roles {
            let per_sec = |delta: u64| delta as f64 / (p.dt_ns.max(1) as f64 / 1e9);
            let _ = writeln!(
                s,
                "          {:<14} {:>5.1}%  {:>10.0}  {:>9}  {:>8.0}  {:>8.0}",
                r.role,
                r.cpu_utilization(p.dt_ns) * 100.0,
                per_sec(r.allocs_delta),
                r.current_bytes / 1024,
                per_sec(r.reads_delta),
                per_sec(r.writes_delta),
            );
        }
    }
    let _ = writeln!(s, "topics    id  delivered  misses  lost  violations");
    for slo in &snap.slos {
        let _ = writeln!(
            s,
            "          {:<3} {:>9}  {:>6}  {:>4}  {:>10}",
            slo.topic.0, slo.delivered, slo.deadline_misses, slo.lost, slo.loss_bound_violations,
        );
    }
    if snap.overload.degraded() || snap.overload.escalations > 0 {
        let o = &snap.overload;
        let _ = writeln!(
            s,
            "overload  rung {} ({})  pressure {:.2}  suppressed {}  shedding {}  evicted {}  esc/deesc {}/{}",
            o.rung,
            o.rung_name(),
            o.pressure(),
            o.suppressed_topics,
            o.shedding_topics,
            o.evicted_topics,
            o.escalations,
            o.deescalations,
        );
    }
    if !p.health.reasons.is_empty() {
        let _ = writeln!(s, "reasons   {}", p.health.reasons.join("; "));
    }
    s
}

/// Where `frame-cli trace` reads its flight-recorder snapshot from.
pub enum TraceSource<'a> {
    /// Live: ask a running broker over TCP.
    Addr(SocketAddr),
    /// Offline: read a `flight.jsonl` dump written by the flight sink
    /// (post-mortem; the newest snapshot in the file is rendered).
    Dump(&'a std::path::Path),
}

/// `frame-cli trace`: fetch a flight-recorder snapshot (live over TCP, or
/// from a JSONL dump file) and render per-message span timelines with
/// deadline-budget attribution. `format` is `pretty` or `json`; `detail`
/// caps how many of the newest spans are expanded; `find` narrows the
/// output to one `(topic, seq)` timeline.
///
/// # Errors
///
/// Connection/protocol/file errors, an unknown format name, or — with
/// `find` — no recorded span for that message.
pub fn cmd_trace(
    source: TraceSource<'_>,
    format: &str,
    detail: usize,
    find: Option<(u32, u64)>,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    use frame_rt::{read_frame, write_frame, WireMsg};
    let snapshot = match source {
        TraceSource::Addr(addr) => {
            let mut s = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .map_err(|e| e.to_string())?;
            write_frame(&mut s, &WireMsg::Trace).map_err(|e| e.to_string())?;
            match read_frame(&mut s).map_err(|e| e.to_string())? {
                WireMsg::TraceJson(json) => frame_telemetry::flight_from_json(&json)
                    .map_err(|e| format!("malformed flight snapshot: {e}"))?,
                other => return Err(format!("unexpected trace reply: {other:?}")),
            }
        }
        TraceSource::Dump(path) => frame_store::FlightDump::read(path)
            .map_err(|e| format!("cannot read dump {}: {e}", path.display()))?
            .into_iter()
            .last()
            .ok_or_else(|| format!("no snapshots in dump {}", path.display()))?,
    };
    let rendered = match (format, find) {
        ("json", _) => serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?,
        ("pretty", Some((topic, seq))) => {
            let record = snapshot
                .find(frame_types::TopicId(topic), frame_types::SeqNo(seq))
                .ok_or_else(|| {
                    format!("no recorded span for topic {topic} seq {seq} (ring evicted or never delivered)")
                })?;
            frame_telemetry::render_span_timeline(record)
        }
        ("pretty", None) => frame_telemetry::render_flight_pretty(&snapshot, detail),
        (other, _) => return Err(format!("unknown format `{other}` (expected pretty | json)")),
    };
    writeln!(out, "{rendered}").map_err(|e| e.to_string())
}

/// `frame-cli chaos run`: execute a fault plan against a fresh in-process
/// Primary/Backup pair with the seeded injector installed, print the
/// invariant verdict, and (with `--out`) write the deterministic incident
/// log as `incidents.jsonl`, the sampled metrics timeline as
/// `metrics.jsonl`, and the verdict as `verdict.json`. The same plan and
/// seed always produce byte-identical artifacts.
///
/// Returns `0` when every invariant held, `1` when any failed.
///
/// # Errors
///
/// Plan load/parse failures, admission rejections, and artifact-write
/// failures — a failed *invariant* is an exit code, not an error.
pub fn cmd_chaos(
    plan_path: &std::path::Path,
    seed: u64,
    out_dir: Option<&std::path::Path>,
    out: &mut impl std::io::Write,
) -> Result<i32, String> {
    let plan = frame_chaos::FaultPlan::load(plan_path).map_err(|e| e.to_string())?;
    let report = frame_chaos::run(&plan, seed).map_err(|e| e.to_string())?;
    writeln!(out, "plan: {}  seed: {seed}", plan.name).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "injected: {} incidents  deadline misses: {}",
        report.incidents.len(),
        report.deadline_misses
    )
    .map_err(|e| e.to_string())?;
    write!(out, "{}", report.verdict.render()).map_err(|e| e.to_string())?;
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let incidents = dir.join("incidents.jsonl");
        std::fs::write(&incidents, &report.incidents_jsonl).map_err(|e| e.to_string())?;
        let metrics = dir.join("metrics.jsonl");
        std::fs::write(&metrics, &report.metrics_jsonl).map_err(|e| e.to_string())?;
        let verdict = dir.join("verdict.json");
        let json = serde_json::to_string(&report.verdict).map_err(|e| e.to_string())?;
        std::fs::write(&verdict, json).map_err(|e| e.to_string())?;
        writeln!(
            out,
            "artifacts: {} {} {}",
            incidents.display(),
            metrics.display(),
            verdict.display()
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(if report.verdict.passed { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clip_to_width_truncates_long_lines_only() {
        let screen = "short\na-very-long-line-that-overflows\n";
        assert_eq!(clip_to_width(screen, None), screen);
        let clipped = clip_to_width(screen, Some(20));
        assert_eq!(clipped, "short\na-very-long-line-tha\n");
    }

    #[test]
    fn watch_floors_zero_interval() {
        let stop: StopFlag = Arc::new(AtomicBool::new(false));
        let start = std::time::Instant::now();
        let mut ticks = 0;
        watch(std::time::Duration::ZERO, 2, &stop, || {
            ticks += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(ticks, 2);
        assert!(
            start.elapsed() >= WATCH_FLOOR,
            "a zero interval must be floored, not spun: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn parse_config_names() {
        assert!(parse_config("frame").unwrap().selective_replication);
        assert!(!parse_config("fcfs").unwrap().selective_replication);
        assert!(!parse_config("fcfs-").unwrap().coordination);
        assert!(parse_config("bogus").is_err());
    }

    #[test]
    fn admit_reports_verdicts() {
        let mut manifest = Manifest::table2();
        // Break one topic: zero retention on a zero-loss topic.
        manifest.topics[0].retention = 0;
        let mut out = Vec::new();
        let rejected = cmd_admit(&manifest, &mut out).unwrap();
        assert_eq!(rejected, 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("REJECT"));
        assert!(text.contains("fix: retention >= 2"));
        assert!(text.contains("suppressed (Prop 1)"));
        assert!(text.contains("replication=required"));
    }

    #[test]
    fn detector_promotes_backup_over_tcp() {
        let manifest = Manifest::table2();
        let primary = cmd_broker(
            &manifest,
            "127.0.0.1:0",
            BrokerRole::Primary,
            BrokerConfig::frame(),
            None,
            None,
        )
        .unwrap();
        let backup = cmd_broker(
            &manifest,
            "127.0.0.1:0",
            BrokerRole::Backup,
            BrokerConfig::frame(),
            None,
            None,
        )
        .unwrap();
        let p_addr = primary.server.local_addr();
        let b_addr = backup.server.local_addr();
        let stop: StopFlag = Arc::new(AtomicBool::new(false));

        // Kill the primary immediately; the detector should notice within a
        // few polls and promote the backup.
        primary.broker.kill();
        let promoted = cmd_detector(
            p_addr,
            b_addr,
            std::time::Duration::from_millis(20),
            std::time::Duration::from_millis(80),
            &stop,
        )
        .unwrap();
        assert_eq!(promoted, Some(0), "empty backup buffer: 0 recoveries");
        assert_eq!(backup.broker.role(), BrokerRole::Primary);
        primary.shutdown();
        backup.shutdown();
    }

    #[test]
    fn end_to_end_broker_publish_subscribe() {
        let manifest = Manifest::table2();
        let broker = cmd_broker(
            &manifest,
            "127.0.0.1:0",
            BrokerRole::Primary,
            BrokerConfig::frame(),
            None,
            None,
        )
        .unwrap();
        let addr = broker.server.local_addr();

        // Subscriber for topic 0's subscriber id 0.
        let stop: StopFlag = Arc::new(AtomicBool::new(false));
        let stop_sub = stop.clone();
        let sub_thread = std::thread::spawn(move || {
            let mut sink = Vec::new();
            cmd_subscribe(addr, 0, 3, &stop_sub, &mut sink).map(|n| (n, sink))
        });
        std::thread::sleep(std::time::Duration::from_millis(100));

        // Publish a few rounds (topic 0 has the smallest 50 ms period).
        let sent = cmd_publish(&manifest, addr, 0, 5, &stop).unwrap();
        assert!(sent >= 5, "sent {sent}");

        let (received, sink) = sub_thread.join().unwrap().unwrap();
        assert_eq!(received, 3);
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("topic-0 #0"));

        // The stats subcommand sees the traffic we just pushed, in every
        // output format.
        let mut pretty = Vec::new();
        cmd_stats(addr, "pretty", &mut pretty).unwrap();
        let pretty = String::from_utf8(pretty).unwrap();
        assert!(pretty.contains("dispatch_exec"));
        assert!(pretty.contains("p99"));
        let mut json = Vec::new();
        cmd_stats(addr, "json", &mut json).unwrap();
        let snapshot =
            frame_telemetry::from_json(std::str::from_utf8(&json).unwrap().trim()).unwrap();
        assert!(snapshot.decision_count(frame_telemetry::DecisionKind::Dispatch) >= 3);
        let mut prom = Vec::new();
        cmd_stats(addr, "prometheus", &mut prom).unwrap();
        assert!(String::from_utf8(prom)
            .unwrap()
            .contains("frame_decisions_total{kind=\"dispatch\"}"));
        assert!(cmd_stats(addr, "xml", &mut Vec::new()).is_err());
        // SLO accounting rides along in the same snapshot.
        let slo = snapshot
            .slo(frame_types::TopicId(0))
            .expect("topic 0 has an SLO entry");
        assert!(slo.delivered >= 3, "SLO saw {} deliveries", slo.delivered);

        // The trace subcommand renders span timelines for the same traffic.
        let mut pretty = Vec::new();
        cmd_trace(TraceSource::Addr(addr), "pretty", 3, None, &mut pretty).unwrap();
        let pretty = String::from_utf8(pretty).unwrap();
        assert!(pretty.contains("spans retained"), "got: {pretty}");
        let mut one = Vec::new();
        cmd_trace(TraceSource::Addr(addr), "pretty", 3, Some((0, 0)), &mut one).unwrap();
        let one = String::from_utf8(one).unwrap();
        assert!(one.contains("deliver_send"), "got: {one}");
        let mut json = Vec::new();
        cmd_trace(TraceSource::Addr(addr), "json", 3, None, &mut json).unwrap();
        let flight =
            frame_telemetry::flight_from_json(std::str::from_utf8(&json).unwrap().trim()).unwrap();
        assert!(flight
            .find(frame_types::TopicId(0), frame_types::SeqNo(0))
            .is_some());
        assert!(cmd_trace(TraceSource::Addr(addr), "xml", 3, None, &mut Vec::new()).is_err());

        stop.store(true, Ordering::Release);
        broker.shutdown();
    }

    #[test]
    fn top_once_renders_rates_watermarks_and_health() {
        let manifest = Manifest::table2();
        let broker = cmd_broker(
            &manifest,
            "127.0.0.1:0",
            BrokerRole::Primary,
            BrokerConfig::frame(),
            None,
            Some("127.0.0.1:0"),
        )
        .unwrap();
        let addr = broker.server.local_addr();
        let obs_addr = broker.obs.as_ref().unwrap().1.local_addr();
        assert_ne!(obs_addr.port(), 0, "--obs bound a real port");
        let stop: StopFlag = Arc::new(AtomicBool::new(false));

        // Traffic published *between* top's two snapshots shows up as a
        // non-zero deliver rate in the rendered screen.
        let stop_pub = stop.clone();
        let m = manifest.clone();
        let publisher = std::thread::spawn(move || cmd_publish(&m, addr, 0, 5, &stop_pub));
        let mut sink = Vec::new();
        cmd_top(
            addr,
            std::time::Duration::from_millis(400),
            1,
            false,
            &stop,
            &mut sink,
        )
        .unwrap();
        publisher.join().unwrap().unwrap();
        let screen = String::from_utf8(sink).unwrap();
        assert!(screen.contains("health HEALTHY"), "got: {screen}");
        assert!(screen.contains("rates/s"), "got: {screen}");
        assert!(screen.contains("queues"), "got: {screen}");
        let rates = screen
            .lines()
            .find(|l| l.starts_with("rates/s"))
            .expect("rates line");
        let tokens: Vec<&str> = rates.split_whitespace().collect();
        let deliver_rate: f64 = tokens
            .iter()
            .position(|&t| t == "deliver")
            .and_then(|i| tokens.get(i + 1))
            .expect("deliver rate column")
            .parse()
            .expect("deliver rate is a number");
        assert!(
            deliver_rate > 0.0,
            "deliver rate must be non-zero while publishing: {screen}"
        );

        // Live mode repaints in place: one full clear up front, then
        // home-cursor + erase-to-eol repaints (no second \x1b[2J flicker).
        let mut sink = Vec::new();
        cmd_top(
            addr,
            std::time::Duration::from_millis(50),
            2,
            true,
            &stop,
            &mut sink,
        )
        .unwrap();
        let live = String::from_utf8(sink).unwrap();
        assert_eq!(live.matches("\x1b[2J").count(), 1, "one full clear only");
        assert_eq!(live.matches("\x1b[H").count(), 2, "homed per render");
        assert!(live.contains("\x1b[K"), "lines erased to end-of-line");
        assert!(live.ends_with("\x1b[J"), "tail erased below the screen");

        // stats --watch shares the loop: two renders, cleared in between.
        let mut sink = Vec::new();
        cmd_stats_watch(
            addr,
            "pretty",
            std::time::Duration::from_millis(50),
            2,
            &stop,
            &mut sink,
        )
        .unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert_eq!(text.matches("dispatch_exec").count(), 2, "two renders");
        assert!(text.contains("\x1b[2J"), "screen cleared between renders");

        stop.store(true, Ordering::Release);
        broker.shutdown();
    }

    #[test]
    fn chaos_out_writes_metrics_timeline_alongside_incidents() {
        let dir = std::env::temp_dir().join(format!("frame-chaos-cli-{}", std::process::id()));
        let plan_path = dir.join("plan.toml");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &plan_path,
            r#"
            messages = 3
            pace_ms = 5

            [[topics]]
            id = 1
            period_ms = 30
            deadline_ms = 200
            loss_tolerance = 0
            retention = 4
            subscribers = [1]
        "#,
        )
        .unwrap();
        let mut out = Vec::new();
        let code = cmd_chaos(&plan_path, 1, Some(&dir), &mut out).unwrap();
        assert_eq!(code, 0, "{}", String::from_utf8_lossy(&out));
        let metrics = std::fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
        assert!(!metrics.is_empty());
        for line in metrics.lines() {
            let point = serde_json::parse_value(line).expect("timeline line parses");
            assert!(point.get("t_ms").is_some(), "line: {line}");
            assert!(point.get("health").is_some(), "line: {line}");
        }
        assert!(dir.join("incidents.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
