//! System wiring: a Primary/Backup broker pair, publishers with retention,
//! subscribers, and a failure-detection/fail-over coordinator — the
//! threaded equivalent of the paper's testbed topology (Fig 6).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver};
use frame_clock::{Clock, MonotonicClock};
use frame_core::{
    admit, BrokerConfig, BrokerRole, OverloadConfig, PollingDetector, PrimaryStatus, Publisher,
};
use frame_obs::{spawn_sampler, ObsSampler, ObsServer, SamplerConfig};
use frame_store::FlightDump;
use frame_telemetry::{HeartbeatKind, IncidentKind, Stage, Telemetry, TelemetrySnapshot};
use frame_types::{
    BrokerId, Duration, FrameError, Message, NetworkParams, PublisherId, SeqNo, SubscriberId,
    TopicId, TopicSpec,
};
use parking_lot::Mutex;

use crate::broker_rt::{Delivered, RtBroker};
use crate::fault::{fate_of, FaultHook, Hop, SharedFaultHook};
use crate::reactor::ReactorServer;

/// A publisher with retention and fail-over re-send, bound to the broker
/// pair.
pub struct RtPublisher {
    core: Mutex<Publisher>,
    primary: RtBroker,
    backup: RtBroker,
    clock: Arc<dyn Clock>,
    hook: SharedFaultHook,
}

impl RtPublisher {
    /// Sends `msg` through the publisher→Primary fault hook: dropped
    /// frames vanish (the message stays retained, exactly like a lost
    /// packet), delayed frames leave from a timer thread, duplicates are
    /// repeated, truncation cuts the payload. Admission runs on the
    /// sending thread.
    fn send_through_hook(&self, target: &RtBroker, mut message: Message, resend: bool) {
        let send = move |target: &RtBroker, m: Message| {
            if resend {
                target.resend(m);
            } else {
                target.publish(m);
            }
        };
        let fate = fate_of(
            &self.hook,
            Hop::PublisherToPrimary,
            message.topic,
            message.seq,
        );
        if fate.copies == 0 {
            return;
        }
        if let Some(n) = fate.truncate_to {
            message.payload.truncate(n);
        }
        match fate.delay {
            None => {
                for _ in 1..fate.copies {
                    send(target, message.clone());
                }
                send(target, message);
            }
            Some(delay) => {
                let target = target.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    for _ in 0..fate.copies {
                        send(&target, message.clone());
                    }
                });
            }
        }
    }

    /// Publishes the next message of `topic`.
    ///
    /// Sending to a crashed broker behaves like a dropped network packet:
    /// the call still succeeds (the message is retained for fail-over
    /// re-send), and the publisher learns about the crash through the
    /// failure detector, exactly as in the paper's model.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::UnknownTopic`] if the topic was not registered
    /// with this publisher.
    pub fn publish(&self, topic: TopicId, payload: impl Into<Bytes>) -> Result<(), FrameError> {
        let now = self.clock.now();
        let mut core = self.core.lock();
        let message = core.publish(topic, now, payload)?;
        let target = match core.target() {
            frame_core::PublishTarget::Primary => &self.primary,
            frame_core::PublishTarget::Backup => &self.backup,
        };
        self.send_through_hook(target, message, false);
        Ok(())
    }

    /// Redirects to the Backup and re-sends every retained message
    /// (idempotent). Re-sends cross the same publisher→Primary hop (the
    /// Backup *is* the new Primary), so scripted faults apply to them too.
    /// The publisher lock is held until every re-send is admitted, so a
    /// concurrent `publish` cannot overtake them at the new Primary.
    pub fn fail_over(&self) {
        let mut core = self.core.lock();
        for m in core.fail_over() {
            self.send_through_hook(&self.backup, m, true);
        }
    }

    /// Messages currently retained for `topic` (oldest first).
    pub fn retained(&self, topic: TopicId) -> Vec<Message> {
        self.core.lock().retained(topic)
    }
}

/// A running FRAME deployment: Primary + Backup brokers, publishers,
/// subscriber channels, and (optionally) a fail-over coordinator.
pub struct RtSystem {
    /// The Primary broker handle.
    pub primary: RtBroker,
    /// The Backup broker handle.
    pub backup: RtBroker,
    clock: Arc<dyn Clock>,
    net: NetworkParams,
    publishers: Vec<Arc<RtPublisher>>,
    detector: Option<JoinHandle<()>>,
    telemetry: Telemetry,
    flight_sink: Option<FlightSink>,
    obs_sampler: Option<ObsSampler>,
    obs_server: Option<ObsServer>,
    ingress_server: Option<ReactorServer>,
    overload_ticker: Option<OverloadTicker>,
    hook: SharedFaultHook,
}

/// The background thread driving the Primary's overload-control loop.
struct OverloadTicker {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

/// Spawns the control-loop thread: one [`RtBroker::control_tick`] per
/// `tick_interval`, until stopped.
fn spawn_overload_ticker(primary: RtBroker, tick: Duration) -> OverloadTicker {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::Builder::new()
        .name("frame-overload".into())
        .spawn(move || {
            frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Other, 0);
            while !stop2.load(Ordering::Acquire) {
                std::thread::sleep(tick.to_std());
                primary.control_tick();
            }
        })
        .expect("spawn overload ticker");
    OverloadTicker { stop, thread }
}

/// The background thread persisting flight-recorder snapshots on incident.
struct FlightSink {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
    path: std::path::PathBuf,
}

/// Spawns the watcher thread that appends a [`frame_telemetry::FlightSnapshot`]
/// JSONL line to `<dir>/flight.jsonl` whenever a new incident is recorded.
fn spawn_flight_sink(telemetry: Telemetry, dir: &std::path::Path) -> std::io::Result<FlightSink> {
    let dump = FlightDump::create(dir)?;
    let path = dump.path().to_path_buf();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::Builder::new()
        .name("frame-flight-sink".into())
        .spawn(move || {
            frame_telemetry::register_thread_role(frame_telemetry::RoleKind::FlightSink, 0);
            let mut dumped = 0u64;
            let mut iters = 0u32;
            loop {
                iters = iters.wrapping_add(1);
                if iters.is_multiple_of(64) {
                    frame_telemetry::stamp_thread_cpu();
                }
                let stopping = stop2.load(Ordering::Acquire);
                let count = telemetry.incident_count();
                if count > dumped {
                    dumped = count;
                    if let Err(e) = dump.append(&telemetry.flight_snapshot()) {
                        eprintln!("frame-rt: flight dump append failed: {e}");
                    }
                }
                if stopping {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        })?;
    Ok(FlightSink { stop, thread, path })
}

/// Configures and starts an [`RtSystem`]: broker pair, telemetry, optional flight-recorder dump sink, and optional scripted
/// fault injection.
///
/// ```no_run
/// use frame_core::BrokerConfig;
/// use frame_rt::RtSystem;
///
/// let sys = RtSystem::builder(BrokerConfig::frame())
///     .flight_dump("/tmp/frame-dump")
///     .start()
///     .expect("system starts");
/// # drop(sys);
/// ```
#[must_use = "a builder does nothing until `start()` is called"]
pub struct RtSystemBuilder {
    config: BrokerConfig,
    net: NetworkParams,
    telemetry: Telemetry,
    flight_dump: Option<std::path::PathBuf>,
    clock: Option<Arc<dyn Clock>>,
    obs: Option<String>,
    sampler: SamplerConfig,
    listen: Option<String>,
    overload: Option<(OverloadConfig, bool)>,
    hook: SharedFaultHook,
}

impl RtSystemBuilder {
    /// Attach an adaptive overload controller to the Primary and spawn
    /// the control-loop thread ticking it every
    /// [`OverloadConfig::tick_interval`]. Under pressure the controller
    /// climbs the degradation ladder: suppress Proposition-1-optional
    /// replication, shed within each topic's `L_i` bound, evict
    /// best-effort topics — and walks back down as pressure clears.
    pub fn overload(mut self, config: OverloadConfig) -> Self {
        self.overload = Some((config, true));
        self
    }

    /// Attach the overload controller without spawning the tick thread:
    /// the embedding drives [`RtBroker::control_tick_at`] itself. This is
    /// how the chaos harness keeps control decisions on the logical
    /// clock (deterministic replays).
    pub fn overload_manual(mut self, config: OverloadConfig) -> Self {
        self.overload = Some((config, false));
        self
    }

    /// Network bounds used by the admission test (default
    /// [`NetworkParams::paper_example`]).
    pub fn net(mut self, net: NetworkParams) -> Self {
        self.net = net;
        self
    }

    /// Telemetry registry shared by both brokers (default a fresh enabled
    /// registry; pass [`Telemetry::disabled`] to turn observability off).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Persist flight-recorder snapshots to `<dir>/flight.jsonl` whenever
    /// an incident is recorded (see [`RtSystem::flight_dump_path`]).
    pub fn flight_dump(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.flight_dump = Some(dir.into());
        self
    }

    /// Install a scripted fault hook (the `frame-chaos` injector) on the
    /// publisher→Primary, Primary→Backup and broker→subscriber hops, before
    /// each job, and on the failure detector.
    pub fn chaos(mut self, hook: Arc<dyn FaultHook>) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Clock shared by every component (default [`MonotonicClock`]). The
    /// chaos harness injects a [`frame_clock::SimClock`] here so sampled
    /// timestamps come from logical time.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Serve the observability endpoint (`/metrics`, `/healthz`,
    /// `/series`) on `addr` (e.g. `"127.0.0.1:9464"`, or port `0` to let
    /// the OS pick — read it back with [`RtSystem::obs_addr`]), and start
    /// the background metrics sampler feeding it.
    pub fn obs(mut self, addr: impl Into<String>) -> Self {
        self.obs = Some(addr.into());
        self
    }

    /// Sampler cadence, ring sizing and health thresholds used by the
    /// observability endpoint (default [`SamplerConfig::default`]).
    pub fn sampler_config(mut self, sampler: SamplerConfig) -> Self {
        self.sampler = sampler;
        self
    }

    /// Serve the Primary broker's wire protocol on `addr` (e.g.
    /// `"127.0.0.1:0"`; read the bound port back with
    /// [`RtSystem::ingress_addr`]) through a [`ReactorServer`].
    pub fn listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = Some(addr.into());
        self
    }

    /// Starts the broker pair and (if configured) the flight-dump sink,
    /// metrics sampler and observability endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Store`] when the flight-dump directory cannot
    /// be created or the observability endpoint cannot bind its address.
    pub fn start(self) -> Result<RtSystem, FrameError> {
        let RtSystemBuilder {
            config,
            net,
            telemetry,
            flight_dump,
            clock,
            obs,
            sampler,
            listen,
            overload,
            hook,
        } = self;
        let clock: Arc<dyn Clock> = clock.unwrap_or_else(|| Arc::new(MonotonicClock::new()));
        let primary = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            config,
            clock.clone(),
            telemetry.clone(),
            hook.clone(),
        );
        let backup = RtBroker::spawn(
            BrokerId(1),
            BrokerRole::Backup,
            config,
            clock.clone(),
            telemetry.clone(),
            hook.clone(),
        );
        let sink = backup.clone();
        primary.connect_backup(Arc::new(move |effects| sink.apply_backup(effects)));
        let flight_sink = match flight_dump {
            None => None,
            Some(dir) => {
                Some(spawn_flight_sink(telemetry.clone(), &dir).map_err(FrameError::store)?)
            }
        };
        let (obs_sampler, obs_server) = match obs {
            None => (None, None),
            Some(addr) => {
                let obs_sampler = spawn_sampler(telemetry.clone(), clock.clone(), sampler);
                let server =
                    ObsServer::bind(addr.as_str(), telemetry.clone(), obs_sampler.shared())
                        .map_err(FrameError::store)?;
                (Some(obs_sampler), Some(server))
            }
        };
        let ingress_server = match listen {
            None => None,
            Some(addr) => Some(ReactorServer::bind(addr.as_str(), primary.clone())?),
        };
        let overload_ticker = match overload {
            None => None,
            Some((config, auto)) => {
                let tick = config.tick_interval;
                primary.set_overload(config);
                auto.then(|| spawn_overload_ticker(primary.clone(), tick))
            }
        };
        Ok(RtSystem {
            primary,
            backup,
            clock,
            net,
            publishers: Vec::new(),
            detector: None,
            telemetry,
            flight_sink,
            obs_sampler,
            obs_server,
            ingress_server,
            overload_ticker,
            hook,
        })
    }
}

impl RtSystem {
    /// Starts configuring a system running `config` on both brokers; see
    /// [`RtSystemBuilder`] for the knobs and defaults.
    pub fn builder(config: BrokerConfig) -> RtSystemBuilder {
        RtSystemBuilder {
            config,
            net: NetworkParams::paper_example(),
            telemetry: Telemetry::new(),
            flight_dump: None,
            clock: None,
            obs: None,
            sampler: SamplerConfig::default(),
            listen: None,
            overload: None,
            hook: None,
        }
    }

    /// The network bounds the system admits topics against.
    pub fn net(&self) -> NetworkParams {
        self.net
    }

    /// Whether a scripted fault hook is installed.
    pub fn has_chaos_hook(&self) -> bool {
        self.hook.is_some()
    }

    /// The telemetry registry shared by both brokers and the fail-over
    /// coordinator.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The active flight-dump file, if [`RtSystemBuilder::flight_dump`]
    /// was configured.
    pub fn flight_dump_path(&self) -> Option<&std::path::Path> {
        self.flight_sink.as_ref().map(|s| s.path.as_path())
    }

    /// The bound observability endpoint address, if
    /// [`RtSystemBuilder::obs`] was configured (useful with port 0).
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs_server.as_ref().map(ObsServer::local_addr)
    }

    /// The bound TCP ingress address, if [`RtSystemBuilder::listen`] was
    /// configured (useful with port 0).
    pub fn ingress_addr(&self) -> Option<std::net::SocketAddr> {
        self.ingress_server.as_ref().map(ReactorServer::local_addr)
    }

    /// The shared metrics sampler behind the observability endpoint, if
    /// one is running.
    pub fn obs_sampler(&self) -> Option<frame_obs::SharedSampler> {
        self.obs_sampler.as_ref().map(ObsSampler::shared)
    }

    /// A consistent point-in-time view of every stage histogram, per-topic
    /// latency, Table-3 decision counter, and the retained decision trace —
    /// taken without stopping the brokers.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Renders the current snapshot in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        frame_telemetry::render_prometheus(&self.snapshot())
    }

    /// Renders the current snapshot as compact JSON.
    pub fn render_json(&self) -> String {
        frame_telemetry::to_json(&self.snapshot())
    }

    /// The runtime clock shared by every component.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// Admits `spec` on both brokers and registers its subscribers.
    ///
    /// # Errors
    ///
    /// Fails the paper's admission test, or duplicates.
    pub fn add_topic(
        &self,
        spec: TopicSpec,
        subscribers: Vec<SubscriberId>,
    ) -> Result<(), FrameError> {
        let admitted = match admit(&spec, &self.net) {
            Ok(a) => a,
            Err(e) => {
                self.telemetry.incident(
                    IncidentKind::AdmissionReject,
                    spec.id,
                    SeqNo(0),
                    self.clock.now(),
                    format!("admission rejected: {e}"),
                );
                return Err(e);
            }
        };
        self.primary.register_topic(admitted, subscribers.clone())?;
        self.backup.register_topic(admitted, subscribers)?;
        Ok(())
    }

    /// Creates a publisher proxy for the given topics (with their retention
    /// depths taken from the specs registered via [`RtSystem::add_topic`]).
    ///
    /// # Errors
    ///
    /// Returns an error on duplicate topics within the publisher.
    pub fn add_publisher(
        &mut self,
        id: PublisherId,
        topics: &[TopicSpec],
    ) -> Result<Arc<RtPublisher>, FrameError> {
        let mut core = Publisher::new(id);
        for spec in topics {
            core.register_topic(spec.id, spec.retention)?;
        }
        let p = Arc::new(RtPublisher {
            core: Mutex::new(core),
            primary: self.primary.clone(),
            backup: self.backup.clone(),
            clock: self.clock.clone(),
            hook: self.hook.clone(),
        });
        self.publishers.push(p.clone());
        Ok(p)
    }

    /// Connects a subscriber to both brokers and returns its delivery
    /// channel.
    pub fn subscribe(&self, id: SubscriberId) -> Receiver<Delivered> {
        let (tx, rx) = unbounded();
        self.primary.connect_subscriber(id, tx.clone(), None);
        self.backup.connect_subscriber(id, tx, None);
        rx
    }

    /// Starts the fail-over coordinator: a detector thread that polls the
    /// Primary every `interval`, declares it crashed after `timeout`
    /// without an acknowledgement, then promotes the Backup and triggers
    /// every publisher's retention re-send.
    pub fn start_failover_coordinator(&mut self, interval: Duration, timeout: Duration) {
        let primary = self.primary.clone();
        let backup = self.backup.clone();
        let publishers = self.publishers.clone();
        let clock = self.clock.clone();
        let telemetry = self.telemetry.clone();
        let hook = self.hook.clone();
        let handle = std::thread::Builder::new()
            .name("frame-detector".into())
            .spawn(move || {
                frame_telemetry::register_thread_role(frame_telemetry::RoleKind::Detector, 0);
                let mut detector = PollingDetector::new(interval, timeout, clock.now());
                loop {
                    frame_telemetry::stamp_thread_cpu();
                    if let Some(h) = hook.as_deref() {
                        if let Some(stall) = h.on_detector_poll() {
                            // Scripted detector stall: stretches the
                            // realized fail-over time x.
                            std::thread::sleep(stall);
                        }
                    }
                    telemetry.heartbeat(HeartbeatKind::Detector, clock.now());
                    detector.on_poll_sent(clock.now());
                    if primary.is_alive() {
                        let acked = clock.now();
                        telemetry.heartbeat(HeartbeatKind::PrimaryAck, acked);
                        detector.on_ack(acked);
                    }
                    let now = clock.now();
                    if detector.status(now) == PrimaryStatus::Crashed {
                        // Realized detection latency: last sign of life →
                        // crash declared (paper §IV-A, part of fail-over x).
                        telemetry
                            .record_stage(Stage::FailoverDetection, detector.since_last_ack(now));
                        // Fail-over: promote, then publishers re-send.
                        let promote_started = clock.now();
                        let _ = backup.promote();
                        telemetry.record_stage(
                            Stage::Promotion,
                            clock.now().saturating_since(promote_started),
                        );
                        for p in &publishers {
                            p.fail_over();
                        }
                        return;
                    }
                    std::thread::sleep(interval.to_std());
                }
            })
            .expect("spawn detector");
        self.detector = Some(handle);
    }

    /// One liveness poll of the Primary: `true` while it is alive. This is
    /// the failure detector's probe as a synchronous call, for harnesses
    /// that drive detection on a logical clock instead of the wall-clock
    /// coordinator thread.
    pub fn poll_primary(&self) -> bool {
        self.primary.is_alive()
    }

    /// Injects a Primary crash (the paper's SIGKILL).
    pub fn crash_primary(&self) {
        self.primary.kill();
    }

    /// Stops every component and joins all threads.
    pub fn shutdown(mut self) {
        if let Some(server) = self.ingress_server.take() {
            server.shutdown();
        }
        if let Some(ticker) = self.overload_ticker.take() {
            ticker.stop.store(true, Ordering::Release);
            let _ = ticker.thread.join();
        }
        self.primary.kill();
        self.backup.kill();
        if let Some(d) = self.detector.take() {
            let _ = d.join();
        }
        if let Some(mut server) = self.obs_server.take() {
            server.shutdown();
        }
        if let Some(mut sampler) = self.obs_sampler.take() {
            sampler.shutdown();
        }
        if let Some(sink) = self.flight_sink.take() {
            sink.stop.store(true, Ordering::Release);
            let _ = sink.thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frame_types::SeqNo;
    use std::time::Duration as StdDuration;

    #[test]
    fn builder_defaults_and_knobs_are_observable() {
        // Every construction path goes through the builder; prove the
        // defaults and each knob land in the running system.
        let built = RtSystem::builder(BrokerConfig::frame()).start().unwrap();
        assert_eq!(built.net(), NetworkParams::paper_example());
        assert!(!built.has_chaos_hook());
        assert!(built.telemetry().is_enabled());
        assert_eq!(built.flight_dump_path(), None);
        assert_eq!(built.obs_addr(), None);
        assert_eq!(built.primary.id(), BrokerId(0));
        assert_eq!(built.backup.role(), BrokerRole::Backup);

        let custom_net = NetworkParams {
            delta_bs_cloud: Duration::from_millis(35),
            ..NetworkParams::paper_example()
        };
        let built2 = RtSystem::builder(BrokerConfig::fcfs())
            .net(custom_net)
            .start()
            .unwrap();
        assert_eq!(built2.net(), custom_net);

        let built3 = RtSystem::builder(BrokerConfig::frame())
            .net(custom_net)
            .telemetry(Telemetry::disabled())
            .start()
            .unwrap();
        assert!(!built3.telemetry().is_enabled());

        for sys in [built, built2, built3] {
            sys.shutdown();
        }
    }

    #[test]
    fn builder_obs_endpoint_serves_metrics_and_health() {
        use std::io::{Read as _, Write as _};

        let sys = RtSystem::builder(BrokerConfig::frame())
            .obs("127.0.0.1:0")
            .start()
            .unwrap();
        let addr = sys.obs_addr().expect("obs endpoint bound");
        assert!(sys.obs_sampler().is_some());

        let fetch = |path: &str| {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut raw = String::new();
            stream.read_to_string(&mut raw).unwrap();
            raw
        };
        let metrics = fetch("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"));
        assert!(metrics.contains("frame_health_status"));
        let health = fetch("/healthz");
        assert!(health.starts_with("HTTP/1.1 200"));
        assert!(health.contains("\"status\""));
        sys.shutdown();
    }

    #[test]
    fn builder_flight_dump_maps_io_failure_to_store_error() {
        // A file where the dump directory should be → Store error.
        let dir = std::env::temp_dir().join(format!("frame-builder-dump-{}", std::process::id()));
        std::fs::write(&dir, b"not a directory").unwrap();
        let err = match RtSystem::builder(BrokerConfig::frame())
            .flight_dump(&dir)
            .start()
        {
            Err(e) => e,
            Ok(sys) => {
                sys.shutdown();
                panic!("flight dump into a plain file should fail");
            }
        };
        assert!(matches!(err, FrameError::Store(_)), "got {err:?}");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn end_to_end_publish_subscribe() {
        let mut sys = RtSystem::builder(BrokerConfig::frame()).start().unwrap();
        let spec = TopicSpec::category(0, TopicId(1));
        sys.add_topic(spec, vec![SubscriberId(1)]).unwrap();
        let publisher = sys.add_publisher(PublisherId(0), &[spec]).unwrap();
        let rx = sys.subscribe(SubscriberId(1));

        for _ in 0..20 {
            publisher
                .publish(TopicId(1), &b"0123456789abcdef"[..])
                .unwrap();
        }
        for seq in 0..20 {
            let d = rx
                .recv_timeout(StdDuration::from_secs(2))
                .expect("delivery");
            assert_eq!(d.message.seq, SeqNo(seq));
        }
        sys.shutdown();
    }

    #[test]
    fn failover_recovers_retained_messages() {
        let mut sys = RtSystem::builder(BrokerConfig::frame()).start().unwrap();
        // Category 0: zero-loss via retention (N=2), no replication.
        let spec = TopicSpec::category(0, TopicId(1));
        sys.add_topic(spec, vec![SubscriberId(1)]).unwrap();
        let publisher = sys.add_publisher(PublisherId(0), &[spec]).unwrap();
        let rx = sys.subscribe(SubscriberId(1));
        sys.start_failover_coordinator(Duration::from_millis(5), Duration::from_millis(20));

        publisher.publish(TopicId(1), &b"a"[..]).unwrap();
        let d = rx.recv_timeout(StdDuration::from_secs(2)).unwrap();
        assert_eq!(d.message.seq, SeqNo(0));

        // Crash the primary, then keep publishing; messages published
        // before fail-over completes are retained and re-sent.
        sys.crash_primary();
        publisher.publish(TopicId(1), &b"b"[..]).unwrap(); // to dead primary
        std::thread::sleep(StdDuration::from_millis(120)); // detector fires
        publisher.publish(TopicId(1), &b"c"[..]).unwrap(); // to new primary

        // Collect distinct deliveries; dedupe (retention re-send can
        // duplicate seq 0).
        let mut seen = std::collections::BTreeSet::new();
        let deadline = std::time::Instant::now() + StdDuration::from_secs(3);
        while seen.len() < 3 && std::time::Instant::now() < deadline {
            if let Ok(d) = rx.recv_timeout(StdDuration::from_millis(200)) {
                seen.insert(d.message.seq.raw());
            }
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2],
            "zero message loss across fail-over"
        );
        assert_eq!(sys.backup.role(), BrokerRole::Primary);
        sys.shutdown();
    }

    #[test]
    fn admission_rejects_bad_specs_at_add_topic() {
        let sys = RtSystem::builder(BrokerConfig::frame()).start().unwrap();
        let mut spec = TopicSpec::category(0, TopicId(1));
        spec.retention = 0; // L=0 with no retention is inadmissible
        assert!(sys.add_topic(spec, vec![SubscriberId(1)]).is_err());
        sys.shutdown();
    }
}
