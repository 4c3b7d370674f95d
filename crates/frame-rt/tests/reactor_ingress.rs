//! The reactor ingress: its incremental decoder agrees with the blocking
//! client reader at every possible byte split, it answers the control
//! plane, goes silent when its broker dies, survives malformed frames and
//! closes on protocol violations — plus the fan-in it exists for (hundreds
//! of publisher connections on a handful of loops).

use std::io::Cursor;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration as StdDuration;

use frame_clock::{Clock, MonotonicClock};
use frame_core::{admit, BrokerConfig, BrokerRole};
use frame_rt::{
    read_frame, read_frame_checked, write_frame, Decoded, FrameDecoder, ReactorConfig,
    ReactorServer, RtBroker, RtSystem, TcpPublisher, TcpSubscriber, WireCodec, WireMsg,
    MAX_FRAME_LEN,
};
use frame_telemetry::Telemetry;
use frame_types::{
    BrokerId, Message, NetworkParams, PublisherId, SeqNo, SubscriberId, TopicId, TopicSpec,
};

fn msg(topic: u32, seq: u64, payload: &[u8]) -> Message {
    Message::new(
        TopicId(topic),
        PublisherId(7),
        SeqNo(seq),
        frame_types::Time::from_millis(seq),
        payload.to_vec(),
    )
}

/// Encodes a raw frame with an arbitrary body (well-formed or not).
fn raw_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Decodes a whole stream with the blocking reader, rendering each result
/// (`Debug`) so streams can be compared for exact equivalence.
fn blocking_outcomes(stream: &[u8]) -> Vec<String> {
    let mut cursor = Cursor::new(stream);
    let mut out = Vec::new();
    loop {
        match read_frame_checked(&mut cursor) {
            Ok(Decoded::Frame(m)) => out.push(format!("frame:{m:?}")),
            Ok(Decoded::Malformed(_)) => out.push("malformed".to_string()),
            Err(_) => return out, // EOF / truncation
        }
    }
}

/// Feeds `chunks` through an incremental decoder, rendering outcomes the
/// same way. Panics are the failure being hunted here.
fn incremental_outcomes(chunks: &[&[u8]]) -> (Vec<String>, FrameDecoder) {
    let mut decoder = FrameDecoder::new();
    let mut out = Vec::new();
    for chunk in chunks {
        let fed = decoder.feed(chunk, &mut |d| match d {
            Decoded::Frame(m) => out.push(format!("frame:{m:?}")),
            Decoded::Malformed(_) => out.push("malformed".to_string()),
        });
        if fed.is_err() {
            break;
        }
    }
    (out, decoder)
}

/// A deterministic xorshift so the random-split cases need no crate.
struct Rng(u64);
impl Rng {
    fn next(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound.max(1) as u64) as usize
    }
}

/// A mixed stream: data frames, zero-ish control frames, malformed
/// bodies, and large payloads up to a 16 KiB camera frame — everything
/// the wire can legitimately carry.
fn mixed_stream() -> Vec<u8> {
    let camera: Vec<u8> = (0..16 * 1024).map(|i| (i * 7 + i / 256) as u8).collect();
    let mut stream = Vec::new();
    for m in [
        WireMsg::Publish(msg(1, 0, b"0123456789abcdef")),
        WireMsg::Poll(42),
        WireMsg::Subscribe(SubscriberId(3)),
        WireMsg::Publish(msg(4, 0, &camera)),
        WireMsg::Resend(msg(2, 9, &[0xAB; 600])),
        WireMsg::Promote,
    ] {
        write_frame(&mut stream, &m).unwrap();
    }
    // Frame-aligned malformed bodies in the middle — a stale JSON peer's
    // and a truncated camera frame's: both decoders must report them and
    // keep going.
    stream.extend_from_slice(&raw_frame(b"{ not json !"));
    let mut cut = Vec::new();
    write_frame(&mut cut, &WireMsg::Deliver(msg(4, 1, &camera))).unwrap();
    stream.extend_from_slice(&raw_frame(&cut[4..cut.len() - 1]));
    write_frame(&mut stream, &WireMsg::Deliver(msg(4, 2, &camera))).unwrap();
    write_frame(&mut stream, &WireMsg::Publish(msg(3, 1, b"tail"))).unwrap();
    stream
}

#[test]
fn decoder_matches_blocking_reader_at_every_split() {
    let stream = mixed_stream();
    let expected = blocking_outcomes(&stream);
    assert_eq!(
        expected.iter().filter(|o| *o == "malformed").count(),
        2,
        "the fixture contains exactly two malformed frames"
    );

    // Byte at a time: the worst case for incremental state.
    let bytes: Vec<&[u8]> = stream.chunks(1).collect();
    let (got, decoder) = incremental_outcomes(&bytes);
    assert_eq!(
        got, expected,
        "byte-at-a-time must match the blocking reader"
    );
    assert!(!decoder.is_mid_frame(), "fixture ends on a frame boundary");

    // Every two-chunk split point.
    for split in 0..=stream.len() {
        let (a, b) = stream.split_at(split);
        let (got, _) = incremental_outcomes(&[a, b]);
        assert_eq!(
            got, expected,
            "split at byte {split} must not change outcomes"
        );
    }

    // Random multi-chunk splits.
    let mut rng = Rng(0x9E3779B97F4A7C15);
    for case in 0..200 {
        let mut chunks: Vec<&[u8]> = Vec::new();
        let mut rest: &[u8] = &stream;
        while !rest.is_empty() {
            let take = 1 + rng.next(rest.len());
            let (a, b) = rest.split_at(take);
            chunks.push(a);
            rest = b;
        }
        let (got, _) = incremental_outcomes(&chunks);
        assert_eq!(got, expected, "random split case {case} diverged");
    }
}

#[test]
fn decoder_reports_truncation_and_rejects_oversized_prefixes() {
    let mut first = Vec::new();
    write_frame(&mut first, &WireMsg::Poll(1)).unwrap();
    let mut stream = first.clone();
    write_frame(&mut stream, &WireMsg::Publish(msg(1, 0, b"xy"))).unwrap();
    let boundaries = [0, first.len(), stream.len()];

    // Every prefix that cuts a frame leaves the decoder mid-frame with
    // exactly the fully-received frames reported; prefixes ending on a
    // frame boundary leave it clean.
    for cut in 0..=stream.len() {
        let truncated = &stream[..cut];
        let expected = blocking_outcomes(truncated);
        let (got, decoder) = incremental_outcomes(&[truncated]);
        assert_eq!(got, expected, "truncation at {cut}");
        assert_eq!(
            decoder.is_mid_frame(),
            !boundaries.contains(&cut),
            "mid-frame tracking at cut {cut} (decoded {})",
            got.len()
        );
    }

    // An oversized length prefix is stream corruption for both decoders.
    let huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
    assert!(read_frame_checked(&mut Cursor::new(&huge[..])).is_err());
    let mut decoder = FrameDecoder::new();
    let fed = decoder.feed(&huge, &mut |_| panic!("no frame can complete"));
    assert!(fed.is_err(), "oversized prefix must be fatal");
}

/// Boots a broker pair of (reactor server, helper handles) for the wire
/// tests below.
fn reactor_broker() -> (ReactorServer, RtBroker, Telemetry) {
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let telemetry = Telemetry::new();
    let broker = RtBroker::spawn(
        BrokerId(0),
        BrokerRole::Primary,
        BrokerConfig::frame(),
        clock,
        telemetry.clone(),
        None,
    );
    let net = NetworkParams::paper_example();
    for t in 0..4u32 {
        let spec = TopicSpec::category(0, TopicId(t));
        broker
            .register_topic(admit(&spec, &net).unwrap(), vec![SubscriberId(1)])
            .unwrap();
    }
    let server = ReactorServer::bind("127.0.0.1:0", broker.clone()).expect("bind reactor");
    (server, broker, telemetry)
}

#[test]
fn reactor_serves_pubsub_and_control_plane() {
    let (server, broker, telemetry) = reactor_broker();
    let addr = server.local_addr();

    let subscriber = TcpSubscriber::connect(addr, SubscriberId(1)).expect("subscribe");
    // Subscribe races the first publish through two transports; settle it.
    std::thread::sleep(StdDuration::from_millis(50));
    let mut publisher = TcpPublisher::connect(addr).expect("connect");
    for seq in 0..32u64 {
        publisher
            .publish(msg(seq as u32 % 4, seq / 4, b"payload"))
            .unwrap();
    }
    let mut got = Vec::new();
    for _ in 0..32 {
        got.push(
            subscriber
                .deliveries()
                .recv_timeout(StdDuration::from_secs(5))
                .expect("delivery over reactor"),
        );
    }
    assert_eq!(got.len(), 32);

    // Control plane on a fresh connection: Stats and Trace answer with
    // parseable JSON; Promote acks.
    let mut control = TcpStream::connect(addr).unwrap();
    control
        .set_read_timeout(Some(StdDuration::from_secs(5)))
        .unwrap();
    write_frame(&mut control, &WireMsg::Stats).unwrap();
    match read_frame(&mut control).expect("stats answer") {
        WireMsg::StatsJson(json) => {
            let snap = frame_telemetry::from_json(&json).expect("snapshot parses");
            assert!(
                !snap.reactor_loops.is_empty(),
                "reactor gauges are in the served snapshot"
            );
            assert!(snap.reactor_loops.iter().any(|l| l.accepted > 0));
        }
        other => panic!("expected StatsJson, got {other:?}"),
    }
    write_frame(&mut control, &WireMsg::Trace).unwrap();
    match read_frame(&mut control).expect("trace answer") {
        WireMsg::TraceJson(json) => {
            frame_telemetry::flight_from_json(&json).expect("flight parses");
        }
        other => panic!("expected TraceJson, got {other:?}"),
    }
    write_frame(&mut control, &WireMsg::Promote).unwrap();
    match read_frame(&mut control).expect("promote answer") {
        WireMsg::Promoted(_) => {}
        other => panic!("expected Promoted, got {other:?}"),
    }

    // The per-loop gauges saw the traffic.
    let snap = telemetry.snapshot();
    let accepted: u64 = snap.reactor_loops.iter().map(|l| l.accepted).sum();
    assert!(accepted >= 3, "at least 3 accepts recorded, got {accepted}");

    server.shutdown();
    broker.shutdown();
}

#[test]
fn reactor_polls_ack_then_go_silent_after_kill() {
    let (server, broker, _telemetry) = reactor_broker();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_read_timeout(Some(StdDuration::from_secs(2)))
        .unwrap();

    write_frame(&mut conn, &WireMsg::Poll(11)).unwrap();
    match read_frame(&mut conn).expect("live broker acks") {
        WireMsg::PollAck(11) => {}
        other => panic!("expected PollAck(11), got {other:?}"),
    }

    broker.kill();
    std::thread::sleep(StdDuration::from_millis(100));
    // A poll to a dead broker gets no acknowledgement: either silence
    // until the read times out, or the reactor has already torn the
    // connection down — never an ack.
    let _ = write_frame(&mut conn, &WireMsg::Poll(12));
    match read_frame_checked(&mut conn) {
        Err(_) => {}
        Ok(frame) => panic!("dead broker must stay silent, got {frame:?}"),
    }

    server.shutdown();
    broker.shutdown();
}

#[test]
fn served_broker_beats_the_proxy_heartbeat_until_killed() {
    let (server, broker, telemetry) = reactor_broker();
    let beats = || {
        telemetry
            .snapshot()
            .heartbeat(frame_telemetry::HeartbeatKind::Proxy)
            .map_or(0, |h| h.beats)
    };
    // Idle loops still iterate (poller timeout), so the count climbs with
    // no traffic at all.
    let deadline = std::time::Instant::now() + StdDuration::from_secs(2);
    let first = beats();
    while beats() <= first {
        assert!(
            std::time::Instant::now() < deadline,
            "a live broker's reactor loops beat the proxy heartbeat"
        );
        std::thread::sleep(StdDuration::from_millis(5));
    }

    broker.kill();
    // Let any iteration that saw the broker alive finish, then the count
    // must stand still across several poller timeouts.
    std::thread::sleep(StdDuration::from_millis(100));
    let after_kill = beats();
    std::thread::sleep(StdDuration::from_millis(200));
    assert_eq!(beats(), after_kill, "a dead broker's loops stop beating");

    server.shutdown();
}

#[test]
fn reactor_survives_malformed_frames_and_closes_on_protocol_violation() {
    let (server, broker, _telemetry) = reactor_broker();
    let addr = server.local_addr();

    let subscriber = TcpSubscriber::connect(addr, SubscriberId(1)).expect("subscribe");
    std::thread::sleep(StdDuration::from_millis(50));

    // Malformed body, then a valid publish on the same connection: the
    // stream stays aligned and the publish is delivered.
    let mut conn = TcpStream::connect(addr).unwrap();
    use std::io::Write as _;
    conn.write_all(&raw_frame(b"\x00\x01 garbage")).unwrap();
    write_frame(&mut conn, &WireMsg::Publish(msg(0, 0, b"after-garbage"))).unwrap();
    let delivered = subscriber
        .deliveries()
        .recv_timeout(StdDuration::from_secs(5))
        .expect("delivery after malformed frame");
    assert_eq!(delivered.payload.as_ref(), b"after-garbage");

    // A server-to-client frame arriving at the server is a protocol
    // violation: the connection is dropped.
    conn.set_read_timeout(Some(StdDuration::from_secs(5)))
        .unwrap();
    write_frame(&mut conn, &WireMsg::Deliver(msg(0, 1, b"wrong-way"))).unwrap();
    assert!(
        read_frame_checked(&mut conn).is_err(),
        "protocol violation must close the connection"
    );

    server.shutdown();
    broker.shutdown();
}

#[test]
fn reactor_fans_in_hundreds_of_publisher_connections() {
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let telemetry = Telemetry::new();
    let broker = RtBroker::spawn(
        BrokerId(0),
        BrokerRole::Primary,
        BrokerConfig::frame(),
        clock,
        telemetry.clone(),
        None,
    );
    let net = NetworkParams::paper_example();
    for t in 0..4u32 {
        let spec = TopicSpec::category(0, TopicId(t));
        broker
            .register_topic(admit(&spec, &net).unwrap(), vec![SubscriberId(1)])
            .unwrap();
    }
    // A small read budget forces budget-exhaustion bookkeeping while every
    // message must still arrive; two loops exercise the cross-loop
    // accept hand-off.
    let server = ReactorServer::bind_with(
        "127.0.0.1:0",
        broker.clone(),
        ReactorConfig {
            loops: 2,
            read_budget: 256,
            ..ReactorConfig::default()
        },
    )
    .expect("bind tuned reactor");
    let addr = server.local_addr();

    let subscriber = TcpSubscriber::connect(addr, SubscriberId(1)).expect("subscribe");
    std::thread::sleep(StdDuration::from_millis(50));

    const CONNS: usize = 256;
    const PER_CONN: u64 = 2;
    let mut conns = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        conns.push(TcpStream::connect(addr).unwrap());
    }
    let mut codec = WireCodec::new();
    for round in 0..PER_CONN {
        for (i, conn) in conns.iter_mut().enumerate() {
            // seq unique per topic: connections sharing a topic differ in
            // i / 4.
            let seq = (i as u64 / 4) * PER_CONN + round;
            codec
                .encode_into(conn, &WireMsg::Publish(msg(i as u32 % 4, seq, b"fan-in")))
                .unwrap();
        }
    }
    let expected = CONNS as u64 * PER_CONN;
    for n in 0..expected {
        subscriber
            .deliveries()
            .recv_timeout(StdDuration::from_secs(10))
            .unwrap_or_else(|e| panic!("delivery {n}/{expected}: {e}"));
    }

    let snap = telemetry.snapshot();
    let registered: u64 = snap.reactor_loops.iter().map(|l| l.registered_conns).sum();
    assert!(
        registered >= CONNS as u64,
        "gauges track live connections, saw {registered}"
    );

    server.shutdown();
    broker.shutdown();
}

#[test]
fn builder_listen_serves_the_primary() {
    let sys = RtSystem::builder(BrokerConfig::frame())
        .listen("127.0.0.1:0")
        .start()
        .expect("system with ingress starts");
    let addr = sys.ingress_addr().expect("ingress bound");
    let spec = TopicSpec::category(0, TopicId(1));
    sys.add_topic(spec, vec![SubscriberId(1)]).unwrap();

    let subscriber = TcpSubscriber::connect(addr, SubscriberId(1)).expect("subscribe");
    std::thread::sleep(StdDuration::from_millis(50));
    let mut publisher = TcpPublisher::connect(addr).expect("connect");
    publisher.publish(msg(1, 0, b"over-tcp")).unwrap();
    let delivered = subscriber
        .deliveries()
        .recv_timeout(StdDuration::from_secs(5))
        .expect("delivery through builder-configured ingress");
    assert_eq!(delivered.payload.as_ref(), b"over-tcp");
    sys.shutdown();
}

#[test]
fn stats_reply_fits_one_frame_at_a_thousand_topics() {
    // Every topic with traffic adds per-topic histograms and an SLO row to
    // the snapshot; the reply must still fit one frame and parse.
    const TOPICS: u32 = 1000;
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let broker = RtBroker::spawn(
        BrokerId(0),
        BrokerRole::Primary,
        BrokerConfig::frame(),
        clock,
        Telemetry::new(),
        None,
    );
    let net = NetworkParams::paper_example();
    for t in 0..TOPICS {
        let spec = TopicSpec::category(0, TopicId(t));
        broker
            .register_topic(admit(&spec, &net).unwrap(), vec![SubscriberId(1)])
            .unwrap();
    }
    let server = ReactorServer::bind("127.0.0.1:0", broker.clone()).expect("bind reactor");
    let addr = server.local_addr();
    let subscriber = TcpSubscriber::connect(addr, SubscriberId(1)).expect("subscribe");
    std::thread::sleep(StdDuration::from_millis(50));
    let mut publisher = TcpPublisher::connect(addr).expect("connect");
    for t in 0..TOPICS {
        publisher.publish(msg(t, 0, b"payload")).unwrap();
    }
    for n in 0..TOPICS {
        subscriber
            .deliveries()
            .recv_timeout(StdDuration::from_secs(10))
            .unwrap_or_else(|e| panic!("delivery {n}/{TOPICS}: {e}"));
    }

    let mut control = TcpStream::connect(addr).unwrap();
    control
        .set_read_timeout(Some(StdDuration::from_secs(30)))
        .unwrap();
    write_frame(&mut control, &WireMsg::Stats).unwrap();
    match read_frame(&mut control).expect("stats answer") {
        WireMsg::StatsJson(json) => {
            eprintln!("stats reply at {TOPICS} topics: {} bytes", json.len());
            assert!(json.len() < MAX_FRAME_LEN);
            let snap = frame_telemetry::from_json(&json).expect("snapshot parses");
            assert_eq!(snap.topics.len(), TOPICS as usize, "one row per topic");
        }
        other => panic!("expected StatsJson, got {other:?}"),
    }

    server.shutdown();
    broker.shutdown();
}
