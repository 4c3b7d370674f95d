//! TCP clients.
//!
//! In-process, publishers and the Backup call [`crate::RtBroker`]
//! directly; this module carries the same protocol over TCP so publishers
//! and subscribers can live in other processes or hosts — the shape of the
//! paper's seven-host testbed. The broker side of every connection, the
//! Primary→Backup link included, is [`crate::reactor::ReactorServer`];
//! this module holds the blocking [`TcpPublisher`] / [`TcpSubscriber`]
//! clients. Frames, and every reader and writer of them, belong to
//! [`frame_types::wire`]; this module only moves them over sockets.
//! Reliability and ordering come from TCP, matching the model's reliable
//! in-order interconnect assumption (§III-B).

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use frame_types::wire::{write_frame, Decoded, FrameDecoder, WireCodec, WireMsg};
use frame_types::{FrameError, Message, SubscriberId};

/// A TCP publisher connection.
pub struct TcpPublisher {
    stream: TcpStream,
    codec: WireCodec,
}

impl TcpPublisher {
    /// Connects to a broker server.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on connection failure.
    pub fn connect(addr: SocketAddr) -> Result<TcpPublisher, FrameError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::net)?;
        // Publishers send small periodic frames where latency is the whole
        // point (the paper's per-topic deadlines); never wait on Nagle.
        stream.set_nodelay(true).ok();
        Ok(TcpPublisher {
            stream,
            codec: WireCodec::new(),
        })
    }

    /// Sends a published message.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on socket failure.
    pub fn publish(&mut self, message: Message) -> Result<(), FrameError> {
        self.codec
            .encode_into(&mut self.stream, &WireMsg::Publish(message))
            .map_err(FrameError::net)
    }

    /// Sends a retention re-send.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on socket failure.
    pub fn resend(&mut self, message: Message) -> Result<(), FrameError> {
        self.codec
            .encode_into(&mut self.stream, &WireMsg::Resend(message))
            .map_err(FrameError::net)
    }
}

/// A TCP subscriber connection: deliveries stream into a channel.
pub struct TcpSubscriber {
    rx: Receiver<Message>,
    _thread: JoinHandle<()>,
}

impl TcpSubscriber {
    /// Connects and subscribes `id`; returns a handle whose
    /// [`TcpSubscriber::deliveries`] channel yields messages.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Net`] on connection failure.
    pub fn connect(addr: SocketAddr, id: SubscriberId) -> Result<TcpSubscriber, FrameError> {
        let mut stream = TcpStream::connect(addr).map_err(FrameError::net)?;
        stream.set_nodelay(true).ok();
        write_frame(&mut stream, &WireMsg::Subscribe(id)).map_err(FrameError::net)?;
        let (tx, rx): (Sender<Message>, Receiver<Message>) = unbounded();
        let thread = std::thread::Builder::new()
            .name("frame-tcp-subscriber".into())
            .spawn(move || subscriber_loop(stream, tx))
            .map_err(FrameError::net)?;
        Ok(TcpSubscriber {
            rx,
            _thread: thread,
        })
    }

    /// The delivery channel.
    pub fn deliveries(&self) -> &Receiver<Message> {
        &self.rx
    }
}

/// Bytes a subscriber asks for per `read`: a 16 KiB camera frame and its
/// header arrive in one call.
const SUBSCRIBER_READ_BUF: usize = 64 * 1024;

/// The subscriber's reader, on the same [`FrameDecoder`] as the reactor.
/// A malformed but frame-aligned body is dropped and the subscription
/// lives on; EOF, a socket error, an oversized length prefix or a
/// delivery to a dropped [`TcpSubscriber`] ends the thread.
fn subscriber_loop(mut stream: TcpStream, tx: Sender<Message>) {
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; SUBSCRIBER_READ_BUF];
    let mut open = true;
    while open {
        let got = stream.read(&mut buf);
        frame_telemetry::record_read_syscalls(1);
        let n = match got {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        let fed = decoder.feed(&buf[..n], &mut |decoded| match decoded {
            Decoded::Frame(WireMsg::Deliver(m)) => open &= tx.send(m).is_ok(),
            Decoded::Frame(_) => {}
            Decoded::Malformed(e) => {
                eprintln!("frame-rt/tcp: subscriber dropping malformed frame: {e}");
            }
        });
        if fed.is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker_rt::RtBroker;
    use crate::reactor::ReactorServer;
    use frame_clock::MonotonicClock;
    use frame_core::{admit, BrokerConfig, BrokerRole};
    use frame_telemetry::Telemetry;
    use frame_types::wire::read_frame;
    use frame_types::{BrokerId, NetworkParams, PublisherId, SeqNo, Time, TopicId, TopicSpec};
    use std::io::Write;
    use std::net::TcpListener;
    use std::sync::Arc;

    fn spawn_broker() -> (RtBroker, crate::broker_rt::RtBrokerThreads) {
        let clock: Arc<dyn frame_clock::Clock> = Arc::new(MonotonicClock::new());
        RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            2,
            clock,
            Telemetry::new(),
            None,
        )
    }

    #[test]
    fn tcp_publish_subscribe_roundtrip() {
        let (broker, threads) = spawn_broker();
        let spec = TopicSpec::category(0, TopicId(1));
        broker
            .register_topic(
                admit(&spec, &NetworkParams::paper_example()).unwrap(),
                vec![SubscriberId(1)],
            )
            .unwrap();
        let server = ReactorServer::bind("127.0.0.1:0", broker.clone()).unwrap();
        let addr = server.local_addr();

        let sub = TcpSubscriber::connect(addr, SubscriberId(1)).unwrap();
        // Give the Subscribe frame a moment to register.
        std::thread::sleep(std::time::Duration::from_millis(50));

        let mut publisher = TcpPublisher::connect(addr).unwrap();
        for seq in 0..5 {
            publisher
                .publish(Message::new(
                    TopicId(1),
                    PublisherId(0),
                    SeqNo(seq),
                    Time::from_millis(seq),
                    &b"0123456789abcdef"[..],
                ))
                .unwrap();
        }
        for seq in 0..5 {
            let m = sub
                .deliveries()
                .recv_timeout(std::time::Duration::from_secs(3))
                .expect("tcp delivery");
            assert_eq!(m.seq, SeqNo(seq));
            assert_eq!(m.payload.as_ref(), b"0123456789abcdef");
        }
        broker.shutdown();
        server.shutdown();
        threads.join();
    }

    #[test]
    fn distributed_pair_replicates_and_prunes_over_tcp() {
        // Primary and Backup in "separate processes" (separate reactor
        // servers over loopback TCP), category-2 topic (replication
        // required).
        let clock: Arc<dyn frame_clock::Clock> = Arc::new(MonotonicClock::new());
        let (primary, pt) = RtBroker::spawn(
            BrokerId(0),
            BrokerRole::Primary,
            BrokerConfig::frame(),
            2,
            clock.clone(),
            Telemetry::new(),
            None,
        );
        let (backup, bt) = RtBroker::spawn(
            BrokerId(1),
            BrokerRole::Backup,
            BrokerConfig::frame(),
            2,
            clock.clone(),
            Telemetry::new(),
            None,
        );
        let net = NetworkParams::paper_example();
        let spec = TopicSpec::category(2, TopicId(1));
        for b in [&primary, &backup] {
            b.register_topic(admit(&spec, &net).unwrap(), vec![SubscriberId(1)])
                .unwrap();
        }
        let backup_server = ReactorServer::bind("127.0.0.1:0", backup.clone()).unwrap();
        let primary_server = ReactorServer::bind("127.0.0.1:0", primary.clone()).unwrap();
        primary_server
            .connect_backup(backup_server.local_addr())
            .unwrap();

        let sub = TcpSubscriber::connect(primary_server.local_addr(), SubscriberId(1)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut publisher = TcpPublisher::connect(primary_server.local_addr()).unwrap();

        for seq in 0..5 {
            publisher
                .publish(Message::new(
                    TopicId(1),
                    PublisherId(0),
                    SeqNo(seq),
                    clock.now(),
                    &b"0123456789abcdef"[..],
                ))
                .unwrap();
        }
        for seq in 0..5 {
            let m = sub
                .deliveries()
                .recv_timeout(std::time::Duration::from_secs(3))
                .expect("delivery over tcp");
            assert_eq!(m.seq, SeqNo(seq));
        }
        // Replicas then prunes must have crossed the wire to the backup —
        // minus any replication the Primary legitimately suppressed or
        // cancelled because the dispatch won the Table-3 race (a timing
        // outcome, not a wire loss).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
        loop {
            let p = primary.stats();
            let skipped =
                p.replications_suppressed + p.replications_cancelled + p.replications_aborted;
            let expected = 5u64.saturating_sub(skipped);
            let s = backup.stats();
            if expected >= 1 && s.replicas_received >= expected && s.prunes_applied >= expected {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "backup did not coordinate over TCP: {s:?} (primary skipped {skipped})"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        primary.shutdown();
        backup.shutdown();
        primary_server.shutdown();
        backup_server.shutdown();
        pt.join();
        bt.join();
    }

    #[test]
    fn tcp_stats_returns_parseable_snapshot() {
        let (broker, threads) = spawn_broker();
        let spec = TopicSpec::category(0, TopicId(1));
        broker
            .register_topic(
                admit(&spec, &NetworkParams::paper_example()).unwrap(),
                vec![SubscriberId(1)],
            )
            .unwrap();
        let server = ReactorServer::bind("127.0.0.1:0", broker.clone()).unwrap();
        let addr = server.local_addr();

        let sub = TcpSubscriber::connect(addr, SubscriberId(1)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut publisher = TcpPublisher::connect(addr).unwrap();
        for seq in 0..3 {
            publisher
                .publish(Message::new(
                    TopicId(1),
                    PublisherId(0),
                    SeqNo(seq),
                    Time::from_millis(seq),
                    &b"0123456789abcdef"[..],
                ))
                .unwrap();
        }
        for _ in 0..3 {
            sub.deliveries()
                .recv_timeout(std::time::Duration::from_secs(3))
                .expect("delivery before stats");
        }

        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &WireMsg::Stats).unwrap();
        let snapshot = match read_frame(&mut stream).unwrap() {
            WireMsg::StatsJson(json) => frame_telemetry::from_json(&json).unwrap(),
            other => panic!("expected StatsJson, got {other:?}"),
        };
        let dispatched = snapshot.decision_count(frame_telemetry::DecisionKind::Dispatch);
        assert!(dispatched >= 3, "stats saw {dispatched} dispatches");
        assert!(snapshot
            .stage(frame_telemetry::Stage::DispatchExec)
            .is_some_and(|h| h.len() >= 3));

        broker.shutdown();
        server.shutdown();
        threads.join();
    }

    #[test]
    fn malformed_frame_is_dropped_and_connection_survives() {
        let (broker, threads) = spawn_broker();
        let server = ReactorServer::bind("127.0.0.1:0", broker.clone()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();

        // A well-framed but unparseable body: the server must log-and-drop
        // the frame, not panic and not close the connection.
        let body = br#"{"definitely":"not a WireMsg"}"#;
        stream
            .write_all(&(body.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(body).unwrap();

        write_frame(&mut stream, &WireMsg::Poll(9)).unwrap();
        match read_frame(&mut stream).unwrap() {
            WireMsg::PollAck(9) => {}
            other => panic!("expected PollAck(9) after malformed frame, got {other:?}"),
        }
        broker.shutdown();
        server.shutdown();
        threads.join();
    }

    #[test]
    fn subscriber_drops_a_malformed_frame_and_stops_at_an_oversized_prefix() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (go_tx, go_rx) = unbounded::<()>();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            assert_eq!(
                read_frame(&mut conn).unwrap(),
                WireMsg::Subscribe(SubscriberId(7))
            );
            let deliver = |seq| {
                WireMsg::Deliver(Message::new(
                    TopicId(1),
                    PublisherId(0),
                    SeqNo(seq),
                    Time::ZERO,
                    &b"payload"[..],
                ))
            };
            let mut wire = Vec::new();
            write_frame(&mut wire, &deliver(0)).unwrap();
            // Frame-aligned, but tag 0xFF names no message.
            wire.extend_from_slice(&3u32.to_le_bytes());
            wire.extend_from_slice(&[0xFF, 1, 2]);
            conn.write_all(&wire).unwrap();
            // The second delivery leaves only after the first arrived, so
            // a subscriber that quit at the malformed frame never reads it.
            go_rx.recv().unwrap();
            write_frame(&mut conn, &deliver(1)).unwrap();
            conn.write_all(&u32::MAX.to_le_bytes()).unwrap();
            // Hand the socket back open: the oversized prefix alone must
            // end the subscriber, not an EOF.
            conn
        });
        let sub = TcpSubscriber::connect(addr, SubscriberId(7)).unwrap();
        let timeout = std::time::Duration::from_secs(3);
        let first = sub.deliveries().recv_timeout(timeout).expect("delivery");
        assert_eq!(first.seq, SeqNo(0));
        go_tx.send(()).unwrap();
        let second = sub.deliveries().recv_timeout(timeout).expect("delivery");
        assert_eq!(second.seq, SeqNo(1));
        assert!(matches!(
            sub.deliveries().recv_timeout(timeout),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected)
        ));
        drop(peer.join().unwrap());
    }
}
