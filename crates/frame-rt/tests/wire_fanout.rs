//! Encode-once fan-out over the reactor TCP ingress: one published
//! message to 64 wire subscribers must be encoded exactly once, arrive
//! byte-identical on every socket, be dispatched exactly once per
//! subscriber, and leave its Table-3 backup effects in order.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;

use frame_clock::MonotonicClock;
use frame_core::{admit, BrokerConfig, BrokerRole};
use frame_rt::{write_frame, BackupEffect, ReactorServer, RtBroker, TcpPublisher, WireMsg};
use frame_telemetry::Telemetry;
use frame_types::wire::encoded_frame_count;
use frame_types::{
    BrokerId, Message, NetworkParams, PublisherId, SeqNo, SubscriberId, TopicId, TopicSpec,
};

const FANOUT: usize = 64;

/// Reads one raw `[u32 LE len][body]` frame off the socket.
fn read_raw_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&prefix);
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..])?;
    Ok(frame)
}

#[test]
fn fanout_of_64_shares_one_encode_and_delivers_identical_bytes() {
    let clock: Arc<dyn frame_clock::Clock> = Arc::new(MonotonicClock::new());
    let broker = RtBroker::spawn(
        BrokerId(0),
        BrokerRole::Primary,
        BrokerConfig::frame(),
        clock,
        Telemetry::new(),
        None,
    );
    // Category 2: replication required, so the dispatch also exercises the
    // Table-3 replica/prune emission this test checks the order of.
    let spec = TopicSpec::category(2, TopicId(1));
    let subscribers: Vec<SubscriberId> = (1..=FANOUT as u32).map(SubscriberId).collect();
    broker
        .register_topic(
            admit(&spec, &NetworkParams::paper_example()).unwrap(),
            subscribers.clone(),
        )
        .unwrap();
    // In-process backup monitor: emission order on this channel is the
    // Primary's Table-3 order.
    let (backup_tx, backup_rx) = crossbeam::channel::unbounded::<Vec<BackupEffect>>();
    broker.connect_backup(Arc::new(move |effects| {
        let _ = backup_tx.send(effects);
    }));

    let server = ReactorServer::bind("127.0.0.1:0", broker.clone()).unwrap();
    let addr = server.local_addr();

    // 64 raw sockets, each subscribing one id: raw so the test reads the
    // exact bytes the broker wrote, not a re-decoded view.
    let mut socks: Vec<TcpStream> = Vec::with_capacity(FANOUT);
    for id in &subscribers {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut s, &WireMsg::Subscribe(*id)).unwrap();
        socks.push(s);
    }
    // Let the Subscribe frames register before publishing.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let encodes_before = encoded_frame_count();
    let mut publisher = TcpPublisher::connect(addr).unwrap();
    publisher
        .publish(Message::new(
            TopicId(1),
            PublisherId(0),
            SeqNo(0),
            frame_types::Time::from_millis(1),
            &b"fanout-payload-0123456789abcdef"[..],
        ))
        .unwrap();

    // Every socket gets exactly one Deliver frame, byte-identical.
    let mut first: Option<Vec<u8>> = None;
    for (i, s) in socks.iter_mut().enumerate() {
        let frame = read_raw_frame(s).unwrap_or_else(|e| panic!("subscriber {i}: {e}"));
        match WireMsg::decode(&frame[4..]) {
            Ok(WireMsg::Deliver(m)) => {
                assert_eq!(m.seq, SeqNo(0));
                assert_eq!(m.payload.as_ref(), b"fanout-payload-0123456789abcdef");
            }
            other => panic!("subscriber {i}: expected Deliver, got {other:?}"),
        }
        match &first {
            None => first = Some(frame),
            Some(expect) => assert_eq!(
                &frame, expect,
                "subscriber {i} saw different bytes than subscriber 0"
            ),
        }
    }
    // One dispatched message → exactly one frame encode, shared by all 64
    // write paths (the publisher encodes inline without producing a shared
    // frame, and this test sends no control requests).
    assert_eq!(
        encoded_frame_count() - encodes_before,
        1,
        "fan-out of {FANOUT} must share a single encode"
    );

    // Exactly-once: no socket holds a second frame.
    for (i, s) in socks.iter_mut().enumerate() {
        s.set_read_timeout(Some(std::time::Duration::from_millis(25)))
            .unwrap();
        let mut byte = [0u8; 1];
        match s.read(&mut byte) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("subscriber {i} received a duplicate delivery"),
        }
    }

    // Table-3 order at the backup monitor: a prune must never precede the
    // replica it discards (replication may be legitimately cancelled by a
    // fast dispatch, in which case neither appears).
    let (mut saw_replica, mut saw_prune) = (false, false);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while !saw_prune && std::time::Instant::now() < deadline {
        match backup_rx.try_recv() {
            Ok(effects) => {
                for e in effects {
                    match e {
                        BackupEffect::Replica(m) => {
                            assert_eq!(m.seq, SeqNo(0));
                            saw_replica = true;
                        }
                        BackupEffect::Prune(k) => {
                            assert!(
                                saw_replica,
                                "prune for {k:?} overtook its replica (Table-3 order violation)"
                            );
                            saw_prune = true;
                        }
                    }
                }
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }

    broker.shutdown();
    server.shutdown();
}
