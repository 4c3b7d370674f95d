//! Properties of the binary wire codec: every message round-trips
//! exactly, and no byte string — truncated, forged or random — makes the
//! decoder panic or reserve memory the body cannot back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use frame_types::wire::{BackupEffect, DecodeError, WireMsg};
use frame_types::{
    Message, MessageKey, PublisherId, SeqNo, SpanPoint, SubscriberId, Time, TopicId, TraceCtx,
};
use proptest::prelude::*;
use proptest::TestRng;

/// Counts the bytes each thread allocates, so a property can bound what
/// one decode reserves (per thread: the harness runs tests in parallel).
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward to the system allocator unchanged; the
// bookkeeping only bumps a destructor-free thread-local counter and never
// allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Decodes `body`, returning the result and the bytes allocated meanwhile.
fn decode_counted(body: &[u8]) -> (Result<WireMsg, DecodeError>, usize) {
    let before = ALLOCATED.with(Cell::get);
    let decoded = WireMsg::decode(body);
    (decoded, ALLOCATED.with(Cell::get) - before)
}

fn body_of(msg: &WireMsg) -> Vec<u8> {
    let mut frame = Vec::new();
    msg.append_frame(&mut frame).unwrap();
    assert_eq!(
        frame[..4],
        (frame.len() as u32 - 4).to_le_bytes(),
        "prefix counts the body"
    );
    frame.split_off(4)
}

/// A xorshift byte pattern, so offset bugs show up as content mismatches.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// A message with a payload of 0 to `max_payload` bytes (both ends drawn
/// often) and a trace about half the time.
fn message(rng: &mut TestRng, max_payload: usize) -> Message {
    let len = match (0u8..4).pick(rng) {
        0 => 0,
        1 => max_payload,
        2 => (0..max_payload.min(64) + 1).pick(rng),
        _ => (0..max_payload + 1).pick(rng),
    };
    let mut m = Message::new(
        TopicId(any::<u32>().pick(rng)),
        PublisherId(any::<u32>().pick(rng)),
        SeqNo(any::<u64>().pick(rng)),
        Time::from_nanos(any::<u64>().pick(rng)),
        payload(len, any::<u64>().pick(rng)),
    );
    if any::<bool>().pick(rng) {
        let mut stamps = [0u64; SpanPoint::ALL.len()];
        for stamp in &mut stamps {
            *stamp = any::<u64>().pick(rng);
        }
        m.trace = Some(TraceCtx::from_stamps(stamps));
    }
    m
}

fn key(rng: &mut TestRng) -> MessageKey {
    MessageKey {
        topic: TopicId(any::<u32>().pick(rng)),
        seq: SeqNo(any::<u64>().pick(rng)),
    }
}

/// Arbitrary Unicode, multi-byte characters included.
fn text(rng: &mut TestRng) -> String {
    let len = (0usize..64).pick(rng);
    (0..len)
        .map(|_| char::from_u32((0u32..0x11_0000).pick(rng)).unwrap_or('\u{FFFD}'))
        .collect()
}

/// Every [`WireMsg`] variant with equal weight; batches mix replicas and
/// prunes.
struct AnyWireMsg {
    max_payload: usize,
}

impl Strategy for AnyWireMsg {
    type Value = WireMsg;

    fn pick(&self, rng: &mut TestRng) -> WireMsg {
        let max = self.max_payload;
        match (0u8..15).pick(rng) {
            0 => WireMsg::Publish(message(rng, max)),
            1 => WireMsg::Resend(message(rng, max)),
            2 => WireMsg::Replica(message(rng, max)),
            3 => WireMsg::Prune(key(rng)),
            4 => {
                let n = (0usize..9).pick(rng);
                WireMsg::ReplicaBatch(
                    (0..n)
                        .map(|_| match any::<bool>().pick(rng) {
                            true => BackupEffect::Replica(message(rng, max.min(2048))),
                            false => BackupEffect::Prune(key(rng)),
                        })
                        .collect(),
                )
            }
            5 => WireMsg::Poll(any::<u64>().pick(rng)),
            6 => WireMsg::PollAck(any::<u64>().pick(rng)),
            7 => WireMsg::Subscribe(SubscriberId(any::<u32>().pick(rng))),
            8 => WireMsg::Deliver(message(rng, max)),
            9 => WireMsg::Promote,
            10 => WireMsg::Promoted(any::<u64>().pick(rng)),
            11 => WireMsg::Stats,
            12 => WireMsg::StatsJson(text(rng)),
            13 => WireMsg::Trace,
            _ => WireMsg::TraceJson(text(rng)),
        }
    }
}

/// The messages a frame carries, in order.
fn carried(msg: &WireMsg) -> Vec<&Message> {
    match msg {
        WireMsg::Publish(m) | WireMsg::Resend(m) | WireMsg::Replica(m) | WireMsg::Deliver(m) => {
            vec![m]
        }
        WireMsg::ReplicaBatch(batch) => batch
            .iter()
            .filter_map(|e| match e {
                BackupEffect::Replica(m) => Some(m),
                BackupEffect::Prune(_) => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

proptest! {
    #[test]
    fn every_variant_round_trips_exactly(msg in AnyWireMsg { max_payload: 64 * 1024 }) {
        let body = body_of(&msg);
        let back = WireMsg::decode(&body).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&back, &msg);
        // `Message::eq` ignores the trace; the wire must not.
        for (a, b) in carried(&back).into_iter().zip(carried(&msg)) {
            prop_assert_eq!(a.trace, b.trace);
        }
    }

    #[test]
    fn every_truncation_and_any_extension_is_malformed(msg in AnyWireMsg { max_payload: 1024 }) {
        let mut body = body_of(&msg);
        for cut in 0..body.len() {
            prop_assert!(
                WireMsg::decode(&body[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte body decoded",
                body.len()
            );
        }
        body.push(0);
        prop_assert_eq!(WireMsg::decode(&body), Err(DecodeError::Trailing(1)));
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_decode_only_canonically(
        first in 0u8..17,
        rest in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        // The first byte is drawn near the tag range so bodies get past
        // the tag check often; everything after it is noise.
        let mut body = vec![first];
        body.extend_from_slice(&rest);
        if let Ok(msg) = WireMsg::decode(&body) {
            // The encoding has one spelling per message: whatever decodes
            // re-encodes to exactly the input.
            prop_assert_eq!(body_of(&msg), body);
        }
    }

    #[test]
    fn forged_lengths_and_counts_allocate_nothing_beyond_the_body(
        len in 0usize..1024,
        prunes in 0usize..32,
        forged in any::<u32>(),
        traced: bool,
    ) {
        // A payload length past the end of a Publish body.
        let mut m = Message::new(TopicId(1), PublisherId(2), SeqNo(3), Time::ZERO, payload(len, 9));
        if traced {
            m.trace = Some(TraceCtx::new());
        }
        let mut body = body_of(&WireMsg::Publish(m));
        let at = if traced { 1 + 25 + 40 } else { 1 + 25 };
        let left = body.len() - at - 4;
        let bad = (left as u32).saturating_add(1).max(forged);
        body[at..at + 4].copy_from_slice(&bad.to_le_bytes());
        let (decoded, allocated) = decode_counted(&body);
        prop_assert_eq!(decoded, Err(DecodeError::Truncated));
        prop_assert!(allocated <= body.len(), "payload: {allocated} B for a {}-byte body", body.len());

        // A batch count larger than the effects that follow it.
        let batch = (0..prunes)
            .map(|i| BackupEffect::Prune(MessageKey { topic: TopicId(1), seq: SeqNo(i as u64) }))
            .collect();
        let mut body = body_of(&WireMsg::ReplicaBatch(batch));
        let bad = (prunes as u32 + 1).max(forged);
        body[1..5].copy_from_slice(&bad.to_le_bytes());
        let (decoded, allocated) = decode_counted(&body);
        prop_assert_eq!(decoded, Err(DecodeError::Truncated));
        prop_assert!(allocated <= body.len(), "batch: {allocated} B for a {}-byte body", body.len());

        // An in-range batch count over junk: nothing may be reserved for
        // the effects it promises.
        let mut body = vec![5u8];
        body.extend_from_slice(&(prunes as u32).to_le_bytes());
        body.resize(body.len() + prunes * 13, 0xFF);
        let (decoded, allocated) = decode_counted(&body);
        if prunes > 0 {
            prop_assert_eq!(decoded, Err(DecodeError::UnknownTag(0xFF)));
        }
        prop_assert!(allocated <= body.len(), "junk batch: {allocated} B for a {}-byte body", body.len());

        // A text length past the end of a StatsJson body.
        let mut body = body_of(&WireMsg::StatsJson("x".repeat(len)));
        let bad = (len as u32 + 1).max(forged);
        body[1..5].copy_from_slice(&bad.to_le_bytes());
        let (decoded, allocated) = decode_counted(&body);
        prop_assert_eq!(decoded, Err(DecodeError::Truncated));
        prop_assert!(allocated <= body.len(), "text: {allocated} B for a {}-byte body", body.len());
    }
}
