//! Property tests of the wire codec (DESIGN.md §15): seeded round-trips
//! of every spec message type, batch framing incl. the empty and
//! largest-batch edges, frame reassembly from a stream split at every
//! offset, and adversarial inputs — truncation at every prefix length,
//! corruption of every byte, bad magic/version/tag, hostile lengths —
//! which must yield typed [`WireError`]s, never panics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skewbound_core::replica::OpMsg;
use skewbound_core::timestamp::Timestamp;
use skewbound_net::wire::{
    decode_batch, decode_frame, encode_batch, encode_frame, from_bytes, to_bytes, Decode, Encode,
    FrameBuf, FrameHeader, FrameKind, WireError, HEADER_LEN, MAGIC, MAX_FRAME_LEN, VERSION,
};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::ClockTime;
use skewbound_spec::prelude::*;
use skewbound_spec::register::{RegOp, RegResp, RmwKind, RmwOp, RmwResp};

/// Rounds per generator: enough seeded draws to hit every enum arm and
/// both `Option` arms many times over.
const ROUNDS: u64 = 200;

/// Round-trips `v` and checks the adversarial properties on its bytes:
/// every strict prefix fails to decode with a typed error, and no
/// single-byte corruption can panic the decoder.
fn check<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = to_bytes(v);
    assert_eq!(&from_bytes::<T>(&bytes).expect("round trip decodes"), v);

    for cut in 0..bytes.len() {
        let err = from_bytes::<T>(&bytes[..cut]);
        assert!(
            err.is_err(),
            "strict prefix of {cut}/{} bytes decoded {v:?}",
            bytes.len()
        );
    }
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            // Any outcome but a panic is acceptable: the corruption may
            // produce a different valid value or a typed error.
            let _ = from_bytes::<T>(&corrupt);
        }
    }
}

fn val(rng: &mut StdRng) -> i64 {
    rng.gen_range(-1_000_000i64..=1_000_000)
}

fn timestamp(rng: &mut StdRng) -> Timestamp {
    Timestamp::with_seq(
        ClockTime::from_ticks(rng.gen_range(-50_000i64..=50_000)),
        ProcessId::new(rng.gen_range(0u32..8)),
        rng.gen_range(0u32..1000),
    )
}

#[test]
fn round_trip_primitives_and_containers() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..ROUNDS {
        check(&rng.gen_range(0u8..=255));
        check(&rng.gen_range(0u32..=u32::MAX));
        check(&rng.gen_range(0u64..=u64::MAX));
        check(&rng.gen_range(i64::MIN..=i64::MAX));
        check(&(rng.gen_range(0u64..=1) == 1));
        check(&if rng.gen_range(0u8..2) == 0 {
            None
        } else {
            Some(val(&mut rng))
        });
        let n = rng.gen_range(0usize..8);
        check(&(0..n).map(|_| val(&mut rng)).collect::<Vec<i64>>());
        check(&"skewbound §15 — wire".to_owned());
        check(&String::new());
        check(&ProcessId::new(rng.gen_range(0u32..100)));
        check(&ClockTime::from_ticks(rng.gen_range(-9_000i64..=9_000)));
        check(&timestamp(&mut rng));
    }
}

#[test]
fn round_trip_register_messages() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..ROUNDS {
        check(&match rng.gen_range(0u8..2) {
            0 => RegOp::Read,
            _ => RegOp::Write(val(&mut rng)),
        });
        check(&match rng.gen_range(0u8..2) {
            0 => RegResp::Value(val(&mut rng)),
            _ => RegResp::<i64>::Ack,
        });
        check(&match rng.gen_range(0u8..3) {
            0 => RmwOp::Read,
            1 => RmwOp::Write(val(&mut rng)),
            _ => RmwOp::Rmw(match rng.gen_range(0u8..3) {
                0 => RmwKind::FetchAdd(val(&mut rng)),
                1 => RmwKind::CompareAndSwap {
                    expect: val(&mut rng),
                    new: val(&mut rng),
                },
                _ => RmwKind::Swap(val(&mut rng)),
            }),
        });
        check(&match rng.gen_range(0u8..2) {
            0 => RmwResp::Value(val(&mut rng)),
            _ => RmwResp::Ack,
        });
    }
}

#[test]
fn round_trip_queue_stack_deque_messages() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..ROUNDS {
        check(&match rng.gen_range(0u8..4) {
            0 => QueueOp::Enqueue(val(&mut rng)),
            1 => QueueOp::Dequeue,
            2 => QueueOp::Peek,
            _ => QueueOp::Len,
        });
        check(&match rng.gen_range(0u8..3) {
            0 => QueueResp::<i64>::Ack,
            1 => QueueResp::Value(if rng.gen_range(0u8..2) == 0 {
                None
            } else {
                Some(val(&mut rng))
            }),
            _ => QueueResp::Count(rng.gen_range(0usize..1000)),
        });
        check(&match rng.gen_range(0u8..4) {
            0 => StackOp::Push(val(&mut rng)),
            1 => StackOp::Pop,
            2 => StackOp::Peek,
            _ => StackOp::Len,
        });
        check(&match rng.gen_range(0u8..3) {
            0 => StackResp::<i64>::Ack,
            1 => StackResp::Value(Some(val(&mut rng))),
            _ => StackResp::Count(rng.gen_range(0usize..1000)),
        });
        check(&match rng.gen_range(0u8..7) {
            0 => DequeOp::PushFront(val(&mut rng)),
            1 => DequeOp::PushBack(val(&mut rng)),
            2 => DequeOp::PopFront,
            3 => DequeOp::PopBack,
            4 => DequeOp::Front,
            5 => DequeOp::Back,
            _ => DequeOp::Len,
        });
        check(&match rng.gen_range(0u8..3) {
            0 => DequeResp::<i64>::Ack,
            1 => DequeResp::Value(None),
            _ => DequeResp::Count(rng.gen_range(0usize..1000)),
        });
    }
}

#[test]
fn round_trip_kv_counter_set_messages() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..ROUNDS {
        check(&match rng.gen_range(0u8..5) {
            0 => KvOp::Put {
                key: val(&mut rng),
                value: val(&mut rng),
            },
            1 => KvOp::Remove { key: val(&mut rng) },
            2 => KvOp::Get { key: val(&mut rng) },
            3 => KvOp::ContainsKey { key: val(&mut rng) },
            _ => KvOp::Len,
        });
        check(&match rng.gen_range(0u8..4) {
            0 => KvResp::Ack,
            1 => KvResp::Value(Some(val(&mut rng))),
            2 => KvResp::Present(rng.gen_range(0u8..2) == 1),
            _ => KvResp::Count(rng.gen_range(0usize..1000)),
        });
        check(&match rng.gen_range(0u8..2) {
            0 => CounterOp::Add(val(&mut rng)),
            _ => CounterOp::Read,
        });
        check(&match rng.gen_range(0u8..2) {
            0 => CounterResp::Ack,
            _ => CounterResp::Value(val(&mut rng)),
        });
        check(&match rng.gen_range(0u8..4) {
            0 => SetOp::Insert(val(&mut rng)),
            1 => SetOp::Remove(val(&mut rng)),
            2 => SetOp::Contains(val(&mut rng)),
            _ => SetOp::Size,
        });
        check(&match rng.gen_range(0u8..3) {
            0 => SetResp::Ack,
            1 => SetResp::Membership(true),
            _ => SetResp::Count(rng.gen_range(0usize..1000)),
        });
    }
}

#[test]
fn round_trip_array_tree_messages() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..ROUNDS {
        check(&match rng.gen_range(0u8..2) {
            0 => ArrayOp::UpdateNext {
                i: rng.gen_range(0usize..64),
                b: val(&mut rng),
            },
            _ => ArrayOp::Snapshot,
        });
        check(&match rng.gen_range(0u8..2) {
            0 => ArrayResp::Element(Some(val(&mut rng))),
            _ => ArrayResp::Contents((0..rng.gen_range(0usize..6)).map(|i| i as i64).collect()),
        });
        check(&match rng.gen_range(0u8..4) {
            0 => TreeOp::Insert {
                node: rng.gen_range(0u32..64),
                parent: rng.gen_range(0u32..64),
            },
            1 => TreeOp::Delete {
                node: rng.gen_range(0u32..64),
            },
            2 => TreeOp::Search {
                node: rng.gen_range(0u32..64),
            },
            _ => TreeOp::Depth,
        });
        check(&match rng.gen_range(0u8..3) {
            0 => TreeResp::Ack,
            1 => TreeResp::Found(false),
            _ => TreeResp::Depth(rng.gen_range(0usize..64)),
        });
    }
}

/// The message that actually crosses replica wires: a namespaced op
/// plus its timestamp, in batches.
type RegisterNs = Namespace<RwRegister<i64>>;

fn ns_msg(rng: &mut StdRng) -> OpMsg<RegisterNs> {
    let inner = if rng.gen_range(0u8..2) == 0 {
        RegOp::Read
    } else {
        RegOp::Write(val(rng))
    };
    OpMsg {
        op: NsOp::new(rng.gen_range(0u64..64), inner),
        ts: timestamp(rng),
    }
}

#[test]
fn round_trip_ns_op_msgs() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..ROUNDS {
        let msg = ns_msg(&mut rng);
        let bytes = to_bytes(&msg);
        let back: OpMsg<RegisterNs> = from_bytes(&bytes).expect("OpMsg round trip");
        assert_eq!(back.op, msg.op);
        assert_eq!(back.ts, msg.ts);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<OpMsg<RegisterNs>>(&bytes[..cut]).is_err());
        }
    }
}

#[test]
fn batch_round_trip_including_empty_and_max() {
    let mut rng = StdRng::seed_from_u64(6);

    // The empty batch: legal at the codec layer (the transport layer is
    // what forbids sending one).
    let empty: Vec<OpMsg<RegisterNs>> = Vec::new();
    let payload = encode_batch(&empty);
    assert!(payload.is_empty());
    let back: Vec<OpMsg<RegisterNs>> = decode_batch(&payload, 0).expect("empty batch");
    assert!(back.is_empty());

    // The largest batch a replica group produces in practice is one
    // broadcast per queued op; stress well past that.
    let max: Vec<OpMsg<RegisterNs>> = (0..4096).map(|_| ns_msg(&mut rng)).collect();
    let payload = encode_batch(&max);
    let back: Vec<OpMsg<RegisterNs>> = decode_batch(&payload, max.len()).expect("max batch");
    assert_eq!(back.len(), max.len());
    for (b, m) in back.iter().zip(&max) {
        assert_eq!(b.op, m.op);
        assert_eq!(b.ts, m.ts);
    }

    // A count that disagrees with the payload is a typed error both
    // ways: too few leaves trailing bytes, too many runs out.
    assert!(matches!(
        decode_batch::<OpMsg<RegisterNs>>(&payload, max.len() - 1),
        Err(WireError::TrailingBytes(_))
    ));
    assert!(matches!(
        decode_batch::<OpMsg<RegisterNs>>(&payload, max.len() + 1),
        Err(WireError::Truncated { .. })
    ));
}

#[test]
fn frame_header_round_trip_and_rejections() {
    let header = FrameHeader {
        kind: FrameKind::Peer,
        msg_id: (3u64 << 40) | 17,
        sent_at_micros: 1_234_567,
        delay_micros: 7_200,
        batch: 2,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let payload = encode_batch(&[ns_msg(&mut rng), ns_msg(&mut rng)]);
    let frame = encode_frame(&header, &payload);

    // The body is the frame minus its 4-byte length prefix.
    let body = &frame[4..];
    assert_eq!(
        u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize,
        body.len()
    );
    let (h, p) = decode_frame(body).expect("frame round trip");
    assert_eq!(h.kind, header.kind);
    assert_eq!(h.msg_id, header.msg_id);
    assert_eq!(h.sent_at_micros, header.sent_at_micros);
    assert_eq!(h.delay_micros, header.delay_micros);
    assert_eq!(h.batch, header.batch);
    let msgs: Vec<OpMsg<RegisterNs>> = decode_batch(p, h.batch as usize).expect("frame payload");
    assert_eq!(msgs.len(), 2);

    // Truncation at every header boundary is a typed error.
    for cut in 0..HEADER_LEN.min(body.len()) {
        assert!(decode_frame(&body[..cut]).is_err(), "cut at {cut} decoded");
    }

    // Wrong magic.
    let mut bad = body.to_vec();
    bad[0] ^= 0xFF;
    let wrong_magic = u16::from_le_bytes([bad[0], bad[1]]);
    assert!(
        matches!(decode_frame(&bad), Err(WireError::BadMagic(m)) if m == wrong_magic),
        "expected BadMagic({wrong_magic:#06x})"
    );

    // Wrong version (byte 2).
    let mut bad = body.to_vec();
    bad[2] = VERSION + 1;
    assert!(matches!(
        decode_frame(&bad),
        Err(WireError::BadVersion(v)) if v == VERSION + 1
    ));

    // Unknown frame kind (byte 3).
    let mut bad = body.to_vec();
    bad[3] = 0xEE;
    assert!(matches!(
        decode_frame(&bad),
        Err(WireError::BadTag { tag: 0xEE, .. })
    ));

    // Sanity: the magic constant really is what the first two bytes say.
    assert_eq!(u16::from_le_bytes([body[0], body[1]]), MAGIC);
}

/// A seeded corpus of whole frames, length prefix included: every kind,
/// payloads from empty to a four-message batch.
fn frame_corpus() -> Vec<Vec<u8>> {
    let kinds = [
        FrameKind::Hello,
        FrameKind::Peer,
        FrameKind::ClientReq,
        FrameKind::ClientResp,
        FrameKind::Bye,
    ];
    let mut rng = StdRng::seed_from_u64(9);
    (0..ROUNDS)
        .map(|i| {
            let batch = rng.gen_range(0u32..5);
            let msgs: Vec<_> = (0..batch).map(|_| ns_msg(&mut rng)).collect();
            let header = FrameHeader {
                kind: kinds[i as usize % kinds.len()],
                msg_id: i,
                sent_at_micros: rng.gen_range(0u64..1 << 40),
                delay_micros: rng.gen_range(0u32..20_000),
                batch,
            };
            encode_frame(&header, &encode_batch(&msgs))
        })
        .collect()
}

/// Every whole frame body `buf` holds, in order.
fn pop_all(buf: &mut FrameBuf) -> Vec<Vec<u8>> {
    std::iter::from_fn(|| buf.pop().expect("corpus lengths are legal")).collect()
}

#[test]
fn frame_buf_reassembles_frames_however_the_stream_is_split() {
    let corpus = frame_corpus();
    let bodies: Vec<Vec<u8>> = corpus.iter().map(|f| f[4..].to_vec()).collect();

    for (frame, body) in corpus.iter().zip(&bodies) {
        for cut in 0..=frame.len() {
            let mut buf = FrameBuf::default();
            buf.feed(&frame[..cut]);
            let early = pop_all(&mut buf);
            assert_eq!(early.len(), usize::from(cut == frame.len()), "cut at {cut}");
            buf.feed(&frame[cut..]);
            assert_eq!(
                [early, pop_all(&mut buf)].concat(),
                std::slice::from_ref(body)
            );
        }
        let mut buf = FrameBuf::default();
        let mut got = Vec::new();
        for byte in frame {
            buf.feed(std::slice::from_ref(byte));
            got.extend(pop_all(&mut buf));
        }
        assert_eq!(got, std::slice::from_ref(body), "fed byte by byte");
    }

    // The whole corpus as one stream: fed at once, then in seeded chunks
    // that straddle frame boundaries.
    let stream = corpus.concat();
    let mut buf = FrameBuf::default();
    buf.feed(&stream);
    assert_eq!(pop_all(&mut buf), bodies);
    let mut rng = StdRng::seed_from_u64(10);
    let (mut buf, mut got, mut at) = (FrameBuf::default(), Vec::new(), 0);
    while at < stream.len() {
        let end = (at + rng.gen_range(1usize..300)).min(stream.len());
        buf.feed(&stream[at..end]);
        got.extend(pop_all(&mut buf));
        at = end;
    }
    assert_eq!(got, bodies);
}

#[test]
fn frame_buf_rejects_a_hostile_length_before_the_body_arrives() {
    for len in [MAX_FRAME_LEN + 1, u32::MAX as usize] {
        let mut buf = FrameBuf::default();
        buf.feed(&u32::try_from(len).unwrap().to_le_bytes());
        assert_eq!(buf.pop(), Err(WireError::FrameTooLarge(len)));
    }
    // The largest legal length just waits for its body.
    let mut buf = FrameBuf::default();
    buf.feed(&u32::try_from(MAX_FRAME_LEN).unwrap().to_le_bytes());
    assert_eq!(buf.pop(), Ok(None));
}

#[test]
fn hostile_lengths_cannot_allocate_or_panic() {
    // A Vec claiming u64::MAX elements must be rejected by the length
    // sanity check before any allocation happens.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        from_bytes::<Vec<i64>>(&hostile),
        Err(WireError::BadLen(_))
    ));

    // Same for a String.
    assert!(matches!(
        from_bytes::<String>(&hostile),
        Err(WireError::BadLen(_))
    ));

    // A String whose bytes are not UTF-8 is a typed error.
    let mut bad_utf8 = Vec::new();
    bad_utf8.extend_from_slice(&2u64.to_le_bytes());
    bad_utf8.extend_from_slice(&[0xFF, 0xFE]);
    assert!(matches!(
        from_bytes::<String>(&bad_utf8),
        Err(WireError::BadUtf8)
    ));

    // Random garbage of every small length: decoding any spec type must
    // return, never panic.
    let mut rng = StdRng::seed_from_u64(8);
    for len in 0usize..64 {
        for _ in 0..50 {
            let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
            let _ = from_bytes::<OpMsg<RegisterNs>>(&garbage);
            let _ = from_bytes::<KvOp>(&garbage);
            let _ = from_bytes::<QueueResp<i64>>(&garbage);
            let _ = from_bytes::<Timestamp>(&garbage);
            let _ = decode_frame(&garbage);
        }
    }
}
