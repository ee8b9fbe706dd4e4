//! Property tests of the wire codec (DESIGN.md §15): seeded round-trips
//! of every served message type, the served layouts pinned byte for
//! byte, batch framing incl. the empty and largest-batch edges, frame
//! reassembly from a stream split at every offset, and adversarial
//! inputs — truncation at every prefix length, corruption of every byte,
//! bad magic/version/tag, hostile lengths — which must yield typed
//! [`WireError`]s, never panics.

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

fn reg_op(rng: &mut StdRng) -> RegOp<i64> {
    match rng.gen_range(0u8..2) {
        0 => RegOp::Read,
        _ => RegOp::Write(val(rng)),
    }
}

fn queue_op(rng: &mut StdRng) -> QueueOp<i64> {
    match rng.gen_range(0u8..4) {
        0 => QueueOp::Enqueue(val(rng)),
        1 => QueueOp::Dequeue,
        2 => QueueOp::Peek,
        _ => QueueOp::Len,
    }
}

fn kv_op(rng: &mut StdRng) -> KvOp {
    match rng.gen_range(0u8..5) {
        0 => KvOp::Put {
            key: val(rng),
            value: val(rng),
        },
        1 => KvOp::Remove { key: val(rng) },
        2 => KvOp::Get { key: val(rng) },
        3 => KvOp::ContainsKey { key: val(rng) },
        _ => KvOp::Len,
    }
}

#[test]
fn round_trip_primitives_and_containers() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..ROUNDS {
        check(&rng.gen_range(i64::MIN..=i64::MAX));
        check(&(rng.gen_range(0u64..=1) == 1));
        check(&if rng.gen_range(0u8..2) == 0 {
            None
        } else {
            Some(val(&mut rng))
        });
        check(&ProcessId::new(rng.gen_range(0u32..100)));
        check(&ClockTime::from_ticks(rng.gen_range(-9_000i64..=9_000)));
        check(&timestamp(&mut rng));
    }
}

#[test]
fn round_trip_register_messages() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..ROUNDS {
        check(&reg_op(&mut rng));
        check(&match rng.gen_range(0u8..2) {
            0 => RegResp::Value(val(&mut rng)),
            _ => RegResp::<i64>::Ack,
        });
    }
}

#[test]
fn round_trip_queue_messages() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..ROUNDS {
        check(&queue_op(&mut rng));
        check(&match rng.gen_range(0u8..3) {
            0 => QueueResp::<i64>::Ack,
            1 => QueueResp::Value(if rng.gen_range(0u8..2) == 0 {
                None
            } else {
                Some(val(&mut rng))
            }),
            _ => QueueResp::Count(rng.gen_range(0usize..1000)),
        });
    }
}

#[test]
fn round_trip_kv_messages() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..ROUNDS {
        check(&kv_op(&mut rng));
        check(&match rng.gen_range(0u8..4) {
            0 => KvResp::Ack,
            1 => KvResp::Value(Some(val(&mut rng))),
            2 => KvResp::Present(rng.gen_range(0u8..2) == 1),
            _ => KvResp::Count(rng.gen_range(0usize..1000)),
        });
    }
}

/// Lowercase hex of `bytes`.
fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Round trips would still pass if encoder and decoder changed together,
/// and a server built from another commit could no longer read the
/// result. So the served layouts are pinned here, one value per variant,
/// with a space between fields.
#[test]
fn served_layouts_are_pinned_byte_for_byte() {
    let golden = [
        (to_bytes(&RegOp::<i64>::Read), "00"),
        (to_bytes(&RegOp::Write(5i64)), "01 0500000000000000"),
        (to_bytes(&RegResp::Value(-2i64)), "00 feffffffffffffff"),
        (to_bytes(&RegResp::<i64>::Ack), "01"),
        (to_bytes(&QueueOp::Enqueue(7i64)), "00 0700000000000000"),
        (to_bytes(&QueueOp::<i64>::Dequeue), "01"),
        (to_bytes(&QueueOp::<i64>::Peek), "02"),
        (to_bytes(&QueueOp::<i64>::Len), "03"),
        (to_bytes(&QueueResp::<i64>::Ack), "00"),
        (to_bytes(&QueueResp::<i64>::Value(None)), "01 00"),
        (
            to_bytes(&QueueResp::Value(Some(-1i64))),
            "01 01 ffffffffffffffff",
        ),
        (to_bytes(&QueueResp::<i64>::Count(3)), "02 0300000000000000"),
        (
            to_bytes(&KvOp::Put { key: 1, value: 258 }),
            "00 0100000000000000 0201000000000000",
        ),
        (to_bytes(&KvOp::Remove { key: 2 }), "01 0200000000000000"),
        (to_bytes(&KvOp::Get { key: 3 }), "02 0300000000000000"),
        (
            to_bytes(&KvOp::ContainsKey { key: 4 }),
            "03 0400000000000000",
        ),
        (to_bytes(&KvOp::Len), "04"),
        (to_bytes(&KvResp::Ack), "00"),
        (to_bytes(&KvResp::Value(Some(9))), "01 01 0900000000000000"),
        (to_bytes(&KvResp::Present(true)), "02 01"),
        (to_bytes(&KvResp::Count(5)), "03 0500000000000000"),
    ];
    for (bytes, want) in golden {
        assert_eq!(hex(&bytes), want.replace(' ', ""), "layout {want}");
    }

    // One whole replica-to-replica frame, length prefix included.
    let msg: OpMsg<RegisterNs> = OpMsg {
        op: NsOp::new(3, RegOp::Write(5)),
        ts: Timestamp::with_seq(ClockTime::from_ticks(1_000), ProcessId::new(2), 7),
    };
    let header = FrameHeader {
        kind: FrameKind::Peer,
        msg_id: (1 << 40) | 5,
        sent_at_micros: 1_000_000,
        delay_micros: 15_000,
        batch: 1,
    };
    let frame = encode_frame(&header, &encode_batch(&[msg]));
    let want = [
        "3d000000",         // body length: 28-byte header + 33-byte payload
        "d75b",             // magic
        "01",               // version
        "01",               // kind: Peer
        "0500000000010000", // msg_id
        "40420f0000000000", // sent_at_micros
        "983a0000",         // delay_micros
        "01000000",         // batch
        "0300000000000000", // NsOp key
        "01",               // RegOp::Write
        "0500000000000000", // its value
        "e803000000000000", // Timestamp time
        "02000000",         // Timestamp pid
        "07000000",         // Timestamp seq
    ];
    assert_eq!(hex(&frame), want.concat());
}

/// The message that actually crosses replica wires: a namespaced op
/// plus its timestamp, in batches.
type RegisterNs = Namespace<RwRegister<i64>>;

fn ns_msg(rng: &mut StdRng) -> OpMsg<RegisterNs> {
    OpMsg {
        op: NsOp::new(rng.gen_range(0u64..64), reg_op(rng)),
        ts: timestamp(rng),
    }
}

/// Round-trips `OpMsg<Namespace<S>>` with inner ops drawn by `op`, and
/// fails every strict prefix of its bytes.
fn check_ns_op_msgs<S: SequentialSpec>(seed: u64, op: fn(&mut StdRng) -> S::Op)
where
    S::Op: Encode + Decode,
{
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..ROUNDS {
        let msg: OpMsg<Namespace<S>> = OpMsg {
            op: NsOp::new(rng.gen_range(0u64..64), op(&mut rng)),
            ts: timestamp(&mut rng),
        };
        let bytes = to_bytes(&msg);
        let back: OpMsg<Namespace<S>> = from_bytes(&bytes).expect("OpMsg round trip");
        assert_eq!(back.op, msg.op);
        assert_eq!(back.ts, msg.ts);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<OpMsg<Namespace<S>>>(&bytes[..cut]).is_err());
        }
    }
}

#[test]
fn round_trip_ns_op_msgs() {
    check_ns_op_msgs::<RwRegister<i64>>(5, reg_op);
    check_ns_op_msgs::<Queue<i64>>(11, queue_op);
    check_ns_op_msgs::<KvStore>(12, kv_op);
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
    // The one count a served payload depends on is the header's batch: a
    // frame claiming u32::MAX values over a few bytes runs out of bytes
    // instead of allocating for the claim.
    assert!(matches!(
        decode_batch::<OpMsg<RegisterNs>>(&[0; 8], u32::MAX as usize),
        Err(WireError::Truncated { .. })
    ));

    // Random garbage of every small length: decoding any served type
    // must return, never panic.
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
