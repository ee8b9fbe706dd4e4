//! Single-layer measurements of the traced net pass: the wire codec on
//! a seeded corpus, one TCP mesh hop, and the same operation mix on the
//! in-process thread runtime (the no-socket baseline).

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skewbound_core::bounds;
use skewbound_core::harness::run_history_rt;
use skewbound_core::params::Params;
use skewbound_core::replica::{OpMsg, Replica};
use skewbound_core::timestamp::Timestamp;
use skewbound_net::tcp::{MeshListener, RawEvent};
use skewbound_net::wire::{
    decode_batch, decode_frame, encode_batch, encode_frame, to_bytes, Decode, Encode, FrameHeader,
    FrameKind,
};
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{ClockTime, SimDuration};
use skewbound_sim::transport::WireTransport;
use skewbound_sim::workload::ClosedLoop;
use skewbound_spec::namespace::{Namespace, NsOp};
use skewbound_spec::seqspec::{OpClass, SequentialSpec};

use crate::metrics::{median, quantile, sorted, Metrics};
use crate::spans::Spans;

const CORPUS: usize = 10_000;
const WIRE_ROUNDS: usize = 9;
const HOP_ROUND_TRIPS: usize = 5_000;

/// The class bound the paper gives an operation of `class`.
pub fn class_bound(params: &Params, class: OpClass) -> SimDuration {
    match class {
        OpClass::PureMutator => bounds::ub_mop(params),
        OpClass::PureAccessor => bounds::ub_aop(params),
        OpClass::Other => bounds::ub_oop(params),
    }
}

fn peer_header(msg_id: u64, batch: u32) -> FrameHeader {
    FrameHeader {
        kind: FrameKind::Peer,
        msg_id,
        sent_at_micros: 1_000_000 + msg_id,
        delay_micros: 12_000,
        batch,
    }
}

/// Median over rounds of `f`'s wall time, in nanoseconds per `per`.
fn ns_per(spans: &mut Spans, name: &'static str, per: usize, mut f: impl FnMut()) -> f64 {
    let rounds = (0..WIRE_ROUNDS)
        .map(|round| spans.time(name, None, round as u64, &mut f).1 * 1e9 / per as f64)
        .collect();
    median(rounds)
}

/// `net.wire.*`: the replica messages of `ops` through the codec the
/// way `net::runtime` drives it (one-message batches, one frame each),
/// and through 64-message batches.
pub fn wire<S>(
    ops: &[NsOp<S::Op>],
    write_op: &NsOp<S::Op>,
    write_resp: &S::Resp,
    spans: &mut Spans,
) -> Result<Metrics, String>
where
    S: SequentialSpec,
    S::Op: Encode + Decode,
    S::Resp: Encode,
{
    type Msg<S> = OpMsg<Namespace<S>>;
    let msg = |i: usize, op: &NsOp<S::Op>| -> Msg<S> {
        OpMsg {
            op: op.clone(),
            ts: Timestamp::new(
                ClockTime::from_ticks(1_000_000 + i as i64 * 437),
                ProcessId::new(i as u32 % 3),
            ),
        }
    };
    let corpus: Vec<Msg<S>> = ops.iter().enumerate().map(|(i, op)| msg(i, op)).collect();
    let n = corpus.len();

    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let encode = ns_per(spans, "net.wire.encode_batch", n, || {
        payloads = corpus
            .iter()
            .map(|m| encode_batch(std::slice::from_ref(black_box(m))))
            .collect();
    });
    let mut decoded: Vec<Msg<S>> = Vec::new();
    let decode = ns_per(spans, "net.wire.decode_batch", n, || {
        decoded.clear();
        for p in &payloads {
            decoded.extend(decode_batch::<Msg<S>>(black_box(p), 1).expect("corpus decodes"));
        }
    });
    // OpMsg has no PartialEq; byte equality of the re-encoding is the
    // round-trip check.
    if encode_batch(&decoded) != payloads.concat() {
        return Err("wire corpus did not survive encode → decode → encode".into());
    }

    let mut frame_ok = true;
    let frame = ns_per(spans, "net.wire.frame", n, || {
        for (i, p) in payloads.iter().enumerate() {
            let header = peer_header(i as u64, 1);
            let frame = encode_frame(black_box(&header), p);
            let (h, body) = decode_frame(&frame[4..]).expect("frame decodes");
            frame_ok &= h == header && body == p.as_slice();
        }
    });
    if !frame_ok {
        return Err("a frame did not survive encode_frame → decode_frame".into());
    }

    let batches: Vec<Vec<u8>> = corpus.chunks_exact(64).map(encode_batch).collect();
    let batch64 = ns_per(spans, "net.wire.decode_batch64", batches.len() * 64, || {
        for p in &batches {
            black_box(decode_batch::<Msg<S>>(black_box(p), 64).expect("batch decodes"));
        }
    });

    // Bytes on the sockets for one write: the client's request, one peer
    // frame to each of the two other replicas, the response.
    let bytes_per_write = || {
        let client = FrameHeader {
            kind: FrameKind::ClientReq,
            ..peer_header(1, 0)
        };
        let peer = encode_frame(&peer_header(1, 1), &encode_batch(&[msg(0, write_op)]));
        encode_frame(&client, &to_bytes(write_op)).len()
            + 2 * peer.len()
            + encode_frame(&client, &to_bytes(write_resp)).len()
    };
    let bytes = bytes_per_write();
    if bytes != bytes_per_write() {
        return Err("bytes per write op differ between two encodings".into());
    }

    let mut m = Metrics::default();
    m.set_q("net.wire.encode_ns_per_msg", encode, WIRE_ROUNDS);
    m.set_q("net.wire.decode_ns_per_msg", decode, WIRE_ROUNDS);
    m.set_q("net.wire.frame_ns", frame, WIRE_ROUNDS);
    m.set_q("net.wire.batch64_decode_ns_per_msg", batch64, WIRE_ROUNDS);
    m.set("net.wire.bytes_per_write_op", bytes as f64);
    Ok(m)
}

/// A seeded corpus of `CORPUS` operations drawn by the workload's own
/// generator.
pub fn corpus<Op>(seed: u64, gen: impl Fn(&mut StdRng, u64) -> Op) -> Vec<NsOp<Op>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..CORPUS as u64)
        .map(|i| NsOp::new(rng.gen_range(0..4096), gen(&mut rng, i)))
        .collect()
}

/// `net.tcp.hop_*`: two in-process meshes on loopback play ping-pong
/// with one small peer frame and no injected delay; a hop is half a
/// round trip.
pub fn tcp_hop(spans: &mut Spans) -> Result<Metrics, String> {
    let io = |e: std::io::Error| format!("tcp hop: {e}");
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let l0 = MeshListener::bind(p0, "127.0.0.1:0").map_err(io)?;
    let l1 = MeshListener::bind(p1, "127.0.0.1:0").map_err(io)?;
    let (a0, a1) = (l0.local_addr().map_err(io)?, l1.local_addr().map_err(io)?);
    let m0 = l0.start(&[(p1, a1)]).map_err(io)?;
    let m1 = l1.start(&[(p0, a0)]).map_err(io)?;
    let wait = Duration::from_secs(10);
    let payload = [0u8; 32];

    let echo = std::thread::spawn(move || {
        let mut tx = m1.peer_sender();
        for i in 0..=HOP_ROUND_TRIPS as u64 {
            match m1.recv_timeout(wait) {
                Some(RawEvent::Peer { .. }) => {}
                other => return Err(format!("echo side got {other:?} at round trip {i}")),
            }
            // Ids start at 1: the per-sender dedup watermark starts at 0.
            tx.send_frame(p0, &encode_frame(&peer_header(i + 1, 1), &payload))
                .map_err(|e| format!("echo send: {e}"))?;
        }
        m1.shutdown();
        Ok(())
    });

    let mut tx = m0.peer_sender();
    let mut hops = Vec::with_capacity(HOP_ROUND_TRIPS);
    let mut failure = None;
    // Round trip 0 carries the connection set-up and is not timed.
    let ((), _) = spans.time("net.tcp.ping_pong", None, 0, || {
        for i in 0..=HOP_ROUND_TRIPS as u64 {
            let start = Instant::now();
            let sent = tx.send_frame(p1, &encode_frame(&peer_header(i + 1, 1), &payload));
            match (sent, m0.recv_timeout(wait)) {
                (Ok(()), Some(RawEvent::Peer { .. })) if i > 0 => {
                    hops.push(start.elapsed().as_secs_f64() * 1e6 / 2.0);
                }
                (Ok(()), Some(RawEvent::Peer { .. })) => {}
                (sent, got) => {
                    failure = Some(format!(
                        "ping side: send {sent:?}, got {got:?} at round trip {i}"
                    ));
                    break;
                }
            }
        }
    });
    m0.shutdown();
    let echoed = echo
        .join()
        .map_err(|_| "tcp hop echo thread panicked".to_owned())?;
    if let Some(f) = failure {
        return Err(f);
    }
    echoed?;

    let hops = sorted(hops);
    let mut m = Metrics::default();
    m.set_q("net.tcp.hop_p50_us", quantile(&hops, 0.5), hops.len());
    m.set_q("net.tcp.hop_p90_us", quantile(&hops, 0.9), hops.len());
    Ok(m)
}

/// `sim.rt.excess_p50_us`: the workload's operation mix on the thread
/// runtime — same replicas, same timers, channels instead of sockets
/// and codec.
pub fn rt_excess<S>(
    spec: S,
    params: &Params,
    seed: u64,
    ops_per_process: usize,
    gen: impl Fn(&mut StdRng, u64) -> S::Op,
    spans: &mut Spans,
) -> Metrics
where
    S: SequentialSpec + Clone + Send + Sync + 'static,
    S::State: Send,
    S::Op: Send + 'static,
    S::Resp: Send + 'static,
{
    let ns = Namespace::new(spec);
    let class_of = ns.clone();
    let mut driver = ClosedLoop::new(
        vec![ProcessId::new(0), ProcessId::new(1)],
        ops_per_process,
        seed,
        move |_pid: ProcessId, index: usize, rng: &mut StdRng| {
            // One key per 64 operations of a process, as on the mesh.
            NsOp::new(index as u64 / 64, gen(rng, index as u64))
        },
    );
    let (history, _) = spans.time("sim.rt.run_history_rt", None, 0, || {
        run_history_rt(
            Replica::group(ns, params),
            &ClockAssignment::zero(params.n()),
            params.delay_bounds(),
            seed,
            &mut driver,
            Duration::from_micros(2 * params.d().as_ticks()),
        )
    });
    let excess: Vec<f64> = history
        .records()
        .iter()
        .map(|r| {
            let bound = class_bound(params, class_of.class(&r.op));
            r.latency().expect("complete history").as_ticks() as f64 - bound.as_ticks() as f64
        })
        .collect();
    let excess = sorted(excess);
    let mut m = Metrics::default();
    m.set_q("sim.rt.excess_p50_us", quantile(&excess, 0.5), excess.len());
    m
}
