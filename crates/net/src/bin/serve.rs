//! `skewbound-serve` — one replica process of a TCP-meshed Algorithm 1
//! group.
//!
//! ```text
//! skewbound-serve --pid 0 --listen 127.0.0.1:7400 \
//!     --peer 1=127.0.0.1:7401 --peer 2=127.0.0.1:7402 \
//!     --object register --d 9000 --u 2400 \
//!     --epoch-micros 1754650000000000 --seed 7 --trace trace0.jsonl
//! ```
//!
//! The process hosts one [`Namespace`]-wrapped object replica, serves
//! client sessions over the same socket it meshes on, and exits once a
//! client sends `Bye` and the replica has drained. With `--trace` the
//! full structured event trace is written as JSON lines on exit — the
//! same schema the engine emits, so `skewlint audit` consumes it
//! directly.
//!
//! On exit it prints one summary line,
//! `skewbound-serve pid=… object=… ops=N complete=true`: `ops` is the
//! number of operations it answered. `complete` is true by
//! construction, since the server exits only once drained with nothing
//! pending or queued; the field stays for the line's readers (`ci.sh`
//! and the benchmark's mesh driver).

use std::net::SocketAddr;
use std::process::exit;

use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_lint::JsonLinesSink;
use skewbound_net::runtime::{run_server, tighten_timer_slack, ServerConfig};
use skewbound_net::tcp::MeshListener;
use skewbound_net::wire::{Decode, Encode};
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::UniformDelay;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimDuration;
use skewbound_sim::trace::TraceSink;
use skewbound_spec::catalog::ObjectKind;
use skewbound_spec::kv::KvStore;
use skewbound_spec::namespace::Namespace;
use skewbound_spec::queue::Queue;
use skewbound_spec::register::RwRegister;
use skewbound_spec::seqspec::SequentialSpec;

const USAGE: &str = "usage: skewbound-serve --pid N --listen ADDR \
    --peer PID=ADDR [--peer PID=ADDR ...] --object register|queue|kv \
    --d MICROS --u MICROS [--eps MICROS] [--x MICROS] \
    --epoch-micros UNIX_MICROS [--seed N] [--headroom MICROS] [--trace PATH]";

fn fail(msg: &str) -> ! {
    eprintln!("skewbound-serve: {msg}\n{USAGE}");
    exit(2);
}

struct Args {
    pid: ProcessId,
    listen: String,
    peers: Vec<(ProcessId, SocketAddr)>,
    object: ObjectKind,
    params: Params,
    epoch_micros: u64,
    seed: u64,
    headroom: Option<u64>,
    trace: Option<String>,
}

fn parse_args() -> Args {
    let mut pid = None;
    let mut listen = None;
    let mut peers = Vec::new();
    let mut object = None;
    let mut d = None;
    let mut u = None;
    let mut eps = None;
    let mut x = 0u64;
    let mut epoch_micros = None;
    let mut seed = 1u64;
    let mut headroom = None;
    let mut trace = None;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--pid" => pid = Some(parse_pid(&value("--pid"), "--pid")),
            "--listen" => listen = Some(value("--listen")),
            "--peer" => {
                let v = value("--peer");
                let (p, addr) = v
                    .split_once('=')
                    .unwrap_or_else(|| fail("--peer wants PID=ADDR"));
                let addr: SocketAddr = addr
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad peer address {addr}")));
                peers.push((parse_pid(p, "--peer pid"), addr));
            }
            "--object" => {
                let v = value("--object");
                object = Some(v.parse().unwrap_or_else(|e| fail(&format!("{e}"))));
            }
            "--d" => d = Some(parse_u64(&value("--d"), "--d")),
            "--u" => u = Some(parse_u64(&value("--u"), "--u")),
            "--eps" => eps = Some(parse_u64(&value("--eps"), "--eps")),
            "--x" => x = parse_u64(&value("--x"), "--x"),
            "--epoch-micros" => {
                epoch_micros = Some(parse_u64(&value("--epoch-micros"), "--epoch-micros"));
            }
            "--seed" => seed = parse_u64(&value("--seed"), "--seed"),
            "--headroom" => headroom = Some(parse_u64(&value("--headroom"), "--headroom")),
            "--trace" => trace = Some(value("--trace")),
            other => fail(&format!("unknown flag {other}")),
        }
    }

    let pid = pid.unwrap_or_else(|| fail("--pid is required"));
    let n = peers.len() + 1;
    // The group is pids 0..n: each exactly once, this process included.
    let mut pids: Vec<u32> = peers.iter().map(|&(p, _)| p.as_u32()).collect();
    pids.push(pid.as_u32());
    pids.sort_unstable();
    if let Some(dup) = pids.windows(2).find(|w| w[0] == w[1]) {
        fail(&format!("pid {} is given twice", dup[0]));
    }
    if let Some(missing) = (0..).zip(&pids).find(|&(want, &got)| want != got) {
        fail(&format!(
            "pid {} is missing: the group must be pids 0..{n}",
            missing.0
        ));
    }
    let d = d.unwrap_or_else(|| fail("--d is required"));
    // Every injected delay is at most d and travels in the frame
    // header's u32 `delay_micros`.
    if d > u64::from(u32::MAX) {
        fail(&format!("--d {d} exceeds the header's u32 delay"));
    }
    let d = SimDuration::from_ticks(d);
    let u = SimDuration::from_ticks(u.unwrap_or_else(|| fail("--u is required")));
    let x = SimDuration::from_ticks(x);
    let params = match eps {
        Some(e) => Params::new(n, d, u, SimDuration::from_ticks(e), x),
        None => Params::with_optimal_skew(n, d, u, x),
    }
    .unwrap_or_else(|e| fail(&format!("invalid parameters: {e}")));

    Args {
        pid,
        listen: listen.unwrap_or_else(|| fail("--listen is required")),
        peers,
        object: object.unwrap_or_else(|| fail("--object is required")),
        params,
        epoch_micros: epoch_micros.unwrap_or_else(|| fail("--epoch-micros is required")),
        seed,
        headroom,
        trace,
    }
}

fn parse_pid(s: &str, what: &str) -> ProcessId {
    let pid = u32::try_from(parse_u64(s, what));
    ProcessId::new(pid.unwrap_or_else(|_| fail(&format!("{what} {s} does not fit a u32"))))
}

fn parse_u64(s: &str, what: &str) -> u64 {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("{what} wants an integer, got {s}")))
}

fn serve<S>(spec: S, args: &Args)
where
    S: SequentialSpec,
    S::Op: Encode + Decode,
    S::Resp: Encode,
{
    let replica = Replica::new(spec, &args.params);
    let n = args.params.n();
    let mut cfg = ServerConfig::new(args.pid, n, args.params.delay_bounds(), args.epoch_micros);
    if let Some(h) = args.headroom {
        // A larger headroom widens the gap between the injected-delay
        // ceiling and d, absorbing more OS scheduling jitter before a
        // delivery falls outside the audited [d − u, d] window.
        cfg.headroom_micros = h;
    }
    let draw = cfg
        .delay_draw_bounds()
        .unwrap_or_else(|e| fail(&format!("no delay fits under the headroom: {e}")));
    let delays = UniformDelay::new(draw, args.seed ^ u64::from(args.pid.as_u32()));
    let listener = MeshListener::bind(args.pid, &args.listen)
        .unwrap_or_else(|e| fail(&format!("cannot listen on {}: {e}", args.listen)));
    let mesh = listener
        .start(&args.peers)
        .unwrap_or_else(|e| fail(&format!("cannot start mesh: {e}")));

    let mut sink = JsonLinesSink::new();
    let sink_ref: Option<&mut dyn TraceSink> = args.trace.as_ref().map(|_| &mut sink as _);
    let clocks = ClockAssignment::zero(n);
    let ops = run_server(replica, &cfg, &clocks, delays, &mesh, sink_ref);
    mesh.shutdown();

    if let Some(path) = &args.trace {
        std::fs::write(path, sink.into_string())
            .unwrap_or_else(|e| fail(&format!("cannot write trace {path}: {e}")));
    }
    println!(
        "skewbound-serve pid={} object={} ops={ops} complete=true",
        args.pid, args.object
    );
}

fn main() {
    tighten_timer_slack();
    let args = parse_args();
    match args.object {
        ObjectKind::Register => serve(Namespace::new(RwRegister::default()), &args),
        ObjectKind::Queue => serve(Namespace::new(Queue::<i64>::new()), &args),
        ObjectKind::Kv => serve(Namespace::new(KvStore::new()), &args),
    }
}
