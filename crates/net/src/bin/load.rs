//! `skewbound-load` — the closed-loop load generator and checker for a
//! TCP-meshed replica group.
//!
//! ```text
//! skewbound-load --server 127.0.0.1:7400 --server 127.0.0.1:7401 \
//!     --server 127.0.0.1:7402 --object register --sessions 1000 \
//!     --d 9000 --u 2400 --bye
//! ```
//!
//! One worker per server; sessions are dealt round-robin, each session
//! runs its operations back-to-back (closed loop: the next request is
//! only sent once the previous response arrived) against one namespace
//! key. After the run, every per-key history — merged across workers in
//! client-observed real-time order — is checked for linearizability
//! against the object's sequential spec, and one summary line reports
//! the latency percentiles next to the paper's `d + ε` and `2d`
//! reference lines, then each class's (`mop_`, `aop_`, `oop_`) p50 and
//! p99 and their excess over the class's own bound. Exits nonzero if any
//! key's history fails the check.

use std::process::exit;
use std::sync::{Barrier, Mutex};

use skewbound_core::bounds::Bound;
use skewbound_core::params::Params;
use skewbound_lin::checker::{CheckOutcome, MAX_OPS};
use skewbound_lin::multi::check_namespace;
use skewbound_net::runtime::{tighten_timer_slack, NetClient, TimeBase};
use skewbound_net::wire::{Decode, Encode};
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::stats::LatencySummary;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_spec::catalog::ObjectKind;
use skewbound_spec::kv::{KvOp, KvStore};
use skewbound_spec::namespace::NsOp;
use skewbound_spec::queue::{Queue, QueueOp};
use skewbound_spec::register::{RegOp, RwRegister};
use skewbound_spec::seqspec::{OpClass, SequentialSpec};

const USAGE: &str = "usage: skewbound-load --server ADDR [--server ADDR ...] \
    --object register|queue|kv --d MICROS --u MICROS [--eps MICROS] [--x MICROS] \
    [--sessions N] [--ops N] [--keys N] [--bye]";

fn fail(msg: &str) -> ! {
    eprintln!("skewbound-load: {msg}\n{USAGE}");
    exit(2);
}

struct Args {
    servers: Vec<String>,
    object: ObjectKind,
    params: Params,
    sessions: u64,
    ops: u64,
    keys: u64,
    bye: bool,
}

fn parse_u64(s: &str, what: &str) -> u64 {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("{what} wants an integer, got {s}")))
}

fn parse_args() -> Args {
    let mut servers = Vec::new();
    let mut object = None;
    let mut d = None;
    let mut u = None;
    let mut eps = None;
    let mut x = 0u64;
    let mut sessions = 1000u64;
    let mut ops = 3u64;
    let mut keys = 32u64;
    let mut bye = false;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--server" => servers.push(value("--server")),
            "--object" => {
                let v = value("--object");
                object = Some(v.parse().unwrap_or_else(|e| fail(&format!("{e}"))));
            }
            "--d" => d = Some(parse_u64(&value("--d"), "--d")),
            "--u" => u = Some(parse_u64(&value("--u"), "--u")),
            "--eps" => eps = Some(parse_u64(&value("--eps"), "--eps")),
            "--x" => x = parse_u64(&value("--x"), "--x"),
            "--sessions" => sessions = parse_u64(&value("--sessions"), "--sessions"),
            "--ops" => ops = parse_u64(&value("--ops"), "--ops"),
            "--keys" => keys = parse_u64(&value("--keys"), "--keys"),
            "--bye" => bye = true,
            other => fail(&format!("unknown flag {other}")),
        }
    }

    if servers.is_empty() {
        fail("at least one --server is required");
    }
    if sessions == 0 || ops == 0 || keys == 0 {
        fail("--sessions, --ops and --keys must be positive");
    }
    let d = SimDuration::from_ticks(d.unwrap_or_else(|| fail("--d is required")));
    let u = SimDuration::from_ticks(u.unwrap_or_else(|| fail("--u is required")));
    let x = SimDuration::from_ticks(x);
    let n = servers.len().max(2);
    let params = match eps {
        Some(e) => Params::new(n, d, u, SimDuration::from_ticks(e), x),
        None => Params::with_optimal_skew(n, d, u, x),
    }
    .unwrap_or_else(|e| fail(&format!("invalid parameters: {e}")));
    // The checker's taken-set is a 128-bit mask: histories longer than
    // `MAX_OPS` operations cannot be checked, so the per-key load must
    // not exceed it.
    match sessions.div_ceil(keys).checked_mul(ops) {
        Some(per_key) if per_key <= MAX_OPS as u64 => {}
        Some(per_key) => fail(&format!(
            "~{per_key} ops per key exceeds the checker's {MAX_OPS}-op limit; raise --keys"
        )),
        None => fail(&format!(
            "ops per key overflow u64, far past the checker's {MAX_OPS}-op limit"
        )),
    }

    Args {
        servers,
        object: object.unwrap_or_else(|| fail("--object is required")),
        params,
        sessions,
        ops,
        keys,
        bye,
    }
}

/// One completed operation as the client observed it.
struct Rec<S: SequentialSpec> {
    pid: ProcessId,
    invoked: u64,
    op: NsOp<S::Op>,
    resp: S::Resp,
    responded: u64,
}

/// Drives the whole load, checks every per-key history, prints the
/// summary line, and returns the process exit code.
fn run_load<S, G>(inner: &S, args: &Args, gen: G) -> i32
where
    S: SequentialSpec,
    S::Op: Encode + Send + Sync,
    S::Resp: Decode + Send,
    G: Fn(u64, u64) -> S::Op + Sync,
{
    let base = TimeBase::new(TimeBase::epoch_now_micros());
    let nservers = args.servers.len();
    let records: Mutex<Vec<Rec<S>>> = Mutex::new(Vec::new());
    let all_done = Barrier::new(nservers);

    std::thread::scope(|scope| {
        for (w, server) in args.servers.iter().enumerate() {
            let (gen, records, base, all_done) = (&gen, &records, &base, &all_done);
            scope.spawn(move || {
                let mut client = NetClient::connect(server.as_str())
                    .unwrap_or_else(|e| fail(&format!("cannot connect to {server}: {e}")));
                let mut local: Vec<Rec<S>> = Vec::new();
                let mut session = w as u64;
                while session < args.sessions {
                    let key = session % args.keys;
                    for i in 0..args.ops {
                        let op = NsOp::new(key, gen(session, i));
                        let invoked = base.now_ticks();
                        let resp: S::Resp = client
                            .invoke(&op)
                            .unwrap_or_else(|e| fail(&format!("invoke on {server}: {e}")));
                        let responded = base.now_ticks();
                        local.push(Rec {
                            pid: ProcessId::new(w as u32),
                            invoked,
                            op,
                            resp,
                            responded,
                        });
                    }
                    session += nservers as u64;
                }
                records.lock().unwrap().append(&mut local);
                if args.bye {
                    // No server may be told to drain while another
                    // worker is still mid-session on its peer.
                    all_done.wait();
                    let _ = client.bye();
                }
            });
        }
    });

    let mut records = records.into_inner().unwrap();
    records.sort_by_key(|r| (r.invoked, r.pid.as_u32()));

    let latencies: Vec<SimDuration> = records
        .iter()
        .map(|r| SimDuration::from_ticks(r.responded - r.invoked))
        .collect();
    let classes: Vec<OpClass> = records.iter().map(|r| inner.class(&r.op.op)).collect();
    let total_ops = records.len() as u64;

    // One namespace history in client-observed real-time order, checked
    // key by key against the object's sequential spec: a key of the
    // namespace is an independent object, so per-key checking is exact.
    let mut history = History::new();
    for r in records {
        let (invoked, responded) = (
            SimTime::from_ticks(r.invoked),
            SimTime::from_ticks(r.responded),
        );
        history.record_complete(r.pid, r.op, invoked, r.resp, responded);
    }
    let outcome = check_namespace(inner, &history);
    let keys = outcome.per_key.len();
    let mut keys_checked = 0;
    for (key, verdict) in &outcome.per_key {
        match verdict {
            CheckOutcome::Linearizable(_) => keys_checked += 1,
            CheckOutcome::NotLinearizable(v) => eprintln!(
                "skewbound-load: key {key} is NOT linearizable over {} ops",
                v.total_ops
            ),
            CheckOutcome::Unknown { nodes } => {
                eprintln!("skewbound-load: key {key} is undecided after {nodes} search nodes");
            }
        }
    }

    let Some(latency) = LatencySummary::from_latencies(&latencies) else {
        fail("no operations completed");
    };
    println!(
        "skewbound-load object={} sessions={} ops={} keys={} linearizable={}/{} \
         p50={}us p99={}us max={}us (d+eps={}us, 2d={}us){}",
        args.object,
        args.sessions,
        total_ops,
        keys,
        keys_checked,
        keys,
        latency.p50.as_ticks(),
        latency.p99.as_ticks(),
        latency.max.as_ticks(),
        (args.params.d() + args.params.eps()).as_ticks(),
        (args.params.d() * 2).as_ticks(),
        per_class(&latencies, &classes, &args.params),
    );
    i32::from(keys_checked < keys)
}

/// The summary line's per-class fields: for each class the load ran, in
/// the order MOP, AOP, OOP, its p50 and p99 latency and their excess
/// over the class's own bound ([`Bound::upper`]; negative when under it).
fn per_class(latencies: &[SimDuration], classes: &[OpClass], params: &Params) -> String {
    let mut fields = String::new();
    for (class, name) in [
        (OpClass::PureMutator, "mop"),
        (OpClass::PureAccessor, "aop"),
        (OpClass::Other, "oop"),
    ] {
        let of_class: Vec<SimDuration> = (latencies.iter().zip(classes))
            .filter_map(|(&latency, &c)| (c == class).then_some(latency))
            .collect();
        let Some(latency) = LatencySummary::from_latencies(&of_class) else {
            continue;
        };
        let (p50, p99) = (latency.p50.as_ticks(), latency.p99.as_ticks());
        let bound = Bound::upper(class).eval(params).as_ticks();
        let excess = |t: u64| t as i64 - bound as i64;
        fields += &format!(
            " {name}_p50={p50}us {name}_p99={p99}us {name}_excess_p50={}us {name}_excess_p99={}us",
            excess(p50),
            excess(p99)
        );
    }
    fields
}

fn main() {
    tighten_timer_slack();
    let args = parse_args();
    let code = match args.object {
        ObjectKind::Register => run_load(&RwRegister::default(), &args, |session, i| {
            if (session + i) % 2 == 0 {
                RegOp::Write((session * 100 + i) as i64)
            } else {
                RegOp::Read
            }
        }),
        ObjectKind::Queue => run_load(&Queue::<i64>::new(), &args, |session, i| {
            if i % 2 == 0 {
                QueueOp::Enqueue((session * 100 + i) as i64)
            } else {
                QueueOp::Dequeue
            }
        }),
        ObjectKind::Kv => run_load(&KvStore::new(), &args, |session, i| match i % 3 {
            0 => KvOp::Put {
                key: (session % 4) as i64,
                value: (session * 100 + i) as i64,
            },
            1 => KvOp::Get {
                key: (session % 4) as i64,
            },
            _ => KvOp::Remove {
                key: ((session + 1) % 4) as i64,
            },
        }),
    };
    exit(code);
}
