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
//! reference lines. Exits nonzero if any key's history fails the check.

use std::collections::BTreeMap;
use std::process::exit;
use std::sync::{Barrier, Mutex};

use skewbound_core::params::Params;
use skewbound_lin::checker::check_history;
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
use skewbound_spec::seqspec::SequentialSpec;

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
    // 128 operations cannot be checked, so the per-key load must not
    // exceed it.
    match sessions.div_ceil(keys).checked_mul(ops) {
        Some(per_key) if per_key <= 128 => {}
        Some(per_key) => fail(&format!(
            "~{per_key} ops per key exceeds the checker's 128-op limit; raise --keys"
        )),
        None => fail("ops per key overflow u64, far past the checker's 128-op limit"),
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
    key: u64,
    pid: ProcessId,
    invoked: u64,
    op: S::Op,
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
                        let op = gen(session, i);
                        let wire_op = NsOp::new(key, op.clone());
                        let invoked = base.now_ticks();
                        let resp: S::Resp = client
                            .invoke(&wire_op)
                            .unwrap_or_else(|e| fail(&format!("invoke on {server}: {e}")));
                        let responded = base.now_ticks();
                        local.push(Rec {
                            key,
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
    let total_ops = records.len() as u64;

    // Rebuild each key's history in client-observed real-time order and
    // check it against the object's sequential spec. A key of the
    // namespace is an independent object, so per-key checking is exact.
    let mut by_key: BTreeMap<u64, History<S::Op, S::Resp>> = BTreeMap::new();
    for r in records {
        let h = by_key.entry(r.key).or_default();
        let id = h.record_invoke(r.pid, r.op, SimTime::from_ticks(r.invoked));
        h.record_response(id, r.resp, SimTime::from_ticks(r.responded));
    }
    let mut keys_checked = 0u64;
    let mut failures = 0u64;
    for (key, history) in &by_key {
        let outcome = check_history(inner, history);
        if outcome.is_linearizable() {
            keys_checked += 1;
        } else {
            failures += 1;
            eprintln!(
                "skewbound-load: key {key} is NOT linearizable over {} ops",
                history.len()
            );
        }
    }

    let Some(latency) = LatencySummary::from_latencies(&latencies) else {
        fail("no operations completed");
    };
    println!(
        "skewbound-load object={} sessions={} ops={} keys={} linearizable={}/{} \
         p50={}us p99={}us max={}us (d+eps={}us, 2d={}us)",
        args.object,
        args.sessions,
        total_ops,
        by_key.len(),
        keys_checked,
        by_key.len(),
        latency.p50.as_ticks(),
        latency.p99.as_ticks(),
        latency.max.as_ticks(),
        (args.params.d() + args.params.eps()).as_ticks(),
        (args.params.d() * 2).as_ticks(),
    );
    i32::from(failures > 0)
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
