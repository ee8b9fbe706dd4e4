//! The two mesh workloads: a closed-loop load on three
//! `skewbound-serve` processes, checked per key for linearizability and
//! measured against each operation's class bound.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skewbound_core::params::Params;
use skewbound_lin::checker::{check_history, CheckOutcome};
use skewbound_net::runtime::TimeBase;
use skewbound_net::wire::{Decode, Encode};
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimTime;
use skewbound_spec::namespace::NsOp;
use skewbound_spec::queue::{Queue, QueueOp, QueueResp};
use skewbound_spec::register::{RegOp, RegResp, RwRegister};
use skewbound_spec::seqspec::{OpClass, SequentialSpec};

use crate::join::{join_ops, OpPath};
use crate::layers::{self, class_bound};
use crate::mesh::{Mesh, MeshConfig, Probe, StampedClient, SCRATCH_KEYS};
use crate::metrics::{median, RunResult};
use crate::nettrace;
use crate::spans::Spans;
use crate::Env;

/// Load connections (and threads): one per core of the 2-vCPU host the
/// bounds were sized on. Closed loop — the service admits one pending
/// operation per process, so a caller always waits for its reply.
const CLIENTS: usize = 2;
/// Operations a client sends to one key before moving to the next. Both
/// clients walk the same keys, so a key sees at most 128 operations —
/// the checker's limit.
const OPS_PER_KEY: u64 = 64;
const WARMUP: Duration = Duration::from_millis(300);
/// Fresh meshes per untraced run, each measured for an equal share of it.
const SEGMENTS: u64 = 8;

/// One mesh workload: which object the servers host, with which flags,
/// and what the clients send.
pub struct NetWorkload<S: SequentialSpec> {
    pub name: &'static str,
    cfg: MeshConfig,
    spec: S,
    probe: Probe<S::Op, S::Resp>,
    /// Draws the `index`-th operation of a client.
    gen: fn(&mut StdRng, u64) -> S::Op,
    /// A pure mutator and its response, for `bytes_per_write_op`.
    write: (S::Op, S::Resp),
    /// Operations per process of the thread-runtime baseline.
    rt_ops: usize,
    /// Whether the traced pass fails when the trace join does not
    /// close: only where nearly every operation is a pure mutator.
    gate_closure: bool,
}

fn mesh_cfg(object: &'static str, eps: Option<u64>, seed: u64) -> MeshConfig {
    MeshConfig {
        object,
        d: 20_000,
        u: 8_000,
        headroom: 7_000,
        eps,
        seed,
    }
}

/// `net-queue-mixed`: the paper-shaped point, optimal `ε = 5334`.
pub fn queue_mixed(seed: u64) -> NetWorkload<Queue<i64>> {
    NetWorkload {
        name: "net-queue-mixed",
        cfg: mesh_cfg("queue", None, seed),
        spec: Queue::new(),
        probe: Probe {
            write: QueueOp::Enqueue,
            read: || QueueOp::Peek,
            saw: |resp, v| *resp == QueueResp::Value(Some(v)),
        },
        gen: |rng, index| match rng.gen_range(0..3u32) {
            0 => QueueOp::Enqueue(index as i64),
            1 => QueueOp::Dequeue,
            _ => QueueOp::Peek,
        },
        write: (QueueOp::Enqueue(1), QueueResp::Ack),
        rt_ops: 100,
        gate_closure: false,
    }
}

/// `net-register-writes`: `ε = 500 µs` is honest on one host, where the
/// shared-epoch timebase keeps skew far below it; `u` and the headroom
/// stay, so a 7 ms scheduling stall is still inside the model.
pub fn register_writes(seed: u64) -> NetWorkload<RwRegister<i64>> {
    NetWorkload {
        name: "net-register-writes",
        cfg: mesh_cfg("register", Some(500), seed),
        spec: RwRegister::default(),
        probe: Probe {
            write: RegOp::Write,
            read: || RegOp::Read,
            saw: |resp, v| *resp == RegResp::Value(v),
        },
        gen: |rng, index| {
            if rng.gen_range(0..128u32) == 0 {
                RegOp::Read
            } else {
                RegOp::Write(index as i64)
            }
        },
        write: (RegOp::Write(1), RegResp::Ack),
        rt_ops: 2_000,
        gate_closure: true,
    }
}

/// One measured operation as its client saw it.
struct Rec<S: SequentialSpec> {
    key: u64,
    pid: u32,
    op: S::Op,
    resp: S::Resp,
    invoked: u64,
    responded: u64,
    /// Index into the connection's stamp log (and so into the server's
    /// sequence of invokes).
    stamp: usize,
}

/// What one load phase on one mesh produced.
struct Load<S: SequentialSpec> {
    recs: Vec<Rec<S>>,
    /// `invoke` errors of the measured phase (each ends its client).
    errors: u64,
    wall: Duration,
    /// Host freezes longer than the headroom that the watchdog saw.
    freezes: Vec<Freeze>,
}

/// A stretch during which the whole host stood still, in ticks of the
/// mesh's timebase.
#[derive(Debug, Clone, Copy)]
struct Freeze {
    from: u64,
    to: u64,
}

/// Sleeps in short steps and reports every step that overran by more
/// than `threshold_us`. On a shared VM the hypervisor takes both vCPUs
/// away for tens of milliseconds every few seconds; every process of
/// the mesh stands still with this thread, so what it sees is what the
/// servers suffered. A freeze longer than the headroom can push a
/// delivery out of `[d − u, d]`: the model's premise, not the
/// implementation, is then what broke.
fn watchdog(base: TimeBase, stop: &AtomicBool, threshold_us: u64) -> Vec<Freeze> {
    const STEP: Duration = Duration::from_millis(2);
    let mut freezes = Vec::new();
    let mut last = base.now_ticks();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(STEP);
        let now = base.now_ticks();
        if now - last > STEP.as_micros() as u64 + threshold_us {
            freezes.push(Freeze {
                from: last,
                to: now,
            });
        }
        last = now;
    }
    freezes
}

/// The client of server `pid`: warm-up, then `measure` of closed-loop
/// operations drawn by `gen`. Returns the records, the `invoke` errors
/// and when the last response arrived.
fn client_loop<S>(
    gen: fn(&mut StdRng, u64) -> S::Op,
    seed: u64,
    pid: u32,
    client: &mut StampedClient,
    go: &Barrier,
    measure: Duration,
) -> (Vec<Rec<S>>, u64, Instant)
where
    S: SequentialSpec,
    S::Op: Encode,
    S::Resp: Decode,
{
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(pid));
    let mut recs = Vec::new();
    let mut errors = 0;

    // Warm-up on a scratch key of this client's own: connections,
    // allocator and branch predictors settle; nothing is recorded.
    let warm_until = Instant::now() + WARMUP;
    let mut warm = 0u64;
    while Instant::now() < warm_until {
        let op = NsOp::new(SCRATCH_KEYS - 1 - u64::from(pid), gen(&mut rng, warm));
        if client.invoke::<S::Op, S::Resp>(&op).is_err() {
            break; // the measured phase will count the dead server
        }
        warm += 1;
    }

    go.wait();
    let until = Instant::now() + measure;
    let mut index = 0u64;
    while Instant::now() < until {
        let op = gen(&mut rng, index << 1 | u64::from(pid));
        let wire_op = NsOp::new(index / OPS_PER_KEY, op);
        match client.invoke::<S::Op, S::Resp>(&wire_op) {
            Ok((resp, invoked, responded)) => recs.push(Rec {
                key: wire_op.key,
                pid,
                op: wire_op.op,
                resp,
                invoked,
                responded,
                stamp: client.stamps.len() - 1,
            }),
            Err(e) => {
                eprintln!("invoke at server {pid} failed: {e}");
                errors += 1;
                break; // the connection is unusable from here on
            }
        }
        index += 1;
    }
    (recs, errors, Instant::now())
}

fn drive<S>(w: &NetWorkload<S>, mesh: &mut Mesh, measure: Duration, segment: u64) -> Load<S>
where
    S: SequentialSpec,
    S::Op: Encode + Send,
    S::Resp: Decode + Send,
{
    let go = Barrier::new(CLIENTS + 1);
    let (gen, seed) = (w.gen, w.cfg.seed.wrapping_add(segment));
    let (base, headroom) = (mesh.base, w.cfg.headroom);
    let stop = AtomicBool::new(false);
    let (start, outcomes, freezes) = std::thread::scope(|scope| {
        let watch = scope.spawn(|| watchdog(base, &stop, headroom));
        let handles: Vec<_> = mesh.clients[..CLIENTS]
            .iter_mut()
            .enumerate()
            .map(|(pid, client)| {
                let go = &go;
                scope.spawn(move || client_loop::<S>(gen, seed, pid as u32, client, go, measure))
            })
            .collect();
        go.wait();
        let start = Instant::now();
        let outcomes: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        (start, outcomes, watch.join().expect("watchdog panicked"))
    });
    let mut load = Load {
        recs: Vec::new(),
        errors: 0,
        wall: Duration::ZERO,
        freezes,
    };
    for (recs, errors, end) in outcomes {
        load.errors += errors;
        load.wall = load.wall.max(end - start);
        load.recs.extend(recs);
    }
    load.recs.sort_by_key(|r| (r.invoked, r.pid));
    load
}

/// Checks every key's client-observed history against the inner spec;
/// returns the number of operations on keys that did not pass. A key
/// that fails leaves its history in `<evidence>-key<k>.txt`. A failing
/// key whose lifetime overlaps a host freeze is reported but not
/// counted: the gate holds over the intervals where the model's timing
/// premise held, and says so where it did not.
fn check_keys<S: SequentialSpec>(
    spec: &S,
    load: &Load<S>,
    evidence: &Path,
    result: &mut RunResult,
) -> u64 {
    let mut by_key: BTreeMap<u64, History<S::Op, S::Resp>> = BTreeMap::new();
    for r in &load.recs {
        let h = by_key.entry(r.key).or_default();
        let id = h.record_invoke(
            ProcessId::new(r.pid),
            r.op.clone(),
            SimTime::from_ticks(r.invoked),
        );
        h.record_response(id, r.resp.clone(), SimTime::from_ticks(r.responded));
    }
    let mut bad_ops = 0;
    for (key, history) in &by_key {
        let verdict = match check_history(spec, history) {
            CheckOutcome::Linearizable(_) => continue,
            CheckOutcome::NotLinearizable(_) => "is not linearizable",
            CheckOutcome::Unknown { .. } => "could not be decided within the checker's node limit",
        };
        let path = format!("{}-key{key}.txt", evidence.display());
        let lines: Vec<String> = history
            .records()
            .iter()
            .map(|r| {
                format!(
                    "{} {} {:?} {:?} -> {:?}",
                    r.pid,
                    r.invoked_at,
                    r.responded_at(),
                    r.op,
                    r.resp()
                )
            })
            .collect();
        // Best effort: the verdict stands whether or not the evidence could be written.
        let _ = std::fs::write(&path, lines.join("\n"));
        let what = format!(
            "key {key} {verdict} over {} ops (history in {path})",
            history.len()
        );

        let records = history.records();
        let first = records
            .iter()
            .map(|r| r.invoked_at.as_ticks())
            .min()
            .unwrap_or(0);
        let last = records
            .iter()
            .filter_map(|r| r.responded_at())
            .map(SimTime::as_ticks)
            .max()
            .unwrap_or(0);
        match load.freezes.iter().find(|f| f.from <= last && f.to >= first) {
            Some(f) => result.notes.push(format!(
                "{what}; not counted: the host froze for {} us while the key was live, longer than the headroom",
                f.to - f.from
            )),
            None => {
                bad_ops += history.len() as u64;
                result.fail(what);
            }
        }
    }
    bad_ops
}

/// Every operation's class and its client-observed latency minus the
/// class bound, in µs.
fn excess<S: SequentialSpec>(spec: &S, params: &Params, load: &Load<S>) -> Vec<(OpClass, f64)> {
    load.recs
        .iter()
        .map(|r| {
            let class = spec.class(&r.op);
            let bound = class_bound(params, class).as_ticks();
            (class, (r.responded - r.invoked) as f64 - bound as f64)
        })
        .collect()
}

fn p50(excess: &[(OpClass, f64)]) -> f64 {
    median(excess.iter().map(|&(_, e)| e).collect())
}

/// Shuts the mesh down and folds the servers' exits into the result.
fn finish(mesh: Mesh, result: &mut RunResult) {
    for (pid, exit) in mesh.finish().iter().enumerate() {
        if !exit.success || !exit.complete {
            result.fail(format!(
                "server {pid} ended with success={} complete={}",
                exit.success, exit.complete
            ));
            result.failed = result.attempted;
        }
    }
}

impl<S> NetWorkload<S>
where
    S: SequentialSpec + Clone + Send + Sync + 'static,
    S::State: Send,
    S::Op: Encode + Decode + Debug + Send + Sync + 'static,
    S::Resp: Encode + Decode + Send + 'static,
{
    /// Starts mesh number `segment` of this run; the number salts the
    /// servers' delay draws.
    fn start(&self, env: &Env, trace_stem: Option<&Path>, segment: u64) -> Result<Mesh, String> {
        let cfg = MeshConfig {
            seed: self.cfg.seed.wrapping_add(segment),
            ..self.cfg.clone()
        };
        Mesh::start(&env.serve_bin, &cfg, trace_stem, &self.probe)
            .map_err(|e| format!("{}: mesh did not start: {e}", self.name))
    }

    /// One load phase on a fresh mesh; fills `result` with the counts
    /// and gates and returns the load for the caller's metrics.
    fn load_on(
        &self,
        env: &Env,
        mesh: &mut Mesh,
        measure: Duration,
        segment: u64,
        result: &mut RunResult,
    ) -> Load<S> {
        let load = drive(self, mesh, measure, segment);
        let evidence = env
            .out_dir
            .join(format!("{}-violation-mesh{segment}", self.name));
        result.attempted += load.recs.len() as u64 + load.errors;
        result.failed += load.errors + check_keys(&self.spec, &load, &evidence, result);
        if load.errors > 0 {
            result.fail(format!("{} invoke errors", load.errors));
        }
        load
    }

    /// The untraced pass: end-to-end metrics. The measured time is split
    /// over `SEGMENTS` fresh meshes and every metric is the median over
    /// them: where the scheduler happens to place the eighteen threads
    /// of a mesh shifts its latencies for as long as it lives, and one
    /// mesh per run would carry that luck into the result.
    pub fn run(&self, env: &Env, seconds: f64) -> Result<RunResult, String> {
        let mut result = RunResult::new();
        let params = self.cfg.params();
        let measure = Duration::from_secs_f64(seconds / SEGMENTS as f64);
        let (mut setups, mut rates, mut excesses, mut freezes) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut rss = 0;
        for segment in 0..SEGMENTS {
            let mut mesh = self.start(env, None, segment)?;
            setups.push(mesh.setup.as_secs_f64());
            let load = self.load_on(env, &mut mesh, measure, segment, &mut result);
            rss = rss.max(mesh.peak_rss_bytes());
            finish(mesh, &mut result);
            if load.recs.is_empty() {
                return Err(format!("{}: no operation completed", self.name));
            }
            freezes.extend(load.freezes.iter().map(|f| f.to - f.from));
            rates.push(load.recs.len() as f64 / load.wall.as_secs_f64());
            excesses.push(p50(&excess(&self.spec, &params, &load)));
        }
        result.notes.push(format!(
            "{SEGMENTS} meshes, {} ops in all; per mesh: excess p50 {excesses:?} us, ops/s {:?}",
            result.attempted,
            rates.iter().map(|r| r.round()).collect::<Vec<_>>()
        ));
        result.notes.push(format!(
            "host freezes longer than the headroom while measuring: {freezes:?} us"
        ));

        let n = SEGMENTS as usize;
        let m = &mut result.metrics;
        m.set_q("ops_per_s", median(rates), n);
        m.set_q("excess_p50_us", median(excesses), n);
        m.set("peak_rss_mb", rss as f64 / 1e6);
        m.set_q("setup_s", median(setups), n);
        Ok(result)
    }

    /// The traced pass: a short untraced reference load (for the trace
    /// overhead), the traced load joined with the servers' traces, the
    /// audit, and the single-layer measurements.
    pub fn run_traced(&self, env: &Env, seconds: f64) -> Result<RunResult, String> {
        let mut result = RunResult::new();
        let mut spans = Spans::new();
        let params = self.cfg.params();
        let fail = |what: String| format!("{}: {what}", self.name);
        // The same length for both loads: a server's cost per operation
        // creeps up with the keys it holds, and the overhead of tracing
        // is the difference between the two.
        let measure = Duration::from_secs_f64(seconds * 0.3);

        let mut reference = RunResult::new();
        let mut mesh = self.start(env, None, 0)?;
        let untraced = self.load_on(env, &mut mesh, measure, 0, &mut reference);
        finish(mesh, &mut reference);
        if !reference.correct || untraced.recs.is_empty() {
            return Err(fail(format!(
                "untraced reference load failed: {:?}",
                reference.notes
            )));
        }

        let stem = env.out_dir.join(format!("{}-trace", self.name));
        let mut mesh = self.start(env, Some(&stem), 1)?;
        // The readiness probe's last response: nothing before it counts.
        let ready_tick = mesh
            .clients
            .iter()
            .flat_map(|c| &c.stamps)
            .map(|s| s.1)
            .max()
            .unwrap_or(0) as i64;
        let load = self.load_on(env, &mut mesh, measure, 1, &mut result);
        let stamps: Vec<Vec<(u64, u64)>> = mesh.clients[..CLIENTS]
            .iter_mut()
            .map(|c| std::mem::take(&mut c.stamps))
            .collect();
        let trace_paths = std::mem::take(&mut mesh.trace_paths);
        finish(mesh, &mut result);
        if load.recs.is_empty() {
            return Err(fail("no operation completed under tracing".into()));
        }

        let traced_excess = excess(&self.spec, &params, &load);
        let mut m = nettrace::client_side(&traced_excess, self.cfg.headroom);
        m.set(
            "net.runtime.trace_overhead_us",
            p50(&traced_excess) - p50(&excess(&self.spec, &params, &untraced)),
        );

        // Each load connection joined with its server's trace.
        let per_server = nettrace::read_traces(&trace_paths)?;
        let mut paths: Vec<(OpClass, OpPath)> = Vec::with_capacity(load.recs.len());
        for (pid, stamps) in stamps.iter().enumerate() {
            let joined = join_ops(&per_server[pid], pid as i64, stamps)?;
            for r in load.recs.iter().filter(|r| r.pid as usize == pid) {
                paths.push((self.spec.class(&r.op), joined[r.stamp]));
            }
        }
        m.extend(nettrace::path_metrics(&paths, &mut spans).map_err(fail)?);
        let mop_excess = m
            .get("net.runtime.excess_mop_p50_us")
            .map_or(0.0, |v| v.value);
        let (closure, closed) = nettrace::closure(&paths, mop_excess);
        if closed || !self.gate_closure {
            result.notes.push(closure);
        } else {
            result.fail(format!("{closure}: more than 20 % apart"));
        }

        let merged = nettrace::merge(per_server);
        // Measured operations plus warm-up: everything sent once the mesh was ready.
        let ops_since_ready = stamps
            .iter()
            .flatten()
            .filter(|s| s.0 as i64 >= ready_tick)
            .count();
        m.extend(
            nettrace::delivery_metrics(&merged, &self.cfg, ready_tick, ops_since_ready)
                .map_err(fail)?,
        );
        m.extend(nettrace::audit(
            &merged,
            &self.cfg,
            ready_tick,
            &mut spans,
            &mut result,
        ));

        let ops = layers::corpus(self.cfg.seed, self.gen);
        let write = NsOp::new(7, self.write.0.clone());
        m.extend(layers::wire::<S>(&ops, &write, &self.write.1, &mut spans)?);
        m.extend(layers::tcp_hop(&mut spans)?);
        m.extend(layers::rt_excess(
            self.spec.clone(),
            &params,
            self.cfg.seed,
            self.rt_ops,
            self.gen,
            &mut spans,
        ));
        result.metrics = m;

        spans
            .dump(&env.out_dir.join(format!("{}-spans.jsonl", self.name)))
            .map_err(|e| format!("cannot write spans: {e}"))?;
        Ok(result)
    }
}
