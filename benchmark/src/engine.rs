//! `engine-sharded`: the sharded namespace on the virtual-time engine,
//! simulated and then checked, iteration after iteration, with no
//! socket and no real waiting anywhere.

use std::time::Instant;

use skewbound_core::shard::{run_sharded, shard_params, ShardOutcome, ShardWorkload};
use skewbound_lin::checker::{check_history_stats, CheckLimits};
use skewbound_lin::multi::{check_namespace, flatten_batches, split_history};
use skewbound_sim::stats::peak_rss_bytes;
use skewbound_spec::register::RmwRegister;
use skewbound_spec::seqspec::SequentialSpec;

use crate::layers::class_bound;
use crate::metrics::{median, Metrics, RunResult};
use crate::spans::Spans;
use crate::Env;

const SHARDS: usize = 8;
const PROCESSES: u32 = 3;
const KEYS: u64 = 4096;
const BATCHES: usize = 24_000;
const BATCH: usize = 8;
/// Operations one iteration simulates and checks.
const OPS: u64 = (BATCHES * BATCH) as u64;
/// The set-up probe runs the same pipeline at a fifth of the size: long
/// enough (≈ 25 ms) that one host hiccup does not double it.
const SETUP_BATCHES: usize = BATCHES / 5;
const SETUP_SAMPLES: usize = 9;

fn workload(batches: usize, batched: bool, seed: u64) -> ShardWorkload {
    ShardWorkload::with_total_batches(SHARDS, PROCESSES, KEYS, batches, BATCH, batched, seed)
}

/// Every batch's virtual-time latency against its class bound; returns
/// the number of operations in batches that exceed it.
fn late_ops(outcomes: &[ShardOutcome]) -> u64 {
    let params = shard_params(PROCESSES);
    let spec = RmwRegister::default();
    let mut late = 0;
    for out in outcomes {
        for rec in out.history.records() {
            let bound = class_bound(&params, spec.class(&rec.op[0].op));
            if rec.latency().is_none_or(|l| l > bound) {
                late += rec.op.len() as u64;
            }
        }
    }
    late
}

/// Simulates and checks one workload the way a user of the crates
/// would; returns the operations that failed a gate.
fn simulate_and_check(w: &ShardWorkload, result: &mut RunResult) -> u64 {
    let outcomes = run_sharded(w);
    let mut failed = late_ops(&outcomes);
    if failed > 0 {
        result.fail(format!(
            "{failed} ops answered later than their class bound in virtual time"
        ));
    }
    for out in &outcomes {
        let gate = check_namespace(&RmwRegister::default(), &flatten_batches(&out.history));
        if !gate.is_linearizable() {
            result.fail(format!(
                "shard {}: keys {:?} are not linearizable",
                out.shard,
                gate.violating_keys()
            ));
            failed += out
                .history
                .records()
                .iter()
                .map(|r| r.op.len() as u64)
                .sum::<u64>();
        }
    }
    failed
}

/// The untraced pass. Each iteration derives its seed from `seed`.
pub fn run(_env: &Env, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut result = RunResult::new();

    // Set-up: what it takes to get from nothing to a first checked
    // (small) run — thread pool, allocator growth, first-touch of the
    // engine and checker code. Also serves as the warm-up.
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for i in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let w = workload(SETUP_BATCHES, true, seed ^ (i as u64) << 32);
        if simulate_and_check(&w, &mut result) > 0 {
            return Err(format!(
                "engine-sharded: set-up run failed its gates: {:?}",
                result.notes
            ));
        }
        setups.push(start.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    let mut per_op_us = Vec::new();
    let mut iteration = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let iter_start = Instant::now();
        let w = workload(
            BATCHES,
            true,
            seed.wrapping_add(iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        result.failed += simulate_and_check(&w, &mut result);
        result.attempted += OPS;
        per_op_us.push(iter_start.elapsed().as_secs_f64() * 1e6 / OPS as f64);
        iteration += 1;
    }

    // Both from the median iteration: interference from the host only
    // ever adds time, and the median sheds its bursts. Virtual time
    // mandates no real wait, so all host time per op is excess.
    let n = per_op_us.len();
    let per_op = median(per_op_us);
    let m = &mut result.metrics;
    m.set_q("ops_per_s", 1e6 / per_op, n);
    m.set_q("excess_p50_us", per_op, n);
    m.set("peak_rss_mb", peak_rss_bytes() as f64 / 1e6);
    m.set_q("setup_s", median(setups), SETUP_SAMPLES);
    Ok(result)
}

/// Counts that must repeat exactly for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Exact {
    events: u64,
    nodes: u64,
    memo_hits: u64,
}

/// The traced pass: the same pipeline under spans, every iteration on
/// the *same* seed so the exact counts can be compared across them, and
/// the checker driven key by key to read its counters.
pub fn run_traced(env: &Env, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut result = RunResult::new();
    let mut spans = Spans::new();
    let w = workload(BATCHES, true, seed);
    let spec = RmwRegister::default();

    let (mut run_s, mut check_s, mut max_shard_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut exact: Option<Exact> = None;
    let start = Instant::now();
    let mut iteration = 0u64;
    // Leave a fifth of the time for the unbatched comparison below.
    while iteration < 2 || start.elapsed().as_secs_f64() < seconds * 0.8 {
        let root = spans.open("engine-sharded.iteration", None, iteration);
        let (outcomes, t_run) = spans.time("sim.engine.run_sharded", Some(root), iteration, || {
            run_sharded(&w)
        });
        let ((nodes, memo_hits, bad_keys), t_check) =
            spans.time("lin.checker.check", Some(root), iteration, || {
                let (mut nodes, mut hits, mut bad) = (0, 0, 0);
                for out in &outcomes {
                    for (_, sub) in split_history(&flatten_batches(&out.history), |op| op.key) {
                        let sub = sub.map(|op| op.op.clone(), Clone::clone);
                        let (outcome, stats) =
                            check_history_stats::<RmwRegister>(&spec, &sub, CheckLimits::default());
                        nodes += stats.nodes;
                        hits += stats.memo_hits;
                        bad += u64::from(!outcome.is_linearizable());
                    }
                }
                (nodes, hits, bad)
            });
        spans.close(root);
        result.attempted += OPS;
        let late = late_ops(&outcomes);
        if late > 0 || bad_keys > 0 {
            result.failed += OPS;
            result.fail(format!(
                "iteration {iteration}: {late} late ops, {bad_keys} non-linearizable keys"
            ));
        }
        let now = Exact {
            events: outcomes.iter().map(|o| o.run.events).sum(),
            nodes,
            memo_hits,
        };
        if *exact.get_or_insert(now) != now {
            result.fail(format!(
                "exact counts moved between iterations of one seed: {exact:?} vs {now:?}"
            ));
        }
        run_s.push(t_run);
        check_s.push(t_check);
        max_shard_s.push(outcomes.iter().map(|o| o.run.wall_nanos).max().unwrap_or(0) as f64 / 1e9);
        iteration += 1;
    }
    let exact = exact.expect("at least two iterations ran");

    // The same work with per-op messages instead of delivery batches:
    // 3.8x the events for the same operations — the layer used the
    // other way, and why events/s alone says nothing.
    let unbatched = workload(BATCHES, false, seed);
    let (outcomes, t_unbatched) =
        spans.time("sim.engine.run_sharded_unbatched", None, iteration, || {
            run_sharded(&unbatched)
        });
    if late_ops(&outcomes) > 0 {
        result.fail("unbatched run answered later than its class bound".into());
    }

    let n = run_s.len();
    let (run_med, check_med) = (median(run_s), median(check_s));
    let m: &mut Metrics = &mut result.metrics;
    m.set_q("sim.engine.run_s", run_med, n);
    m.set("sim.engine.events", exact.events as f64);
    m.set("sim.engine.events_per_s", exact.events as f64 / run_med);
    m.set(
        "core.nsreplica.events_per_op",
        exact.events as f64 / OPS as f64,
    );
    m.set(
        "core.nsreplica.unbatched_ops_per_s",
        OPS as f64 / t_unbatched,
    );
    m.set_q("core.shard.max_shard_s", median(max_shard_s), n);
    m.set_q("lin.checker.check_s", check_med, n);
    m.set("lin.checker.nodes", exact.nodes as f64);
    m.set("lin.checker.nodes_per_s", exact.nodes as f64 / check_med);
    m.set("lin.checker.memo_hits", exact.memo_hits as f64);
    result.notes.push(format!(
        "{n} iterations on one seed, exact counts identical across all of them"
    ));

    spans
        .dump(&env.out_dir.join("engine-sharded-spans.jsonl"))
        .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(result)
}
