//! Cross-shard workloads end to end: every shard's history passes the
//! per-shard linearizability gate, a corrupted shard is rejected, and
//! the sharded runner's results are bit-identical across worker-pool
//! configurations.
//!
//! The thread-count test mutates process environment variables; it is
//! the only test here that does, and the other tests do not read them
//! (shard results are thread-count-invariant by construction), so the
//! binary's tests can still run concurrently.

use skewbound_core::shard::{run_sharded, ShardWorkload};
use skewbound_lin::{
    check_history_stats, check_namespace, flatten_batches, split_history, CheckLimits,
};
use skewbound_sim::history::History;
use skewbound_sim::par;
use skewbound_spec::namespace::{NsOp, ShardRouter};
use skewbound_spec::register::{RmwOp, RmwRegister, RmwResp};

fn workload(shards: usize) -> ShardWorkload {
    ShardWorkload {
        shards,
        processes: 3,
        total_objects: 128,
        batches_per_process: 6,
        batch: 4,
        batched: true,
        seed: 0xABCD,
    }
}

#[test]
fn every_shard_passes_its_linearizability_gate() {
    let w = workload(4);
    let router = ShardRouter::new(w.shards);
    let outcomes = run_sharded(&w);
    assert_eq!(outcomes.len(), 4);
    let mut total_ops = 0usize;
    for out in &outcomes {
        assert!(out.history.is_complete());
        // The workload is mixed-key but shard-local: every key routes
        // back to the shard that issued it.
        for rec in out.history.records() {
            for op in &rec.op {
                assert_eq!(router.route(op.key), out.shard);
            }
            total_ops += rec.op.len();
        }
        let flat = flatten_batches(&out.history);
        let gate = check_namespace(&RmwRegister::default(), &flat);
        assert!(
            gate.is_linearizable(),
            "shard {} failed: keys {:?}",
            out.shard,
            gate.violating_keys()
        );
    }
    assert_eq!(total_ops, 4 * 3 * 6 * 4, "no op was dropped or duplicated");
}

#[test]
fn corrupted_shard_history_is_rejected() {
    let w = workload(2);
    let outcomes = run_sharded(&w);
    // Rebuild shard 0's history with one read response forged to a value
    // nobody ever wrote (writes draw from 0..1000): the per-shard gate
    // must reject it and blame exactly that key.
    let mut corrupted = History::new();
    let mut forged_key = None;
    for rec in outcomes[0].history.records() {
        let id = corrupted.record_invoke(rec.pid, rec.op.clone(), rec.invoked_at);
        let (mut resps, at) = rec.response.clone().expect("complete history");
        if forged_key.is_none() {
            if let Some(j) = resps.iter().position(|r| matches!(r, RmwResp::Value(_))) {
                resps[j] = RmwResp::Value(424_242);
                forged_key = Some(rec.op[j].key);
            }
        }
        corrupted.record_response(id, resps, at);
    }
    let forged_key = forged_key.expect("workload contains reads");
    let gate = check_namespace(&RmwRegister::default(), &flatten_batches(&corrupted));
    assert!(!gate.is_linearizable(), "gate accepted a forged read");
    assert_eq!(gate.violating_keys(), vec![forged_key]);
}

#[test]
fn reduced_engine_sharded_pins_the_checker_node_count() {
    // The benchmark's engine-sharded workload at a tenth of its batches,
    // checked key by key the way its traced pass does. The counts were
    // pinned on the quadratic precedence set-up: a faster set-up must
    // leave the search itself exactly where it was.
    let w = ShardWorkload::with_total_batches(8, 3, 4096, 2_400, 8, true, 1);
    let spec = RmwRegister::default();
    let (mut keys, mut nodes, mut memo_hits) = (0u64, 0u64, 0u64);
    for out in run_sharded(&w) {
        for (key, sub) in split_history(&flatten_batches(&out.history), |op| op.key) {
            let sub = sub.map(|op| op.op.clone(), Clone::clone);
            let (outcome, stats) = check_history_stats(&spec, &sub, CheckLimits::default());
            assert!(
                outcome.is_linearizable(),
                "shard {} key {key}: {outcome:?}",
                out.shard
            );
            keys += 1;
            nodes += stats.nodes;
            memo_hits += stats.memo_hits;
        }
    }
    assert_eq!((keys, nodes, memo_hits), (4_052, 23_252, 0));
}

type BatchRecord = (Vec<NsOp<RmwOp>>, Vec<RmwResp>);

fn fingerprint(w: &ShardWorkload) -> Vec<(u64, Vec<BatchRecord>)> {
    run_sharded(w)
        .into_iter()
        .map(|out| {
            (
                out.run.events,
                out.history
                    .records()
                    .iter()
                    .map(|rec| (rec.op.clone(), rec.response.clone().expect("complete").0))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn shard_results_identical_across_thread_counts() {
    let w = workload(4);

    std::env::set_var("SKEWBOUND_THREADS", "1");
    assert_eq!(par::worker_count(4), 1);
    let sequential = fingerprint(&w);

    std::env::set_var("SKEWBOUND_THREADS", "4");
    assert_eq!(par::worker_count(4), 4);
    let parallel = fingerprint(&w);
    std::env::remove_var("SKEWBOUND_THREADS");

    assert_eq!(
        sequential, parallel,
        "shard histories and event counts must not depend on the worker pool"
    );
}
