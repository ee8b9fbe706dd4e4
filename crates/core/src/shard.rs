//! The sharded namespace runner: `S` independent replica groups, one
//! per shard of the key universe.
//!
//! Algorithm 1's timestamp order is per object, so a namespace of
//! independent keyed objects partitions cleanly: each shard owns the
//! keys [`ShardRouter`] routes to it, runs its *own* replica group —
//! `Replica<Batch<Namespace<RmwRegister>>>`, one batch per invocation —
//! on its own engine (own event heap, own payload slabs, own RNG
//! stream — no shared allocation, no shared lock), and produces its own
//! complete history. Per-shard histories are checked independently with
//! [`check_namespace`](../../skewbound_lin/multi/fn.check_namespace.html)-style
//! locality gates, and the passing shards compose into a linearizable
//! namespace (Herlihy–Wing locality holds across shards exactly as it
//! holds across keys).
//!
//! Determinism: shard `i`'s history depends only on `(workload, i)` —
//! every seed is derived from the workload seed and the shard index —
//! so the vector of histories is bit-identical across
//! `SKEWBOUND_THREADS` settings ([`run_sharded`] fans the shards out
//! over [`run_grid`], which only reorders *execution*, never results).
//! Wall-clock fields of [`ShardRun`] are, of course, measurements, not
//! deterministic quantities.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::FixedDelay;
use skewbound_sim::engine::Simulation;
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::par::run_grid;
use skewbound_sim::time::SimDuration;
use skewbound_sim::workload::ClosedLoop;
use skewbound_spec::combinators::Batch;
use skewbound_spec::namespace::{Namespace, NsOp, ShardRouter};
use skewbound_spec::register::{RmwOp, RmwRegister, RmwResp};

use crate::params::Params;
use crate::replica::Replica;

/// A batch of keyed register operations — the invocation unit of the
/// sharded workload.
pub type NsBatch = Vec<NsOp<RmwOp>>;

/// The sharded closed-loop workload description.
///
/// The same total work should be compared across shard counts: fix the
/// product `shards × processes × batches_per_process` (and the batch
/// size) when sweeping `shards`, as
/// [`ShardWorkload::with_total_batches`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardWorkload {
    /// Number of shards (independent replica groups).
    pub shards: usize,
    /// Replica processes *per shard*.
    pub processes: u32,
    /// Size of the key universe, partitioned across shards by
    /// [`ShardRouter`].
    pub total_objects: u64,
    /// Closed-loop batches each process issues.
    pub batches_per_process: usize,
    /// Operations per batch.
    pub batch: usize,
    /// Invoke `batch` operations at a time (`true`), or the same number
    /// of operations one at a time, as one-op batches (`false`).
    pub batched: bool,
    /// Workload seed; each shard derives its own stream from it.
    pub seed: u64,
}

impl ShardWorkload {
    /// A workload over `shards` shards carrying `total_batches` of work
    /// overall: each of the `processes`-per-shard replicas issues
    /// `total_batches / (shards × processes)` batches, so sweeping
    /// `shards` compares equal totals.
    ///
    /// # Panics
    ///
    /// Panics if `total_batches` does not divide evenly.
    #[must_use]
    pub fn with_total_batches(
        shards: usize,
        processes: u32,
        total_objects: u64,
        total_batches: usize,
        batch: usize,
        batched: bool,
        seed: u64,
    ) -> Self {
        let slots = shards * processes as usize;
        assert!(
            total_batches.is_multiple_of(slots),
            "{total_batches} batches do not divide over {slots} process slots"
        );
        ShardWorkload {
            shards,
            processes,
            total_objects,
            batches_per_process: total_batches / slots,
            batch,
            batched,
            seed,
        }
    }
}

/// One shard's measurement: how many simulation events it processed and
/// how long its run took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRun {
    /// Events the shard's engine dispatched.
    pub events: u64,
    /// Wall-clock nanoseconds the shard's run took.
    pub wall_nanos: u64,
}

/// One shard's complete run: its batched history plus its engine event
/// count and wall time.
#[derive(Debug)]
pub struct ShardOutcome {
    /// The shard index.
    pub shard: usize,
    /// The shard's complete batched history.
    pub history: History<NsBatch, Vec<RmwResp>>,
    /// Events processed and wall time taken.
    pub run: ShardRun,
}

/// The fixed system parameters of every shard's replica group:
/// `d = 10 000` ticks, `u = 2 000` ticks, `X = 0`, optimal skew.
///
/// # Panics
///
/// Panics if `processes < 2` (the parameter validator rejects
/// single-process groups).
#[must_use]
pub fn shard_params(processes: u32) -> Params {
    Params::with_optimal_skew(
        processes as usize,
        SimDuration::from_ticks(10_000),
        SimDuration::from_ticks(2_000),
        SimDuration::ZERO,
    )
    .expect("fixed shard parameters are valid")
}

/// Runs one shard of `workload` to quiescence and returns its history
/// and measurement.
///
/// Deterministic per `(workload, shard)`: the closed-loop seed is
/// derived from both, delays are [`FixedDelay::maximal`], and clocks
/// are zero-offset.
///
/// # Panics
///
/// Panics if the shard owns no keys (raise `total_objects`), if the
/// engine hits its event cap, or if the run ends incomplete.
#[must_use]
pub fn run_shard(workload: &ShardWorkload, shard: usize) -> ShardOutcome {
    let router = ShardRouter::new(workload.shards);
    let keys = Arc::new(router.keys_in_shard(shard, workload.total_objects));
    assert!(
        !keys.is_empty(),
        "shard {shard} owns no keys: raise total_objects ({}) above shards ({})",
        workload.total_objects,
        workload.shards
    );
    let params = shard_params(workload.processes);
    let pids: Vec<ProcessId> = (0..workload.processes).map(ProcessId::new).collect();
    let (batch, batches) = match workload.batch.max(1) {
        size if workload.batched => (size, workload.batches_per_process),
        size => (1, workload.batches_per_process * size),
    };
    let gen_keys = Arc::clone(&keys);
    let mut driver = ClosedLoop::new(
        pids,
        batches,
        workload.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        move |_pid: ProcessId, index: usize, rng: &mut StdRng| -> NsBatch {
            // Alternate pure-mutator and pure-accessor batches; keys are
            // drawn uniformly from the shard's own key set, so no op
            // ever leaves the shard.
            (0..batch)
                .map(|_| {
                    let key = gen_keys[rng.gen_range(0..gen_keys.len())];
                    if index.is_multiple_of(2) {
                        NsOp::new(key, RmwOp::Write(rng.gen_range(0..1_000)))
                    } else {
                        NsOp::new(key, RmwOp::Read)
                    }
                })
                .collect()
        },
    );
    let mut sim = Simulation::new(
        Replica::group(Batch::new(Namespace::new(RmwRegister::default())), &params),
        ClockAssignment::zero(workload.processes as usize),
        FixedDelay::maximal(params.delay_bounds()),
    );
    let wall = Instant::now();
    let report = sim
        .run_with(&mut driver)
        .expect("shard run exceeded the event cap");
    let wall_nanos = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert!(
        sim.history().is_complete(),
        "shard {shard} reached quiescence with pending batches"
    );
    ShardOutcome {
        shard,
        history: sim.into_history(),
        run: ShardRun {
            events: report.events,
            wall_nanos,
        },
    }
}

/// Runs every shard of `workload` over the scenario worker pool and
/// returns the outcomes in shard order. Histories (and event counts)
/// are bit-identical across `SKEWBOUND_THREADS` settings; wall times
/// are measurements.
///
/// # Panics
///
/// Re-raises the first panicking shard (see [`run_shard`]).
#[must_use]
pub fn run_sharded(workload: &ShardWorkload) -> Vec<ShardOutcome> {
    let shards: Vec<usize> = (0..workload.shards).collect();
    run_grid(&shards, |_, &shard| run_shard(workload, shard))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(shards: usize, batched: bool) -> ShardWorkload {
        ShardWorkload {
            shards,
            processes: 3,
            total_objects: 64,
            batches_per_process: 4,
            batch: 3,
            batched,
            seed: 11,
        }
    }

    #[test]
    fn shards_complete_and_stay_inside_their_keys() {
        let w = workload(4, true);
        let router = ShardRouter::new(4);
        let outcomes = run_sharded(&w);
        assert_eq!(outcomes.len(), 4);
        for out in &outcomes {
            assert!(out.history.is_complete());
            assert_eq!(out.history.len(), 3 * 4, "one record per batch");
            for rec in out.history.records() {
                for op in &rec.op {
                    assert_eq!(router.route(op.key), out.shard, "op left its shard");
                }
            }
            assert!(out.run.events > 0);
        }
    }

    #[test]
    fn shards_run_in_order_and_independently() {
        let outcomes = run_sharded(&workload(8, true));
        let order: Vec<usize> = outcomes.iter().map(|o| o.shard).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn shard_histories_are_deterministic() {
        let w = workload(2, true);
        let a = run_sharded(&w);
        let b = run_sharded(&w);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.run.events, y.run.events);
            assert_eq!(x.history.records().len(), y.history.records().len());
            for (rx, ry) in x.history.records().iter().zip(y.history.records()) {
                assert_eq!(rx.op, ry.op);
                assert_eq!(rx.response, ry.response);
            }
        }
    }

    /// FNV-1a over `(pid, op, response, invoked_at, responded_at)` of
    /// every record, in history order.
    fn digest(history: &History<NsBatch, Vec<RmwResp>>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for rec in history.records() {
            let line = format!(
                "{:?}|{:?}|{:?}|{:?}|{:?};",
                rec.pid,
                rec.op,
                rec.resp(),
                rec.invoked_at,
                rec.responded_at()
            );
            for b in line.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn shard_run_matches_golden() {
        // Fixed values, not a second run of the same build: a change to
        // timestamps, timer placement or response instants shows up
        // here, where the run-twice determinism test above would stay
        // green. Unbatched, the same number of operations runs as
        // one-op batches, so its histories are pinned separately.
        let rows = [
            (
                true,
                [(60, 0xe32c_bc0b_f2be_8929), (60, 0x73b7_6d7d_ae9d_b37c)],
            ),
            (
                false,
                [(180, 0xbcca_7213_4e35_2373), (180, 0xfe95_28c1_b6af_b8ac)],
            ),
        ];
        for (batched, want) in rows {
            let outcomes = run_sharded(&workload(2, batched));
            let got: Vec<_> = outcomes
                .iter()
                .map(|out| (out.run.events, digest(&out.history)))
                .collect();
            assert_eq!(got, want, "batched={batched}");
        }
    }

    #[test]
    fn unbatched_runs_the_same_operations_one_at_a_time() {
        let batched = run_sharded(&workload(2, true));
        let unbatched = run_sharded(&workload(2, false));
        for (on, off) in batched.iter().zip(&unbatched) {
            let ops = |out: &ShardOutcome| -> usize {
                out.history.records().iter().map(|r| r.op.len()).sum()
            };
            assert_eq!(ops(on), 3 * 4 * 3);
            assert_eq!(ops(off), ops(on));
            assert_eq!(off.history.len(), ops(off), "one op per batch");
            let gate = skewbound_lin::multi::check_namespace(
                &RmwRegister::default(),
                &skewbound_lin::multi::flatten_batches(&off.history),
            );
            assert!(gate.is_linearizable(), "shard {}: {gate:?}", off.shard);
        }
    }

    #[test]
    fn total_batches_divide_across_shard_counts() {
        for shards in [1, 2, 4, 8] {
            let w = ShardWorkload::with_total_batches(shards, 3, 256, 96, 4, true, 1);
            assert_eq!(w.shards * w.processes as usize * w.batches_per_process, 96);
        }
    }
}
