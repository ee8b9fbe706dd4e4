//! Multi-object histories and locality-based checking.
//!
//! The thesis's linearizability definition is per-object: a permutation
//! of *all* operations whose restriction to each object is legal
//! (Chapter III §B.4). By Herlihy & Wing's locality theorem this is
//! equivalent to every per-object sub-history being linearizable on its
//! own — which is also dramatically cheaper to check, because the search
//! spaces multiply instead of compound.
//!
//! [`split_history`] projects a history onto object keys;
//! [`check_namespace`] applies the decomposition to
//! [`Namespace`](skewbound_spec::namespace::Namespace) histories,
//! copying each record once, straight into its key's sub-history with
//! the key stripped off, and checking every key in one set of buffers.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use fxhash::FxHashMap;
use skewbound_sim::history::History;
use skewbound_spec::namespace::NsOp;
use skewbound_spec::seqspec::SequentialSpec;

use crate::checker::{search, CheckBuffers, CheckLimits, CheckOutcome};

/// Expands a *batched* history — each record invoking a `Vec` of
/// operations and receiving a `Vec` of responses — into the op-level
/// history it abbreviates.
///
/// A batch is one closed-loop client turn: its operations were invoked
/// together and responded together, so every expanded operation keeps
/// the batch's process, invocation time and response time. Real-time
/// order is therefore preserved exactly, and checking the flattened
/// history is checking the batched one.
///
/// # Panics
///
/// Panics if the history is incomplete or a batch's response count does
/// not match its operation count.
pub fn flatten_batches<O: Clone, R: Clone>(history: &History<Vec<O>, Vec<R>>) -> History<O, R> {
    let mut flat = History::new();
    flat.reserve(history.records().iter().map(|r| r.op.len()).sum());
    for rec in history.records() {
        let (resps, responded_at) = rec.response.as_ref().expect("complete histories only");
        assert_eq!(
            rec.op.len(),
            resps.len(),
            "batch returned {} response(s) for {} op(s)",
            resps.len(),
            rec.op.len()
        );
        for (op, resp) in rec.op.iter().zip(resps) {
            flat.record_complete(
                rec.pid,
                op.clone(),
                rec.invoked_at,
                resp.clone(),
                *responded_at,
            );
        }
    }
    flat
}

/// Per-key outcome of a namespace locality check (see
/// [`check_namespace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NsOutcome {
    /// The outcome for each object key that appeared in the history.
    pub per_key: Vec<(u64, CheckOutcome)>,
}

impl NsOutcome {
    /// `true` when every key's sub-history is linearizable — by
    /// locality, exactly when the whole namespace history is.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        self.per_key.iter().all(|(_, o)| o.is_linearizable())
    }

    /// Keys whose sub-histories are violations.
    #[must_use]
    pub fn violating_keys(&self) -> Vec<u64> {
        self.per_key
            .iter()
            .filter(|(_, o)| o.is_violation())
            .map(|(k, _)| *k)
            .collect()
    }
}

/// Checks a [`Namespace`](skewbound_spec::namespace::Namespace) history
/// by locality: each key addresses an independent object, so each key's
/// sub-history is checked against the inner spec on its own. This is the
/// per-shard linearizability gate of the sharded runner: every shard
/// checks its own keys, and passing shards compose into a linearizable
/// namespace because locality also holds *across* shards.
///
/// # Panics
///
/// Panics if the history is incomplete.
#[must_use]
pub fn check_namespace<S: SequentialSpec>(
    inner: &S,
    history: &History<NsOp<S::Op>, S::Resp>,
) -> NsOutcome {
    let mut buffers = CheckBuffers::default();
    NsOutcome {
        per_key: split_projected(history, |op| op.key, |op| op.op.clone())
            .into_iter()
            .map(|(key, sub)| {
                let (outcome, _) = search(&mut buffers, inner, &sub, CheckLimits::default());
                (key, outcome)
            })
            .collect(),
    }
}

/// Splits a complete history into per-key sub-histories, preserving
/// invocation order and real times. Keys are returned in ascending
/// order.
///
/// # Panics
///
/// Panics if the history is incomplete.
pub fn split_history<O, R, K, F>(history: &History<O, R>, key: F) -> Vec<(K, History<O, R>)>
where
    O: Clone,
    R: Clone,
    K: Ord + Hash + Clone,
    F: FnMut(&O) -> K,
{
    split_projected(history, key, O::clone)
}

/// [`split_history`] with each operation replaced by its projection as
/// it is copied: `key` gives an operation's key and `project` what its
/// key's sub-history records instead of it. A counting pass first, so
/// each sub-history is allocated once at its final length; then one copy
/// per record and one sort of the distinct keys.
fn split_projected<O, R, K, P>(
    history: &History<O, R>,
    mut key: impl FnMut(&O) -> K,
    mut project: impl FnMut(&O) -> P,
) -> Vec<(K, History<P, R>)>
where
    R: Clone,
    K: Ord + Hash + Clone,
{
    let mut slot: FxHashMap<K, usize> = FxHashMap::default();
    let mut sizes: Vec<(K, usize)> = Vec::new();
    for rec in history.records() {
        match slot.entry(key(&rec.op)) {
            Entry::Occupied(e) => sizes[*e.get()].1 += 1,
            Entry::Vacant(e) => {
                sizes.push((e.key().clone(), 1));
                e.insert(sizes.len() - 1);
            }
        }
    }
    let mut buckets: Vec<(K, History<P, R>)> = sizes
        .into_iter()
        .map(|(k, len)| (k, History::with_capacity(len)))
        .collect();
    for rec in history.records() {
        let (resp, responded_at) = rec.response.as_ref().expect("complete histories only");
        buckets[slot[&key(&rec.op)]].1.record_complete(
            rec.pid,
            project(&rec.op),
            rec.invoked_at,
            resp.clone(),
            *responded_at,
        );
    }
    buckets.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_history;
    use skewbound_sim::ids::ProcessId;
    use skewbound_sim::time::SimTime;
    use skewbound_spec::prelude::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn at(key: u64, op: QueueOp<i64>) -> NsOp<QueueOp<i64>> {
        NsOp::new(key, op)
    }

    fn two_queue_history(dup: bool) -> History<NsOp<QueueOp<i64>>, QueueResp<i64>> {
        let mut h = History::new();
        let ids = [
            h.record_invoke(p(0), at(0, QueueOp::Enqueue(1)), t(0)),
            h.record_invoke(p(1), at(1, QueueOp::Enqueue(9)), t(0)),
            h.record_invoke(p(0), at(1, QueueOp::Dequeue), t(10)),
            h.record_invoke(p(1), at(1, QueueOp::Dequeue), t(20)),
            h.record_invoke(p(2), at(0, QueueOp::Dequeue), t(30)),
        ];
        h.record_response(ids[0], QueueResp::Ack, t(5));
        h.record_response(ids[1], QueueResp::Ack, t(5));
        h.record_response(ids[2], QueueResp::Value(Some(9)), t(15));
        h.record_response(
            ids[3],
            QueueResp::Value(if dup { Some(9) } else { None }),
            t(25),
        );
        h.record_response(ids[4], QueueResp::Value(Some(1)), t(35));
        h
    }

    #[test]
    fn split_partitions_by_key() {
        let h = two_queue_history(false);
        let parts = split_history(&h, |op| op.key);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[0].1.len(), 2);
        assert_eq!(parts[1].1.len(), 3);
    }

    #[test]
    fn split_sorts_keys_and_keeps_each_keys_order_and_times() {
        // Keys first seen as 9, 3, 7 come back ascending; each key's
        // sub-history keeps its ops in invocation order, renumbered from
        // 0, with their process and real times.
        let mut h: History<NsOp<RmwOp>, RmwResp> = History::new();
        for (i, key) in [9, 3, 9, 7, 3].into_iter().enumerate() {
            let i = i as u64;
            h.record_complete(
                p(i as u32),
                NsOp::new(key, RmwOp::Write(i as i64)),
                t(10 * i),
                RmwResp::Ack,
                t(10 * i + 3),
            );
        }
        let parts = split_history(&h, |op| op.key);
        let keys: Vec<u64> = parts.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 7, 9]);
        let nine = &parts[2].1;
        assert_eq!(nine.len(), 2);
        assert_eq!(nine.records()[1].id, skewbound_sim::ids::OpId::new(1));
        assert_eq!(nine.records()[1].op, NsOp::new(9, RmwOp::Write(2)));
        assert_eq!(nine.records()[1].pid, p(2));
        assert_eq!(nine.records()[1].invoked_at, t(20));
        assert_eq!(nine.records()[1].responded_at(), Some(t(23)));
        let checked: Vec<u64> = check_namespace(&RmwRegister::default(), &h)
            .per_key
            .iter()
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(checked, keys, "the check reports keys in the split's order");
    }

    #[test]
    fn locality_agrees_with_full_check() {
        let inner: Queue<i64> = Queue::new();
        let full_spec = Namespace::new(inner);
        for dup in [false, true] {
            let h = two_queue_history(dup);
            let local = check_namespace(&inner, &h);
            let full = check_history(&full_spec, &h);
            assert_eq!(
                local.is_linearizable(),
                full.is_linearizable(),
                "locality must agree with the monolithic check (dup = {dup})"
            );
        }
    }

    #[test]
    fn violation_blame_is_isolated() {
        let inner: Queue<i64> = Queue::new();
        let out = check_namespace(&inner, &two_queue_history(true));
        assert!(!out.is_linearizable());
        assert_eq!(out.violating_keys(), vec![1]);
    }

    #[test]
    fn empty_history_linearizable() {
        let inner: Queue<i64> = Queue::new();
        let h: History<NsOp<QueueOp<i64>>, QueueResp<i64>> = History::new();
        assert!(check_namespace(&inner, &h).is_linearizable());
    }

    /// One key's ops as `(invoked, responded, op, response)`.
    type KeyOps = Vec<(u64, u64, RegOp<i64>, RegResp<i64>)>;

    /// The checker's memoization-stress shape: waves of 8 concurrent
    /// writes of `0..8`, closed by a read that returns `last_read`.
    fn memo_stress(total_ops: u64, last_read: i64) -> KeyOps {
        let mut ops: KeyOps = (0..total_ops - 1)
            .map(|i| {
                let (wave, v) = (i / 8, i % 8);
                (
                    10 * wave,
                    10 * wave + 5,
                    RegOp::Write(v as i64),
                    RegResp::Ack,
                )
            })
            .collect();
        let end = 10 * (total_ops - 1).div_ceil(8);
        ops.push((end, end + 1, RegOp::Read, RegResp::Value(last_read)));
        ops
    }

    #[test]
    fn reused_buffers_carry_nothing_from_one_key_to_the_next() {
        // A 128-op violating key that backtracks through 15 809 nodes,
        // short clean keys, a second violation, then keys of 1 and 128
        // ops; checked in one key order and then the reverse, each key
        // must get what a fresh check of its sub-history gets.
        let spec = RwRegister::new(0);
        let mut keys = vec![memo_stress(128, i64::MIN)];
        for len in 1..=4u64 {
            keys.push(
                (0..len)
                    .flat_map(|i| {
                        let v = i as i64;
                        [
                            (4 * i, 4 * i + 1, RegOp::Write(v), RegResp::Ack),
                            (4 * i + 2, 4 * i + 3, RegOp::Read, RegResp::Value(v)),
                        ]
                    })
                    .collect(),
            );
        }
        keys.push(memo_stress(20, i64::MIN));
        keys.push(vec![(0, 1, RegOp::Read, RegResp::Value(0))]);
        keys.push(memo_stress(128, 6));
        for reversed in [false, true] {
            let mut h = History::new();
            for (k, ops) in keys.iter().enumerate() {
                let key = if reversed { keys.len() - 1 - k } else { k } as u64;
                for (invoked, responded, op, resp) in ops {
                    h.record_complete(
                        p(0),
                        NsOp::new(key, op.clone()),
                        t(*invoked),
                        resp.clone(),
                        t(*responded),
                    );
                }
            }
            let fresh: Vec<(u64, CheckOutcome)> = split_history(&h, |op| op.key)
                .into_iter()
                .map(|(key, sub)| {
                    let sub = sub.map(|op| op.op.clone(), Clone::clone);
                    (key, check_history(&spec, &sub))
                })
                .collect();
            let stress = usize::from(reversed) * (keys.len() - 1);
            assert!(
                matches!(&fresh[stress].1, CheckOutcome::NotLinearizable(v) if v.nodes == 15_809),
                "{:?}",
                fresh[stress].1
            );
            assert_eq!(fresh.iter().filter(|(_, o)| o.is_violation()).count(), 2);
            assert_eq!(
                check_namespace(&spec, &h).per_key,
                fresh,
                "reversed = {reversed}"
            );
        }
    }

    #[test]
    fn flatten_expands_batches_in_place() {
        let mut h: History<Vec<RmwOp>, Vec<RmwResp>> = History::new();
        let a = h.record_invoke(p(0), vec![RmwOp::Write(1), RmwOp::Write(2)], t(0));
        h.record_response(a, vec![RmwResp::Ack, RmwResp::Ack], t(5));
        let b = h.record_invoke(p(1), vec![RmwOp::Read], t(6));
        h.record_response(b, vec![RmwResp::Value(2)], t(9));
        let flat = flatten_batches(&h);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat.records()[0].op, RmwOp::Write(1));
        assert_eq!(flat.records()[1].op, RmwOp::Write(2));
        assert_eq!(flat.records()[0].invoked_at, t(0));
        assert_eq!(flat.records()[1].pid, p(0));
        assert_eq!(flat.records()[2].response, Some((RmwResp::Value(2), t(9))));
        assert!(check_history(&RmwRegister::default(), &flat).is_linearizable());
    }

    #[test]
    #[should_panic(expected = "1 response(s) for 2 op(s)")]
    fn flatten_rejects_mismatched_batch() {
        let mut h: History<Vec<RmwOp>, Vec<RmwResp>> = History::new();
        let a = h.record_invoke(p(0), vec![RmwOp::Write(1), RmwOp::Write(2)], t(0));
        h.record_response(a, vec![RmwResp::Ack], t(5));
        let _ = flatten_batches(&h);
    }

    #[test]
    fn flatten_skips_empty_batches() {
        // An empty batch is a client turn that did nothing: it must
        // vanish from the flattened history instead of minting a
        // zero-op record that the checker would trip over.
        let mut h: History<Vec<RmwOp>, Vec<RmwResp>> = History::new();
        let a = h.record_invoke(p(0), vec![], t(0));
        h.record_response(a, vec![], t(1));
        let b = h.record_invoke(p(1), vec![RmwOp::Write(3)], t(2));
        h.record_response(b, vec![RmwResp::Ack], t(4));
        let flat = flatten_batches(&h);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat.records()[0].op, RmwOp::Write(3));
        assert!(check_history(&RmwRegister::default(), &flat).is_linearizable());
    }

    #[test]
    fn single_key_batch_checks_as_one_sub_history() {
        // A batch whose ops all address one key flattens into a
        // same-span run on that key; the namespace check must see
        // exactly one sub-history and accept an order consistent with
        // the batch's internal sequence.
        let mut h: History<Vec<NsOp<RmwOp>>, Vec<RmwResp>> = History::new();
        let a = h.record_invoke(
            p(0),
            vec![
                NsOp::new(7, RmwOp::Write(1)),
                NsOp::new(7, RmwOp::Rmw(RmwKind::FetchAdd(4))),
                NsOp::new(7, RmwOp::Read),
            ],
            t(0),
        );
        h.record_response(
            a,
            vec![RmwResp::Ack, RmwResp::Value(1), RmwResp::Value(5)],
            t(10),
        );
        let flat = flatten_batches(&h);
        assert_eq!(flat.len(), 3);
        let out = check_namespace(&RmwRegister::default(), &flat);
        assert!(out.is_linearizable());
        assert_eq!(out.per_key.len(), 1);
        assert_eq!(out.per_key[0].0, 7);
    }

    #[test]
    fn interleaved_shard_histories_check_independently() {
        // Two keys owned by *different* shards of a two-shard router,
        // with their operations interleaved in real time. Locality says
        // the interleaving is irrelevant: each shard's sub-history is
        // checked on its own, and a violation on one shard's key never
        // implicates the other's.
        let router = ShardRouter::new(2);
        let key_a = router.keys_in_shard(0, 64)[0];
        let key_b = router.keys_in_shard(1, 64)[0];
        assert_ne!(router.route(key_a), router.route(key_b));

        let build = |read_b: i64| {
            let mut h: History<NsOp<RmwOp>, RmwResp> = History::new();
            let ids = [
                h.record_invoke(p(0), NsOp::new(key_a, RmwOp::Write(1)), t(0)),
                h.record_invoke(p(1), NsOp::new(key_b, RmwOp::Write(2)), t(2)),
                h.record_invoke(p(0), NsOp::new(key_a, RmwOp::Read), t(10)),
                h.record_invoke(p(1), NsOp::new(key_b, RmwOp::Read), t(12)),
            ];
            h.record_response(ids[0], RmwResp::Ack, t(5));
            h.record_response(ids[1], RmwResp::Ack, t(6));
            h.record_response(ids[2], RmwResp::Value(1), t(15));
            h.record_response(ids[3], RmwResp::Value(read_b), t(16));
            h
        };

        let clean = check_namespace(&RmwRegister::default(), &build(2));
        assert!(clean.is_linearizable());
        assert_eq!(clean.per_key.len(), 2);

        // Shard 1's key reads a value nobody wrote; shard 0 stays clean.
        let broken = check_namespace(&RmwRegister::default(), &build(99));
        assert!(!broken.is_linearizable());
        assert_eq!(broken.violating_keys(), vec![key_b]);
    }

    #[test]
    fn namespace_check_decomposes_per_key() {
        let mut h: History<NsOp<RmwOp>, RmwResp> = History::new();
        let ids = [
            h.record_invoke(p(0), NsOp::new(7, RmwOp::Write(1)), t(0)),
            h.record_invoke(p(1), NsOp::new(9, RmwOp::Write(2)), t(0)),
            h.record_invoke(p(0), NsOp::new(7, RmwOp::Read), t(10)),
            h.record_invoke(p(1), NsOp::new(9, RmwOp::Read), t(10)),
        ];
        h.record_response(ids[0], RmwResp::Ack, t(5));
        h.record_response(ids[1], RmwResp::Ack, t(5));
        h.record_response(ids[2], RmwResp::Value(1), t(15));
        h.record_response(ids[3], RmwResp::Value(2), t(15));
        let out = check_namespace(&RmwRegister::default(), &h);
        assert!(out.is_linearizable());
        assert_eq!(out.per_key.len(), 2);
    }

    #[test]
    fn namespace_check_blames_the_violating_key() {
        let mut h: History<NsOp<RmwOp>, RmwResp> = History::new();
        let ids = [
            h.record_invoke(p(0), NsOp::new(7, RmwOp::Write(1)), t(0)),
            // Key 9 reads a value nobody wrote: only key 9 is to blame.
            h.record_invoke(p(1), NsOp::new(9, RmwOp::Read), t(10)),
        ];
        h.record_response(ids[0], RmwResp::Ack, t(5));
        h.record_response(ids[1], RmwResp::Value(42), t(15));
        let out = check_namespace(&RmwRegister::default(), &h);
        assert!(!out.is_linearizable());
        assert_eq!(out.violating_keys(), vec![9]);
    }
}
