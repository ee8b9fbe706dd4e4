//! Shared transposition table for parallel exploration.
//!
//! The linearizability verdict of a complete history is a pure function
//! of its *precedence structure*: the operations, their responses, and
//! the real-time order relation `OpRecord::precedes` (the checker never
//! reads raw timestamps beyond that relation). Distinct grid cells —
//! different delay digits, different clock corners, different delivery
//! orders — frequently produce histories with identical precedence
//! structures, so their (potentially exponential) checker searches are
//! redundant. [`TranspositionTable`] memoizes the verdict under a key
//! that captures exactly the checker's inputs:
//!
//! ```text
//! key[i] = (op_i, resp_i, mask_i)    mask_i bit j  ⇔  record j precedes record i
//! ```
//!
//! following the hash-consing approach of `lin::intern::StateInterner`
//! (fingerprint-keyed `FxHashMap`s), but shared across worker threads
//! behind a **sharded lock**: the key hash picks one of a fixed
//! power-of-two number of independently locked shards, so concurrent
//! lookups on different shards never contend. The verdict is computed
//! *outside* the lock — two workers may race on the same fresh key and
//! both compute it, but the function is pure, so the duplicate insert is
//! idempotent and the table never blocks on a checker search.
//!
//! ## What this does (and does not) change
//!
//! The table only short-circuits the **linearizability check** of a run
//! that was executed anyway; it never skips a schedule. Schedule counts,
//! pruning decisions and verdicts are therefore bit-identical with and
//! without the table, at any thread count — hit/miss counters are the
//! only observable difference, and `McReport` treats those as advisory.
//! Protocol invariants (`timestamps-monotone`, `response-bounds`) *do*
//! read raw timestamps, so they are always re-evaluated; they are linear
//! scans, cheap next to the checker's DFS.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fxhash::{FxHashMap, FxHasher};
use skewbound_lin::checker::{check_history_stats, CheckLimits, CheckOutcome};
use skewbound_sim::history::History;
use skewbound_spec::seqspec::SequentialSpec;

/// Number of independently locked shards (power of two).
const SHARDS: usize = 16;

/// A memoized linearizability verdict, stripped of its witness payload
/// (the explorer only needs the classification; certificates re-run the
/// checker on the replayed coordinate anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The history admits a legal linearization.
    Linearizable,
    /// No legal linearization exists.
    NotLinearizable,
    /// The checker hit its node limit.
    Unknown,
}

type Key<S> = Vec<(<S as SequentialSpec>::Op, <S as SequentialSpec>::Resp, u128)>;

/// Sharded, thread-shared memo from precedence structure to
/// linearizability verdict. See the module docs for the soundness
/// argument and the determinism contract.
#[derive(Debug)]
pub struct TranspositionTable<S: SequentialSpec> {
    shards: Vec<Mutex<FxHashMap<Key<S>, CachedVerdict>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    entries: AtomicU64,
}

impl<S: SequentialSpec> Default for TranspositionTable<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SequentialSpec> TranspositionTable<S> {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        TranspositionTable {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    /// The precedence-structure key of a complete history.
    ///
    /// # Panics
    ///
    /// Panics if the history is incomplete or longer than 128 operations
    /// (the mask is a `u128`); callers gate on both before checking.
    #[must_use]
    pub fn key(history: &History<S::Op, S::Resp>) -> Key<S> {
        let records = history.records();
        assert!(
            records.len() <= 128,
            "transposition key supports at most 128 operations, got {}",
            records.len()
        );
        records
            .iter()
            .enumerate()
            .map(|(i, rec)| {
                let resp = rec
                    .resp()
                    .expect("transposition key requires a complete history")
                    .clone();
                let mut mask = 0u128;
                for (j, other) in records.iter().enumerate() {
                    if j != i && other.precedes(rec) {
                        mask |= 1u128 << j;
                    }
                }
                (rec.op.clone(), resp, mask)
            })
            .collect()
    }

    fn shard_for(key: &Key<S>) -> usize {
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        (hasher.finish() as usize) & (SHARDS - 1)
    }

    /// Checks `history` against `spec`, consulting the memo first. On a
    /// miss the checker runs outside the shard lock and the verdict is
    /// inserted afterwards (idempotently, if another worker raced).
    ///
    /// # Panics
    ///
    /// Same conditions as [`check_history_stats`]: incomplete history or
    /// more than 128 operations.
    pub fn check(
        &self,
        spec: &S,
        history: &History<S::Op, S::Resp>,
        limits: CheckLimits,
    ) -> CachedVerdict {
        let key = Self::key(history);
        let shard = &self.shards[Self::shard_for(&key)];
        if let Some(&verdict) = shard.lock().expect("table shard poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return verdict;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (outcome, _stats) = check_history_stats(spec, history, limits);
        let verdict = match outcome {
            CheckOutcome::Linearizable(_) => CachedVerdict::Linearizable,
            CheckOutcome::NotLinearizable(_) => CachedVerdict::NotLinearizable,
            CheckOutcome::Unknown { .. } => CachedVerdict::Unknown,
        };
        if let Entry::Vacant(slot) = shard.lock().expect("table shard poisoned").entry(key) {
            slot.insert(verdict);
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Memo hits so far (advisory: thread-timing dependent).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Checker searches actually executed (advisory).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct precedence structures stored (advisory).
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_sim::ids::ProcessId;
    use skewbound_sim::time::SimTime;
    use skewbound_spec::prelude::*;

    fn history(ops: &[(u32, RmwOp, RmwResp, u64, u64)]) -> History<RmwOp, RmwResp> {
        let mut h = History::new();
        for &(pid, ref op, ref resp, at, done) in ops {
            let id = h.record_invoke(ProcessId::new(pid), op.clone(), SimTime::from_ticks(at));
            h.record_response(id, resp.clone(), SimTime::from_ticks(done));
        }
        h
    }

    #[test]
    fn same_precedence_structure_hits() {
        let table: TranspositionTable<RmwRegister> = TranspositionTable::new();
        let spec = RmwRegister::default();
        let a = history(&[
            (0, RmwOp::Write(7), RmwResp::Ack, 0, 10),
            (1, RmwOp::Read, RmwResp::Value(7), 20, 30),
        ]);
        // Different raw times, identical precedence structure.
        let b = history(&[
            (0, RmwOp::Write(7), RmwResp::Ack, 5, 11),
            (1, RmwOp::Read, RmwResp::Value(7), 40, 90),
        ]);
        assert_eq!(
            table.check(&spec, &a, CheckLimits::default()),
            CachedVerdict::Linearizable
        );
        assert_eq!(table.hits(), 0);
        assert_eq!(
            table.check(&spec, &b, CheckLimits::default()),
            CachedVerdict::Linearizable
        );
        assert_eq!(table.hits(), 1);
        assert_eq!(table.entries(), 1);
    }

    #[test]
    fn verdicts_are_classified() {
        let table: TranspositionTable<RmwRegister> = TranspositionTable::new();
        let spec = RmwRegister::default();
        // A stale read strictly after the write completes: not linearizable.
        let bad = history(&[
            (0, RmwOp::Write(3), RmwResp::Ack, 0, 10),
            (1, RmwOp::Read, RmwResp::Value(9), 20, 30),
        ]);
        assert_eq!(
            table.check(&spec, &bad, CheckLimits::default()),
            CachedVerdict::NotLinearizable
        );
        // Same structure again: served from the memo.
        assert_eq!(
            table.check(&spec, &bad, CheckLimits::default()),
            CachedVerdict::NotLinearizable
        );
        assert_eq!(table.hits(), 1);
        assert_eq!(table.misses(), 1);
    }

    #[test]
    fn overlapping_ops_key_differs_from_sequential() {
        let seq = history(&[
            (0, RmwOp::Write(1), RmwResp::Ack, 0, 10),
            (1, RmwOp::Read, RmwResp::Value(1), 20, 30),
        ]);
        let conc = history(&[
            (0, RmwOp::Write(1), RmwResp::Ack, 0, 25),
            (1, RmwOp::Read, RmwResp::Value(1), 20, 30),
        ]);
        let ka = TranspositionTable::<RmwRegister>::key(&seq);
        let kb = TranspositionTable::<RmwRegister>::key(&conc);
        assert_ne!(ka, kb);
    }
}
