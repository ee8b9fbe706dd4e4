//! The linearizability checker.
//!
//! Linearizability (Chapter III §B.4): a complete history is linearizable
//! when there exists a permutation `π` of all operations such that
//!
//! 1. `π` is legal for the object's sequential specification, and
//! 2. if `op1`'s response occurs before `op2`'s invocation in real time,
//!    then `op1` appears before `op2` in `π`.
//!
//! The checker is a Wing & Gong-style depth-first search over the set of
//! "taken" operations: at each step, any not-yet-taken operation all of
//! whose real-time predecessors are taken may be linearized next, provided
//! its recorded response matches what the specification returns. A
//! `(taken-set, state)` memo table prunes re-exploration, which makes the
//! search practical for the history sizes the experiments produce.
//!
//! Three hot-path engineering choices keep the per-node cost flat in the
//! history size (see DESIGN.md §7):
//!
//! * states are hash-consed through a [`StateInterner`], so the memo set
//!   stores 20-byte `(u128, u32)` keys instead of cloned states;
//! * both tables hash with [`fxhash`] instead of SipHash;
//! * each node iterates a precomputed *ready-set* bitmask (ops whose
//!   real-time predecessors are all taken) via `trailing_zeros`, instead
//!   of scanning all `n` records. The mask is maintained incrementally
//!   from per-op successor masks. Candidates are still visited in
//!   ascending index order, so outcomes (witnesses, violation
//!   certificates, node counts) are bit-identical to the scanning
//!   implementation.

use skewbound_sim::history::{History, OpRecord};
use skewbound_sim::ids::OpId;
use skewbound_spec::seqspec::SequentialSpec;

use crate::intern::{SeenSet, StateInterner};

/// Search limits for the checker.
#[derive(Debug, Clone, Copy)]
pub struct CheckLimits {
    /// Maximum number of DFS node expansions before giving up.
    pub max_nodes: u64,
}

impl Default for CheckLimits {
    fn default() -> Self {
        CheckLimits {
            max_nodes: 5_000_000,
        }
    }
}

/// Outcome of a linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The history is linearizable; a witness order is attached.
    Linearizable(Linearization),
    /// No legal real-time-respecting permutation exists.
    NotLinearizable(Violation),
    /// The search hit its node limit before deciding.
    Unknown {
        /// Nodes expanded before giving up.
        nodes: u64,
    },
}

impl CheckOutcome {
    /// `true` for [`CheckOutcome::Linearizable`].
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        matches!(self, CheckOutcome::Linearizable(_))
    }

    /// `true` for [`CheckOutcome::NotLinearizable`].
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(self, CheckOutcome::NotLinearizable(_))
    }
}

/// Per-stage search counters for one check, beyond the node count the
/// outcome itself carries: how effective the memo table was and how deep
/// the search frontier got. Collected unconditionally (three integer
/// updates per node) and surfaced by [`check_history_stats`] for grid
/// profiling and trace aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// DFS nodes expanded (same count as the outcome's `nodes`).
    pub nodes: u64,
    /// Extensions skipped because their `(taken-set, state)` pair was
    /// already explored.
    pub memo_hits: u64,
    /// Longest prefix length the search ever held — the maximum DFS
    /// frontier depth.
    pub max_frontier_depth: u64,
}

/// A witness linearization: operation ids in linearized order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Linearization {
    /// Operation ids in the order of the witness permutation `π`.
    pub order: Vec<OpId>,
    /// Nodes the search expanded before finding the witness — the cost
    /// counterpart to [`Violation::nodes`], for profiling grid sweeps.
    pub nodes: u64,
}

/// Evidence of non-linearizability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Total operations in the history.
    pub total_ops: usize,
    /// The longest legal prefix the search ever built (ids in order) —
    /// useful for diagnosing *where* histories go wrong.
    pub longest_prefix: Vec<OpId>,
    /// Nodes expanded during the exhaustive search.
    pub nodes: u64,
}

/// Checks a complete history against `spec`.
///
/// # Panics
///
/// Panics if the history is incomplete (a pending invocation has no
/// response — the engine only produces complete histories at quiescence)
/// or has more than 128 operations (the taken-set is a `u128` bitmask;
/// split longer workloads into epochs for checking).
#[must_use]
pub fn check_history<S: SequentialSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
) -> CheckOutcome {
    check_history_with(spec, history, CheckLimits::default())
}

/// [`check_history`] with explicit limits.
///
/// # Panics
///
/// Same conditions as [`check_history`].
#[must_use]
pub fn check_history_with<S: SequentialSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
    limits: CheckLimits,
) -> CheckOutcome {
    check_history_stats(spec, history, limits).0
}

/// [`check_history_with`], also returning the search's [`CheckStats`].
///
/// # Panics
///
/// Same conditions as [`check_history`].
#[must_use]
pub fn check_history_stats<S: SequentialSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
    limits: CheckLimits,
) -> (CheckOutcome, CheckStats) {
    assert!(
        history.is_complete(),
        "linearizability is defined over complete histories"
    );
    let n = history.len();
    assert!(n <= 128, "checker supports at most 128 operations, got {n}");
    if n == 0 {
        return (
            CheckOutcome::Linearizable(Linearization {
                order: Vec::new(),
                nodes: 0,
            }),
            CheckStats::default(),
        );
    }

    let records = history.records();
    let predecessors = predecessor_masks(records);
    let successors = successor_masks(&predecessors);
    let ready = initial_ready(&predecessors);

    let full: u128 = if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    let mut dfs = Dfs {
        spec,
        records,
        predecessors: &predecessors,
        successors: &successors,
        full,
        interner: StateInterner::with_capacity(n * 8),
        // Pre-size the memo table: node counts grow superlinearly in n,
        // and growth rehashes are pure overhead on the hot path.
        seen: SeenSet::with_capacity_and_hasher(n * 64, fxhash::FxBuildHasher::default()),
        // One shared order buffer, pushed/popped along the DFS path
        // instead of cloned per node (histories are ≤ 128 ops, so the
        // recursion depth is bounded).
        order: Vec::with_capacity(n),
        longest_prefix: Vec::new(),
        nodes: 0,
        memo_hits: 0,
        max_frontier_depth: 0,
        max_nodes: limits.max_nodes,
    };
    let initial = spec.initial();
    let result = dfs.explore(0, ready, &initial);
    let stats = CheckStats {
        nodes: dfs.nodes,
        memo_hits: dfs.memo_hits,
        max_frontier_depth: dfs.max_frontier_depth,
    };
    let outcome = match result {
        DfsOutcome::Found => CheckOutcome::Linearizable(Linearization {
            order: dfs.order,
            nodes: dfs.nodes,
        }),
        DfsOutcome::NodeLimit => CheckOutcome::Unknown { nodes: dfs.nodes },
        DfsOutcome::Exhausted => CheckOutcome::NotLinearizable(Violation {
            total_ops: n,
            longest_prefix: dfs.longest_prefix,
            nodes: dfs.nodes,
        }),
    };
    (outcome, stats)
}

/// `predecessors[i]` = bitmask of operations that must come before op `i`
/// (their response is before `i`'s invocation).
pub(crate) fn predecessor_masks<O, R>(records: &[OpRecord<O, R>]) -> Vec<u128> {
    let n = records.len();
    let mut predecessors = vec![0u128; n];
    for (i, a) in records.iter().enumerate() {
        for (j, b) in records.iter().enumerate() {
            if i != j && a.precedes(b) {
                predecessors[j] |= 1u128 << i;
            }
        }
    }
    predecessors
}

/// `successors[i]` = bitmask of operations with op `i` as an *immediate*
/// predecessor (no third op strictly between them in real time) — the
/// only ops that can become ready the moment `i` is taken.
///
/// Restricting to the transitive reduction is sound: real-time precedence
/// is transitive, so if the last-taken predecessor `k` of `j` were
/// non-immediate, some intermediate `m` (with `k ≺ m ≺ j`) would have to
/// be taken after `k` — contradicting `k` being last. And it matters:
/// full successor sets grow linearly with the history (every op precedes
/// all sufficiently-late ops), which would put an `O(n)` scan back into
/// every DFS node.
pub(crate) fn successor_masks(predecessors: &[u128]) -> Vec<u128> {
    let n = predecessors.len();
    let mut full = vec![0u128; n];
    for (j, &preds) in predecessors.iter().enumerate() {
        let mut p = preds;
        while p != 0 {
            let i = p.trailing_zeros() as usize;
            p &= p - 1;
            full[i] |= 1u128 << j;
        }
    }
    let mut reduced = vec![0u128; n];
    for (j, &preds) in predecessors.iter().enumerate() {
        let mut p = preds;
        while p != 0 {
            let i = p.trailing_zeros() as usize;
            p &= p - 1;
            // i → j is immediate iff no k with i ≺ k ≺ j.
            if full[i] & preds == 0 {
                reduced[i] |= 1u128 << j;
            }
        }
    }
    reduced
}

/// The ops ready at the empty prefix: those with no predecessors.
pub(crate) fn initial_ready(predecessors: &[u128]) -> u128 {
    let mut ready = 0u128;
    for (i, &preds) in predecessors.iter().enumerate() {
        if preds == 0 {
            ready |= 1u128 << i;
        }
    }
    ready
}

enum DfsOutcome {
    /// A witness permutation was completed; `Dfs::order` holds it.
    Found,
    /// Every extension of the current prefix was ruled out.
    Exhausted,
    /// The node budget ran out mid-search.
    NodeLimit,
}

struct Dfs<'a, S: SequentialSpec> {
    spec: &'a S,
    records: &'a [OpRecord<S::Op, S::Resp>],
    predecessors: &'a [u128],
    successors: &'a [u128],
    full: u128,
    interner: StateInterner<S::State>,
    seen: SeenSet,
    order: Vec<OpId>,
    longest_prefix: Vec<OpId>,
    nodes: u64,
    memo_hits: u64,
    max_frontier_depth: u64,
    max_nodes: u64,
}

impl<S: SequentialSpec> Dfs<'_, S> {
    /// `ready` holds exactly the not-taken ops whose predecessors are all
    /// in `taken`; candidates pop off it in ascending index order.
    fn explore(&mut self, taken: u128, ready: u128, state: &S::State) -> DfsOutcome {
        self.nodes += 1;
        self.max_frontier_depth = self.max_frontier_depth.max(self.order.len() as u64);
        if self.nodes > self.max_nodes {
            return DfsOutcome::NodeLimit;
        }
        if taken == self.full {
            return DfsOutcome::Found;
        }
        if self.order.len() > self.longest_prefix.len() {
            self.longest_prefix.clear();
            self.longest_prefix.extend_from_slice(&self.order);
        }
        let mut candidates = ready;
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let rec = &self.records[i];
            let (next_state, resp) = self.spec.apply(state, &rec.op);
            if Some(&resp) != rec.resp() {
                continue;
            }
            let bit = 1u128 << i;
            let next_taken = taken | bit;
            let state_id = self.interner.intern(&next_state);
            if self.seen.insert((next_taken, state_id)) {
                // Taking i may ready some of its successors: those whose
                // remaining predecessors are now all taken.
                let mut next_ready = ready & !bit;
                let mut newly = self.successors[i] & !next_taken;
                while newly != 0 {
                    let j = newly.trailing_zeros() as usize;
                    newly &= newly - 1;
                    if self.predecessors[j] & !next_taken == 0 {
                        next_ready |= 1u128 << j;
                    }
                }
                self.order.push(rec.id);
                match self.explore(next_taken, next_ready, &next_state) {
                    DfsOutcome::Exhausted => {
                        self.order.pop();
                    }
                    done => return done,
                }
            } else {
                self.memo_hits += 1;
            }
        }
        DfsOutcome::Exhausted
    }
}

/// Brute-force reference checker: enumerates *all* permutations that
/// respect real time and tests each for legality. Exponential; only for
/// cross-validating [`check_history`] on tiny histories in tests.
///
/// # Panics
///
/// Panics if the history is incomplete or longer than 8 operations.
#[must_use]
pub fn check_history_brute_force<S: SequentialSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
) -> bool {
    assert!(history.is_complete(), "complete histories only");
    let n = history.len();
    assert!(n <= 8, "brute force capped at 8 operations");
    if n == 0 {
        return true;
    }
    let records = history.records();

    // Tests one permutation; `true` stops the enumeration.
    let accepts = |perm: &[usize]| {
        // Real-time order respected?
        for (pos_a, &a) in perm.iter().enumerate() {
            for &b in &perm[pos_a + 1..] {
                if records[b].precedes(&records[a]) {
                    return false;
                }
            }
        }
        // Legal?
        let mut state = spec.initial();
        for &i in perm {
            let (s2, r) = spec.apply(&state, &records[i].op);
            if Some(&r) != records[i].resp() {
                return false;
            }
            state = s2;
        }
        true
    };

    // Enumerate permutations via Heap's algorithm, streaming each through
    // the acceptance test (returning on the first success) instead of
    // materializing all n! of them up front.
    fn heaps<F: FnMut(&[usize]) -> bool>(k: usize, arr: &mut [usize], accepts: &mut F) -> bool {
        if k == 1 {
            return accepts(arr);
        }
        for i in 0..k {
            if heaps(k - 1, arr, accepts) {
                return true;
            }
            if k.is_multiple_of(2) {
                arr.swap(i, k - 1);
            } else {
                arr.swap(0, k - 1);
            }
        }
        false
    }
    let mut indices: Vec<usize> = (0..n).collect();
    heaps(n, &mut indices, &mut { accepts })
}

/// Verifies that a claimed linearization is valid for `history` under
/// `spec`: it contains every operation exactly once, respects real time,
/// and is legal. Used to validate checker witnesses.
#[must_use]
pub fn validate_linearization<S: SequentialSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
    lin: &Linearization,
) -> bool {
    let n = history.len();
    if lin.order.len() != n {
        return false;
    }
    let mut used = vec![false; n];
    let mut state = spec.initial();
    let mut seen: Vec<&OpRecord<S::Op, S::Resp>> = Vec::new();
    for id in &lin.order {
        // A linearization from another (larger) history, or a hand-built
        // one, may carry foreign or non-dense ids: reject rather than
        // index out of bounds or validate against the wrong record.
        let idx = id.as_u64() as usize;
        if idx >= n {
            return false;
        }
        let Some(rec) = history.get(*id) else {
            return false;
        };
        if rec.id != *id {
            return false;
        }
        if used[idx] {
            return false;
        }
        used[idx] = true;
        // Real-time check: no remaining (later-in-π) op precedes rec.
        for earlier in &seen {
            if rec.precedes(earlier) {
                return false;
            }
        }
        seen.push(rec);
        let (s2, r) = spec.apply(&state, &rec.op);
        if Some(&r) != rec.resp() {
            return false;
        }
        state = s2;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_sim::ids::ProcessId;
    use skewbound_sim::time::SimTime;
    use skewbound_spec::prelude::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Build a complete register history from (pid, invoke, respond, op, resp).
    #[allow(clippy::type_complexity)]
    fn reg_history(
        entries: &[(u32, u64, u64, RegOp<i64>, RegResp<i64>)],
    ) -> History<RegOp<i64>, RegResp<i64>> {
        let mut h = History::new();
        let mut ids = Vec::new();
        for (pid, inv, _resp_t, op, _r) in entries {
            ids.push(h.record_invoke(p(*pid), op.clone(), t(*inv)));
        }
        for (i, (_, _, resp_t, _, r)) in entries.iter().enumerate() {
            h.record_response(ids[i], r.clone(), t(*resp_t));
        }
        h
    }

    #[test]
    fn empty_history_linearizable() {
        let h: History<RegOp<i64>, RegResp<i64>> = History::new();
        assert!(check_history(&RwRegister::new(0), &h).is_linearizable());
    }

    #[test]
    fn sequential_legal_history() {
        let h = reg_history(&[
            (0, 0, 1, RegOp::Write(1), RegResp::Ack),
            (0, 2, 3, RegOp::Read, RegResp::Value(1)),
        ]);
        let out = check_history(&RwRegister::new(0), &h);
        let CheckOutcome::Linearizable(lin) = &out else {
            panic!("expected linearizable, got {out:?}");
        };
        assert!(validate_linearization(&RwRegister::new(0), &h, lin));
    }

    #[test]
    fn fig1_incorrect_history_rejected() {
        // Fig. 1(a): both writes complete before the read is invoked, but
        // the read returns the older value.
        let h = reg_history(&[
            (0, 0, 1, RegOp::Write(0), RegResp::Ack),
            (0, 2, 3, RegOp::Write(1), RegResp::Ack),
            (1, 4, 5, RegOp::Read, RegResp::Value(0)),
        ]);
        let out = check_history(&RwRegister::new(0), &h);
        assert!(out.is_violation(), "{out:?}");
        assert!(!check_history_brute_force(&RwRegister::new(0), &h));
    }

    #[test]
    fn fig1b_overlapping_write_accepted() {
        // Fig. 1(b): write(1) overlaps the read, so
        // write(0) ∘ read(0) ∘ write(1) is a valid linearization.
        let h = reg_history(&[
            (0, 0, 1, RegOp::Write(0), RegResp::Ack),
            (0, 2, 10, RegOp::Write(1), RegResp::Ack),
            (1, 4, 5, RegOp::Read, RegResp::Value(0)),
        ]);
        let out = check_history(&RwRegister::new(0), &h);
        assert!(out.is_linearizable(), "{out:?}");
        assert!(check_history_brute_force(&RwRegister::new(0), &h));
    }

    #[test]
    fn overlapping_ops_may_linearize_either_way() {
        // Two concurrent writes then reads that agree on one order.
        let h = reg_history(&[
            (0, 0, 10, RegOp::Write(1), RegResp::Ack),
            (1, 0, 10, RegOp::Write(2), RegResp::Ack),
            (2, 11, 12, RegOp::Read, RegResp::Value(1)),
        ]);
        assert!(check_history(&RwRegister::new(0), &h).is_linearizable());
        let h2 = reg_history(&[
            (0, 0, 10, RegOp::Write(1), RegResp::Ack),
            (1, 0, 10, RegOp::Write(2), RegResp::Ack),
            (2, 11, 12, RegOp::Read, RegResp::Value(2)),
        ]);
        assert!(check_history(&RwRegister::new(0), &h2).is_linearizable());
    }

    #[test]
    fn reads_disagreeing_on_write_order_rejected() {
        // Concurrent writes, then two sequential reads observing
        // *different* final orders — impossible.
        let h = reg_history(&[
            (0, 0, 10, RegOp::Write(1), RegResp::Ack),
            (1, 0, 10, RegOp::Write(2), RegResp::Ack),
            (2, 11, 12, RegOp::Read, RegResp::Value(1)),
            (2, 13, 14, RegOp::Read, RegResp::Value(2)),
        ]);
        let out = check_history(&RwRegister::new(0), &h);
        assert!(out.is_violation(), "{out:?}");
        assert!(!check_history_brute_force(&RwRegister::new(0), &h));
    }

    #[test]
    fn queue_duplicate_dequeue_rejected() {
        // Theorem C.1's shape: one element, two non-overlapping dequeues
        // both returning it.
        let q: Queue<i64> = Queue::new();
        let mut h: History<QueueOp<i64>, QueueResp<i64>> = History::new();
        let a = h.record_invoke(p(0), QueueOp::Enqueue(5), t(0));
        h.record_response(a, QueueResp::Ack, t(1));
        let b = h.record_invoke(p(1), QueueOp::Dequeue, t(2));
        h.record_response(b, QueueResp::Value(Some(5)), t(3));
        let c = h.record_invoke(p(2), QueueOp::Dequeue, t(4));
        h.record_response(c, QueueResp::Value(Some(5)), t(5));
        assert!(check_history(&q, &h).is_violation());
    }

    #[test]
    fn queue_concurrent_dequeues_one_winner_ok() {
        let q: Queue<i64> = Queue::new();
        let mut h: History<QueueOp<i64>, QueueResp<i64>> = History::new();
        let a = h.record_invoke(p(0), QueueOp::Enqueue(5), t(0));
        h.record_response(a, QueueResp::Ack, t(1));
        let b = h.record_invoke(p(1), QueueOp::Dequeue, t(2));
        let c = h.record_invoke(p(2), QueueOp::Dequeue, t(2));
        h.record_response(b, QueueResp::Value(Some(5)), t(6));
        h.record_response(c, QueueResp::Value(None), t(6));
        assert!(check_history(&q, &h).is_linearizable());
    }

    #[test]
    fn violation_reports_longest_prefix() {
        let h = reg_history(&[
            (0, 0, 1, RegOp::Write(0), RegResp::Ack),
            (0, 2, 3, RegOp::Write(1), RegResp::Ack),
            (1, 4, 5, RegOp::Read, RegResp::Value(0)),
        ]);
        let CheckOutcome::NotLinearizable(v) = check_history(&RwRegister::new(0), &h) else {
            panic!("expected violation");
        };
        assert_eq!(v.total_ops, 3);
        assert_eq!(v.longest_prefix.len(), 2);
    }

    #[test]
    fn node_limit_returns_unknown() {
        // Many concurrent writes explode the search; with a 1-node limit
        // the checker must give up rather than mislabel.
        let mut entries = Vec::new();
        for i in 0..6u32 {
            entries.push((i, 0, 100, RegOp::Write(i64::from(i)), RegResp::Ack));
        }
        let h = reg_history(&entries);
        let out = check_history_with(&RwRegister::new(0), &h, CheckLimits { max_nodes: 1 });
        assert!(matches!(out, CheckOutcome::Unknown { .. }));
    }

    #[test]
    fn memoization_handles_many_commuting_ops() {
        // 60 sequential increment-style writes of the same value: the
        // memo table must collapse the state space.
        let mut entries = Vec::new();
        for i in 0..60u64 {
            entries.push((0u32, 2 * i, 2 * i + 1, RegOp::Write(7), RegResp::Ack));
        }
        let h = reg_history(&entries);
        assert!(check_history(&RwRegister::new(0), &h).is_linearizable());
    }

    #[test]
    fn stats_report_memo_hits_and_frontier_depth() {
        // Two concurrent commuting writes of the same value: both
        // interleavings reach the same (taken-set, state), so the second
        // path is a memo hit — but a witness is found on the first path,
        // so use a violating tail to force full exploration.
        let h = reg_history(&[
            (0, 0, 10, RegOp::Write(7), RegResp::Ack),
            (1, 0, 10, RegOp::Write(7), RegResp::Ack),
            (2, 20, 21, RegOp::Read, RegResp::Value(9)), // impossible value
        ]);
        let (out, stats) = check_history_stats(&RwRegister::new(0), &h, CheckLimits::default());
        assert!(out.is_violation());
        // Nodes: root, [w0], [w0,w1], [w1]; extending [w1] with w0 hits
        // the ({w0,w1}, state) memo entry.
        assert_eq!(stats.nodes, 4);
        assert_eq!(stats.memo_hits, 1, "second write order is memoized");
        assert_eq!(stats.max_frontier_depth, 2, "the read never linearizes");

        // A linearizable history reaches frontier depth n (the Found
        // node sees the full prefix) and its stats' node count matches
        // the witness's.
        let h = reg_history(&[
            (0, 0, 1, RegOp::Write(1), RegResp::Ack),
            (0, 2, 3, RegOp::Read, RegResp::Value(1)),
        ]);
        let (out, stats) = check_history_stats(&RwRegister::new(0), &h, CheckLimits::default());
        let CheckOutcome::Linearizable(lin) = out else {
            panic!("expected linearizable");
        };
        assert_eq!(stats.nodes, lin.nodes);
        assert_eq!(stats.max_frontier_depth, 2);
        assert_eq!(stats.memo_hits, 0);
    }

    /// The memoization-stress shape: sequential waves of 8 mutually
    /// concurrent writes of distinct values, closed by a read of a value
    /// never written. The read makes the history non-linearizable, so the
    /// checker must exhaust the whole `(taken-set, state)` space.
    fn memo_stress_history(total_ops: u64) -> History<RegOp<i64>, RegResp<i64>> {
        let mut entries = Vec::new();
        for i in 0..total_ops - 1 {
            let (wave, v) = (i / 8, i % 8);
            entries.push((
                v as u32,
                10 * wave,
                10 * wave + 5,
                RegOp::Write(v as i64),
                RegResp::Ack,
            ));
        }
        let end = 10 * (total_ops - 1).div_ceil(8);
        entries.push((0, end, end + 1, RegOp::Read, RegResp::Value(i64::MIN)));
        reg_history(&entries)
    }

    #[test]
    fn memo_stress_exhausts_a_pinned_node_count() {
        // Counts pinned on the parent commit; 128 ops is the edge of the
        // u128 taken-set mask.
        for (ops, nodes) in [(20, 2_061), (128, 15_809)] {
            let h = memo_stress_history(ops);
            let CheckOutcome::NotLinearizable(v) = check_history(&RwRegister::new(0), &h) else {
                panic!("the {ops}-op memo-stress history must be a violation");
            };
            assert_eq!(v.nodes, nodes, "{ops} ops");
        }
    }

    #[test]
    fn validate_rejects_wrong_order() {
        let h = reg_history(&[
            (0, 0, 1, RegOp::Write(1), RegResp::Ack),
            (0, 2, 3, RegOp::Read, RegResp::Value(1)),
        ]);
        let bad = Linearization {
            order: vec![
                skewbound_sim::ids::OpId::new(1),
                skewbound_sim::ids::OpId::new(0),
            ],
            nodes: 0,
        };
        assert!(!validate_linearization(&RwRegister::new(0), &h, &bad));
    }

    #[test]
    fn validate_rejects_out_of_range_ids_without_panicking() {
        // Ids from a different (larger) history must be rejected, not
        // index out of bounds in the used-op bookkeeping.
        let h = reg_history(&[
            (0, 0, 1, RegOp::Write(1), RegResp::Ack),
            (0, 2, 3, RegOp::Read, RegResp::Value(1)),
        ]);
        let foreign = Linearization {
            order: vec![
                skewbound_sim::ids::OpId::new(0),
                skewbound_sim::ids::OpId::new(u64::MAX),
            ],
            nodes: 0,
        };
        assert!(!validate_linearization(&RwRegister::new(0), &h, &foreign));
        let oob = Linearization {
            order: vec![
                skewbound_sim::ids::OpId::new(2),
                skewbound_sim::ids::OpId::new(3),
            ],
            nodes: 0,
        };
        assert!(!validate_linearization(&RwRegister::new(0), &h, &oob));
    }

    #[test]
    fn validate_rejects_duplicate_ids() {
        let h = reg_history(&[
            (0, 0, 1, RegOp::Write(1), RegResp::Ack),
            (0, 2, 3, RegOp::Read, RegResp::Value(1)),
        ]);
        let dup = Linearization {
            order: vec![
                skewbound_sim::ids::OpId::new(0),
                skewbound_sim::ids::OpId::new(0),
            ],
            nodes: 0,
        };
        assert!(!validate_linearization(&RwRegister::new(0), &h, &dup));
    }
}
