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
//! its recorded response matches what the specification returns.
//!
//! A `(taken-set, state)` memo table prunes re-exploration. It holds only
//! configurations whose subtree was searched in vain (Lowe, "Testing for
//! Linearizability", CPE 2017), recorded as their node returns. That is
//! exact: every other node entered so far is on the DFS path, with a
//! smaller taken-set than any extension looked up, or ended the search.
//! So a walk that never backtracks allocates no table.
//!
//! Per-node cost stays flat in the history size (DESIGN.md §7): states
//! are hash-consed through a [`StateInterner`] into 20-byte `(u128, u32)`
//! keys hashed with [`fxhash`]; candidates pop in ascending index order
//! off a *ready-set* bitmask kept from per-op successor masks; and
//! [`check_namespace`](crate::multi::check_namespace) reuses one set of
//! precedence and order buffers for every key.

use skewbound_sim::history::{History, OpRecord};
use skewbound_sim::ids::OpId;
use skewbound_sim::time::SimTime;
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

/// The most operations one check takes: the taken-set and the
/// precedence masks are `u128` bitmasks. Split longer workloads into
/// epochs or per-key sub-histories for checking.
pub const MAX_OPS: usize = 128;

/// Checks a complete history against `spec` with the default
/// [`CheckLimits`].
///
/// # Panics
///
/// Panics if the history is incomplete (a pending invocation has no
/// response — the engine only produces complete histories at quiescence)
/// or has more than [`MAX_OPS`] operations.
#[must_use]
pub fn check_history<S: SequentialSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
) -> CheckOutcome {
    check_history_stats(spec, history, CheckLimits::default()).0
}

/// [`check_history`] with explicit limits, also returning the search's
/// [`CheckStats`].
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
    check_history_in(&mut CheckBuffers::default(), spec, history, limits)
}

/// [`check_history_stats`] in the caller's `buffers`. A caller that
/// checks many histories in a row keeps one [`CheckBuffers`] and hands
/// each outcome back to it ([`CheckBuffers::reclaim`]); once the buffers
/// have grown to the longest history, a check that does not backtrack
/// allocates nothing.
///
/// # Panics
///
/// Same conditions as [`check_history`].
#[must_use]
pub fn check_history_in<S: SequentialSpec>(
    buffers: &mut CheckBuffers,
    spec: &S,
    history: &History<S::Op, S::Resp>,
    limits: CheckLimits,
) -> (CheckOutcome, CheckStats) {
    assert!(
        history.is_complete(),
        "linearizability is defined over complete histories"
    );
    search(buffers, spec, history, limits)
}

/// The vectors one search fills: the precedence build's five and the DFS
/// order. A caller checking many histories in a row keeps one, so they
/// grow to the longest history once instead of being allocated per
/// history; each search clears what it uses.
#[derive(Debug, Default)]
pub struct CheckBuffers {
    by_response: Vec<(u64, usize)>,
    prefix: Vec<u128>,
    latest: Vec<u64>,
    predecessors: Vec<u128>,
    successors: Vec<u128>,
    order: Vec<OpId>,
}

impl CheckBuffers {
    /// Takes back the witness order of a linearizable `outcome`: a
    /// search hands its order buffer out as the witness, and the next
    /// search reuses it from here.
    pub fn reclaim(&mut self, outcome: CheckOutcome) {
        if let CheckOutcome::Linearizable(lin) = outcome {
            self.order = lin.order;
        }
    }
}

/// The one search behind [`check_history_stats`],
/// [`check_pending`](crate::pending::check_pending) and
/// [`check_namespace`](crate::multi::check_namespace). It succeeds once
/// every *completed* operation is linearized: an operation with no
/// response may be taken, with whatever response the specification
/// gives, or left out, which is Herlihy & Wing's completion of a history
/// with pending invocations. On a complete history that is every
/// operation, taken with its recorded response.
///
/// # Panics
///
/// Panics if the history has more than [`MAX_OPS`] operations.
pub(crate) fn search<S: SequentialSpec>(
    buffers: &mut CheckBuffers,
    spec: &S,
    history: &History<S::Op, S::Resp>,
    limits: CheckLimits,
) -> (CheckOutcome, CheckStats) {
    let n = history.len();
    assert!(
        n <= MAX_OPS,
        "checker supports at most {MAX_OPS} operations, got {n}"
    );
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
    precedence(records, buffers);
    let CheckBuffers {
        predecessors,
        successors,
        order,
        ..
    } = buffers;
    let ready = initial_ready(predecessors);
    let mut target = 0u128;
    for (i, rec) in records.iter().enumerate() {
        if rec.response.is_some() {
            target |= 1u128 << i;
        }
    }
    // One shared order buffer, pushed/popped along the DFS path instead
    // of cloned per node (histories are ≤ 128 ops, so the recursion
    // depth is bounded).
    order.clear();
    order.reserve(n);
    let mut dfs = Dfs {
        spec,
        records,
        predecessors,
        successors,
        target,
        // Fresh and empty: only backtracking fills them, and a table
        // kept from a key that backtracked would cost its whole capacity
        // to clear for every key after it.
        interner: StateInterner::new(),
        seen: SeenSet::default(),
        order,
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
            order: std::mem::take(dfs.order),
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

/// The real-time precedence of `records` as bitmasks:
/// `predecessors[j]` holds every op that responded before op `j` was
/// invoked, and `successors[i]` every op that has `i` as an *immediate*
/// predecessor (no third op strictly between them in real time) — the
/// only ops that can become ready the moment `i` is taken.
///
/// Restricting successors to the transitive reduction is sound:
/// real-time precedence is transitive, so if the last-taken predecessor
/// `k` of `j` were non-immediate, some intermediate `m` (with
/// `k ≺ m ≺ j`) would have to be taken after `k` — contradicting `k`
/// being last. And it matters: full successor sets grow linearly with
/// the history (every op precedes all sufficiently-late ops), which
/// would put an `O(n)` scan back into every DFS node.
///
/// Both land in `buffers`, from one sort of the ops by response instant,
/// a pending op last (it precedes nothing). Op `j`'s predecessors are the
/// prefix of that order that responded before `j` was invoked, found by
/// binary search, and their set is a prefix OR. A predecessor `i` is
/// non-immediate exactly when some other predecessor was invoked after
/// `i` responded; so with `M` the latest invocation in the prefix, the
/// immediate ones are those that did not respond before `M` — the
/// prefix minus a shorter prefix. That is `O(n log n)` plus one pass
/// over the immediate pairs to turn them round into successor masks.
fn precedence<O, R>(records: &[OpRecord<O, R>], buffers: &mut CheckBuffers) {
    let n = records.len();
    let CheckBuffers {
        by_response,
        prefix,
        latest,
        predecessors,
        successors,
        ..
    } = buffers;
    by_response.clear();
    by_response.extend(
        records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.responded_at().map_or(u64::MAX, SimTime::as_ticks), i)),
    );
    by_response.sort_unstable();
    // prefix[k]: the first k ops of that order; latest[k]: the latest
    // invocation among them.
    prefix.clear();
    latest.clear();
    prefix.reserve(n + 1);
    latest.reserve(n + 1);
    let (mut mask, mut last) = (0u128, 0u64);
    prefix.push(mask);
    latest.push(last);
    for &(_, i) in by_response.iter() {
        mask |= 1u128 << i;
        last = last.max(records[i].invoked_at.as_ticks());
        prefix.push(mask);
        latest.push(last);
    }
    predecessors.clear();
    predecessors.resize(n, 0);
    successors.clear();
    successors.resize(n, 0);
    for (j, rec) in records.iter().enumerate() {
        let invoked = rec.invoked_at.as_ticks();
        let p = by_response.partition_point(|&(at, _)| at < invoked);
        let q = by_response[..p].partition_point(|&(at, _)| at < latest[p]);
        predecessors[j] = prefix[p];
        let mut immediate = prefix[p] & !prefix[q];
        while immediate != 0 {
            let i = immediate.trailing_zeros() as usize;
            immediate &= immediate - 1;
            successors[i] |= 1u128 << j;
        }
    }
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
    /// The completed ops: the search is done once all are taken.
    target: u128,
    /// The memo set: configurations whose subtree holds no witness.
    interner: StateInterner<S::State>,
    seen: SeenSet,
    order: &'a mut Vec<OpId>,
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
        if taken & self.target == self.target {
            return DfsOutcome::Found;
        }
        let mut candidates = ready;
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let rec = &self.records[i];
            let (next_state, resp) = self.spec.apply(state, &rec.op);
            // A pending op takes whatever the specification returns.
            if rec.resp().is_some_and(|r| *r != resp) {
                continue;
            }
            let bit = 1u128 << i;
            let next_taken = taken | bit;
            if !self.seen.is_empty()
                && self
                    .interner
                    .get(&next_state)
                    .is_some_and(|id| self.seen.contains(&(next_taken, id)))
            {
                self.memo_hits += 1;
                continue;
            }
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
                    // Postorder: the deepest prefixes are leaves, so the
                    // first one past the record is also the first in
                    // preorder.
                    if self.order.len() > self.longest_prefix.len() {
                        self.longest_prefix.clear();
                        self.longest_prefix.extend_from_slice(self.order);
                    }
                    self.order.pop();
                    let id = self.interner.intern(&next_state);
                    self.seen.insert((next_taken, id));
                }
                done => return done,
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use skewbound_sim::ids::ProcessId;
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

    /// The quadratic definitions [`precedence`] replaced, kept as its
    /// oracle: all pairs for the predecessors, then every predecessor
    /// bit walked twice for the immediate successors.
    fn predecessor_masks<O, R>(records: &[OpRecord<O, R>]) -> Vec<u128> {
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

    fn successor_masks(predecessors: &[u128]) -> Vec<u128> {
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

    #[test]
    fn precedence_matches_the_quadratic_oracle() {
        // Random histories up to the 128-op mask edge, in no particular
        // invocation order, with instants drawn from a span short enough
        // to tie often and one op in eight left pending.
        // One set of buffers for every case, as a namespace check uses.
        let mut rng = StdRng::seed_from_u64(0x0123_4567_89AB_CDEF);
        let mut buffers = CheckBuffers::default();
        for case in 0..10_000 {
            let n = rng.gen_range(0..=128usize);
            let span = rng.gen_range(1..=2 * n as u64 + 2);
            let mut h: History<(), ()> = History::new();
            for _ in 0..n {
                let invoked = rng.gen_range(0..span);
                let id = h.record_invoke(p(0), (), t(invoked));
                if rng.gen_range(0..8) != 0 {
                    h.record_response(id, (), t(invoked + rng.gen_range(0..=span / 2)));
                }
            }
            precedence(h.records(), &mut buffers);
            let oracle = predecessor_masks(h.records());
            assert_eq!(buffers.predecessors, oracle, "predecessors, case {case}");
            assert_eq!(
                buffers.successors,
                successor_masks(&oracle),
                "successors, case {case}"
            );
        }
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
        let (out, _) = check_history_stats(&RwRegister::new(0), &h, CheckLimits { max_nodes: 1 });
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

    /// The entry-time memo search this module ran before it recorded
    /// only exhausted nodes, kept as the oracle for
    /// [`search`]: every node's `(taken-set, state)` goes into the memo
    /// before it is explored, states uninterned, and the longest prefix
    /// is copied on entry. Precedence comes from the quadratic masks.
    fn entry_memo_search<S: SequentialSpec>(
        spec: &S,
        history: &History<S::Op, S::Resp>,
        limits: CheckLimits,
    ) -> (CheckOutcome, CheckStats) {
        struct Oracle<'a, S: SequentialSpec> {
            spec: &'a S,
            records: &'a [OpRecord<S::Op, S::Resp>],
            predecessors: Vec<u128>,
            successors: Vec<u128>,
            target: u128,
            seen: std::collections::HashSet<(u128, S::State)>,
            order: Vec<OpId>,
            longest_prefix: Vec<OpId>,
            stats: CheckStats,
            max_nodes: u64,
        }

        impl<S: SequentialSpec> Oracle<'_, S> {
            fn explore(&mut self, taken: u128, ready: u128, state: &S::State) -> DfsOutcome {
                self.stats.nodes += 1;
                let depth = self.order.len() as u64;
                self.stats.max_frontier_depth = self.stats.max_frontier_depth.max(depth);
                if self.stats.nodes > self.max_nodes {
                    return DfsOutcome::NodeLimit;
                }
                if taken & self.target == self.target {
                    return DfsOutcome::Found;
                }
                if self.order.len() > self.longest_prefix.len() {
                    self.longest_prefix = self.order.clone();
                }
                let mut candidates = ready;
                while candidates != 0 {
                    let i = candidates.trailing_zeros() as usize;
                    candidates &= candidates - 1;
                    let rec = &self.records[i];
                    let (next_state, resp) = self.spec.apply(state, &rec.op);
                    if rec.resp().is_some_and(|r| *r != resp) {
                        continue;
                    }
                    let next_taken = taken | 1u128 << i;
                    if !self.seen.insert((next_taken, next_state.clone())) {
                        self.stats.memo_hits += 1;
                        continue;
                    }
                    let mut next_ready = ready & !(1u128 << i);
                    for j in 0..self.records.len() {
                        if self.successors[i] & !next_taken & 1u128 << j != 0
                            && self.predecessors[j] & !next_taken == 0
                        {
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
                }
                DfsOutcome::Exhausted
            }
        }

        let records = history.records();
        if records.is_empty() {
            let empty = Linearization {
                order: Vec::new(),
                nodes: 0,
            };
            return (CheckOutcome::Linearizable(empty), CheckStats::default());
        }
        let predecessors = predecessor_masks(records);
        let mut oracle = Oracle {
            spec,
            records,
            successors: successor_masks(&predecessors),
            target: (0..records.len())
                .filter(|&i| records[i].response.is_some())
                .fold(0, |t, i| t | 1u128 << i),
            predecessors,
            seen: std::collections::HashSet::new(),
            order: Vec::new(),
            longest_prefix: Vec::new(),
            stats: CheckStats::default(),
            max_nodes: limits.max_nodes,
        };
        let ready = initial_ready(&oracle.predecessors);
        let result = oracle.explore(0, ready, &spec.initial());
        let nodes = oracle.stats.nodes;
        let outcome = match result {
            DfsOutcome::Found => CheckOutcome::Linearizable(Linearization {
                order: oracle.order,
                nodes,
            }),
            DfsOutcome::NodeLimit => CheckOutcome::Unknown { nodes },
            DfsOutcome::Exhausted => CheckOutcome::NotLinearizable(Violation {
                total_ops: records.len(),
                longest_prefix: oracle.longest_prefix,
                nodes,
            }),
        };
        (outcome, oracle.stats)
    }

    /// A random history of `n` ops drawn by `op`, in no particular
    /// invocation order: each op is applied at a random instant of its
    /// interval, which makes the history linearizable; then up to two
    /// responses are swapped for what their ops return at other instants,
    /// and on some draws some ops are left pending.
    fn random_history<S: SequentialSpec>(
        rng: &mut StdRng,
        spec: &S,
        n: usize,
        mut op: impl FnMut(&mut StdRng) -> S::Op,
    ) -> History<S::Op, S::Resp> {
        let span = rng.gen_range(1..=2 * n as u64 + 2);
        let ops: Vec<(S::Op, u64, u64)> = (0..n)
            .map(|_| {
                let invoked = rng.gen_range(0..span);
                (op(rng), invoked, invoked + rng.gen_range(0..=span / 2))
            })
            .collect();
        let mut by_instant: Vec<(u64, u64, usize)> = ops
            .iter()
            .enumerate()
            .map(|(i, (_, inv, resp))| (rng.gen_range(*inv..=*resp), rng.gen_range(0..u64::MAX), i))
            .collect();
        by_instant.sort_unstable();
        let mut states = vec![spec.initial()];
        let mut resps = vec![None; n];
        for &(_, _, i) in &by_instant {
            let (next, resp) = spec.apply(states.last().unwrap(), &ops[i].0);
            resps[i] = Some(resp);
            states.push(next);
        }
        for _ in 0..rng.gen_range(0..=2) {
            if n > 0 {
                let i = rng.gen_range(0..n);
                let at = &states[rng.gen_range(0..states.len())];
                resps[i] = Some(spec.apply(at, &ops[i].0).1);
            }
        }
        let pending = if rng.gen_range(0..4) == 0 { 4 } else { 0 };
        let mut h = History::new();
        for (i, (op, invoked, responded)) in ops.into_iter().enumerate() {
            let id = h.record_invoke(p(0), op, t(invoked));
            if pending == 0 || rng.gen_range(0..pending) != 0 {
                h.record_response(id, resps[i].take().unwrap(), t(responded));
            }
        }
        h
    }

    #[test]
    fn exhausted_only_memo_matches_the_entry_time_oracle() {
        // Register and queue histories, complete, violating and pending,
        // a quarter of them under a node budget small enough to end in
        // `Unknown`, all searched in one set of buffers: outcome and stats
        // must agree field for field.
        let mut rng = StdRng::seed_from_u64(0x05EE_D0F0_AC1E);
        let (reg, queue) = (RwRegister::new(0), Queue::<i64>::new());
        let mut seen = [0u32; 5]; // linearizable, violation, unknown, pending, memo hit
        let mut buffers = CheckBuffers::default();
        for case in 0..10_000 {
            let n = rng.gen_range(0..=12);
            let limits = CheckLimits {
                max_nodes: if rng.gen_range(0..4) == 0 {
                    rng.gen_range(1..=30)
                } else {
                    CheckLimits::default().max_nodes
                },
            };
            let (got, want, complete) = if case % 2 == 0 {
                let h = random_history(&mut rng, &reg, n, |r| {
                    if r.gen_range(0..2) == 0 {
                        RegOp::Write(r.gen_range(0..3))
                    } else {
                        RegOp::Read
                    }
                });
                let got = search(&mut buffers, &reg, &h, limits);
                (got, entry_memo_search(&reg, &h, limits), h.is_complete())
            } else {
                let h = random_history(&mut rng, &queue, n, |r| match r.gen_range(0..4) {
                    0 | 1 => QueueOp::Enqueue(r.gen_range(0..3)),
                    2 => QueueOp::Dequeue,
                    _ => QueueOp::Peek,
                });
                let got = search(&mut buffers, &queue, &h, limits);
                (got, entry_memo_search(&queue, &h, limits), h.is_complete())
            };
            assert_eq!(got, want, "case {case}");
            seen[match got.0 {
                CheckOutcome::Linearizable(_) => 0,
                CheckOutcome::NotLinearizable(_) => 1,
                CheckOutcome::Unknown { .. } => 2,
            }] += 1;
            seen[3] += u32::from(!complete);
            seen[4] += u32::from(got.1.memo_hits > 0);
        }
        assert!(seen.iter().all(|&k| k >= 200), "coverage {seen:?}");
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
