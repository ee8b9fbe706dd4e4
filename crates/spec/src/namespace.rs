//! A keyed multi-object namespace over any base specification.
//!
//! Algorithm 1's timestamp order is *per object*: nothing in the paper
//! couples the broadcasts of two distinct objects. A namespace of
//! independent objects — "key 17's register", "key 40's queue" — is
//! therefore itself a deterministic sequential specification whose state
//! is a map from keys to per-object states, and its linearizability
//! decomposes per key (Herlihy–Wing locality; see `lin::multi`). That is
//! what lets the sharded simulator split a namespace across `S`
//! independent replica groups and still check each shard with the plain
//! per-history checker.
//!
//! The state, [`NsState`], is a hash map: a replica's execute pass and
//! every accessor touch one key per operation, and nothing needs the
//! keys in order, so a lookup is one hash probe rather than a B-tree
//! descent. It stays canonical (initial-state objects are absent) and
//! its `Eq`, `Hash` and `Debug` depend only on the set of entries, never
//! on how the map laid them out.
//!
//! [`ShardRouter`] is the `ObjectId → shard` map used by both the shard
//! runner (to partition the key universe) and workload generators (to
//! keep every generated op inside its shard's key set).

use core::fmt;
use core::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;

use crate::seqspec::{OpClass, SequentialSpec};

/// An operation on one object of the namespace: the object key plus the
/// base operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NsOp<O> {
    /// Which object of the namespace the op addresses.
    pub key: u64,
    /// The base-spec operation.
    pub op: O,
}

impl<O> NsOp<O> {
    /// Creates a keyed operation.
    #[must_use]
    pub fn new(key: u64, op: O) -> Self {
        NsOp { key, op }
    }
}

/// The state of a [`Namespace`]: each key's object state, with every
/// object that is in the inner initial state left out.
///
/// Leaving initial-state objects out makes the representation
/// canonical, so two states are semantically equal iff they are `==`
/// (the property sequence-equivalence checking relies on). The entries
/// live in a std [`HashMap`] with its default, randomly keyed hasher:
/// keys reach a served replica from its clients, and a fixed hash would
/// let a client pick keys that all land in one bucket. Its iteration
/// order therefore differs between maps and runs, so `Hash` combines
/// per-entry hashes with a wrapping sum, and `Debug` prints the entries
/// in ascending key order. Only [`Namespace`] builds and changes one,
/// which is what keeps it canonical.
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let ns = Namespace::new(RmwRegister::default());
/// let s = ns.state_after(
///     &ns.initial(),
///     &[NsOp::new(7, RmwOp::Write(3)), NsOp::new(2, RmwOp::Write(9))],
/// );
/// assert_eq!(s.get(7), Some(&3));
/// assert_eq!(s.get(40), None, "key 40 is at the initial state");
/// assert_eq!(format!("{s:?}"), "{2: 9, 7: 3}");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct NsState<T>(HashMap<u64, T>);

impl<T> NsState<T> {
    /// The object state of `key`, or `None` when it is at the inner
    /// initial state.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&T> {
        self.0.get(&key)
    }

    /// Number of objects not at the inner initial state.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when every object is at the inner initial state.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<T: Hash> Hash for NsState<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // A sum is order-independent, so equal maps hash equally
        // whatever order they iterate in. Each entry is hashed with
        // fixed keys, so the sum does not depend on the map's own.
        let fixed = BuildHasherDefault::<DefaultHasher>::default();
        let sum = self
            .0
            .iter()
            .fold(0u64, |sum, entry| sum.wrapping_add(fixed.hash_one(entry)));
        state.write_usize(self.0.len());
        state.write_u64(sum);
    }
}

impl<T: fmt::Debug> fmt::Debug for NsState<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.0.iter().collect();
        entries.sort_unstable_by_key(|&(key, _)| *key);
        f.debug_map().entries(entries).finish()
    }
}

/// The namespace specification: every key addresses an independent copy
/// of the `inner` object. Its state is an [`NsState`].
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let ns = Namespace::new(RmwRegister::default());
/// let s0 = ns.initial();
/// let (s1, _) = ns.apply(&s0, &NsOp::new(17, RmwOp::Write(5)));
/// let (_, r) = ns.apply(&s1, &NsOp::new(17, RmwOp::Read));
/// assert_eq!(r, RmwResp::Value(5));
/// // Key 40 is a different object, still at its initial value.
/// let (_, r) = ns.apply(&s1, &NsOp::new(40, RmwOp::Read));
/// assert_eq!(r, RmwResp::Value(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Namespace<S> {
    inner: S,
}

impl<S: SequentialSpec> Namespace<S> {
    /// Wraps `inner` as the per-key object specification.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Namespace { inner }
    }

    /// The per-key base specification.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SequentialSpec> SequentialSpec for Namespace<S> {
    type State = NsState<S::State>;
    type Op = NsOp<S::Op>;
    type Resp = S::Resp;

    fn initial(&self) -> Self::State {
        NsState(HashMap::new())
    }

    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Resp) {
        let mut next = state.clone();
        let resp = self.apply_mut(&mut next, op);
        (next, resp)
    }

    /// Touches the one entry `op` addresses instead of cloning the map:
    /// a long-lived replica pays per operation, not per key ever seen.
    fn apply_mut(&self, state: &mut Self::State, op: &Self::Op) -> Self::Resp {
        let init = self.inner.initial();
        match state.0.entry(op.key) {
            Entry::Occupied(mut slot) => {
                let resp = self.inner.apply_mut(slot.get_mut(), &op.op);
                if *slot.get() == init {
                    // Keep the map canonical: initial-state objects are absent.
                    slot.remove();
                }
                resp
            }
            Entry::Vacant(slot) => {
                let mut object = init.clone();
                let resp = self.inner.apply_mut(&mut object, &op.op);
                if object != init {
                    slot.insert(object);
                }
                resp
            }
        }
    }

    fn peek(&self, state: &Self::State, op: &Self::Op) -> Self::Resp {
        match state.0.get(&op.key) {
            Some(object) => self.inner.peek(object, &op.op),
            None => self.inner.peek(&self.inner.initial(), &op.op),
        }
    }

    fn class(&self, op: &Self::Op) -> OpClass {
        self.inner.class(&op.op)
    }
}

/// The `ObjectId → shard` router: a fixed hash partition of the key
/// universe into `shards` disjoint groups.
///
/// Routing hashes the key (splitmix64) rather than taking `key % shards`
/// so that striding key patterns (all-even keys, per-process key ranges)
/// still spread across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Creates a router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a namespace needs at least one shard");
        ShardRouter { shards }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns `key`. Total and deterministic: every key
    /// routes to exactly one shard on every call, on every host.
    #[must_use]
    pub fn route(&self, key: u64) -> usize {
        (splitmix64(key) % self.shards as u64) as usize
    }

    /// The keys of the dense universe `0..total_objects` owned by
    /// `shard`, ascending. Shard workload generators draw from this set
    /// so cross-shard runs never touch a foreign shard's objects.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn keys_in_shard(&self, shard: usize, total_objects: u64) -> Vec<u64> {
        assert!(shard < self.shards, "shard {shard} of {}", self.shards);
        (0..total_objects)
            .filter(|&k| self.route(k) == shard)
            .collect()
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed `u64 → u64` bijection.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::queue::{Queue, QueueOp};
    use crate::register::{RmwKind, RmwOp, RmwRegister, RmwResp};

    fn ns() -> Namespace<RmwRegister> {
        Namespace::new(RmwRegister::default())
    }

    #[test]
    fn keys_are_independent_objects() {
        let ns = ns();
        let (s, _) = ns.apply(&ns.initial(), &NsOp::new(1, RmwOp::Write(5)));
        let (s, _) = ns.apply(&s, &NsOp::new(2, RmwOp::Write(9)));
        let (_, r1) = ns.apply(&s, &NsOp::new(1, RmwOp::Read));
        let (_, r2) = ns.apply(&s, &NsOp::new(2, RmwOp::Read));
        let (_, r3) = ns.apply(&s, &NsOp::new(3, RmwOp::Read));
        assert_eq!(r1, RmwResp::Value(5));
        assert_eq!(r2, RmwResp::Value(9));
        assert_eq!(r3, RmwResp::Value(0), "untouched key reads initial");
        // Ops on distinct keys are order-independent: from every state
        // above, both orders of each cross-key pair reach the same state
        // with the same per-op responses, so a batch needs no inter-key
        // order.
        let ops = [
            NsOp::new(1, RmwOp::Read),
            NsOp::new(1, RmwOp::Write(2)),
            NsOp::new(2, RmwOp::Rmw(RmwKind::FetchAdd(1))),
            NsOp::new(3, RmwOp::Rmw(RmwKind::Swap(4))),
        ];
        for state in [ns.initial(), s] {
            for a in &ops {
                for b in ops.iter().filter(|b| b.key != a.key) {
                    let (s_ab, r_ab) = ns.run(&state, &[a.clone(), b.clone()]);
                    let (s_ba, r_ba) = ns.run(&state, &[b.clone(), a.clone()]);
                    assert_eq!(s_ab, s_ba, "{a:?} / {b:?}");
                    assert_eq!((&r_ab[0], &r_ab[1]), (&r_ba[1], &r_ba[0]), "{a:?} / {b:?}");
                }
            }
        }
    }

    #[test]
    fn state_is_canonical() {
        let ns = ns();
        // Writing a key back to its initial value removes the entry, so
        // the state equals the never-touched state (Eq-as-equivalence).
        let (s, _) = ns.apply(&ns.initial(), &NsOp::new(7, RmwOp::Write(3)));
        assert_eq!(s.len(), 1);
        let (s, _) = ns.apply(&s, &NsOp::new(7, RmwOp::Write(0)));
        assert_eq!(s, ns.initial());
        // A read never materializes an entry.
        let (s, _) = ns.apply(&ns.initial(), &NsOp::new(8, RmwOp::Read));
        assert_eq!(s, ns.initial());
    }

    /// Drives one seeded operation sequence through `peek`, `apply_mut`
    /// and `apply`, and checks each against a reference model kept
    /// here: a `BTreeMap` of per-key states stepped with the inner
    /// spec, initial-state objects removed. Same responses, same
    /// entries after every step; since the model is canonical, so is
    /// the state.
    fn assert_in_place_matches_apply<S, G>(ns: &Namespace<S>, seed: u64, steps: usize, gen: G)
    where
        S: SequentialSpec,
        G: Fn(u64) -> S::Op,
    {
        let init = ns.inner().initial();
        let mut model: BTreeMap<u64, S::State> = BTreeMap::new();
        let mut in_place = ns.initial();
        let mut by_apply = ns.initial();
        let mut x = seed;
        for step in 0..steps {
            x = splitmix64(x);
            // Few keys, so entries are revisited, emptied and refilled.
            let op = NsOp::new(x % 5, gen(x >> 8));
            let (after, expected) = ns
                .inner()
                .apply(model.get(&op.key).unwrap_or(&init), &op.op);
            if after == init {
                model.remove(&op.key);
            } else {
                model.insert(op.key, after);
            }
            assert_eq!(
                ns.peek(&in_place, &op),
                expected,
                "peek, seed {seed} step {step}"
            );
            assert_eq!(
                ns.apply_mut(&mut in_place, &op),
                expected,
                "apply_mut, seed {seed} step {step}"
            );
            let (next, resp) = ns.apply(&by_apply, &op);
            assert_eq!(resp, expected, "apply, seed {seed} step {step}");
            by_apply = next;
            for state in [&in_place, &by_apply] {
                assert_eq!(state.len(), model.len(), "seed {seed} step {step}");
                assert!(
                    model
                        .iter()
                        .all(|(&key, object)| state.get(key) == Some(object)),
                    "state {state:?} is not the model {model:?}, seed {seed} step {step}"
                );
            }
        }
    }

    #[test]
    fn in_place_register_matches_apply_on_seeded_sequences() {
        for seed in 1..=16 {
            assert_in_place_matches_apply(&ns(), seed, 300, |r| match r % 3 {
                0 => RmwOp::Read,
                // Writing 0 returns the key to its initial state.
                _ => RmwOp::Write((r >> 2) as i64 % 3),
            });
        }
    }

    #[test]
    fn in_place_queue_matches_apply_on_seeded_sequences() {
        let ns = Namespace::new(Queue::<i64>::new());
        for seed in 1..=16 {
            assert_in_place_matches_apply(&ns, seed, 300, |r| match r % 4 {
                0 => QueueOp::Enqueue((r >> 2) as i64 % 100),
                // More dequeues than enqueues: queues keep running empty.
                1 | 2 => QueueOp::Dequeue,
                _ => QueueOp::Peek,
            });
        }
    }

    #[test]
    fn insertion_order_does_not_show() {
        let ns = ns();
        // Keys 1024 apart share their low bits, so under a weak hash
        // they would collide and iterate in insertion order.
        let writes: Vec<_> = (0..48)
            .map(|i| NsOp::new(i * 1024, RmwOp::Write(i as i64 + 1)))
            .collect();
        let reversed: Vec<_> = writes.iter().rev().cloned().collect();
        let up = ns.state_after(&ns.initial(), &writes);
        let down = ns.state_after(&ns.initial(), &reversed);
        assert_eq!(up, down);
        assert_eq!(hash_of(&up), hash_of(&down));
        assert_eq!(format!("{up:?}"), format!("{down:?}"));
    }

    #[test]
    fn emptied_state_hashes_like_initial() {
        let ns = ns();
        // Many keys written and written back: the map's table has grown,
        // but the state is the never-touched one, hash included.
        let there: Vec<_> = (0..48).map(|k| NsOp::new(k, RmwOp::Write(1))).collect();
        let back: Vec<_> = (0..48).map(|k| NsOp::new(k, RmwOp::Write(0))).collect();
        let s = ns.state_after(&ns.state_after(&ns.initial(), &there), &back);
        assert!(s.is_empty());
        assert_eq!(s, ns.initial());
        assert_eq!(hash_of(&s), hash_of(&ns.initial()));
    }

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<DefaultHasher>::default().hash_one(value)
    }

    #[test]
    fn debug_lists_keys_in_ascending_order() {
        let ns = ns();
        let mut ops = vec![
            NsOp::new(7, RmwOp::Write(3)),
            NsOp::new(1, RmwOp::Write(5)),
            NsOp::new(2, RmwOp::Write(9)),
        ];
        // Forty more keys written and written back grow the table, so
        // its bucket order is not key order.
        ops.extend((100..140).map(|k| NsOp::new(k, RmwOp::Write(1))));
        ops.extend((100..140).map(|k| NsOp::new(k, RmwOp::Write(0))));
        let s = ns.state_after(&ns.initial(), &ops);
        assert_eq!(format!("{s:?}"), "{1: 5, 2: 9, 7: 3}");
    }

    #[test]
    fn class_delegates_to_inner() {
        let ns = ns();
        assert_eq!(ns.class(&NsOp::new(0, RmwOp::Read)), OpClass::PureAccessor);
        assert_eq!(
            ns.class(&NsOp::new(0, RmwOp::Write(1))),
            OpClass::PureMutator
        );
    }

    #[test]
    fn router_partitions_the_universe() {
        let router = ShardRouter::new(4);
        let total = 256u64;
        let mut seen = vec![false; total as usize];
        for shard in 0..4 {
            for k in router.keys_in_shard(shard, total) {
                assert!(!seen[k as usize], "key {k} in two shards");
                seen[k as usize] = true;
                assert_eq!(router.route(k), shard);
            }
        }
        assert!(seen.iter().all(|&s| s), "router dropped a key");
    }

    #[test]
    fn router_spreads_striding_keys() {
        // key % shards would put all-even keys on even shards only;
        // the hashed router must not.
        let router = ShardRouter::new(4);
        let mut hit = [0usize; 4];
        for k in (0..512u64).step_by(2) {
            hit[router.route(k)] += 1;
        }
        assert!(
            hit.iter().all(|&c| c > 0),
            "a shard got no even keys: {hit:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::new(0);
    }

    #[test]
    fn single_shard_owns_everything() {
        let router = ShardRouter::new(1);
        assert_eq!(router.keys_in_shard(0, 10).len(), 10);
    }
}
