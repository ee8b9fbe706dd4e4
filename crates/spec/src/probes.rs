//! Standard probe sets: states and operation instances per object type.
//!
//! The classifiers in [`crate::classify`] are existential searches over
//! finite probe sets. These are the canonical sets used across the
//! workspace — chosen so that every classification claimed in Chapters II
//! and VI is witnessed, and reused by the lower-bound scenario builders,
//! which need concrete `ρ`-states and instances with known responses.

use std::collections::BTreeSet;

use crate::counter::CounterOp;
use crate::kv::KvOp;
use crate::queue::QueueOp;
use crate::register::{RmwKind, RmwOp};
use crate::set::SetOp;
use crate::stack::StackOp;
use crate::tree::{TreeOp, TreeState};

/// Probe states for the RMW register: a handful of distinct values.
#[must_use]
pub fn register_states() -> Vec<i64> {
    vec![0, 1, 5, -3]
}

/// Probe instances for the RMW register covering all three op classes.
#[must_use]
pub fn register_ops() -> Vec<RmwOp> {
    vec![
        RmwOp::Read,
        RmwOp::Write(1),
        RmwOp::Write(2),
        RmwOp::Rmw(RmwKind::FetchAdd(1)),
        RmwOp::Rmw(RmwKind::FetchAdd(2)),
        RmwOp::Rmw(RmwKind::Swap(1)),
        RmwOp::Rmw(RmwKind::Swap(2)),
        RmwOp::Rmw(RmwKind::CompareAndSwap { expect: 0, new: 9 }),
    ]
}

/// `k` distinct write instances (for permutation analysis, Theorem D.1).
#[must_use]
pub fn register_writes(k: usize) -> Vec<RmwOp> {
    (0..k).map(|i| RmwOp::Write(i as i64 + 1)).collect()
}

/// Probe states for the queue: empty, singleton, two elements.
#[must_use]
pub fn queue_states() -> Vec<Vec<i64>> {
    vec![vec![], vec![7], vec![7, 8]]
}

/// Probe instances for the queue.
#[must_use]
pub fn queue_ops() -> Vec<QueueOp> {
    vec![
        QueueOp::Enqueue(1),
        QueueOp::Enqueue(2),
        QueueOp::Dequeue,
        QueueOp::Peek,
        QueueOp::Len,
    ]
}

/// `k` distinct enqueue instances.
#[must_use]
pub fn queue_enqueues(k: usize) -> Vec<QueueOp> {
    (0..k).map(|i| QueueOp::Enqueue(i as i64 + 1)).collect()
}

/// Probe states for the stack: empty, singleton, two elements.
#[must_use]
pub fn stack_states() -> Vec<Vec<i64>> {
    vec![vec![], vec![7], vec![7, 8]]
}

/// Probe instances for the stack.
#[must_use]
pub fn stack_ops() -> Vec<StackOp> {
    vec![
        StackOp::Push(1),
        StackOp::Push(2),
        StackOp::Pop,
        StackOp::Peek,
        StackOp::Len,
    ]
}

/// `k` distinct push instances.
#[must_use]
pub fn stack_pushes(k: usize) -> Vec<StackOp> {
    (0..k).map(|i| StackOp::Push(i as i64 + 1)).collect()
}

/// Probe states for the set.
#[must_use]
pub fn set_states() -> Vec<BTreeSet<i64>> {
    vec![BTreeSet::new(), BTreeSet::from([1]), BTreeSet::from([1, 2])]
}

/// Probe instances for the set.
#[must_use]
pub fn set_ops() -> Vec<SetOp> {
    vec![
        SetOp::Insert(1),
        SetOp::Insert(2),
        SetOp::Remove(1),
        SetOp::Contains(1),
        SetOp::Size,
    ]
}

/// Probe instances for the counter.
#[must_use]
pub fn counter_ops() -> Vec<CounterOp> {
    vec![CounterOp::Add(1), CounterOp::Add(2), CounterOp::Read]
}

/// Probe states for the tree: empty; a chain; a fork.
#[must_use]
pub fn tree_states() -> Vec<TreeState> {
    let empty = TreeState::new();
    let chain = TreeState::from([(1, 0), (2, 1)]);
    let fork = TreeState::from([(1, 0), (2, 0)]);
    vec![empty, chain, fork]
}

/// Probe instances for the tree.
#[must_use]
pub fn tree_ops() -> Vec<TreeOp> {
    vec![
        TreeOp::Insert { node: 3, parent: 0 },
        TreeOp::Insert { node: 4, parent: 1 },
        TreeOp::Delete { node: 1 },
        TreeOp::Search { node: 1 },
        TreeOp::Depth,
    ]
}

/// Probe states for the key-value store.
#[must_use]
pub fn kv_states() -> Vec<std::collections::BTreeMap<i64, i64>> {
    vec![
        std::collections::BTreeMap::new(),
        std::collections::BTreeMap::from([(1, 10)]),
        std::collections::BTreeMap::from([(1, 10), (2, 20)]),
    ]
}

/// Probe instances for the key-value store.
#[must_use]
pub fn kv_ops() -> Vec<KvOp> {
    vec![
        KvOp::Put { key: 1, value: 99 },
        KvOp::Put { key: 2, value: 88 },
        KvOp::Remove { key: 1 },
        KvOp::Get { key: 1 },
        KvOp::ContainsKey { key: 2 },
        KvOp::Len,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::check_class_consistency;
    use crate::prelude::*;

    /// All probe sets must be class-consistent with their specs — the
    /// foundation for Algorithm 1 trusting `class()`.
    #[test]
    fn all_probe_sets_class_consistent() {
        check_class_consistency(&RmwRegister::default(), &register_states(), &register_ops())
            .unwrap();
        check_class_consistency(&Queue::<i64>::new(), &queue_states(), &queue_ops()).unwrap();
        check_class_consistency(&Stack::<i64>::new(), &stack_states(), &stack_ops()).unwrap();
        check_class_consistency(&SetObject::<i64>::new(), &set_states(), &set_ops()).unwrap();
        check_class_consistency(&Counter::default(), &[0, 1, 10], &counter_ops()).unwrap();
        check_class_consistency(&Tree::new(), &tree_states(), &tree_ops()).unwrap();
        // The Chapter II witnesses: `Snapshot` must be a pure accessor.
        check_class_consistency(
            &UpdateNextArray::pair(10, 20),
            &[vec![10, 20], vec![1, 2]],
            &[
                ArrayOp::UpdateNext { i: 1, b: 99 },
                ArrayOp::UpdateNext { i: 2, b: 99 },
                ArrayOp::UpdateNext { i: 1, b: 20 },
                ArrayOp::UpdateNext { i: 2, b: 10 },
                ArrayOp::Snapshot,
            ],
        )
        .unwrap();
        check_class_consistency(
            &Deque::<i64>::new(),
            &[vec![], vec![7], vec![7, 8]],
            &[
                DequeOp::PushFront(1),
                DequeOp::PushBack(2),
                DequeOp::PopFront,
                DequeOp::PopBack,
                DequeOp::Front,
                DequeOp::Back,
                DequeOp::Len,
            ],
        )
        .unwrap();
        check_class_consistency(&KvStore::new(), &kv_states(), &kv_ops()).unwrap();
        // The namespace the replicas serve: reads, writes and RMWs over
        // three keys, so both same-key and cross-key pairs are seen.
        // States are canonical maps (initial-valued keys are absent).
        let ns = Namespace::new(RmwRegister::default());
        let write = |key, v| NsOp::new(key, RmwOp::Write(v));
        check_class_consistency(
            &ns,
            &[
                ns.initial(),
                ns.state_after(&ns.initial(), &[write(7, 5)]),
                ns.state_after(&ns.initial(), &[write(7, 1), write(40, -3)]),
            ],
            &[
                NsOp::new(7, RmwOp::Read),
                NsOp::new(7, RmwOp::Write(2)),
                NsOp::new(7, RmwOp::Rmw(RmwKind::FetchAdd(1))),
                NsOp::new(40, RmwOp::Read),
                NsOp::new(40, RmwOp::Write(9)),
                NsOp::new(3, RmwOp::Rmw(RmwKind::Swap(4))),
            ],
        )
        .unwrap();
    }

    #[test]
    fn writes_and_enqueues_are_distinct_instances() {
        let w = register_writes(4);
        assert_eq!(w.len(), 4);
        for i in 0..w.len() {
            for j in (i + 1)..w.len() {
                assert_ne!(w[i], w[j]);
            }
        }
        assert_eq!(queue_enqueues(3).len(), 3);
        assert_eq!(stack_pushes(5).len(), 5);
    }
}
