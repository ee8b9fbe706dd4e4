//! FIFO queues (Table II).
//!
//! * `enqueue` — pure mutator; eventually non-self-**any**-permuting and
//!   *non*-overwriting (the property that raises the `enqueue + peek`
//!   lower bound to `d + min{ε, u, d/3}` in Theorem E.1);
//! * `dequeue` — strongly immediately non-self-commuting (Theorem C.1);
//! * `peek` — pure accessor.

use core::fmt::Debug;

use crate::register::Value;
use crate::seqspec::{OpClass, SequentialSpec};

/// Operations on a FIFO queue.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QueueOp<V = i64> {
    /// Appends a value at the tail.
    Enqueue(V),
    /// Removes and returns the head (`None` when empty).
    Dequeue,
    /// Returns the head without removing it (`None` when empty).
    Peek,
    /// Returns the number of elements.
    Len,
}

/// Responses of a FIFO queue.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QueueResp<V = i64> {
    /// An enqueue's acknowledgment.
    Ack,
    /// Result of `Dequeue`/`Peek`.
    Value(Option<V>),
    /// Result of `Len`.
    Count(usize),
}

/// A FIFO queue of `V` values, initially empty.
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let q = Queue::new();
/// let (s, _) = q.run(&q.initial(), &[QueueOp::Enqueue(1), QueueOp::Enqueue(2)]);
/// assert_eq!(q.apply(&s, &QueueOp::Dequeue).1, QueueResp::Value(Some(1)));
/// assert_eq!(q.apply(&s, &QueueOp::Peek).1, QueueResp::Value(Some(1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Queue<V = i64> {
    _marker: core::marker::PhantomData<V>,
}

impl<V: Value> Queue<V> {
    /// An initially empty queue.
    #[must_use]
    pub fn new() -> Self {
        Queue {
            _marker: core::marker::PhantomData,
        }
    }
}

impl<V: Value> SequentialSpec for Queue<V> {
    /// Head at index 0.
    type State = Vec<V>;
    type Op = QueueOp<V>;
    type Resp = QueueResp<V>;

    fn initial(&self) -> Vec<V> {
        Vec::new()
    }

    fn apply(&self, state: &Vec<V>, op: &QueueOp<V>) -> (Vec<V>, QueueResp<V>) {
        match op {
            QueueOp::Enqueue(v) => {
                let mut s = state.clone();
                s.push(v.clone());
                (s, QueueResp::Ack)
            }
            QueueOp::Dequeue => {
                if state.is_empty() {
                    (state.clone(), QueueResp::Value(None))
                } else {
                    let mut s = state.clone();
                    let head = s.remove(0);
                    (s, QueueResp::Value(Some(head)))
                }
            }
            QueueOp::Peek => (state.clone(), QueueResp::Value(state.first().cloned())),
            QueueOp::Len => (state.clone(), QueueResp::Count(state.len())),
        }
    }

    fn class(&self, op: &QueueOp<V>) -> OpClass {
        match op {
            QueueOp::Enqueue(_) => OpClass::PureMutator,
            QueueOp::Dequeue => OpClass::Other,
            QueueOp::Peek | QueueOp::Len => OpClass::PureAccessor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let q: Queue<i64> = Queue::new();
        let (_, rs) = q.run(
            &q.initial(),
            &[
                QueueOp::Enqueue(1),
                QueueOp::Enqueue(2),
                QueueOp::Dequeue,
                QueueOp::Dequeue,
                QueueOp::Dequeue,
            ],
        );
        assert_eq!(rs[2], QueueResp::Value(Some(1)));
        assert_eq!(rs[3], QueueResp::Value(Some(2)));
        assert_eq!(rs[4], QueueResp::Value(None));
    }

    #[test]
    fn peek_does_not_modify() {
        let q: Queue<i64> = Queue::new();
        let s = q.state_after(&q.initial(), &[QueueOp::Enqueue(7)]);
        let (s2, r) = q.apply(&s, &QueueOp::Peek);
        assert_eq!(s2, s);
        assert_eq!(r, QueueResp::Value(Some(7)));
    }

    #[test]
    fn len_counts() {
        let q: Queue<i64> = Queue::new();
        let s = q.state_after(&q.initial(), &[QueueOp::Enqueue(1), QueueOp::Enqueue(2)]);
        assert_eq!(q.apply(&s, &QueueOp::Len).1, QueueResp::Count(2));
    }

    #[test]
    fn double_dequeue_of_single_element_is_illegal() {
        // The strongly-INSC witness from Chapter II §B: after one element,
        // two dequeues cannot both return it.
        let q: Queue<i64> = Queue::new();
        let rho = [(QueueOp::Enqueue(5), QueueResp::Ack)];
        let mut both = rho.to_vec();
        both.push((QueueOp::Dequeue, QueueResp::Value(Some(5))));
        both.push((QueueOp::Dequeue, QueueResp::Value(Some(5))));
        assert!(!q.is_legal(&both));
        let mut one = rho.to_vec();
        one.push((QueueOp::Dequeue, QueueResp::Value(Some(5))));
        one.push((QueueOp::Dequeue, QueueResp::Value(None)));
        assert!(q.is_legal(&one));
    }

    #[test]
    fn enqueue_orders_are_inequivalent() {
        // Chapter II §C: enqueue is eventually non-self-any-permuting.
        let q: Queue<i64> = Queue::new();
        assert!(!q.equivalent_after(
            &q.initial(),
            &[QueueOp::Enqueue(1), QueueOp::Enqueue(2)],
            &[QueueOp::Enqueue(2), QueueOp::Enqueue(1)],
        ));
    }

    #[test]
    fn classes_match_table_ii() {
        let q: Queue<i64> = Queue::new();
        assert_eq!(q.class(&QueueOp::Enqueue(1)), OpClass::PureMutator);
        assert_eq!(q.class(&QueueOp::Dequeue), OpClass::Other);
        assert_eq!(q.class(&QueueOp::Peek), OpClass::PureAccessor);
        assert_eq!(q.class(&QueueOp::Len), OpClass::PureAccessor);
    }
}
