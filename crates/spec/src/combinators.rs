//! Specification combinators: multi-object systems.
//!
//! The thesis's linearizability definition (Chapter III §B.4) is stated
//! over runs containing operations on *many* objects: a permutation `π`
//! of all operations such that, **for each object `O`**, the restriction
//! of `π` to `O`'s operations is legal. These combinators express such
//! systems as ordinary [`SequentialSpec`]s, so the whole stack —
//! Algorithm 1, the checker, the workloads — works on multi-object
//! systems unchanged:
//!
//! * [`MultiObject`] — a fixed-size array of same-typed objects,
//!   addressed by index;
//! * [`ProductSpec`] — two differently-typed objects side by side.
//!
//! Herlihy & Wing's *locality* theorem says a history is linearizable iff
//! each per-object sub-history is; the integration tests exercise that as
//! an executable property of these combinators.

use core::fmt;

use crate::seqspec::{OpClass, SequentialSpec};

/// An operation on object `index` of a [`MultiObject`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexedOp<O> {
    /// Which object (0-based).
    pub index: usize,
    /// The inner operation.
    pub op: O,
}

/// A system of `k` same-typed objects addressed by index.
///
/// # Examples
///
/// ```
/// use skewbound_spec::combinators::{IndexedOp, MultiObject};
/// use skewbound_spec::prelude::*;
///
/// let bank = MultiObject::new(Counter::default(), 3); // three accounts
/// let s0 = bank.initial();
/// let (s1, _) = bank.apply(&s0, &IndexedOp { index: 1, op: CounterOp::Add(50) });
/// let (_, r) = bank.apply(&s1, &IndexedOp { index: 1, op: CounterOp::Read });
/// assert_eq!(r, CounterResp::Value(50));
/// let (_, r0) = bank.apply(&s1, &IndexedOp { index: 0, op: CounterOp::Read });
/// assert_eq!(r0, CounterResp::Value(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiObject<S> {
    inner: S,
    count: usize,
}

impl<S: SequentialSpec> MultiObject<S> {
    /// A system of `count` copies of `inner`, each starting at the inner
    /// spec's initial state.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn new(inner: S, count: usize) -> Self {
        assert!(count > 0, "need at least one object");
        MultiObject { inner, count }
    }

    /// Number of objects.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The inner single-object specification.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: SequentialSpec> SequentialSpec for MultiObject<S> {
    type State = Vec<S::State>;
    type Op = IndexedOp<S::Op>;
    type Resp = S::Resp;

    fn initial(&self) -> Vec<S::State> {
        (0..self.count).map(|_| self.inner.initial()).collect()
    }

    fn apply(&self, state: &Vec<S::State>, op: &IndexedOp<S::Op>) -> (Vec<S::State>, S::Resp) {
        assert!(
            op.index < self.count,
            "object index {} out of range",
            op.index
        );
        let (sub, resp) = self.inner.apply(&state[op.index], &op.op);
        let mut next = state.clone();
        next[op.index] = sub;
        (next, resp)
    }

    fn class(&self, op: &IndexedOp<S::Op>) -> OpClass {
        self.inner.class(&op.op)
    }
}

/// An operation on one side of a [`ProductSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EitherOp<A, B> {
    /// Operation on the left object.
    Left(A),
    /// Operation on the right object.
    Right(B),
}

/// A response from one side of a [`ProductSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EitherResp<A, B> {
    /// Response from the left object.
    Left(A),
    /// Response from the right object.
    Right(B),
}

/// Two differently-typed objects living in one system (e.g. a queue of
/// work plus a counter of completions).
///
/// # Examples
///
/// ```
/// use skewbound_spec::combinators::{EitherOp, EitherResp, ProductSpec};
/// use skewbound_spec::prelude::*;
///
/// let spec = ProductSpec::new(Queue::<i64>::new(), Counter::default());
/// let s0 = spec.initial();
/// let (s1, _) = spec.apply(&s0, &EitherOp::Left(QueueOp::Enqueue(9)));
/// let (_, r) = spec.apply(&s1, &EitherOp::Right(CounterOp::Read));
/// assert_eq!(r, EitherResp::Right(CounterResp::Value(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductSpec<A, B> {
    left: A,
    right: B,
}

impl<A: SequentialSpec, B: SequentialSpec> ProductSpec<A, B> {
    /// Combines two specifications.
    #[must_use]
    pub fn new(left: A, right: B) -> Self {
        ProductSpec { left, right }
    }

    /// The left specification.
    #[must_use]
    pub fn left(&self) -> &A {
        &self.left
    }

    /// The right specification.
    #[must_use]
    pub fn right(&self) -> &B {
        &self.right
    }
}

impl<A: SequentialSpec, B: SequentialSpec> SequentialSpec for ProductSpec<A, B> {
    type State = (A::State, B::State);
    type Op = EitherOp<A::Op, B::Op>;
    type Resp = EitherResp<A::Resp, B::Resp>;

    fn initial(&self) -> (A::State, B::State) {
        (self.left.initial(), self.right.initial())
    }

    fn apply(
        &self,
        state: &(A::State, B::State),
        op: &EitherOp<A::Op, B::Op>,
    ) -> ((A::State, B::State), EitherResp<A::Resp, B::Resp>) {
        match op {
            EitherOp::Left(op) => {
                let (s, r) = self.left.apply(&state.0, op);
                ((s, state.1.clone()), EitherResp::Left(r))
            }
            EitherOp::Right(op) => {
                let (s, r) = self.right.apply(&state.1, op);
                ((state.0.clone(), s), EitherResp::Right(r))
            }
        }
    }

    fn class(&self, op: &EitherOp<A::Op, B::Op>) -> OpClass {
        match op {
            EitherOp::Left(op) => self.left.class(op),
            EitherOp::Right(op) => self.right.class(op),
        }
    }
}

impl<O: fmt::Display> fmt::Display for IndexedOp<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}.{}", self.index, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{Counter, CounterOp, CounterResp};
    use crate::queue::{Queue, QueueOp, QueueResp};

    fn at(index: usize, op: CounterOp) -> IndexedOp<CounterOp> {
        IndexedOp { index, op }
    }

    #[test]
    fn objects_are_independent() {
        let spec = MultiObject::new(Counter::default(), 3);
        let s = spec.state_after(
            &spec.initial(),
            &[at(0, CounterOp::Add(1)), at(2, CounterOp::Add(5))],
        );
        assert_eq!(s, vec![1, 0, 5]);
    }

    #[test]
    fn ops_on_different_objects_commute() {
        let spec = MultiObject::new(Queue::<i64>::new(), 2);
        let e0 = IndexedOp {
            index: 0,
            op: QueueOp::Enqueue(1),
        };
        let e1 = IndexedOp {
            index: 1,
            op: QueueOp::Enqueue(2),
        };
        assert!(spec.equivalent_after(&spec.initial(), &[e0.clone(), e1.clone()], &[e1, e0]));
    }

    #[test]
    fn ops_on_same_object_keep_semantics() {
        let spec = MultiObject::new(Queue::<i64>::new(), 2);
        let s = spec.state_after(
            &spec.initial(),
            &[
                IndexedOp {
                    index: 1,
                    op: QueueOp::Enqueue(1),
                },
                IndexedOp {
                    index: 1,
                    op: QueueOp::Enqueue(2),
                },
            ],
        );
        let (_, r) = spec.apply(
            &s,
            &IndexedOp {
                index: 1,
                op: QueueOp::Dequeue,
            },
        );
        assert_eq!(r, QueueResp::Value(Some(1)));
        let (_, r0) = spec.apply(
            &s,
            &IndexedOp {
                index: 0,
                op: QueueOp::Dequeue,
            },
        );
        assert_eq!(r0, QueueResp::Value(None));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_bounds_checked() {
        let spec = MultiObject::new(Counter::default(), 2);
        let _ = spec.apply(&spec.initial(), &at(5, CounterOp::Read));
    }

    #[test]
    fn classes_delegate() {
        let spec = MultiObject::new(Counter::default(), 2);
        assert_eq!(spec.class(&at(0, CounterOp::Add(1))), OpClass::PureMutator);
        assert_eq!(spec.class(&at(1, CounterOp::Read)), OpClass::PureAccessor);
    }

    #[test]
    fn product_sides_are_independent() {
        let spec = ProductSpec::new(Queue::<i64>::new(), Counter::default());
        let s = spec.state_after(
            &spec.initial(),
            &[
                EitherOp::Left(QueueOp::Enqueue(3)),
                EitherOp::Right(CounterOp::Add(7)),
            ],
        );
        assert_eq!(s.0, vec![3]);
        assert_eq!(s.1, 7);
        let (_, r) = spec.apply(&s, &EitherOp::Right(CounterOp::Read));
        assert_eq!(r, EitherResp::Right(CounterResp::Value(7)));
    }

    #[test]
    fn product_classes_delegate() {
        let spec = ProductSpec::new(Queue::<i64>::new(), Counter::default());
        assert_eq!(
            spec.class(&EitherOp::Left(QueueOp::Dequeue)),
            OpClass::Other
        );
        assert_eq!(
            spec.class(&EitherOp::Right(CounterOp::Read)),
            OpClass::PureAccessor
        );
    }
}
