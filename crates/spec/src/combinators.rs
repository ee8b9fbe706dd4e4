//! Specification combinators: multi-object systems.
//!
//! The thesis's linearizability definition (Chapter III §B.4) is stated
//! over runs containing operations on *many* objects: a permutation `π`
//! of all operations such that, **for each object `O`**, the restriction
//! of `π` to `O`'s operations is legal. Such systems are ordinary
//! [`SequentialSpec`]s, so the whole stack — Algorithm 1, the checker,
//! the workloads — works on them unchanged:
//!
//! * [`Namespace`](crate::namespace::Namespace) — any number of
//!   same-typed objects, addressed by key;
//! * [`ProductSpec`] — two differently-typed objects side by side.
//!
//! Herlihy & Wing's *locality* theorem says a history is linearizable iff
//! each per-object sub-history is; the integration tests exercise that as
//! an executable property of these combinators.

use crate::seqspec::{OpClass, SequentialSpec};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{Counter, CounterOp, CounterResp};
    use crate::namespace::{Namespace, NsOp};
    use crate::queue::{Queue, QueueOp, QueueResp};

    fn at<O>(key: u64, op: O) -> NsOp<O> {
        NsOp::new(key, op)
    }

    #[test]
    fn objects_are_independent() {
        let spec = Namespace::new(Counter::default());
        let s = spec.state_after(
            &spec.initial(),
            &[at(0, CounterOp::Add(1)), at(2, CounterOp::Add(5))],
        );
        assert_eq!((s.len(), s.get(0), s.get(2)), (2, Some(&1), Some(&5)));
    }

    #[test]
    fn ops_on_different_objects_commute() {
        let spec = Namespace::new(Queue::<i64>::new());
        let (e0, e1) = (at(0, QueueOp::Enqueue(1)), at(1, QueueOp::Enqueue(2)));
        assert!(spec.equivalent_after(&spec.initial(), &[e0.clone(), e1.clone()], &[e1, e0]));
    }

    #[test]
    fn ops_on_same_object_keep_semantics() {
        let spec = Namespace::new(Queue::<i64>::new());
        let s = spec.state_after(
            &spec.initial(),
            &[at(1, QueueOp::Enqueue(1)), at(1, QueueOp::Enqueue(2))],
        );
        let (_, r) = spec.apply(&s, &at(1, QueueOp::Dequeue));
        assert_eq!(r, QueueResp::Value(Some(1)));
        let (_, r0) = spec.apply(&s, &at(0, QueueOp::Dequeue));
        assert_eq!(r0, QueueResp::Value(None));
    }

    #[test]
    fn classes_delegate() {
        let spec = Namespace::new(Counter::default());
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
