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
//! * [`ProductSpec`] — two differently-typed objects side by side;
//! * [`Batch`] — a list of one object's operations invoked and answered
//!   together, as one compound operation.
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

/// Batched invocation as a specification: one operation is a list of
/// `S`'s operations, applied in order, with one response per operation.
///
/// A batch is a compound operation of Algorithm 1's own kind, so batching
/// needs no second replica: a batch of pure mutators is a pure mutator
/// (each response is state-independent), a batch of pure accessors is a
/// pure accessor, and any other batch is an `OOP`. The empty batch
/// changes nothing and answers nothing, so it is a pure accessor.
///
/// # Examples
///
/// ```
/// use skewbound_spec::combinators::Batch;
/// use skewbound_spec::prelude::*;
///
/// let spec = Batch::new(Queue::<i64>::new());
/// let push = vec![QueueOp::Enqueue(1), QueueOp::Enqueue(2)];
/// let (s, _) = spec.apply(&spec.initial(), &push);
/// let (_, r) = spec.apply(&s, &vec![QueueOp::Dequeue, QueueOp::Peek]);
/// assert_eq!(r, vec![QueueResp::Value(Some(1)), QueueResp::Value(Some(2))]);
/// assert_eq!(spec.class(&push), OpClass::PureMutator);
/// assert_eq!(spec.class(&vec![QueueOp::Enqueue(3), QueueOp::Peek]), OpClass::Other);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Batch<S> {
    inner: S,
}

impl<S: SequentialSpec> Batch<S> {
    /// Batches operations of `inner`.
    #[must_use]
    pub fn new(inner: S) -> Self {
        Batch { inner }
    }
}

impl<S: SequentialSpec> SequentialSpec for Batch<S> {
    type State = S::State;
    type Op = Vec<S::Op>;
    type Resp = Vec<S::Resp>;

    fn initial(&self) -> S::State {
        self.inner.initial()
    }

    fn apply(&self, state: &S::State, ops: &Vec<S::Op>) -> (S::State, Vec<S::Resp>) {
        let mut next = state.clone();
        let resps = self.apply_mut(&mut next, ops);
        (next, resps)
    }

    fn apply_mut(&self, state: &mut S::State, ops: &Vec<S::Op>) -> Vec<S::Resp> {
        ops.iter()
            .map(|op| self.inner.apply_mut(state, op))
            .collect()
    }

    /// A pure batch reads every op on `state` itself: accessors leave it
    /// alone and mutators answer the same in any state. Any other batch
    /// runs on a copy.
    fn peek(&self, state: &S::State, ops: &Vec<S::Op>) -> Vec<S::Resp> {
        if self.class(ops) == OpClass::Other {
            return self.apply(state, ops).1;
        }
        ops.iter().map(|op| self.inner.peek(state, op)).collect()
    }

    fn class(&self, ops: &Vec<S::Op>) -> OpClass {
        let mut classes = ops.iter().map(|op| self.inner.class(op));
        let first = classes.next().unwrap_or(OpClass::PureAccessor);
        if classes.all(|c| c == first) {
            first
        } else {
            OpClass::Other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::check_class_consistency;
    use crate::counter::{Counter, CounterOp, CounterResp};
    use crate::namespace::{Namespace, NsOp};
    use crate::probes;
    use crate::queue::{Queue, QueueOp, QueueResp};
    use crate::register::{RmwKind, RmwOp, RmwRegister};

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

    /// Every batch of up to two probe ops, and one of three.
    fn batches<O: Clone>(ops: &[O]) -> Vec<Vec<O>> {
        let mut out = vec![Vec::new()];
        for a in ops {
            out.push(vec![a.clone()]);
            for b in ops {
                out.push(vec![a.clone(), b.clone()]);
            }
        }
        out.push(ops.iter().take(3).cloned().collect());
        out
    }

    #[test]
    fn batch_class_is_the_common_class() {
        let spec = Batch::new(RmwRegister::default());
        let class = |ops: Vec<RmwOp>| spec.class(&ops);
        assert_eq!(class(vec![]), OpClass::PureAccessor);
        assert_eq!(class(vec![RmwOp::Read, RmwOp::Read]), OpClass::PureAccessor);
        assert_eq!(
            class(vec![RmwOp::Write(1), RmwOp::Write(2)]),
            OpClass::PureMutator
        );
        assert_eq!(class(vec![RmwOp::Write(1), RmwOp::Read]), OpClass::Other);
        assert_eq!(class(vec![RmwOp::Read, RmwOp::Write(1)]), OpClass::Other);
        let fetch_add = RmwOp::Rmw(RmwKind::FetchAdd(1));
        assert_eq!(class(vec![fetch_add.clone()]), OpClass::Other);
        assert_eq!(class(vec![fetch_add, RmwOp::Read]), OpClass::Other);
    }

    fn assert_peek_is_apply<S: SequentialSpec>(inner: S, states: &[S::State], ops: &[S::Op]) {
        let spec = Batch::new(inner);
        let all = batches(ops);
        for class in [OpClass::PureAccessor, OpClass::PureMutator, OpClass::Other] {
            assert!(
                all.iter().any(|b| spec.class(b) == class),
                "{class:?} probed"
            );
        }
        for state in states {
            for batch in &all {
                assert_eq!(
                    spec.peek(state, batch),
                    spec.apply(state, batch).1,
                    "{batch:?} on {state:?}"
                );
                let mut in_place = state.clone();
                let resps = spec.apply_mut(&mut in_place, batch);
                assert_eq!((in_place, resps), spec.apply(state, batch));
            }
        }
    }

    #[test]
    fn batch_peek_equals_apply() {
        assert_peek_is_apply(
            RmwRegister::default(),
            &probes::register_states(),
            &probes::register_ops(),
        );
        assert_peek_is_apply(
            Queue::<i64>::new(),
            &probes::queue_states(),
            &probes::queue_ops(),
        );
    }

    #[test]
    fn batch_classes_are_consistent() {
        check_class_consistency(
            &Batch::new(RmwRegister::default()),
            &probes::register_states(),
            &batches(&probes::register_ops()),
        )
        .unwrap();
        check_class_consistency(
            &Batch::new(Queue::<i64>::new()),
            &probes::queue_states(),
            &batches(&probes::queue_ops()),
        )
        .unwrap();
    }
}
