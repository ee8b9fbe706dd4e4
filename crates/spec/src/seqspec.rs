//! Deterministic sequential specifications.
//!
//! Every shared object has a *sequential specification*: the set of legal
//! operation sequences when the object is accessed by a single process
//! (Chapter II). This crate represents specifications *state-based*: a
//! deterministic initial state and a transition function
//! `apply(state, op) → (state', response)`. A sequence of
//! `(operation, response)` pairs is then legal exactly when each recorded
//! response equals the response `apply` produces along the way.
//!
//! State-based determinism gives Definition A.1 (deterministic object) for
//! free, and makes sequence *equivalence* (Definition C.2) decidable: two
//! sequences are equivalent iff they lead to the same state, provided the
//! specification is **state-distinguishable** — distinct states must be
//! observably different through some continuation. All specifications in
//! this crate satisfy that (their accessors can read the full state), and
//! [`crate::classify`] relies on it.

use core::fmt::Debug;
use core::hash::Hash;

/// Which of Algorithm 1's three groups an operation belongs to.
///
/// * [`OpClass::PureAccessor`] — returns information, never modifies
///   (`AOP`; e.g. read, peek, contains, search, depth).
/// * [`OpClass::PureMutator`] — modifies, returns nothing about the object
///   (`MOP`; e.g. write, enqueue, push, insert, delete, increment).
/// * [`OpClass::Other`] — both modifies and returns information (`OOP`;
///   e.g. read-modify-write, dequeue, pop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// A pure accessor (`AOP`).
    PureAccessor,
    /// A pure mutator (`MOP`).
    PureMutator,
    /// Mutator-and-accessor (`OOP`).
    Other,
}

impl OpClass {
    /// `true` for operations that modify the object (mutators).
    #[must_use]
    pub fn is_mutator(self) -> bool {
        matches!(self, OpClass::PureMutator | OpClass::Other)
    }

    /// `true` for operations that return information (accessors).
    #[must_use]
    pub fn is_accessor(self) -> bool {
        matches!(self, OpClass::PureAccessor | OpClass::Other)
    }
}

/// A deterministic, state-based sequential specification.
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let spec = Queue::new();
/// let (s1, _) = spec.apply(&spec.initial(), &QueueOp::Enqueue(7));
/// let (_, r) = spec.apply(&s1, &QueueOp::Dequeue);
/// assert_eq!(r, QueueResp::Value(Some(7)));
/// ```
pub trait SequentialSpec {
    /// The object state. Equality is semantic equality (used as sequence
    /// equivalence), so representations must be canonical.
    type State: Clone + Eq + Hash + Debug;
    /// An operation invocation, including its arguments.
    type Op: Clone + Eq + Hash + Debug;
    /// An operation response.
    type Resp: Clone + Eq + Hash + Debug;

    /// The initial state of a freshly initialized object.
    fn initial(&self) -> Self::State;

    /// Applies `op` to `state`, returning the successor state and the
    /// response. Total: every operation is applicable in every state (ops
    /// like `dequeue` on an empty queue return an "empty" response).
    fn apply(&self, state: &Self::State, op: &Self::Op) -> (Self::State, Self::Resp);

    /// Applies `op` to `state` in place and returns the response — what
    /// a replica does to its one long-lived copy. Must be observably
    /// identical to [`SequentialSpec::apply`] followed by an assignment;
    /// the default is exactly that. Override it when `apply`'s fresh
    /// successor state costs more than the operation touches (a keyed
    /// map cloned to change one entry).
    fn apply_mut(&self, state: &mut Self::State, op: &Self::Op) -> Self::Resp {
        let (next, resp) = self.apply(state, op);
        *state = next;
        resp
    }

    /// The response `op` would get in `state`, leaving the state alone.
    /// Must equal `self.apply(state, op).1`; the default is exactly
    /// that. Override it together with [`SequentialSpec::apply_mut`].
    fn peek(&self, state: &Self::State, op: &Self::Op) -> Self::Resp {
        self.apply(state, op).1
    }

    /// The operation's [`OpClass`], used by Algorithm 1 to pick its code
    /// path. Must be consistent with `apply`: a [`OpClass::PureAccessor`]
    /// must never change the state and a [`OpClass::PureMutator`]'s
    /// response must be constant. [`crate::classify::check_class_consistency`]
    /// verifies this on probe sets.
    fn class(&self, op: &Self::Op) -> OpClass;

    /// Applies a sequence of operations from `state`, returning the final
    /// state and all responses.
    fn run(&self, state: &Self::State, ops: &[Self::Op]) -> (Self::State, Vec<Self::Resp>) {
        let mut s = state.clone();
        let mut resps = Vec::with_capacity(ops.len());
        for op in ops {
            let (s2, r) = self.apply(&s, op);
            s = s2;
            resps.push(r);
        }
        (s, resps)
    }

    /// The state after running `ops` from `state` (responses discarded).
    fn state_after(&self, state: &Self::State, ops: &[Self::Op]) -> Self::State {
        self.run(state, ops).0
    }

    /// `true` when the `(op, resp)` sequence is legal from `state`: each
    /// recorded response matches the specification's.
    fn is_legal_from(&self, state: &Self::State, seq: &[(Self::Op, Self::Resp)]) -> bool {
        let mut s = state.clone();
        for (op, resp) in seq {
            let (s2, expected) = self.apply(&s, op);
            if expected != *resp {
                return false;
            }
            s = s2;
        }
        true
    }

    /// `true` when the `(op, resp)` sequence is legal from the initial
    /// state — the sequential-specification membership test.
    fn is_legal(&self, seq: &[(Self::Op, Self::Resp)]) -> bool {
        self.is_legal_from(&self.initial(), seq)
    }

    /// `true` when `a` and `b` are equivalent continuations of `state`
    /// (Definition C.2, via state equality; see the module docs for why
    /// this is sound for state-distinguishable specifications).
    fn equivalent_after(&self, state: &Self::State, a: &[Self::Op], b: &[Self::Op]) -> bool {
        self.state_after(state, a) == self.state_after(state, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal register spec used to exercise the provided methods.
    #[derive(Debug, Clone)]
    struct MiniReg;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Op {
        Read,
        Write(i64),
    }

    impl SequentialSpec for MiniReg {
        type State = i64;
        type Op = Op;
        type Resp = Option<i64>;

        fn initial(&self) -> i64 {
            0
        }

        fn apply(&self, state: &i64, op: &Op) -> (i64, Option<i64>) {
            match op {
                Op::Read => (*state, Some(*state)),
                Op::Write(v) => (*v, None),
            }
        }

        fn class(&self, op: &Op) -> OpClass {
            match op {
                Op::Read => OpClass::PureAccessor,
                Op::Write(_) => OpClass::PureMutator,
            }
        }
    }

    #[test]
    fn run_threads_state() {
        let (s, rs) = MiniReg.run(&0, &[Op::Write(3), Op::Read, Op::Write(5), Op::Read]);
        assert_eq!(s, 5);
        assert_eq!(rs, vec![None, Some(3), None, Some(5)]);
    }

    #[test]
    fn legality_checks_responses() {
        assert!(MiniReg.is_legal(&[(Op::Write(1), None), (Op::Read, Some(1))]));
        assert!(!MiniReg.is_legal(&[(Op::Write(1), None), (Op::Read, Some(0))]));
        assert!(MiniReg.is_legal(&[]));
    }

    #[test]
    fn equivalence_is_state_equality() {
        // Two writes in either order end with the last writer's value.
        assert!(!MiniReg.equivalent_after(
            &0,
            &[Op::Write(1), Op::Write(2)],
            &[Op::Write(2), Op::Write(1)]
        ));
        assert!(MiniReg.equivalent_after(&0, &[Op::Write(1), Op::Write(2)], &[Op::Write(2)]));
    }

    #[test]
    fn op_class_predicates() {
        assert!(OpClass::PureMutator.is_mutator());
        assert!(!OpClass::PureMutator.is_accessor());
        assert!(OpClass::PureAccessor.is_accessor());
        assert!(!OpClass::PureAccessor.is_mutator());
        assert!(OpClass::Other.is_mutator() && OpClass::Other.is_accessor());
    }
}
