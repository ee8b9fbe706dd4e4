//! LIFO stacks (Table III).
//!
//! * `push` — pure mutator; eventually non-self-any-permuting and
//!   non-overwriting;
//! * `pop` — strongly immediately non-self-commuting;
//! * `peek` — pure accessor.

use core::fmt::Debug;

use crate::register::Value;
use crate::seqspec::{OpClass, SequentialSpec};

/// Operations on a LIFO stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StackOp<V = i64> {
    /// Pushes a value on top.
    Push(V),
    /// Removes and returns the top (`None` when empty).
    Pop,
    /// Returns the top without removing it (`None` when empty).
    Peek,
    /// Returns the number of elements.
    Len,
}

/// Responses of a LIFO stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StackResp<V = i64> {
    /// A push's acknowledgment.
    Ack,
    /// Result of `Pop`/`Peek`.
    Value(Option<V>),
    /// Result of `Len`.
    Count(usize),
}

/// A LIFO stack of `V` values, initially empty.
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let st = Stack::new();
/// let (s, _) = st.run(&st.initial(), &[StackOp::Push(1), StackOp::Push(2)]);
/// assert_eq!(st.apply(&s, &StackOp::Pop).1, StackResp::Value(Some(2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stack<V = i64> {
    _marker: core::marker::PhantomData<V>,
}

impl<V: Value> Stack<V> {
    /// An initially empty stack.
    #[must_use]
    pub fn new() -> Self {
        Stack {
            _marker: core::marker::PhantomData,
        }
    }
}

impl<V: Value> SequentialSpec for Stack<V> {
    /// Top at the end.
    type State = Vec<V>;
    type Op = StackOp<V>;
    type Resp = StackResp<V>;

    fn initial(&self) -> Vec<V> {
        Vec::new()
    }

    fn apply(&self, state: &Vec<V>, op: &StackOp<V>) -> (Vec<V>, StackResp<V>) {
        match op {
            StackOp::Push(v) => {
                let mut s = state.clone();
                s.push(v.clone());
                (s, StackResp::Ack)
            }
            StackOp::Pop => {
                let mut s = state.clone();
                let top = s.pop();
                (s, StackResp::Value(top))
            }
            StackOp::Peek => (state.clone(), StackResp::Value(state.last().cloned())),
            StackOp::Len => (state.clone(), StackResp::Count(state.len())),
        }
    }

    fn class(&self, op: &StackOp<V>) -> OpClass {
        match op {
            StackOp::Push(_) => OpClass::PureMutator,
            StackOp::Pop => OpClass::Other,
            StackOp::Peek | StackOp::Len => OpClass::PureAccessor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let st: Stack<i64> = Stack::new();
        let (_, rs) = st.run(
            &st.initial(),
            &[
                StackOp::Push(1),
                StackOp::Push(2),
                StackOp::Pop,
                StackOp::Pop,
                StackOp::Pop,
            ],
        );
        assert_eq!(rs[2], StackResp::Value(Some(2)));
        assert_eq!(rs[3], StackResp::Value(Some(1)));
        assert_eq!(rs[4], StackResp::Value(None));
    }

    #[test]
    fn peek_matches_top_without_mutation() {
        let st: Stack<i64> = Stack::new();
        let s = st.state_after(&st.initial(), &[StackOp::Push(3), StackOp::Push(9)]);
        let (s2, r) = st.apply(&s, &StackOp::Peek);
        assert_eq!(s2, s);
        assert_eq!(r, StackResp::Value(Some(9)));
    }

    #[test]
    fn double_pop_of_single_element_is_illegal() {
        // The strongly-INSC witness from Chapter II §B.
        let st: Stack<i64> = Stack::new();
        assert!(!st.is_legal(&[
            (StackOp::Push(5), StackResp::Ack),
            (StackOp::Pop, StackResp::Value(Some(5))),
            (StackOp::Pop, StackResp::Value(Some(5))),
        ]));
    }

    #[test]
    fn push_orders_are_inequivalent() {
        let st: Stack<i64> = Stack::new();
        assert!(!st.equivalent_after(
            &st.initial(),
            &[StackOp::Push(1), StackOp::Push(2)],
            &[StackOp::Push(2), StackOp::Push(1)],
        ));
    }

    #[test]
    fn classes_match_table_iii() {
        let st: Stack<i64> = Stack::new();
        assert_eq!(st.class(&StackOp::Push(1)), OpClass::PureMutator);
        assert_eq!(st.class(&StackOp::Pop), OpClass::Other);
        assert_eq!(st.class(&StackOp::Peek), OpClass::PureAccessor);
    }
}
