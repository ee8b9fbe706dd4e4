//! Sets with insert/remove/contains.
//!
//! `insert` and `remove` are pure mutators that are **eventually
//! self-commuting** (Definition C.6: the order of insertions or deletions
//! of the same kind does not affect the final state). They are also
//! non-overwriting. The thesis uses sets as the example where the
//! pair-of-operations lower bound (Theorem E.1) does *not* apply because
//! the mutator self-commutes.

use core::fmt::Debug;
use std::collections::BTreeSet;

use crate::seqspec::{OpClass, SequentialSpec};

/// Marker bound for set elements (ordered so the state is canonical).
pub trait Element: Clone + Ord + core::hash::Hash + Debug {}
impl<T: Clone + Ord + core::hash::Hash + Debug> Element for T {}

/// Operations on a set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SetOp<V = i64> {
    /// Adds an element (no-op if present).
    Insert(V),
    /// Removes an element (no-op if absent).
    Remove(V),
    /// Returns whether the element is present.
    Contains(V),
    /// Returns the number of elements.
    Size,
}

/// Responses of a set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SetResp {
    /// Acknowledgment of a mutation (carries no information — inserts and
    /// removes are *pure* mutators).
    Ack,
    /// Result of `Contains`.
    Membership(bool),
    /// Result of `Size`.
    Count(usize),
}

/// A set of `V` elements, initially empty.
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let spec = SetObject::new();
/// let (s, _) = spec.apply(&spec.initial(), &SetOp::Insert(3));
/// assert_eq!(spec.apply(&s, &SetOp::Contains(3)).1, SetResp::Membership(true));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetObject<V = i64> {
    _marker: core::marker::PhantomData<V>,
}

impl<V: Element> SetObject<V> {
    /// An initially empty set.
    #[must_use]
    pub fn new() -> Self {
        SetObject {
            _marker: core::marker::PhantomData,
        }
    }
}

impl<V: Element> SequentialSpec for SetObject<V> {
    type State = BTreeSet<V>;
    type Op = SetOp<V>;
    type Resp = SetResp;

    fn initial(&self) -> BTreeSet<V> {
        BTreeSet::new()
    }

    fn apply(&self, state: &BTreeSet<V>, op: &SetOp<V>) -> (BTreeSet<V>, SetResp) {
        match op {
            SetOp::Insert(v) => {
                let mut s = state.clone();
                s.insert(v.clone());
                (s, SetResp::Ack)
            }
            SetOp::Remove(v) => {
                let mut s = state.clone();
                s.remove(v);
                (s, SetResp::Ack)
            }
            SetOp::Contains(v) => (state.clone(), SetResp::Membership(state.contains(v))),
            SetOp::Size => (state.clone(), SetResp::Count(state.len())),
        }
    }

    fn class(&self, op: &SetOp<V>) -> OpClass {
        match op {
            SetOp::Insert(_) | SetOp::Remove(_) => OpClass::PureMutator,
            SetOp::Contains(_) | SetOp::Size => OpClass::PureAccessor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let spec: SetObject<i64> = SetObject::new();
        let (_, rs) = spec.run(
            &spec.initial(),
            &[
                SetOp::Insert(1),
                SetOp::Insert(1),
                SetOp::Contains(1),
                SetOp::Remove(1),
                SetOp::Contains(1),
                SetOp::Size,
            ],
        );
        assert_eq!(rs[2], SetResp::Membership(true));
        assert_eq!(rs[4], SetResp::Membership(false));
        assert_eq!(rs[5], SetResp::Count(0));
    }

    #[test]
    fn inserts_eventually_self_commute() {
        // Definition C.6's example: the order of insertions is irrelevant.
        let spec: SetObject<i64> = SetObject::new();
        assert!(spec.equivalent_after(
            &spec.initial(),
            &[SetOp::Insert(1), SetOp::Insert(2)],
            &[SetOp::Insert(2), SetOp::Insert(1)],
        ));
        assert!(spec.equivalent_after(
            &BTreeSet::from([1, 2, 3]),
            &[SetOp::Remove(1), SetOp::Remove(2)],
            &[SetOp::Remove(2), SetOp::Remove(1)],
        ));
    }

    #[test]
    fn insert_and_remove_of_same_key_do_not_commute() {
        let spec: SetObject<i64> = SetObject::new();
        assert!(!spec.equivalent_after(
            &spec.initial(),
            &[SetOp::Insert(1), SetOp::Remove(1)],
            &[SetOp::Remove(1), SetOp::Insert(1)],
        ));
    }

    #[test]
    fn classes() {
        let spec: SetObject<i64> = SetObject::new();
        assert_eq!(spec.class(&SetOp::Insert(1)), OpClass::PureMutator);
        assert_eq!(spec.class(&SetOp::Remove(1)), OpClass::PureMutator);
        assert_eq!(spec.class(&SetOp::Contains(1)), OpClass::PureAccessor);
        assert_eq!(spec.class(&SetOp::Size), OpClass::PureAccessor);
    }
}
