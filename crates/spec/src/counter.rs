//! Counters with increment and read.
//!
//! `increment` is the thesis's running example (Chapter I §C and
//! Definition D.5) of a mutator that **commutes with itself** but does
//! **not overwrite** the whole state: two increments in either order give
//! the same value, yet dropping one is observable.

use crate::seqspec::{OpClass, SequentialSpec};

/// Operations on a counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CounterOp {
    /// Adds `delta` to the counter (may be negative). Returns nothing.
    Add(i64),
    /// Returns the current value.
    Read,
}

/// Responses of a counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CounterResp {
    /// An `Add`'s acknowledgment.
    Ack,
    /// A read's result.
    Value(i64),
}

/// A shared counter, initially `initial`.
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let spec = Counter::default();
/// let (s, _) = spec.run(&spec.initial(), &[CounterOp::Add(2), CounterOp::Add(3)]);
/// assert_eq!(spec.apply(&s, &CounterOp::Read).1, CounterResp::Value(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter {
    initial: i64,
}

impl Counter {
    /// A counter starting at `initial`.
    #[must_use]
    pub fn new(initial: i64) -> Self {
        Counter { initial }
    }
}

impl SequentialSpec for Counter {
    type State = i64;
    type Op = CounterOp;
    type Resp = CounterResp;

    fn initial(&self) -> i64 {
        self.initial
    }

    fn apply(&self, state: &i64, op: &CounterOp) -> (i64, CounterResp) {
        match op {
            CounterOp::Add(d) => (state.wrapping_add(*d), CounterResp::Ack),
            CounterOp::Read => (*state, CounterResp::Value(*state)),
        }
    }

    fn class(&self, op: &CounterOp) -> OpClass {
        match op {
            CounterOp::Add(_) => OpClass::PureMutator,
            CounterOp::Read => OpClass::PureAccessor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adds_accumulate() {
        let spec = Counter::new(0);
        let s = spec.state_after(&spec.initial(), &[CounterOp::Add(1), CounterOp::Add(2)]);
        assert_eq!(s, 3);
    }

    #[test]
    fn increments_self_commute() {
        let spec = Counter::new(0);
        assert!(spec.equivalent_after(
            &0,
            &[CounterOp::Add(1), CounterOp::Add(2)],
            &[CounterOp::Add(2), CounterOp::Add(1)],
        ));
    }

    #[test]
    fn increment_does_not_overwrite() {
        // Definition D.5's example: ρ = write(0), op1 = +1, op2 = +2.
        // ρ∘op1∘op2 gives 3 but ρ∘op2 gives 2 — not equivalent.
        let spec = Counter::new(0);
        assert_ne!(
            spec.state_after(&0, &[CounterOp::Add(1), CounterOp::Add(2)]),
            spec.state_after(&0, &[CounterOp::Add(2)]),
        );
    }

    #[test]
    fn classes() {
        let spec = Counter::default();
        assert_eq!(spec.class(&CounterOp::Add(1)), OpClass::PureMutator);
        assert_eq!(spec.class(&CounterOp::Read), OpClass::PureAccessor);
    }
}
