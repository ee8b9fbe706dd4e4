//! The `UpdateNext` array from Chapter II §B.
//!
//! `UpdateNext(i, b)` on an integer array returns the `i`-th element and,
//! if `i` is not the last index, writes `b` into position `i + 1`. The
//! thesis uses it (on a size-2 array) as the canonical example of an
//! operation type that is **immediately non-self-commuting but not
//! strongly** so: for any ρ and any two instances, at least one of the two
//! orders is legal. [`crate::classify`] verifies both halves of that claim
//! executably.
//!
//! Indices here are 1-based to match the thesis's notation.

use crate::seqspec::{OpClass, SequentialSpec};

/// Operations on the fixed-size integer array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArrayOp {
    /// `UpdateNext(i, b)`: return element `i` (1-based) and, if `i < len`,
    /// set element `i + 1` to `b`.
    UpdateNext {
        /// 1-based index to read.
        i: usize,
        /// Value written to `i + 1` (ignored when `i` is the last index).
        b: i64,
    },
    /// Returns the whole array (pure accessor, for observability).
    Snapshot,
}

/// Responses of the array object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArrayResp {
    /// The element returned by `UpdateNext`, or `None` when the index is
    /// out of range.
    Element(Option<i64>),
    /// The array returned by `Snapshot`.
    Contents(Vec<i64>),
}

/// A fixed-size integer array supporting `UpdateNext`.
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let spec = UpdateNextArray::new(vec![10, 20]);
/// let (s, r) = spec.apply(&spec.initial(), &ArrayOp::UpdateNext { i: 1, b: 99 });
/// assert_eq!(r, ArrayResp::Element(Some(10)));
/// assert_eq!(s, vec![10, 99]);
/// // The last index modifies nothing.
/// let (s2, r2) = spec.apply(&s, &ArrayOp::UpdateNext { i: 2, b: 7 });
/// assert_eq!(r2, ArrayResp::Element(Some(99)));
/// assert_eq!(s2, s);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateNextArray {
    initial: Vec<i64>,
}

impl UpdateNextArray {
    /// An array with the given initial contents.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty.
    #[must_use]
    pub fn new(initial: Vec<i64>) -> Self {
        assert!(!initial.is_empty(), "array must be non-empty");
        UpdateNextArray { initial }
    }

    /// The thesis's size-2 array `[x, y]`.
    #[must_use]
    pub fn pair(x: i64, y: i64) -> Self {
        UpdateNextArray::new(vec![x, y])
    }
}

impl SequentialSpec for UpdateNextArray {
    type State = Vec<i64>;
    type Op = ArrayOp;
    type Resp = ArrayResp;

    fn initial(&self) -> Vec<i64> {
        self.initial.clone()
    }

    fn apply(&self, state: &Vec<i64>, op: &ArrayOp) -> (Vec<i64>, ArrayResp) {
        match op {
            ArrayOp::UpdateNext { i, b } => {
                if *i == 0 || *i > state.len() {
                    return (state.clone(), ArrayResp::Element(None));
                }
                let read = state[*i - 1];
                let mut s = state.clone();
                if *i < state.len() {
                    s[*i] = *b;
                }
                (s, ArrayResp::Element(Some(read)))
            }
            ArrayOp::Snapshot => (state.clone(), ArrayResp::Contents(state.clone())),
        }
    }

    fn class(&self, op: &ArrayOp) -> OpClass {
        match op {
            // UpdateNext both reads and (usually) writes.
            ArrayOp::UpdateNext { .. } => OpClass::Other,
            ArrayOp::Snapshot => OpClass::PureAccessor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(i: usize, b: i64) -> ArrayOp {
        ArrayOp::UpdateNext { i, b }
    }

    #[test]
    fn thesis_non_commuting_witness() {
        // Array [x, y], op1 = UpdateNext(1, z) with z ≠ y,
        // op2 = UpdateNext(2, z). ρ∘op2∘op1 legal but ρ∘op1∘op2 illegal.
        let (x, y, z) = (10, 20, 99);
        let spec = UpdateNextArray::pair(x, y);
        let s0 = spec.initial();
        // Fixed responses after ρ (empty): op1 returns x, op2 returns y.
        let op1 = (upd(1, z), ArrayResp::Element(Some(x)));
        let op2 = (upd(2, z), ArrayResp::Element(Some(y)));
        assert!(spec.is_legal_from(&s0, &[op2.clone(), op1.clone()]));
        assert!(!spec.is_legal_from(&s0, &[op1, op2]));
    }

    #[test]
    fn out_of_range_index_reads_none() {
        let spec = UpdateNextArray::pair(1, 2);
        let (s, r) = spec.apply(&spec.initial(), &upd(3, 7));
        assert_eq!(r, ArrayResp::Element(None));
        assert_eq!(s, vec![1, 2]);
        let (_, r0) = spec.apply(&spec.initial(), &upd(0, 7));
        assert_eq!(r0, ArrayResp::Element(None));
    }

    #[test]
    fn snapshot_reads_everything() {
        let spec = UpdateNextArray::new(vec![1, 2, 3]);
        let s = spec.state_after(&spec.initial(), &[upd(1, 9)]);
        assert_eq!(
            spec.apply(&s, &ArrayOp::Snapshot).1,
            ArrayResp::Contents(vec![1, 9, 3])
        );
    }

    #[test]
    fn classes() {
        let spec = UpdateNextArray::pair(0, 0);
        assert_eq!(spec.class(&upd(1, 2)), OpClass::Other);
        assert_eq!(spec.class(&ArrayOp::Snapshot), OpClass::PureAccessor);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_array_rejected() {
        let _ = UpdateNextArray::new(vec![]);
    }
}
