//! Read/Write/Read-Modify-Write registers (Table I).
//!
//! * `read` — pure accessor;
//! * `write` — pure mutator; eventually non-self-last-permuting (but not
//!   any-permuting) and an *overwriter*;
//! * `rmw` — immediately (indeed strongly) non-self-commuting.

use core::fmt::Debug;
use core::hash::Hash;

use crate::seqspec::{OpClass, SequentialSpec};

/// Marker bound for register values.
pub trait Value: Clone + Eq + Hash + Debug {}
impl<T: Clone + Eq + Hash + Debug> Value for T {}

/// The read-modify-write transformations offered by [`RmwRegister`].
///
/// Kept as a closed enum (rather than arbitrary closures) so operations
/// stay `Eq + Hash`, which the classification framework and checker need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmwKind {
    /// `x ← x + delta`, returns the old value.
    FetchAdd(i64),
    /// `x ← new` iff `x == expect`, returns the old value.
    CompareAndSwap {
        /// Expected current value.
        expect: i64,
        /// Replacement installed on match.
        new: i64,
    },
    /// `x ← new`, returns the old value.
    Swap(i64),
}

impl RmwKind {
    /// Applies the transformation, returning `(new_value, old_value)`.
    #[must_use]
    pub fn apply(self, x: i64) -> (i64, i64) {
        match self {
            RmwKind::FetchAdd(d) => (x.wrapping_add(d), x),
            RmwKind::CompareAndSwap { expect, new } => {
                if x == expect {
                    (new, x)
                } else {
                    (x, x)
                }
            }
            RmwKind::Swap(new) => (new, x),
        }
    }
}

/// Operations on a read/write register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RegOp<V> {
    /// Returns the current value.
    Read,
    /// Replaces the current value.
    Write(V),
}

/// Responses of a read/write register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RegResp<V> {
    /// A read's result.
    Value(V),
    /// A write's acknowledgment (carries no information).
    Ack,
}

/// A read/write register holding a value of type `V`.
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let spec = RwRegister::new(0i64);
/// let (s, _) = spec.apply(&spec.initial(), &RegOp::Write(9));
/// assert_eq!(spec.apply(&s, &RegOp::Read).1, RegResp::Value(9));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RwRegister<V = i64> {
    initial: V,
}

impl<V: Value> RwRegister<V> {
    /// A register initialized to `initial`.
    #[must_use]
    pub fn new(initial: V) -> Self {
        RwRegister { initial }
    }
}

impl Default for RwRegister<i64> {
    fn default() -> Self {
        RwRegister::new(0)
    }
}

impl<V: Value> SequentialSpec for RwRegister<V> {
    type State = V;
    type Op = RegOp<V>;
    type Resp = RegResp<V>;

    fn initial(&self) -> V {
        self.initial.clone()
    }

    fn apply(&self, state: &V, op: &RegOp<V>) -> (V, RegResp<V>) {
        match op {
            RegOp::Read => (state.clone(), RegResp::Value(state.clone())),
            RegOp::Write(v) => (v.clone(), RegResp::Ack),
        }
    }

    fn class(&self, op: &RegOp<V>) -> OpClass {
        match op {
            RegOp::Read => OpClass::PureAccessor,
            RegOp::Write(_) => OpClass::PureMutator,
        }
    }
}

/// Operations on a read/write/read-modify-write register over `i64`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RmwOp {
    /// Returns the current value.
    Read,
    /// Replaces the current value.
    Write(i64),
    /// Atomically transforms the value, returning the old one.
    Rmw(RmwKind),
}

/// Responses of the RMW register.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RmwResp {
    /// Result of a read or RMW (the old value for RMW).
    Value(i64),
    /// A write's acknowledgment.
    Ack,
}

/// A register with read, write and read-modify-write operations —
/// the object of Table I.
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let spec = RmwRegister::default();
/// let (s, r) = spec.apply(&0, &RmwOp::Rmw(RmwKind::FetchAdd(5)));
/// assert_eq!((s, r), (5, RmwResp::Value(0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RmwRegister {
    initial: i64,
}

impl RmwRegister {
    /// A register initialized to `initial`.
    #[must_use]
    pub fn new(initial: i64) -> Self {
        RmwRegister { initial }
    }
}

impl SequentialSpec for RmwRegister {
    type State = i64;
    type Op = RmwOp;
    type Resp = RmwResp;

    fn initial(&self) -> i64 {
        self.initial
    }

    fn apply(&self, state: &i64, op: &RmwOp) -> (i64, RmwResp) {
        match op {
            RmwOp::Read => (*state, RmwResp::Value(*state)),
            RmwOp::Write(v) => (*v, RmwResp::Ack),
            RmwOp::Rmw(kind) => {
                let (new, old) = kind.apply(*state);
                (new, RmwResp::Value(old))
            }
        }
    }

    fn class(&self, op: &RmwOp) -> OpClass {
        match op {
            RmwOp::Read => OpClass::PureAccessor,
            RmwOp::Write(_) => OpClass::PureMutator,
            RmwOp::Rmw(_) => OpClass::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_latest_write() {
        let spec = RwRegister::new(0);
        let (s, rs) = spec.run(
            &spec.initial(),
            &[RegOp::Write(1), RegOp::Write(2), RegOp::Read],
        );
        assert_eq!(s, 2);
        assert_eq!(rs[2], RegResp::Value(2));
    }

    #[test]
    fn fig1_scenario_is_illegal() {
        // Fig. 1(a): write(0); write(1); read must not return 0.
        let spec = RwRegister::new(0);
        assert!(!spec.is_legal(&[
            (RegOp::Write(0), RegResp::Ack),
            (RegOp::Write(1), RegResp::Ack),
            (RegOp::Read, RegResp::Value(0)),
        ]));
        assert!(spec.is_legal(&[
            (RegOp::Write(0), RegResp::Ack),
            (RegOp::Read, RegResp::Value(0)),
            (RegOp::Write(1), RegResp::Ack),
        ]));
    }

    #[test]
    fn rmw_kinds() {
        assert_eq!(RmwKind::FetchAdd(3).apply(4), (7, 4));
        assert_eq!(
            RmwKind::CompareAndSwap { expect: 4, new: 9 }.apply(4),
            (9, 4)
        );
        assert_eq!(
            RmwKind::CompareAndSwap { expect: 5, new: 9 }.apply(4),
            (4, 4)
        );
        assert_eq!(RmwKind::Swap(9).apply(4), (9, 4));
    }

    #[test]
    fn rmw_register_semantics() {
        let spec = RmwRegister::new(10);
        let ops = [
            RmwOp::Rmw(RmwKind::FetchAdd(5)),
            RmwOp::Read,
            RmwOp::Write(0),
            RmwOp::Rmw(RmwKind::Swap(2)),
        ];
        let (s, rs) = spec.run(&spec.initial(), &ops);
        assert_eq!(s, 2);
        assert_eq!(
            rs,
            vec![
                RmwResp::Value(10),
                RmwResp::Value(15),
                RmwResp::Ack,
                RmwResp::Value(0),
            ]
        );
    }

    #[test]
    fn classes_match_table_i() {
        let spec = RmwRegister::default();
        assert_eq!(spec.class(&RmwOp::Read), OpClass::PureAccessor);
        assert_eq!(spec.class(&RmwOp::Write(1)), OpClass::PureMutator);
        assert_eq!(
            spec.class(&RmwOp::Rmw(RmwKind::FetchAdd(1))),
            OpClass::Other
        );
    }

    #[test]
    fn write_is_overwriting_rmw_is_not() {
        // Sanity for the classification used in Chapter VI: after any two
        // writes only the last matters; fetch-adds accumulate.
        let spec = RmwRegister::default();
        assert_eq!(
            spec.state_after(&7, &[RmwOp::Write(1), RmwOp::Write(2)]),
            spec.state_after(&9, &[RmwOp::Write(2)])
        );
        assert_ne!(
            spec.state_after(
                &0,
                &[
                    RmwOp::Rmw(RmwKind::FetchAdd(1)),
                    RmwOp::Rmw(RmwKind::FetchAdd(2))
                ]
            ),
            spec.state_after(&0, &[RmwOp::Rmw(RmwKind::FetchAdd(2))])
        );
    }

    #[test]
    fn generic_register_over_strings() {
        let spec = RwRegister::new("init".to_string());
        let (s, r) = spec.apply(&spec.initial(), &RegOp::Read);
        assert_eq!(s, "init");
        assert_eq!(r, RegResp::Value("init".to_string()));
    }
}
