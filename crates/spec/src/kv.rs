//! A key-value store — an "arbitrary data type" exercising the
//! framework beyond the four objects of Chapter VI.
//!
//! Classification-wise it mixes the interesting cases: `put` is a pure
//! mutator that overwrites *per key* but not globally (two puts to
//! different keys both survive, so the type is a non-overwriter and the
//! Theorem E.1 pair bound applies to `put` + `get`), `remove` is a pure
//! mutator, and `get`/`contains`/`len` are pure accessors.

use std::collections::BTreeMap;

use crate::seqspec::{OpClass, SequentialSpec};

/// Operations on the key-value store (keys and values are `i64`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KvOp {
    /// Sets `key` to `value` (insert or overwrite). Returns nothing.
    Put {
        /// The key.
        key: i64,
        /// The value.
        value: i64,
    },
    /// Removes `key` if present. Returns nothing.
    Remove {
        /// The key.
        key: i64,
    },
    /// Returns the value at `key`, if any.
    Get {
        /// The key.
        key: i64,
    },
    /// Returns whether `key` is present.
    ContainsKey {
        /// The key.
        key: i64,
    },
    /// Returns the number of keys.
    Len,
}

/// Responses of the key-value store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KvResp {
    /// Acknowledgment of a mutation.
    Ack,
    /// Result of `Get`.
    Value(Option<i64>),
    /// Result of `ContainsKey`.
    Present(bool),
    /// Result of `Len`.
    Count(usize),
}

/// An initially empty key-value store.
///
/// # Examples
///
/// ```
/// use skewbound_spec::kv::{KvOp, KvResp, KvStore};
/// use skewbound_spec::prelude::*;
///
/// let spec = KvStore::new();
/// let (s, _) = spec.apply(&spec.initial(), &KvOp::Put { key: 1, value: 10 });
/// assert_eq!(spec.apply(&s, &KvOp::Get { key: 1 }).1, KvResp::Value(Some(10)));
/// assert_eq!(spec.apply(&s, &KvOp::Get { key: 2 }).1, KvResp::Value(None));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStore;

impl KvStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        KvStore
    }
}

impl SequentialSpec for KvStore {
    type State = BTreeMap<i64, i64>;
    type Op = KvOp;
    type Resp = KvResp;

    fn initial(&self) -> BTreeMap<i64, i64> {
        BTreeMap::new()
    }

    fn apply(&self, state: &BTreeMap<i64, i64>, op: &KvOp) -> (BTreeMap<i64, i64>, KvResp) {
        match op {
            KvOp::Put { key, value } => {
                let mut s = state.clone();
                s.insert(*key, *value);
                (s, KvResp::Ack)
            }
            KvOp::Remove { key } => {
                let mut s = state.clone();
                s.remove(key);
                (s, KvResp::Ack)
            }
            KvOp::Get { key } => (state.clone(), KvResp::Value(state.get(key).copied())),
            KvOp::ContainsKey { key } => (state.clone(), KvResp::Present(state.contains_key(key))),
            KvOp::Len => (state.clone(), KvResp::Count(state.len())),
        }
    }

    fn class(&self, op: &KvOp) -> OpClass {
        match op {
            KvOp::Put { .. } | KvOp::Remove { .. } => OpClass::PureMutator,
            KvOp::Get { .. } | KvOp::ContainsKey { .. } | KvOp::Len => OpClass::PureAccessor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;

    fn put(key: i64, value: i64) -> KvOp {
        KvOp::Put { key, value }
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let spec = KvStore::new();
        let (_, rs) = spec.run(
            &spec.initial(),
            &[
                put(1, 10),
                KvOp::Get { key: 1 },
                put(1, 20),
                KvOp::Get { key: 1 },
                KvOp::Remove { key: 1 },
                KvOp::Get { key: 1 },
                KvOp::Len,
            ],
        );
        assert_eq!(rs[1], KvResp::Value(Some(10)));
        assert_eq!(rs[3], KvResp::Value(Some(20)));
        assert_eq!(rs[5], KvResp::Value(None));
        assert_eq!(rs[6], KvResp::Count(0));
    }

    #[test]
    fn puts_to_same_key_overwrite_different_keys_do_not() {
        let spec = KvStore::new();
        // Same key: the last put wins — like register writes.
        assert_eq!(
            spec.state_after(&spec.initial(), &[put(1, 10), put(1, 20)]),
            spec.state_after(&spec.initial(), &[put(1, 20)])
        );
        // Different keys: both survive — the type is a non-overwriter.
        assert!(classify::non_overwriter_witness(
            &spec,
            &[spec.initial()],
            &[put(1, 10), put(2, 20)]
        )
        .is_some());
    }

    #[test]
    fn same_key_puts_eventually_non_self_commuting() {
        let spec = KvStore::new();
        assert!(classify::eventually_non_self_commuting(
            &spec,
            &[spec.initial()],
            &[put(1, 10), put(1, 20)]
        )
        .is_some());
        // Different-key puts self-commute.
        assert!(classify::eventually_non_self_commuting(
            &spec,
            &[spec.initial()],
            &[put(1, 10), put(2, 20)]
        )
        .is_none());
    }

    #[test]
    fn class_consistency() {
        let spec = KvStore::new();
        let states = vec![
            spec.initial(),
            BTreeMap::from([(1, 10)]),
            BTreeMap::from([(1, 10), (2, 20)]),
        ];
        let ops = vec![
            put(1, 99),
            KvOp::Remove { key: 1 },
            KvOp::Get { key: 1 },
            KvOp::ContainsKey { key: 2 },
            KvOp::Len,
        ];
        classify::check_class_consistency(&spec, &states, &ops).unwrap();
    }
}
