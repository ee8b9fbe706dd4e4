//! Hash-consing of specification states for the checker memo table.
//!
//! The Wing & Gong memo set conceptually stores `(taken-set, state)`
//! pairs, for the configurations the checker found exhausted (see
//! [`checker`](crate::checker)). A [`StateInterner`] assigns each distinct
//! state a dense `u32` id the first time it is recorded, so the memo set
//! stores `(u128, u32)` — 20 bytes, hashed with [`fxhash`] in a handful
//! of cycles — instead of cloned states. A lookup only reads the
//! interner ([`StateInterner::get`]): an unseen state is in no entry.
//!
//! Interning preserves the memo set's semantics exactly: ids are
//! injective over distinct states (equal states get equal ids, distinct
//! states distinct ids), so `(taken, id)` collides precisely when
//! `(taken, state)` would have.

use std::hash::Hash;

use fxhash::{FxHashMap, FxHashSet};

/// Dense id assigned to one distinct specification state.
pub type StateId = u32;

/// The checker memo set: `(taken-set bitmask, interned state id)`.
pub type SeenSet = FxHashSet<(u128, StateId)>;

/// A hash-cons table mapping states to dense [`StateId`]s.
///
/// # Examples
///
/// ```
/// use skewbound_lin::intern::StateInterner;
///
/// let mut interner: StateInterner<Vec<i64>> = StateInterner::new();
/// let a = interner.intern(&vec![1, 2]);
/// let b = interner.intern(&vec![1, 2]);
/// let c = interner.intern(&vec![2, 1]);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct StateInterner<T> {
    ids: FxHashMap<T, StateId>,
}

impl<T> Default for StateInterner<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> StateInterner<T> {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        StateInterner {
            ids: FxHashMap::default(),
        }
    }

    /// Number of distinct states interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no state has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl<T: Hash + Eq + Clone> StateInterner<T> {
    /// The id of `state` if it has been interned, without assigning one.
    #[must_use]
    pub fn get(&self, state: &T) -> Option<StateId> {
        self.ids.get(state).copied()
    }

    /// Returns the id for `state`, assigning (and cloning the state) only
    /// on first sight.
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX` distinct states — unreachable in practice:
    /// the node limit caps the search long before.
    pub fn intern(&mut self, state: &T) -> StateId {
        if let Some(id) = self.get(state) {
            return id;
        }
        let id = StateId::try_from(self.ids.len()).expect("more than u32::MAX distinct states");
        self.ids.insert(state.clone(), id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i: StateInterner<u64> = StateInterner::new();
        assert!(i.is_empty());
        assert_eq!(i.get(&10), None);
        assert_eq!(i.intern(&10), 0);
        assert_eq!(i.intern(&20), 1);
        assert_eq!(i.intern(&10), 0);
        assert_eq!(i.get(&20), Some(1));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn injective_over_distinct_states() {
        let mut i: StateInterner<(u64, Vec<u8>)> = StateInterner::new();
        let a = i.intern(&(1, vec![1]));
        let b = i.intern(&(1, vec![2]));
        let c = i.intern(&(2, vec![1]));
        assert_eq!(
            [a, b, c]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            3
        );
    }

    #[test]
    fn namespace_states_intern_regardless_of_key_order() {
        use skewbound_spec::prelude::*;

        let ns = Namespace::new(RmwRegister::default());
        let writes: Vec<_> = (0..48)
            .map(|k| NsOp::new(k, RmwOp::Write(k as i64 + 1)))
            .collect();
        let reversed: Vec<_> = writes.iter().rev().cloned().collect();
        let mut i = StateInterner::new();
        let up = i.intern(&ns.state_after(&ns.initial(), &writes));
        let down = i.intern(&ns.state_after(&ns.initial(), &reversed));
        assert_eq!(up, down);
        assert_eq!(i.len(), 1);
    }
}
