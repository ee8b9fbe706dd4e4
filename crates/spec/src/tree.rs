//! Rooted trees (Table IV).
//!
//! The thesis's tree object has four operations: `insert` and `delete`
//! (pure mutators — they return nothing), and `search` and `depth` (pure
//! accessors). No operation is both mutator and accessor, which is why
//! Table IV has no `d + min{ε,u,d/3}`-row of its own for single
//! operations, only for mutator+accessor *pairs*.
//!
//! Nodes are `u32` ids; node `0` is the permanent root. The state is the
//! parent map of all non-root nodes, which is canonical (a `BTreeMap`), so
//! state equality is tree equality.

use std::collections::BTreeMap;

use crate::seqspec::{OpClass, SequentialSpec};

/// The permanent root node id.
pub const ROOT: u32 = 0;

/// Operations on a rooted tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TreeOp {
    /// Adds `node` as a child of `parent`. No-op if `node` already exists
    /// (or is the root) or `parent` does not exist.
    Insert {
        /// The node to add.
        node: u32,
        /// Its parent (must exist).
        parent: u32,
    },
    /// Removes `node` and its whole subtree. No-op if `node` is absent or
    /// the root.
    Delete {
        /// The node to remove.
        node: u32,
    },
    /// Returns whether `node` is in the tree.
    Search {
        /// The node to look up.
        node: u32,
    },
    /// Returns the depth of the tree (root alone = 0).
    Depth,
}

/// Responses of a rooted tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TreeResp {
    /// Acknowledgment of a mutation (inserts and deletes are *pure*
    /// mutators; they return nothing about the object).
    Ack,
    /// Result of `Search`.
    Found(bool),
    /// Result of `Depth`.
    Depth(usize),
}

/// The parent map: `node → parent` for every non-root node.
pub type TreeState = BTreeMap<u32, u32>;

/// A rooted tree whose root is node [`ROOT`].
///
/// # Examples
///
/// ```
/// use skewbound_spec::prelude::*;
///
/// let t = Tree::new();
/// let (s, _) = t.run(&t.initial(), &[
///     TreeOp::Insert { node: 1, parent: 0 },
///     TreeOp::Insert { node: 2, parent: 1 },
/// ]);
/// assert_eq!(t.apply(&s, &TreeOp::Depth).1, TreeResp::Depth(2));
/// assert_eq!(t.apply(&s, &TreeOp::Search { node: 2 }).1, TreeResp::Found(true));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tree;

impl Tree {
    /// A tree containing only the root.
    #[must_use]
    pub fn new() -> Self {
        Tree
    }

    fn contains(state: &TreeState, node: u32) -> bool {
        node == ROOT || state.contains_key(&node)
    }

    fn depth_of(state: &TreeState, mut node: u32) -> usize {
        let mut depth = 0;
        while node != ROOT {
            node = state[&node];
            depth += 1;
            assert!(depth <= state.len(), "parent map contains a cycle");
        }
        depth
    }

    fn subtree(state: &TreeState, root: u32) -> Vec<u32> {
        // Collect `root` and all descendants.
        let mut members = vec![root];
        let mut frontier = vec![root];
        while let Some(cur) = frontier.pop() {
            for (&child, &parent) in state {
                if parent == cur && !members.contains(&child) {
                    members.push(child);
                    frontier.push(child);
                }
            }
        }
        members
    }
}

impl SequentialSpec for Tree {
    type State = TreeState;
    type Op = TreeOp;
    type Resp = TreeResp;

    fn initial(&self) -> TreeState {
        TreeState::new()
    }

    fn apply(&self, state: &TreeState, op: &TreeOp) -> (TreeState, TreeResp) {
        match op {
            TreeOp::Insert { node, parent } => {
                if Self::contains(state, *node) || !Self::contains(state, *parent) {
                    (state.clone(), TreeResp::Ack)
                } else {
                    let mut s = state.clone();
                    s.insert(*node, *parent);
                    (s, TreeResp::Ack)
                }
            }
            TreeOp::Delete { node } => {
                if *node == ROOT || !Self::contains(state, *node) {
                    (state.clone(), TreeResp::Ack)
                } else {
                    let doomed = Self::subtree(state, *node);
                    let mut s = state.clone();
                    for n in doomed {
                        s.remove(&n);
                    }
                    (s, TreeResp::Ack)
                }
            }
            TreeOp::Search { node } => {
                (state.clone(), TreeResp::Found(Self::contains(state, *node)))
            }
            TreeOp::Depth => {
                let depth = state
                    .keys()
                    .map(|&n| Self::depth_of(state, n))
                    .max()
                    .unwrap_or(0);
                (state.clone(), TreeResp::Depth(depth))
            }
        }
    }

    fn class(&self, op: &TreeOp) -> OpClass {
        match op {
            TreeOp::Insert { .. } | TreeOp::Delete { .. } => OpClass::PureMutator,
            TreeOp::Search { .. } | TreeOp::Depth => OpClass::PureAccessor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(node: u32, parent: u32) -> TreeOp {
        TreeOp::Insert { node, parent }
    }

    #[test]
    fn build_chain_and_measure_depth() {
        let t = Tree::new();
        let (s, _) = t.run(&t.initial(), &[ins(1, 0), ins(2, 1), ins(3, 2)]);
        assert_eq!(t.apply(&s, &TreeOp::Depth).1, TreeResp::Depth(3));
    }

    #[test]
    fn insert_requires_existing_parent() {
        let t = Tree::new();
        let s = t.state_after(&t.initial(), &[ins(5, 9)]);
        assert_eq!(
            t.apply(&s, &TreeOp::Search { node: 5 }).1,
            TreeResp::Found(false)
        );
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let t = Tree::new();
        let s1 = t.state_after(&t.initial(), &[ins(1, 0)]);
        let s2 = t.state_after(&s1, &[ins(1, 0)]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn delete_removes_subtree() {
        let t = Tree::new();
        let s = t.state_after(
            &t.initial(),
            &[
                ins(1, 0),
                ins(2, 1),
                ins(3, 2),
                ins(4, 0),
                TreeOp::Delete { node: 1 },
            ],
        );
        assert_eq!(
            t.apply(&s, &TreeOp::Search { node: 2 }).1,
            TreeResp::Found(false)
        );
        assert_eq!(
            t.apply(&s, &TreeOp::Search { node: 3 }).1,
            TreeResp::Found(false)
        );
        assert_eq!(
            t.apply(&s, &TreeOp::Search { node: 4 }).1,
            TreeResp::Found(true)
        );
        assert_eq!(t.apply(&s, &TreeOp::Depth).1, TreeResp::Depth(1));
    }

    #[test]
    fn root_is_permanent() {
        let t = Tree::new();
        let s = t.state_after(&t.initial(), &[TreeOp::Delete { node: ROOT }]);
        assert_eq!(
            t.apply(&s, &TreeOp::Search { node: ROOT }).1,
            TreeResp::Found(true)
        );
        assert_eq!(s, t.initial());
    }

    #[test]
    fn disjoint_inserts_commute_sibling_inserts_too() {
        let t = Tree::new();
        assert!(t.equivalent_after(
            &t.initial(),
            &[ins(1, 0), ins(2, 0)],
            &[ins(2, 0), ins(1, 0)]
        ));
    }

    #[test]
    fn dependent_inserts_do_not_commute() {
        // Inserting a child before its parent silently fails, so order
        // matters.
        let t = Tree::new();
        assert!(!t.equivalent_after(
            &t.initial(),
            &[ins(1, 0), ins(2, 1)],
            &[ins(2, 1), ins(1, 0)]
        ));
    }

    #[test]
    fn classes_match_table_iv() {
        let t = Tree::new();
        assert_eq!(t.class(&ins(1, 0)), OpClass::PureMutator);
        assert_eq!(t.class(&TreeOp::Delete { node: 1 }), OpClass::PureMutator);
        assert_eq!(t.class(&TreeOp::Search { node: 1 }), OpClass::PureAccessor);
        assert_eq!(t.class(&TreeOp::Depth), OpClass::PureAccessor);
    }
}
