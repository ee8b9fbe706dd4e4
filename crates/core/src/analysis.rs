//! Automatic time-bound derivation: give it a data type, get its table.
//!
//! Chapter VI's tables are consequences of Chapter II's classification:
//! once you know an operation type is strongly immediately
//! non-self-commuting you know its `d + min{ε,u,d/3}` lower bound, once
//! you know it is eventually non-self-last-permuting you know
//! `(1 − 1/k)u`, and the mutator+accessor pair bound follows from the
//! Theorem E.1 hypotheses. This module runs the executable classifiers of
//! [`skewbound_spec::classify`] over probe sets and *derives* the bound
//! rows — for the paper's four objects and for any new data type a user
//! brings.
//!
//! Running the derivation over the thesis's own objects reproduces its
//! tables almost everywhere, and surfaces two places where it does not
//! (executable-reproduction findings, asserted in the tests and recorded
//! in `EXPERIMENTS.md`):
//!
//! * **stack `push + peek`**: hypothesis A of Theorem E.1 requires an
//!   accessor instance distinguishing `ρ∘push1` from `ρ∘push2∘push1` —
//!   but a top-`peek` sees the same top (`push1`'s value) in both, and
//!   `len` (which would satisfy A) fails hypothesis C instead. With
//!   standard stack semantics no single accessor type satisfies A∧B∧C,
//!   so the derivation yields the classical `d` pair bound where Table
//!   III claims `d + min{ε,u,d/3}`;
//! * **tree `insert + depth`**: with total-function semantics (inserting
//!   under a missing parent is a silent no-op), `ρ∘op1` and
//!   `ρ∘op2∘op1` coincide whenever `op2` depends on `op1`, so hypothesis
//!   A again has no witness.
//!
//! Queues — whose head observably records insertion order — satisfy all
//! three hypotheses, exactly the case the thesis's proof walks through.

use core::fmt;

use skewbound_spec::classify;
use skewbound_spec::seqspec::{OpClass, SequentialSpec};

use crate::bounds::Bound;

/// A named group of operation instances of one operation *type*
/// (e.g. "write" with several distinct write instances).
pub struct OpGroup<S: SequentialSpec> {
    /// Display name ("write", "dequeue", …).
    pub name: String,
    /// Representative instances. More instances witness more properties;
    /// for permutation analysis supply at least 3 distinct ones.
    pub instances: Vec<S::Op>,
}

impl<S: SequentialSpec> OpGroup<S> {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: &str, instances: Vec<S::Op>) -> Self {
        OpGroup {
            name: name.to_string(),
            instances,
        }
    }
}

impl<S: SequentialSpec> fmt::Debug for OpGroup<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpGroup")
            .field("name", &self.name)
            .field("instances", &self.instances.len())
            .finish()
    }
}

/// The classification profile and derived bounds of one operation group.
#[derive(Debug)]
pub struct GroupAnalysis {
    /// Group name.
    pub name: String,
    /// The class declared by [`SequentialSpec::class`] (verified
    /// consistent across instances).
    pub class: OpClass,
    /// Behaviorally observed: some instance mutates some probe state.
    pub mutator: bool,
    /// Behaviorally observed: some instance's response is state-dependent.
    pub accessor: bool,
    /// Strongly immediately non-self-commuting (Theorem C.1 applies).
    pub strongly_insc: bool,
    /// Immediately non-self-commuting.
    pub insc: bool,
    /// Eventually non-self-commuting.
    pub eventually_nsc: bool,
    /// For mutators: does every instance pair overwrite?
    pub overwriter: bool,
    /// Witnessed Definition C.5 (with the provided instances).
    pub last_permuting: bool,
    /// Witnessed Definition C.4.
    pub any_permuting: bool,
    /// Derived lower bound (`None` when no single-operation bound
    /// applies, e.g. for pure accessors).
    pub lower: Option<Bound>,
    /// Derived upper bound (Algorithm 1).
    pub upper: Bound,
}

/// Classifies one operation group over `states` and derives its bounds.
///
/// # Panics
///
/// Panics if the group is empty or its instances disagree on
/// [`SequentialSpec::class`].
#[must_use]
pub fn analyze_group<S: SequentialSpec>(
    spec: &S,
    states: &[S::State],
    group: &OpGroup<S>,
) -> GroupAnalysis {
    assert!(!group.instances.is_empty(), "empty operation group");
    let class = spec.class(&group.instances[0]);
    for op in &group.instances {
        assert_eq!(
            spec.class(op),
            class,
            "instances of one operation type must share a class"
        );
    }
    let ops = &group.instances;
    let mutator = classify::mutator_witness(spec, states, ops).is_some();
    let accessor = classify::accessor_witness(spec, states, ops).is_some();
    let strongly_insc =
        classify::strongly_immediately_non_self_commuting(spec, states, ops).is_some();
    let insc = classify::immediately_non_commuting(spec, states, ops, ops).is_some();
    let eventually_nsc = classify::eventually_non_self_commuting(spec, states, ops).is_some();
    let overwriter = mutator && classify::is_overwriter(spec, states, ops);

    // Definitions C.4/C.5 require witnesses for *every* group size
    // n > 1 ("… for any n > 1, such that …"); we check sizes 2..=4
    // (bounded "for all"), and for each size search every instance
    // subset (e.g. a KV store's "put" witnesses size 2 through its
    // same-key instances even though different-key puts commute).
    let max_k = ops.len().min(4);
    let mut last_permuting = ops.len() >= 2;
    let mut any_permuting = ops.len() >= 2;
    for k in 2..=max_k {
        let mut last_at_k = false;
        let mut any_at_k = false;
        for subset in subsets_of_size(ops, k) {
            for state in states {
                let a = classify::analyze_permutations(spec, state, &subset);
                last_at_k |= a.witnesses_last_permuting();
                any_at_k |= a.witnesses_any_permuting();
            }
            if last_at_k && any_at_k {
                break;
            }
        }
        last_permuting &= last_at_k;
        any_permuting &= any_at_k;
    }

    let lower = if strongly_insc {
        Some(Bound::DPlusM)
    } else if last_permuting {
        Some(Bound::PermuteN)
    } else {
        None
    };

    GroupAnalysis {
        name: group.name.clone(),
        class,
        mutator,
        accessor,
        strongly_insc,
        insc,
        eventually_nsc,
        overwriter,
        last_permuting,
        any_permuting,
        lower,
        upper: Bound::upper(class),
    }
}

/// All subsets of `ops` with exactly `k` elements (order preserved).
fn subsets_of_size<T: Clone>(ops: &[T], k: usize) -> Vec<Vec<T>> {
    let n = ops.len();
    let mut out = Vec::new();
    // Enumerate bitmasks; n is small (probe sets), cap defensively.
    assert!(n <= 16, "too many instances for subset enumeration");
    for mask in 1u32..(1 << n) {
        if mask.count_ones() as usize != k {
            continue;
        }
        let subset: Vec<T> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| ops[i].clone())
            .collect();
        out.push(subset);
    }
    out
}

/// A witness that the Theorem E.1 hypotheses A, B and C hold for a
/// mutator pair and accessor instances.
pub struct PairWitness<S: SequentialSpec> {
    /// The `ρ`-state.
    pub state: S::State,
    /// The two mutator instances.
    pub op1: S::Op,
    /// Second mutator instance.
    pub op2: S::Op,
    /// Accessor instances witnessing hypotheses A, B and C respectively.
    pub accessors: [S::Op; 3],
}

impl<S: SequentialSpec> fmt::Debug for PairWitness<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PairWitness")
            .field("state", &self.state)
            .field("op1", &self.op1)
            .field("op2", &self.op2)
            .field("accessors", &self.accessors)
            .finish()
    }
}

/// Searches for a Theorem E.1 hypothesis witness: mutator instances
/// `op1 ≠ op2` and accessor instances `aop1, aop2, aop3` such that
///
/// * **A**: the accessor's fixed response distinguishes `ρ∘op1` from
///   `ρ∘op2∘op1`;
/// * **B**: distinguishes `ρ∘op2` from `ρ∘op1∘op2`;
/// * **C**: distinguishes `ρ∘op1∘op2` from `ρ∘op2∘op1`.
///
/// Since responses are fixed by determinism, "one legal, one illegal"
/// reduces to the accessor's response differing between the two states.
#[must_use]
pub fn e1_hypothesis_witness<S: SequentialSpec>(
    spec: &S,
    states: &[S::State],
    mutators: &[S::Op],
    accessors: &[S::Op],
) -> Option<PairWitness<S>> {
    let distinguishes = |sa: &S::State, sb: &S::State| -> Option<S::Op> {
        accessors
            .iter()
            .find(|aop| spec.apply(sa, aop).1 != spec.apply(sb, aop).1)
            .cloned()
    };
    for state in states {
        for op1 in mutators {
            for op2 in mutators {
                if op1 == op2 {
                    continue;
                }
                let s1 = spec.state_after(state, std::slice::from_ref(op1));
                let s2 = spec.state_after(state, std::slice::from_ref(op2));
                let s12 = spec.state_after(&s1, std::slice::from_ref(op2));
                let s21 = spec.state_after(&s2, std::slice::from_ref(op1));
                let Some(a) = distinguishes(&s1, &s21) else {
                    continue;
                };
                let Some(b) = distinguishes(&s2, &s12) else {
                    continue;
                };
                let Some(c) = distinguishes(&s12, &s21) else {
                    continue;
                };
                return Some(PairWitness {
                    state: state.clone(),
                    op1: op1.clone(),
                    op2: op2.clone(),
                    accessors: [a, b, c],
                });
            }
        }
    }
    None
}

/// Analysis of a mutator group paired with an accessor group.
#[derive(Debug)]
pub struct PairAnalysis {
    /// Mutator group name.
    pub mutator: String,
    /// Accessor group name.
    pub accessor: String,
    /// Whether the mutator instances immediately self-commute (an E.1
    /// requirement).
    pub mutator_immediately_self_commuting: bool,
    /// Whether the Theorem E.1 hypotheses A∧B∧C were witnessed.
    pub e1_witnessed: bool,
    /// Derived lower bound on `|OP| + |AOP|`: [`Bound::DPlusM`] when the
    /// Theorem E.1 hypotheses hold, else the classical [`Bound::D`]
    /// (overwriting or self-commuting mutator, or no distinguishing
    /// accessor).
    pub lower: Bound,
}

/// Derives the pair bound for a (mutator group, accessor group) pair.
#[must_use]
pub fn analyze_pair<S: SequentialSpec>(
    spec: &S,
    states: &[S::State],
    mutators: &OpGroup<S>,
    accessors: &OpGroup<S>,
) -> PairAnalysis {
    let imm_self_commuting =
        classify::immediately_non_commuting(spec, states, &mutators.instances, &mutators.instances)
            .is_none();
    let witness = e1_hypothesis_witness(spec, states, &mutators.instances, &accessors.instances);
    let e1 = imm_self_commuting && witness.is_some();
    PairAnalysis {
        mutator: mutators.name.clone(),
        accessor: accessors.name.clone(),
        mutator_immediately_self_commuting: imm_self_commuting,
        e1_witnessed: witness.is_some(),
        lower: if e1 { Bound::DPlusM } else { Bound::D },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use skewbound_sim::time::SimDuration;
    use skewbound_spec::prelude::*;
    use skewbound_spec::probes;

    // ------------------------------------------------------------------
    // Single-operation derivations reproduce Tables I–IV.
    // ------------------------------------------------------------------

    #[test]
    fn register_groups_derive_table_i() {
        let spec = RmwRegister::default();
        let states = probes::register_states();
        let write = analyze_group(
            &spec,
            &states,
            &OpGroup::new("write", probes::register_writes(3)),
        );
        assert!(write.mutator && !write.accessor && write.overwriter);
        assert!(write.last_permuting && !write.any_permuting);
        assert_eq!(write.lower, Some(Bound::PermuteN));
        assert_eq!(write.upper, Bound::Mop);

        let rmw = analyze_group(
            &spec,
            &states,
            &OpGroup::new(
                "read-modify-write",
                vec![RmwOp::Rmw(RmwKind::Swap(1)), RmwOp::Rmw(RmwKind::Swap(2))],
            ),
        );
        assert!(rmw.strongly_insc);
        assert_eq!(rmw.lower, Some(Bound::DPlusM));
        assert_eq!(rmw.upper, Bound::Oop);

        let read = analyze_group(&spec, &states, &OpGroup::new("read", vec![RmwOp::Read]));
        assert!(read.accessor && !read.mutator);
        assert_eq!(read.lower, None);
        assert_eq!(read.upper, Bound::Aop);
    }

    #[test]
    fn queue_groups_derive_table_ii() {
        let spec: Queue<i64> = Queue::new();
        let states = probes::queue_states();
        let enq = analyze_group(
            &spec,
            &states,
            &OpGroup::new("enqueue", probes::queue_enqueues(3)),
        );
        assert!(enq.any_permuting && enq.last_permuting && !enq.overwriter);
        assert_eq!(enq.lower, Some(Bound::PermuteN));
        assert_eq!(enq.upper, Bound::Mop);
        // Dequeue: single instance value can't self-pair in the generic
        // scanner (instances must differ), but the strongly-INSC property
        // shows through RMW-style distinct-return analysis — covered by
        // the spec-level tests; here assert its class-derived upper bound.
        let deq = analyze_group(
            &spec,
            &states,
            &OpGroup::new("dequeue", vec![QueueOp::Dequeue]),
        );
        assert_eq!(deq.upper, Bound::Oop);
    }

    #[test]
    fn set_inserts_derive_no_lower_bound() {
        let spec: SetObject<i64> = SetObject::new();
        let states = probes::set_states();
        let ins = analyze_group(
            &spec,
            &states,
            &OpGroup::new(
                "insert",
                vec![SetOp::Insert(1), SetOp::Insert(2), SetOp::Insert(3)],
            ),
        );
        assert!(ins.mutator && !ins.eventually_nsc);
        assert!(!ins.last_permuting);
        assert_eq!(ins.lower, None);
    }

    // ------------------------------------------------------------------
    // Pair derivations: the queue satisfies Theorem E.1's hypotheses;
    // stack-with-top-peek and tree-with-noop-insert do NOT — the two
    // executable-reproduction findings documented in EXPERIMENTS.md.
    // ------------------------------------------------------------------

    #[test]
    fn queue_enqueue_peek_satisfies_e1() {
        let spec: Queue<i64> = Queue::new();
        let states = probes::queue_states();
        let pair = analyze_pair(
            &spec,
            &states,
            &OpGroup::new("enqueue", probes::queue_enqueues(3)),
            &OpGroup::new("peek", vec![QueueOp::Peek]),
        );
        assert!(pair.mutator_immediately_self_commuting);
        assert!(pair.e1_witnessed);
        assert_eq!(pair.lower, Bound::DPlusM);
    }

    #[test]
    fn stack_push_top_peek_fails_hypothesis_a() {
        // FINDING: after ρ∘push1 and ρ∘push2∘push1 the *top* is push1's
        // value in both, so top-peek cannot witness hypothesis A; len
        // would, but then fails C. The derivation therefore yields the
        // classical `d` where Table III claims `d + m`.
        let spec: Stack<i64> = Stack::new();
        let states = probes::stack_states();
        let peek_only = analyze_pair(
            &spec,
            &states,
            &OpGroup::new("push", probes::stack_pushes(3)),
            &OpGroup::new("peek", vec![StackOp::Peek]),
        );
        assert!(!peek_only.e1_witnessed);
        assert_eq!(peek_only.lower, Bound::D);

        let len_only = analyze_pair(
            &spec,
            &states,
            &OpGroup::new("push", probes::stack_pushes(3)),
            &OpGroup::new("len", vec![StackOp::Len]),
        );
        assert!(!len_only.e1_witnessed, "len fails hypothesis C");

        // Allowing a *mixed* accessor pool (peek for C, len for A/B) does
        // witness all three hypotheses — the generalized reading.
        let mixed = analyze_pair(
            &spec,
            &states,
            &OpGroup::new("push", probes::stack_pushes(3)),
            &OpGroup::new("peek/len", vec![StackOp::Peek, StackOp::Len]),
        );
        assert!(mixed.e1_witnessed);
        assert_eq!(mixed.lower, Bound::DPlusM);
    }

    #[test]
    fn tree_insert_depth_fails_hypothesis_a() {
        // FINDING: with silent-no-op inserts, ρ∘op1 equals ρ∘op2∘op1
        // whenever op2 depends on op1, so no accessor can witness A.
        let spec = Tree::new();
        let states = probes::tree_states();
        let pair = analyze_pair(
            &spec,
            &states,
            &OpGroup::new(
                "insert",
                vec![
                    TreeOp::Insert { node: 5, parent: 0 },
                    TreeOp::Insert { node: 6, parent: 5 },
                    TreeOp::Insert { node: 7, parent: 0 },
                ],
            ),
            &OpGroup::new(
                "depth",
                vec![
                    TreeOp::Depth,
                    TreeOp::Search { node: 5 },
                    TreeOp::Search { node: 6 },
                    TreeOp::Search { node: 7 },
                ],
            ),
        );
        // Even with search instances allowed, A∧B∧C has no witness for
        // dependent inserts and C has none for independent ones.
        assert!(!pair.e1_witnessed);
        assert_eq!(pair.lower, Bound::D);
    }

    #[test]
    fn register_write_read_derives_classical_d() {
        // Writes overwrite: C can be witnessed (last writer differs) but
        // A cannot (ρ∘w1 vs ρ∘w2∘w1 end identically). Classical `d`.
        let spec = RmwRegister::default();
        let states = probes::register_states();
        let pair = analyze_pair(
            &spec,
            &states,
            &OpGroup::new("write", probes::register_writes(3)),
            &OpGroup::new("read", vec![RmwOp::Read]),
        );
        assert!(!pair.e1_witnessed);
        assert_eq!(pair.lower, Bound::D);
    }

    #[test]
    fn kv_different_key_puts_fail_hypothesis_c() {
        let spec = KvStore::new();
        let states = vec![spec.initial()];
        let pair = analyze_pair(
            &spec,
            &states,
            &OpGroup::new(
                "put",
                vec![
                    KvOp::Put { key: 1, value: 10 },
                    KvOp::Put { key: 2, value: 20 },
                    KvOp::Put { key: 1, value: 30 },
                ],
            ),
            &OpGroup::new("get", vec![KvOp::Get { key: 1 }, KvOp::Get { key: 2 }]),
        );
        assert!(!pair.e1_witnessed);
        assert_eq!(pair.lower, Bound::D);
    }

    #[test]
    fn formulas_evaluate() {
        let p = Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(2_400),
            SimDuration::ZERO,
        )
        .unwrap();
        assert_eq!(Bound::DPlusM.eval(&p).as_ticks(), 10_600);
        assert_eq!(Bound::PermuteN.eval(&p).as_ticks(), 1_600);
        assert_eq!(Bound::Mop.eval(&p).as_ticks(), 1_600);
        assert_eq!(Bound::D.eval(&p).as_ticks(), 9_000);
    }
}
