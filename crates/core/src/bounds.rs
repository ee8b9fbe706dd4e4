//! Closed-form time-bound formulas and the rows of Tables I–IV.
//!
//! The thesis's results are formulas over `d` (delay bound), `u` (delay
//! uncertainty), `ε` (clock skew bound), `n`/`k` (process / concurrency
//! counts) and `X` (the accessor/mutator trade-off). This module encodes
//! each one once, as a [`Bound`] variant with its printed text and its
//! value, so the tables, the derivation in [`crate::analysis`] and the
//! response-bound invariant name a formula instead of restating it.

use skewbound_sim::time::SimDuration;
use skewbound_spec::seqspec::OpClass;

use crate::params::Params;

/// One formula of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// `d`: the previous lower bound for INSC operations and for
    /// mutator+accessor pairs (Kosa, Lipton–Sandberg), and the pair bound
    /// that stands when Theorem E.1's hypotheses fail (an overwriting or
    /// eventually self-commuting mutator; the thesis leaves the `+2ε`
    /// gap open).
    D,
    /// `u/2`: the previous lower bound for write-like mutators
    /// (Attiya–Welch).
    HalfU,
    /// `d + min{ε, u, d/3}`: Theorem C.1 for strongly immediately
    /// non-self-commuting operations (RMW, dequeue, pop), and Theorem E.1
    /// for `|OP| + |AOP|` with `OP` an immediately self-commuting,
    /// eventually non-self-commuting, non-overwriting pure mutator
    /// (enqueue+peek, push+peek, insert+depth).
    DPlusM,
    /// `(1 − 1/n)u`: Theorem D.1 for operation types with `k = n`
    /// pairwise last-distinguishable instances (write, enqueue, push).
    PermuteN,
    /// `ε + X`: the exact time of pure mutators in Algorithm 1.
    Mop,
    /// `d + ε − X`: the exact time of pure accessors in Algorithm 1.
    Aop,
    /// `d + ε`: Algorithm 1's bound for every other operation (Theorem
    /// D.2 of Chapter V).
    Oop,
    /// `d + 2ε`: `|MOP| + |AOP|` in Algorithm 1 (Theorem D.1 of Chapter
    /// V), independent of `X`.
    Pair,
}

impl Bound {
    /// Algorithm 1's upper bound for an operation of class `class`.
    #[must_use]
    pub fn upper(class: OpClass) -> Bound {
        match class {
            OpClass::PureMutator => Bound::Mop,
            OpClass::PureAccessor => Bound::Aop,
            OpClass::Other => Bound::Oop,
        }
    }

    /// The formula as printed in the paper.
    #[must_use]
    pub fn text(self) -> &'static str {
        match self {
            Bound::D => "d",
            Bound::HalfU => "u/2",
            Bound::DPlusM => "d + min{eps, u, d/3}",
            Bound::PermuteN => "(1 - 1/n)u",
            Bound::Mop => "eps + X",
            Bound::Aop => "d + eps - X",
            Bound::Oop => "d + eps",
            Bound::Pair => "d + 2eps",
        }
    }

    /// Evaluates the formula at `p`.
    #[must_use]
    pub fn eval(self, p: &Params) -> SimDuration {
        match self {
            Bound::D => p.d(),
            Bound::HalfU => p.u() / 2,
            Bound::DPlusM => p.d() + p.m(),
            Bound::PermuteN => lb_permute(p.n(), p.u()),
            Bound::Mop => p.eps() + p.x(),
            Bound::Aop => p.d() + p.eps() - p.x(),
            Bound::Oop => p.d() + p.eps(),
            Bound::Pair => p.d() + p.eps() * 2,
        }
    }
}

/// Theorem D.1 lower bound for operation types with `k` pairwise
/// last-distinguishable instances: `(1 − 1/k)·u`.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn lb_permute(k: usize, u: SimDuration) -> SimDuration {
    assert!(k > 0, "k must be positive");
    u.mul_frac(k as u64 - 1, k as u64)
}

/// [`Bound::Oop`] evaluated: `d + ε`.
#[must_use]
pub fn ub_oop(p: &Params) -> SimDuration {
    Bound::Oop.eval(p)
}

/// [`Bound::Mop`] evaluated: `ε + X`.
#[must_use]
pub fn ub_mop(p: &Params) -> SimDuration {
    Bound::Mop.eval(p)
}

/// [`Bound::Aop`] evaluated: `d + ε − X`.
#[must_use]
pub fn ub_aop(p: &Params) -> SimDuration {
    Bound::Aop.eval(p)
}

/// The folklore baseline: every operation in `≤ 2d`.
#[must_use]
pub fn ub_centralized(p: &Params) -> SimDuration {
    p.d() * 2
}

/// Whether the Theorem C.1 bound is *tight* for these parameters
/// (`ε ≤ d/3` and `ε ≤ u`, Chapter VII).
#[must_use]
pub fn insc_bound_tight(p: &Params) -> bool {
    p.eps() <= p.d() / 3 && p.eps() <= p.u()
}

/// One row of a Chapter VI table: an operation (or operation pair), its
/// previous lower bound, the thesis's lower bound (`None` where the paper
/// lists none, as for `read` in Table I) and the thesis's upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableRow {
    /// Operation name as printed in the paper ("dequeue", "write + read").
    pub operation: &'static str,
    /// Previous lower bound.
    pub prev_lb: Bound,
    /// New lower bound.
    pub new_lb: Option<Bound>,
    /// Upper bound.
    pub ub: Bound,
}

fn row(operation: &'static str, prev_lb: Bound, new_lb: Option<Bound>, ub: Bound) -> TableRow {
    TableRow {
        operation,
        prev_lb,
        new_lb,
        ub,
    }
}

/// Table I — read/write/read-modify-write register.
#[must_use]
pub fn table_register() -> Vec<TableRow> {
    use Bound::*;
    vec![
        row("read-modify-write", D, Some(DPlusM), Oop),
        row("write", HalfU, Some(PermuteN), Mop),
        row("read", HalfU, None, Aop),
        row("write + read", D, Some(D), Pair),
    ]
}

/// Table II — FIFO queue.
#[must_use]
pub fn table_queue() -> Vec<TableRow> {
    use Bound::*;
    vec![
        row("enqueue", HalfU, Some(PermuteN), Mop),
        row("dequeue", D, Some(DPlusM), Oop),
        row("enqueue + peek", D, Some(DPlusM), Pair),
    ]
}

/// Table III — LIFO stack.
#[must_use]
pub fn table_stack() -> Vec<TableRow> {
    use Bound::*;
    vec![
        row("push", HalfU, Some(PermuteN), Mop),
        row("pop", D, Some(DPlusM), Oop),
        row("push + peek", D, Some(DPlusM), Pair),
    ]
}

/// Table IV — rooted tree.
#[must_use]
pub fn table_tree() -> Vec<TableRow> {
    use Bound::*;
    vec![
        row("insert", HalfU, Some(PermuteN), Mop),
        row("delete", HalfU, Some(PermuteN), Mop),
        row("insert + depth", D, Some(DPlusM), Pair),
        row("delete + depth", D, Some(DPlusM), Pair),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(t: u64) -> SimDuration {
        SimDuration::from_ticks(t)
    }

    fn params() -> Params {
        // n=3, d=90, u=30 → eps=20, m=min(20,30,30)=20.
        Params::with_optimal_skew(3, ticks(90), ticks(30), ticks(0)).unwrap()
    }

    #[test]
    fn formulas_evaluate() {
        let p = params();
        let at = |b: Bound| b.eval(&p);
        assert_eq!(at(Bound::D), ticks(90));
        assert_eq!(at(Bound::HalfU), ticks(15));
        assert_eq!(at(Bound::DPlusM), ticks(110));
        assert_eq!(at(Bound::PermuteN), ticks(20));
        assert_eq!(lb_permute(2, p.u()), ticks(15));
        assert_eq!(at(Bound::Mop), ticks(20));
        assert_eq!(at(Bound::Aop), ticks(110));
        assert_eq!(at(Bound::Oop), ticks(110));
        assert_eq!(at(Bound::Pair), ticks(130));
        assert_eq!(ub_centralized(&p), ticks(180));
    }

    #[test]
    fn new_bounds_improve_on_previous() {
        for row in [table_register(), table_queue(), table_stack(), table_tree()].concat() {
            if let Some(new_lb) = row.new_lb.filter(|&b| b != Bound::D) {
                assert!(
                    new_lb.eval(&params()) > row.prev_lb.eval(&params()),
                    "{}",
                    row.operation
                );
            }
        }
    }

    #[test]
    fn insc_tightness_condition() {
        // eps = 20 ≤ d/3 = 30 and ≤ u = 30: tight.
        assert!(insc_bound_tight(&params()));
        // Huge skew: not tight.
        let p = Params::new(3, ticks(90), ticks(80), ticks(60), ticks(0)).unwrap();
        assert!(!insc_bound_tight(&p));
    }

    #[test]
    fn upper_bounds_meet_lower_bounds_when_tight() {
        let p = params();
        // OOP: lb = d + m, ub = d + eps; tight when eps = m.
        assert_eq!(Bound::DPlusM.eval(&p), Bound::Oop.eval(&p));
        // Mutators: lb = (1-1/n)u = eps at optimal skew = ub at X=0.
        assert_eq!(Bound::PermuteN.eval(&p), Bound::Mop.eval(&p));
    }

    #[test]
    fn pair_sum_identity() {
        // |MOP| + |AOP| = (eps + X) + (d + eps - X) = d + 2eps for all X.
        for x in [0u64, 10, 40] {
            let p = params().with_x(ticks(x)).unwrap();
            assert_eq!(ub_mop(&p) + ub_aop(&p), Bound::Pair.eval(&p));
        }
    }

    #[test]
    fn upper_matches_the_per_class_evaluators() {
        // The per-class `ub_*` functions are what callers outside the
        // workspace use; `Bound::upper` must agree with them everywhere.
        for x in [0u64, 10, 25, 40] {
            let p = params().with_x(ticks(x)).unwrap();
            assert_eq!(Bound::upper(OpClass::PureMutator).eval(&p), ub_mop(&p));
            assert_eq!(Bound::upper(OpClass::PureAccessor).eval(&p), ub_aop(&p));
            assert_eq!(Bound::upper(OpClass::Other).eval(&p), ub_oop(&p));
        }
    }

    #[test]
    fn algorithm_beats_centralized_for_all_classes() {
        let p = params();
        for class in [OpClass::PureMutator, OpClass::PureAccessor, OpClass::Other] {
            assert!(Bound::upper(class).eval(&p) < ub_centralized(&p));
        }
    }

    #[test]
    fn tables_have_expected_rows() {
        assert_eq!(table_register().len(), 4);
        assert_eq!(table_queue().len(), 3);
        assert_eq!(table_stack().len(), 3);
        assert_eq!(table_tree().len(), 4);
        let p = params();
        for row in [table_register(), table_queue(), table_stack(), table_tree()].concat() {
            // Every row's bounds are consistent: lb ≤ ub where both exist.
            if let Some(lb) = row.new_lb {
                let (lb, ub) = (lb.eval(&p), row.ub.eval(&p));
                assert!(lb <= ub, "{}: lb {lb:?} > ub {ub:?}", row.operation);
            }
        }
    }
}
