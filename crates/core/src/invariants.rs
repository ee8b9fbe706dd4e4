//! Protocol invariants and routing lints.
//!
//! Linearizability (checked by `skewbound-lin`) is the *correctness*
//! condition; Algorithm 1 additionally promises *protocol* properties
//! that a checker can enforce per run:
//!
//! * timestamps execute in strictly ascending order at every replica,
//!   and every replica executes the same order at quiescence
//!   (Lemma C.10);
//! * responses meet the Chapter V upper bounds — `|MOP| ≤ ε + X`,
//!   `|AOP| ≤ d + ε − X`, `|OOP| ≤ d + ε` ([`crate::bounds`]).
//!
//! A third property is *static*: the AOP/MOP/OOP routing in
//! [`crate::replica`] is driven by [`SequentialSpec::class`], so a
//! misdeclared class silently takes a fast path it has not earned.
//! [`routing_lint`] cross-checks the declared class against the
//! behavioral classification [`crate::analysis`] derives on probe sets.
//!
//! The model checker (`skewbound-mc`) runs the per-run invariants over
//! every explored schedule and turns failures into certificates.

use skewbound_sim::history::History;
use skewbound_spec::classify::{accessor_witness, check_class_consistency, mutator_witness};
use skewbound_spec::seqspec::{OpClass, SequentialSpec};

use crate::bounds::Bound;
use crate::params::Params;
use crate::timestamp::Timestamp;

/// One violated invariant, with a human-readable description of the
/// evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant (stable, machine-matchable name).
    pub invariant: &'static str,
    /// What went wrong.
    pub detail: String,
}

impl core::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Everything a per-run invariant may inspect about one finished run.
#[derive(Debug)]
pub struct RunView<'a, S: SequentialSpec> {
    /// System parameters the run executed under.
    pub params: &'a Params,
    /// The sequential specification.
    pub spec: &'a S,
    /// The complete operation history.
    pub history: &'a History<S::Op, S::Resp>,
    /// Per-replica executed timestamp orders, for implementations that
    /// expose them (Algorithm 1 replicas do; foils need not — an empty
    /// slice skips the timestamp invariants rather than failing them).
    pub executed_orders: &'a [&'a [Timestamp]],
}

/// Runs the per-run protocol invariants over the run and collects the
/// violations: `timestamps-monotone`, then `response-bounds`.
#[must_use]
pub fn check_invariants<S: SequentialSpec>(view: &RunView<'_, S>) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    timestamps_monotone(view, &mut out);
    response_bounds(view, &mut out);
    out
}

/// Lemma C.10: each replica executes operations in strictly ascending
/// timestamp order, and at quiescence every replica has executed the
/// same sequence.
fn timestamps_monotone<S: SequentialSpec>(
    view: &RunView<'_, S>,
    out: &mut Vec<InvariantViolation>,
) {
    const NAME: &str = "timestamps-monotone";
    for (pid, order) in view.executed_orders.iter().enumerate() {
        for w in order.windows(2) {
            if w[0] >= w[1] {
                out.push(InvariantViolation {
                    invariant: NAME,
                    detail: format!(
                        "p{pid} executed {:?} before {:?} (timestamps must be \
                         strictly ascending per replica)",
                        w[0], w[1]
                    ),
                });
            }
        }
    }
    if let Some(first) = view.executed_orders.first() {
        for (pid, order) in view.executed_orders.iter().enumerate().skip(1) {
            if order != first {
                out.push(InvariantViolation {
                    invariant: NAME,
                    detail: format!(
                        "p0 and p{pid} disagree on the executed order at \
                         quiescence ({} vs {} ops; Lemma C.10 requires \
                         identical sequences)",
                        first.len(),
                        order.len()
                    ),
                });
            }
        }
    }
}

/// Chapter V response-time upper bounds per operation class: pure
/// mutators within `ε + X`, pure accessors within `d + ε − X`, everything
/// else within `d + ε`.
fn response_bounds<S: SequentialSpec>(view: &RunView<'_, S>, out: &mut Vec<InvariantViolation>) {
    for rec in view.history.records() {
        let Some(latency) = rec.latency() else {
            continue;
        };
        let class = view.spec.class(&rec.op);
        let formula = Bound::upper(class);
        let bound = formula.eval(view.params);
        if latency > bound {
            out.push(InvariantViolation {
                invariant: "response-bounds",
                detail: format!(
                    "{} op {:?} ({:?}) responded in {} ticks, above its \
                     {} bound of {} ticks",
                    rec.pid,
                    rec.op,
                    class,
                    latency.as_ticks(),
                    formula.text(),
                    bound.as_ticks()
                ),
            });
        }
    }
}

/// Static routing-consistency lint: cross-checks the operation classes
/// declared by [`SequentialSpec::class`] — which drive the AOP/MOP/OOP
/// routing in [`crate::replica::Replica`] — against the behavioral
/// classification on the probe set, exactly as [`crate::analysis`]
/// derives it (mutator/accessor witnesses, Definitions D.1–D.2).
///
/// Only *unsound* routing is flagged (a fast path taken without the
/// behavioral license for it):
///
/// * `PureMutator` instances must not reveal state (no accessor witness)
///   — otherwise the `ε + X` MOP response could return before the value
///   it reveals is decided;
/// * `PureMutator` instances should actually mutate some probe state —
///   a never-mutating op on the MOP path is a misrouted accessor;
/// * `PureAccessor` instances must not mutate any probe state (also
///   caught by [`check_class_consistency`], reported once).
///
/// `Other` always takes the slow OOP path, which is sound for any
/// behavior, so it is never flagged.
#[must_use]
pub fn routing_lint<S: SequentialSpec>(
    spec: &S,
    states: &[S::State],
    ops: &[S::Op],
) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    if let Err(detail) = check_class_consistency(spec, states, ops) {
        out.push(InvariantViolation {
            invariant: "class-consistency",
            detail,
        });
    }
    for op in ops {
        let single = core::slice::from_ref(op);
        match spec.class(op) {
            OpClass::PureMutator => {
                if let Some((s1, s2, _)) = accessor_witness(spec, states, single) {
                    out.push(InvariantViolation {
                        invariant: "routing-consistency",
                        detail: format!(
                            "{op:?} is routed MOP (PureMutator) but reveals state: \
                             its response differs between {s1:?} and {s2:?}"
                        ),
                    });
                }
                if mutator_witness(spec, states, single).is_none() {
                    out.push(InvariantViolation {
                        invariant: "routing-consistency",
                        detail: format!(
                            "{op:?} is routed MOP (PureMutator) but changes no \
                             probe state — a misrouted accessor"
                        ),
                    });
                }
            }
            OpClass::PureAccessor => {
                if let Some((state, _)) = mutator_witness(spec, states, single) {
                    out.push(InvariantViolation {
                        invariant: "routing-consistency",
                        detail: format!(
                            "{op:?} is routed AOP (PureAccessor) but mutates \
                             probe state {state:?}"
                        ),
                    });
                }
            }
            OpClass::Other => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::Replica;
    use skewbound_sim::clock::ClockAssignment;
    use skewbound_sim::delay::FixedDelay;
    use skewbound_sim::engine::Simulation;
    use skewbound_sim::ids::ProcessId;
    use skewbound_sim::time::{SimDuration, SimTime};
    use skewbound_spec::prelude::*;
    use skewbound_spec::probes;

    fn params() -> Params {
        Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(2_400),
            SimDuration::ZERO,
        )
        .unwrap()
    }

    type QueueHistory = History<QueueOp<i64>, QueueResp<i64>>;

    fn honest_run(params: &Params) -> (QueueHistory, Vec<Vec<Timestamp>>) {
        let mut sim = Simulation::new(
            Replica::group(Queue::<i64>::new(), params),
            ClockAssignment::zero(params.n()),
            FixedDelay::maximal(params.delay_bounds()),
        );
        let p = ProcessId::new;
        let t = SimTime::from_ticks;
        sim.schedule_invoke(p(2), t(0), QueueOp::Enqueue(42));
        sim.schedule_invoke(p(0), t(40_000), QueueOp::Dequeue);
        sim.run().unwrap();
        let orders = (0..params.n())
            .map(|i| sim.actor(p(i as u32)).executed_order().to_vec())
            .collect();
        (sim.into_history(), orders)
    }

    use skewbound_sim::history::History;

    #[test]
    fn honest_run_satisfies_all_invariants() {
        let params = params();
        let (history, orders) = honest_run(&params);
        let spec = Queue::<i64>::new();
        let orders = slices(&orders);
        let view = RunView {
            params: &params,
            spec: &spec,
            history: &history,
            executed_orders: &orders,
        };
        let violations = check_invariants(&view);
        assert!(violations.is_empty(), "violations: {violations:?}");

        // A batch's ops share ⟨time, pid⟩ and carry a contiguous seq run
        // from 0; such an order is strictly ascending, so it passes.
        let batched = batch_order(&[(1, 0, 0), (2, 1, 0), (2, 1, 1), (2, 1, 2), (3, 0, 0)]);
        let view = RunView {
            executed_orders: &[batched.as_slice(); 3],
            ..view
        };
        let mut out = Vec::new();
        timestamps_monotone(&view, &mut out);
        assert!(out.is_empty(), "contiguous batch run flagged: {out:?}");
    }

    fn slices(orders: &[Vec<Timestamp>]) -> Vec<&[Timestamp]> {
        orders.iter().map(Vec::as_slice).collect()
    }

    fn batch_order(ts: &[(i64, u32, u32)]) -> Vec<Timestamp> {
        ts.iter()
            .map(|&(time, pid, seq)| {
                Timestamp::with_seq(
                    skewbound_sim::time::ClockTime::from_ticks(time),
                    ProcessId::new(pid),
                    seq,
                )
            })
            .collect()
    }

    #[test]
    fn descending_timestamps_flagged() {
        let params = params();
        let (history, mut orders) = honest_run(&params);
        // Corrupt one replica's order.
        orders[0].reverse();
        let spec = Queue::<i64>::new();
        let orders = slices(&orders);
        let view = RunView {
            params: &params,
            spec: &spec,
            history: &history,
            executed_orders: &orders,
        };
        let mut out = Vec::new();
        timestamps_monotone(&view, &mut out);
        assert!(
            out.iter().any(|v| v.invariant == "timestamps-monotone"),
            "reversed order must be flagged: {out:?}"
        );

        // Within one batch (same ⟨time, pid⟩) the seq run must ascend too.
        let swapped = batch_order(&[(5, 1, 1), (5, 1, 0)]);
        let view = RunView {
            executed_orders: &[swapped.as_slice(); 3],
            ..view
        };
        let mut out = Vec::new();
        timestamps_monotone(&view, &mut out);
        assert!(!out.is_empty(), "swapped batch seqs must be flagged");
    }

    #[test]
    fn slow_response_flagged() {
        // The centralized baseline's dequeue takes 2d > d + ε: the OOP
        // bound invariant must flag it.
        use crate::centralized::Centralized;
        let params = params();
        let mut sim = Simulation::new(
            Centralized::group(Queue::<i64>::new(), params.n()),
            ClockAssignment::zero(params.n()),
            FixedDelay::maximal(params.delay_bounds()),
        );
        let p = ProcessId::new;
        sim.schedule_invoke(p(1), SimTime::ZERO, QueueOp::Dequeue);
        sim.run().unwrap();
        let spec = Queue::<i64>::new();
        let history = sim.into_history();
        let view = RunView {
            params: &params,
            spec: &spec,
            history: &history,
            executed_orders: &[],
        };
        let mut out = Vec::new();
        response_bounds(&view, &mut out);
        assert!(
            out.iter().any(|v| v.invariant == "response-bounds"),
            "2d dequeue must exceed the d + ε OOP bound: {out:?}"
        );
    }

    #[test]
    fn honest_specs_pass_the_routing_lint() {
        assert!(routing_lint(
            &RmwRegister::default(),
            &probes::register_states(),
            &probes::register_ops()
        )
        .is_empty());
        assert!(routing_lint(
            &Queue::<i64>::new(),
            &probes::queue_states(),
            &probes::queue_ops()
        )
        .is_empty());
        assert!(routing_lint(
            &Stack::<i64>::new(),
            &probes::stack_states(),
            &probes::stack_ops()
        )
        .is_empty());
    }

    /// A register that misdeclares its read as a pure mutator: the lint
    /// must catch the unsound MOP routing.
    #[derive(Debug, Clone, Default)]
    struct Misrouted;

    impl SequentialSpec for Misrouted {
        type State = i64;
        type Op = RmwOp;
        type Resp = RmwResp;

        fn initial(&self) -> i64 {
            0
        }
        fn apply(&self, state: &i64, op: &RmwOp) -> (i64, RmwResp) {
            RmwRegister::default().apply(state, op)
        }
        fn class(&self, _op: &RmwOp) -> OpClass {
            OpClass::PureMutator
        }
    }

    #[test]
    fn misdeclared_class_is_flagged() {
        let findings = routing_lint(
            &Misrouted,
            &probes::register_states(),
            &probes::register_ops(),
        );
        assert!(
            findings
                .iter()
                .any(|v| v.invariant == "routing-consistency" && v.detail.contains("reveals")),
            "a state-revealing MOP must be flagged: {findings:?}"
        );
        assert!(
            findings.iter().any(|v| v.invariant == "class-consistency"),
            "check_class_consistency must also fire: {findings:?}"
        );
    }
}
