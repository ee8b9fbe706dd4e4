//! Lower-bound probes: run an implementation through a scenario family
//! and report which members (if any) it violates.
//!
//! The contract mirrors the theorems: an implementation whose operations
//! respond faster than the corresponding lower bound **must** fail at
//! least one scenario in the family; the honest Algorithm 1 passes all of
//! them. The probes double as falsification tests in `tests/` and as the
//! `fig6_9`/`fig10_14`/`fig15_17` experiments of the benchmark harness.

use skewbound_core::params::Params;
use skewbound_sim::actor::Actor;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::FixedDelay;
use skewbound_sim::engine::Simulation;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::par::run_grid;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_spec::seqspec::SequentialSpec;

use crate::scenarios::{Scenario, ScenarioReport};

/// The aggregate result of probing one implementation against a family.
#[derive(Debug)]
pub struct ProbeReport {
    /// Per-scenario verdicts.
    pub reports: Vec<ScenarioReport>,
}

impl ProbeReport {
    /// `true` when every scenario produced a linearizable history.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.reports.iter().all(ScenarioReport::passed)
    }

    /// Names of the violated scenarios.
    #[must_use]
    pub fn violations(&self) -> Vec<&str> {
        self.reports
            .iter()
            .filter(|r| !r.passed())
            .map(|r| r.name.as_str())
            .collect()
    }

    /// The worst operation latency observed across the family.
    #[must_use]
    pub fn max_latency(&self) -> Option<SimDuration> {
        self.reports.iter().filter_map(|r| r.max_latency).max()
    }
}

/// Probes `make_actors` (a fresh group per scenario) against every
/// scenario in `family`.
///
/// Scenarios are independent runs, so the family is fanned out across the
/// [`skewbound_sim::par`] worker pool; reports come back in family order
/// regardless of worker count, and `SKEWBOUND_THREADS=1` forces the
/// sequential path.
pub fn probe<S, A, F>(family: &[Scenario<S>], make_actors: F) -> ProbeReport
where
    S: SequentialSpec + Clone + Sync,
    S::Op: Sync,
    A: Actor<Op = S::Op, Resp = S::Resp>,
    F: Fn() -> Vec<A> + Sync,
{
    ProbeReport {
        reports: run_grid(family, |_, sc| sc.check_with(make_actors())),
    }
}

/// Measures the latency of a single operation under maximal delays and
/// zero skew — used to learn a candidate's mutator latency before
/// building the Theorem E.1 scripts.
///
/// # Panics
///
/// Panics if the run fails or the operation never responds.
pub fn measure_single_op_latency<A, F>(
    make_actors: F,
    params: &Params,
    pid: ProcessId,
    op: A::Op,
) -> SimDuration
where
    A: Actor,
    F: FnOnce() -> Vec<A>,
{
    let mut sim = Simulation::new(
        make_actors(),
        ClockAssignment::zero(params.n()),
        FixedDelay::maximal(params.delay_bounds()),
    );
    sim.schedule_invoke(pid, SimTime::ZERO, op);
    sim.run().expect("measurement run failed");
    sim.history().records()[0]
        .latency()
        .expect("operation did not respond")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{
        insc_dequeue_family, insc_pop_family, insc_rmw_family, pair_enqueue_peek_family,
        pair_push_peek_family, permute_enqueue_family, permute_push_family, permute_write_family,
    };
    use skewbound_core::foils::{
        eager_accessor_group, eager_group, fast_mutator_group, LocalFirstReplica,
    };
    use skewbound_core::replica::Replica;
    use skewbound_spec::prelude::*;

    fn params() -> Params {
        // d = 9000, u = 2400, n = 3 → eps = 1600, m = 1600. These satisfy
        // the discriminator condition d/2 > m + eps/2 discussed in the
        // scenario docs.
        Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(2_400),
            SimDuration::ZERO,
        )
        .unwrap()
    }

    // ------------------------------------------------------------------
    // Theorem C.1: honest passes, too-fast implementations are caught.
    // ------------------------------------------------------------------

    #[test]
    fn honest_algorithm_passes_insc_families() {
        let p = params();
        assert!(probe(&insc_dequeue_family(&p), || Replica::group(
            Queue::<i64>::new(),
            &p
        ))
        .all_passed());
        assert!(probe(&insc_pop_family(&p), || Replica::group(
            Stack::<i64>::new(),
            &p
        ))
        .all_passed());
        assert!(probe(&insc_rmw_family(&p), || Replica::group(
            RmwRegister::default(),
            &p
        ))
        .all_passed());
    }

    #[test]
    fn local_first_foil_fails_insc_family() {
        let p = params();
        let report = probe(&insc_dequeue_family(&p), || {
            LocalFirstReplica::group(Queue::<i64>::new(), 3)
        });
        assert!(!report.all_passed(), "zero-latency dequeues must be caught");
    }

    #[test]
    fn halved_timer_foil_fails_insc_family() {
        let p = params();
        // Latency (d + eps)/2 = 5300 < d + m = 10600: below the bound.
        let report = probe(&insc_dequeue_family(&p), || {
            eager_group(Queue::<i64>::new(), &p, 1, 2)
        });
        assert!(
            !report.all_passed(),
            "dequeue faster than d + min(eps,u,d/3) must be caught; latencies {:?}",
            report.max_latency()
        );
    }

    #[test]
    fn halved_timer_foil_fails_insc_family_on_stack_and_rmw() {
        let p = params();
        assert!(!probe(&insc_pop_family(&p), || eager_group(
            Stack::<i64>::new(),
            &p,
            1,
            2
        ))
        .all_passed());
        assert!(!probe(&insc_rmw_family(&p), || eager_group(
            RmwRegister::default(),
            &p,
            1,
            2
        ))
        .all_passed());
    }

    // ------------------------------------------------------------------
    // Theorem D.1.
    // ------------------------------------------------------------------

    #[test]
    fn honest_algorithm_passes_permute_family() {
        let p = params();
        let fam = permute_write_family(&p, 3);
        let report = probe(&fam, || Replica::group(RmwRegister::default(), &p));
        assert!(report.all_passed(), "violations: {:?}", report.violations());
    }

    #[test]
    fn fast_mutator_foil_fails_permute_family() {
        let p = params();
        let fam = permute_write_family(&p, 3);
        // Mutator wait 0 < (1 − 1/3)u = 1600.
        let report = probe(&fam, || {
            fast_mutator_group(RmwRegister::default(), &p, SimDuration::ZERO)
        });
        assert!(!report.all_passed(), "instant writes must be caught");
    }

    #[test]
    fn barely_fast_mutator_foil_fails_permute_family() {
        let p = params();
        let fam = permute_write_family(&p, 3);
        // One tick below the bound: still incorrect.
        let wait = SimDuration::from_ticks(1_599);
        let report = probe(&fam, || {
            fast_mutator_group(RmwRegister::default(), &p, wait)
        });
        assert!(
            !report.all_passed(),
            "mutator one tick under (1-1/k)u must be caught"
        );
    }

    #[test]
    fn enqueue_and_push_permute_families() {
        let p = params();
        // Honest passes.
        assert!(probe(&permute_enqueue_family(&p, 3), || Replica::group(
            Queue::<i64>::new(),
            &p
        ))
        .all_passed());
        assert!(probe(&permute_push_family(&p, 3), || Replica::group(
            Stack::<i64>::new(),
            &p
        ))
        .all_passed());
        // Instant mutators are caught: the drain observes an insertion
        // order that contradicts the real-time precedences.
        assert!(
            !probe(&permute_enqueue_family(&p, 3), || fast_mutator_group(
                Queue::<i64>::new(),
                &p,
                SimDuration::ZERO
            ))
            .all_passed()
        );
        assert!(!probe(&permute_push_family(&p, 3), || fast_mutator_group(
            Stack::<i64>::new(),
            &p,
            SimDuration::ZERO
        ))
        .all_passed());
    }

    #[test]
    fn negative_control_self_commuting_mutators_unaffected() {
        // Counter increments eventually self-commute, so Theorem D.1
        // does not apply — even an *instant* increment stays linearizable
        // under the same circulant/shifted run family (built here on the
        // counter via the generic permute builder).
        let p = params();
        let fam = crate::scenarios::permute_family(
            &p,
            3,
            Counter::default(),
            |i| CounterOp::Add(i as i64 + 1),
            1,
            |_| CounterOp::Read,
            "negctl-counter",
        );
        let report = probe(&fam, || {
            fast_mutator_group(Counter::default(), &p, SimDuration::ZERO)
        });
        assert!(
            report.all_passed(),
            "self-commuting mutators owe no (1-1/k)u wait: {:?}",
            report.violations()
        );
    }

    // ------------------------------------------------------------------
    // Theorem E.1.
    // ------------------------------------------------------------------

    #[test]
    fn push_peek_pair_family() {
        let p = params();
        let w_m = measure_single_op_latency(
            || Replica::group(Stack::<i64>::new(), &p),
            &p,
            ProcessId::new(0),
            StackOp::Push(7),
        );
        let fam = pair_push_peek_family(&p, w_m);
        assert!(probe(&fam, || Replica::group(Stack::<i64>::new(), &p)).all_passed());
        let make_foil =
            || eager_accessor_group(Stack::<i64>::new(), &p, SimDuration::from_ticks(1_000));
        let foil_w = measure_single_op_latency(make_foil, &p, ProcessId::new(0), StackOp::Push(7));
        let foil_fam = pair_push_peek_family(&p, foil_w);
        assert!(!probe(&foil_fam, make_foil).all_passed());
    }

    #[test]
    fn honest_algorithm_passes_pair_family() {
        let p = params();
        let w_m = measure_single_op_latency(
            || Replica::group(Queue::<i64>::new(), &p),
            &p,
            ProcessId::new(0),
            QueueOp::Enqueue(7),
        );
        assert_eq!(w_m, p.eps() + p.x());
        let fam = pair_enqueue_peek_family(&p, w_m);
        let report = probe(&fam, || Replica::group(Queue::<i64>::new(), &p));
        assert!(report.all_passed(), "violations: {:?}", report.violations());
    }

    #[test]
    fn eager_accessor_foil_fails_pair_family() {
        let p = params();
        // Accessor responds in 1000; enqueue in eps = 1600. Sum = 2600 <
        // d = 9000 ≤ d + m: far below the pair bound.
        let make = || eager_accessor_group(Queue::<i64>::new(), &p, SimDuration::from_ticks(1_000));
        let w_m = measure_single_op_latency(make, &p, ProcessId::new(0), QueueOp::Enqueue(7));
        let fam = pair_enqueue_peek_family(&p, w_m);
        let report = probe(&fam, make);
        assert!(!report.all_passed(), "stale peeks must be caught");
    }

    #[test]
    fn local_first_foil_fails_pair_family() {
        let p = params();
        let make = || LocalFirstReplica::group(Queue::<i64>::new(), 3);
        let w_m = measure_single_op_latency(make, &p, ProcessId::new(0), QueueOp::Enqueue(7));
        assert_eq!(w_m, SimDuration::ZERO);
        let fam = pair_enqueue_peek_family(&p, w_m);
        let report = probe(&fam, make);
        assert!(!report.all_passed());
    }
}
