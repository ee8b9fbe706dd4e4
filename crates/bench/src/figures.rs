//! Figure-level experiments: the runnable counterparts of the thesis's
//! illustrations and theorem constructions.
//!
//! Each function returns a plain-text report; the `tables` binary prints
//! them and `EXPERIMENTS.md` records paper-vs-measured for each.

use skewbound_clocksync::{optimal_skew, run_sync_round};
use skewbound_core::bounds::{self, Bound};
use skewbound_core::foils::{
    eager_accessor_group, eager_group, fast_mutator_group, LocalFirstReplica,
};
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_lin::checker::check_history;
use skewbound_shift::probe::{measure_single_op_latency, probe};
use skewbound_shift::scenarios::{
    insc_dequeue_family, pair_enqueue_peek_family, permute_write_family,
};
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::FixedDelay;
use skewbound_sim::engine::Simulation;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_spec::prelude::*;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Figure 1: a too-fast read breaks linearizability; longer operations
/// (Algorithm 1) restore it.
#[must_use]
pub fn fig1(params: &Params) -> String {
    let d = params.d();
    let schedule = |sim: &mut Simulation<_, _>| {
        sim.schedule_invoke(p(0), SimTime::ZERO, RegOp::Write(0));
        sim.schedule_invoke(p(0), SimTime::ZERO + d * 2, RegOp::Write(1));
        sim.schedule_invoke(p(1), SimTime::ZERO + d * 4, RegOp::Read);
    };

    let mut eager = Simulation::new(
        LocalFirstReplica::group(RwRegister::new(0), params.n()),
        ClockAssignment::zero(params.n()),
        FixedDelay::maximal(params.delay_bounds()),
    );
    // For the eager replica, writes gossip with delay d; invoke the read
    // between the second write's send and its arrival.
    eager.schedule_invoke(p(0), SimTime::ZERO, RegOp::Write(0));
    eager.schedule_invoke(p(0), SimTime::ZERO + d * 2, RegOp::Write(1));
    eager.schedule_invoke(
        p(1),
        SimTime::ZERO + d * 2 + SimDuration::from_ticks(1),
        RegOp::Read,
    );
    eager.run().expect("fig1 eager run");
    let eager_read = format!("{:?}", eager.history().records()[2].resp());
    let eager_check = check_history(&RwRegister::new(0), eager.history());

    let mut honest = Simulation::new(
        Replica::group(RwRegister::new(0), params),
        ClockAssignment::zero(params.n()),
        FixedDelay::maximal(params.delay_bounds()),
    );
    schedule(&mut honest);
    honest.run().expect("fig1 honest run");
    let honest_read = format!("{:?}", honest.history().records()[2].resp());
    let honest_check = check_history(&RwRegister::new(0), honest.history());

    format!(
        "Fig. 1 — operation time vs linearizability\n\
           zero-latency implementation: read returned {eager_read}; checker: {}\n\
           Algorithm 1:                 read returned {honest_read}; checker: {}\n",
        if eager_check.is_violation() {
            "NOT linearizable (as the paper argues)"
        } else {
            "linearizable (unexpected!)"
        },
        if honest_check.is_linearizable() {
            "linearizable"
        } else {
            "VIOLATION (unexpected!)"
        },
    )
}

/// Theorem C.1 experiment (Figs. 6–9): the run family for strongly
/// immediately non-self-commuting ops, honest vs foils.
#[must_use]
pub fn thm_c1(params: &Params) -> String {
    let family = insc_dequeue_family(params);
    let honest = probe(&family, || Replica::group(Queue::<i64>::new(), params));
    let local_first = probe(&family, || {
        LocalFirstReplica::group(Queue::<i64>::new(), params.n())
    });
    let halved = probe(&family, || eager_group(Queue::<i64>::new(), params, 1, 2));
    format!(
        "Theorem C.1 (dequeue ≥ d + min{{eps,u,d/3}} = {}):\n\
           Algorithm 1 (|dequeue| ≤ d + eps = {}): {}\n\
           zero-latency foil: {} (violations: {:?})\n\
           half-timer foil (latency ≈ (d+eps)/2 = {}): {} (violations: {:?})\n",
        Bound::DPlusM.eval(params).as_ticks(),
        Bound::Oop.eval(params).as_ticks(),
        if honest.all_passed() {
            "PASS (linearizable in every run)"
        } else {
            "FAIL"
        },
        if local_first.all_passed() {
            "NOT caught (unexpected!)"
        } else {
            "caught"
        },
        local_first.violations(),
        Bound::Oop.eval(params).as_ticks() / 2,
        if halved.all_passed() {
            "NOT caught (unexpected!)"
        } else {
            "caught"
        },
        halved.violations(),
    )
}

/// Theorem D.1 experiment (Figs. 10–14): `k = n` concurrent writes under
/// the circulant/shifted runs, honest vs too-fast mutators.
#[must_use]
pub fn thm_d1(params: &Params, k: usize) -> String {
    let family = permute_write_family(params, k);
    let lb = bounds::lb_permute(k, params.u());
    let honest = probe(&family, || Replica::group(RmwRegister::default(), params));
    let instant = probe(&family, || {
        fast_mutator_group(RmwRegister::default(), params, SimDuration::ZERO)
    });
    let barely = probe(&family, || {
        fast_mutator_group(
            RmwRegister::default(),
            params,
            lb - SimDuration::from_ticks(1),
        )
    });
    format!(
        "Theorem D.1 (write ≥ (1 - 1/k)u = {} at k = {k}):\n\
           Algorithm 1 (|write| = eps + X = {}): {}\n\
           instant-write foil (wait 0): {} (violations: {:?})\n\
           one-tick-under foil (wait {}): {} (violations: {:?})\n",
        lb.as_ticks(),
        Bound::Mop.eval(params).as_ticks(),
        if honest.all_passed() { "PASS" } else { "FAIL" },
        if instant.all_passed() {
            "NOT caught (unexpected!)"
        } else {
            "caught"
        },
        instant.violations(),
        (lb - SimDuration::from_ticks(1)).as_ticks(),
        if barely.all_passed() {
            "NOT caught (unexpected!)"
        } else {
            "caught"
        },
        barely.violations(),
    )
}

/// Theorem E.1 experiment (Figs. 15–17): enqueue+peek pair bound, honest
/// vs an accessor that answers too early.
#[must_use]
pub fn thm_e1(params: &Params) -> String {
    let honest_w = measure_single_op_latency(
        || Replica::group(Queue::<i64>::new(), params),
        params,
        p(0),
        QueueOp::Enqueue(7),
    );
    let honest_family = pair_enqueue_peek_family(params, honest_w);
    let honest = probe(&honest_family, || {
        Replica::group(Queue::<i64>::new(), params)
    });

    let fast_wait = SimDuration::from_ticks(1_000.min(params.d().as_ticks() / 4));
    let make_foil = || eager_accessor_group(Queue::<i64>::new(), params, fast_wait);
    let foil_w = measure_single_op_latency(make_foil, params, p(0), QueueOp::Enqueue(7));
    let foil_family = pair_enqueue_peek_family(params, foil_w);
    let foil = probe(&foil_family, make_foil);

    format!(
        "Theorem E.1 (|enqueue| + |peek| ≥ d + min{{eps,u,d/3}} = {}):\n\
           Algorithm 1 (sum = d + 2eps = {}): {}\n\
           eager-peek foil (sum = {}): {} (violations: {:?})\n",
        Bound::DPlusM.eval(params).as_ticks(),
        Bound::Pair.eval(params).as_ticks(),
        if honest.all_passed() { "PASS" } else { "FAIL" },
        (foil_w + fast_wait).as_ticks(),
        if foil.all_passed() {
            "NOT caught (unexpected!)"
        } else {
            "caught"
        },
        foil.violations(),
    )
}

/// The §V.D trade-off series: sweep `X` and report `|MOP|`, `|AOP|` and
/// their (constant) sum `d + 2ε`.
#[must_use]
pub fn x_sweep(params: &Params, points: usize) -> String {
    let mut out = String::from(
        "X sweep (accessor/mutator trade-off; |MOP| + |AOP| = d + 2eps):\n\
                X   |MOP| meas  (eps+X)   |AOP| meas  (d+eps-X)      sum\n",
    );
    let max_x = params.max_x().as_ticks();
    for i in 0..points {
        let x = SimDuration::from_ticks(max_x * i as u64 / (points as u64 - 1).max(1));
        let p_x = params.with_x(x).expect("x within range");
        let mop = measure_single_op_latency(
            || Replica::group(RmwRegister::default(), &p_x),
            &p_x,
            p(0),
            RmwOp::Write(1),
        );
        let aop = measure_single_op_latency(
            || Replica::group(RmwRegister::default(), &p_x),
            &p_x,
            p(0),
            RmwOp::Read,
        );
        out.push_str(&format!(
            "  {:>6}   {:>8}    {:>6}     {:>8}    {:>8}    {:>6}\n",
            x.as_ticks(),
            mop.as_ticks(),
            Bound::Mop.eval(&p_x).as_ticks(),
            aop.as_ticks(),
            Bound::Aop.eval(&p_x).as_ticks(),
            (mop + aop).as_ticks(),
        ));
    }
    out
}

/// The automatic bound derivation (Chapter II ⇒ Chapter VI): classify
/// each object's operation groups over probe sets and derive the table
/// rows, flagging where the derivation differs from the thesis's claims.
#[must_use]
pub fn derivation(params: &Params) -> String {
    use skewbound_core::analysis::{analyze_group, analyze_pair, OpGroup};
    use skewbound_spec::probes;

    let mut out = String::from(
        "Derived bounds (classification ⇒ table rows), evaluated at the default params:\n",
    );

    let fmt_group = |out: &mut String, a: &skewbound_core::analysis::GroupAnalysis| {
        out.push_str(&format!(
            "  {:<22} class={:?} sINSC={} lastPerm={} overwrite={}  LB {} = {:?}  UB {} = {}\n",
            a.name,
            a.class,
            a.strongly_insc,
            a.last_permuting,
            a.overwriter,
            a.lower.map_or("-", Bound::text),
            a.lower.map(|b| b.eval(params).as_ticks()),
            a.upper.text(),
            a.upper.eval(params).as_ticks(),
        ));
    };
    let fmt_pair = |out: &mut String, a: &skewbound_core::analysis::PairAnalysis, claimed: &str| {
        out.push_str(&format!(
            "  {:<22} E.1 hypotheses witnessed: {:<5}  derived pair LB {} = {} (thesis claims {})\n",
            format!("{} + {}", a.mutator, a.accessor),
            a.e1_witnessed,
            a.lower.text(),
            a.lower.eval(params).as_ticks(),
            claimed,
        ));
    };

    out.push_str("register:\n");
    let reg = RmwRegister::default();
    let reg_states = probes::register_states();
    fmt_group(
        &mut out,
        &analyze_group(
            &reg,
            &reg_states,
            &OpGroup::new("write", probes::register_writes(3)),
        ),
    );
    fmt_group(
        &mut out,
        &analyze_group(
            &reg,
            &reg_states,
            &OpGroup::new(
                "read-modify-write",
                vec![RmwOp::Rmw(RmwKind::Swap(1)), RmwOp::Rmw(RmwKind::Swap(2))],
            ),
        ),
    );
    fmt_group(
        &mut out,
        &analyze_group(&reg, &reg_states, &OpGroup::new("read", vec![RmwOp::Read])),
    );
    fmt_pair(
        &mut out,
        &analyze_pair(
            &reg,
            &reg_states,
            &OpGroup::new("write", probes::register_writes(3)),
            &OpGroup::new("read", vec![RmwOp::Read]),
        ),
        Bound::D.text(),
    );

    out.push_str("queue:\n");
    let q: Queue<i64> = Queue::new();
    let q_states = probes::queue_states();
    fmt_group(
        &mut out,
        &analyze_group(
            &q,
            &q_states,
            &OpGroup::new("enqueue", probes::queue_enqueues(3)),
        ),
    );
    fmt_pair(
        &mut out,
        &analyze_pair(
            &q,
            &q_states,
            &OpGroup::new("enqueue", probes::queue_enqueues(3)),
            &OpGroup::new("peek", vec![QueueOp::Peek]),
        ),
        "d + m",
    );

    out.push_str("stack:\n");
    let st: Stack<i64> = Stack::new();
    let st_states = probes::stack_states();
    fmt_pair(
        &mut out,
        &analyze_pair(
            &st,
            &st_states,
            &OpGroup::new("push", probes::stack_pushes(3)),
            &OpGroup::new("peek", vec![StackOp::Peek]),
        ),
        "d + m  [FINDING: top-peek fails hypothesis A]",
    );
    fmt_pair(
        &mut out,
        &analyze_pair(
            &st,
            &st_states,
            &OpGroup::new("push", probes::stack_pushes(3)),
            &OpGroup::new("peek/len", vec![StackOp::Peek, StackOp::Len]),
        ),
        "d + m  [mixed accessor pool restores the witness]",
    );

    out.push_str("tree:\n");
    let tree = Tree::new();
    let t_states = probes::tree_states();
    fmt_pair(
        &mut out,
        &analyze_pair(
            &tree,
            &t_states,
            &OpGroup::new(
                "insert",
                vec![
                    TreeOp::Insert { node: 5, parent: 0 },
                    TreeOp::Insert { node: 6, parent: 5 },
                    TreeOp::Insert { node: 7, parent: 0 },
                ],
            ),
            &OpGroup::new(
                "depth/search",
                vec![
                    TreeOp::Depth,
                    TreeOp::Search { node: 5 },
                    TreeOp::Search { node: 6 },
                    TreeOp::Search { node: 7 },
                ],
            ),
        ),
        "d + m  [FINDING: silent no-op inserts fail hypothesis A]",
    );

    out
}

/// Ablation: is the full `To_Execute` hold of `u + ε` really necessary,
/// and is the `d − u` self-add wait? Sweep both as fractions of their
/// honest values and run the Theorem C.1 family: anything short must
/// eventually violate linearizability.
#[must_use]
pub fn ablation_timers(params: &Params) -> String {
    use skewbound_core::replica::TimerProfile;

    let family = insc_dequeue_family(params);
    let honest = TimerProfile::from_params(params);
    let mut out = String::from(
        "Timer ablation (Theorem C.1 family, dequeue):\n\
           hold%  self-add%   worst dequeue   verdict\n",
    );
    for (hold_pct, self_add_pct) in [
        (100u64, 100u64),
        (90, 100),
        (50, 100),
        (25, 100),
        (100, 50),
        (100, 10),
        (50, 50),
    ] {
        let profile = TimerProfile {
            hold: honest.hold.mul_frac(hold_pct, 100),
            self_add: honest.self_add.mul_frac(self_add_pct, 100),
            ..honest
        };
        let report = probe(&family, || {
            Replica::group_with_profile(Queue::<i64>::new(), params, profile)
        });
        out.push_str(&format!(
            "  {:>4}   {:>8}   {:>13}   {}\n",
            hold_pct,
            self_add_pct,
            report.max_latency().map_or(0, |l| l.as_ticks()),
            if report.all_passed() {
                "linearizable".to_string()
            } else {
                format!("VIOLATION in {:?}", report.violations())
            },
        ));
    }
    out
}

/// Scaling series: how the bounds move with the system size `n` at the
/// optimal skew `ε = (1 − 1/n)u` — mutators get slower as `n` grows
/// (skew grows toward `u`) while accessors barely move.
#[must_use]
pub fn n_sweep(d: SimDuration, u: SimDuration, max_n: usize) -> String {
    let mut out = String::from(
        "n sweep at optimal skew (X = 0):\n\
           n    eps=(1-1/n)u   |MOP|=eps   |AOP|=d+eps   |OOP|<=d+eps   2d baseline\n",
    );
    for n in 2..=max_n {
        let p = Params::with_optimal_skew(n, d, u, SimDuration::ZERO).expect("valid");
        out.push_str(&format!(
            "  {:>2}   {:>12}   {:>9}   {:>11}   {:>12}   {:>11}\n",
            n,
            p.eps().as_ticks(),
            Bound::Mop.eval(&p).as_ticks(),
            Bound::Aop.eval(&p).as_ticks(),
            Bound::Oop.eval(&p).as_ticks(),
            bounds::ub_centralized(&p).as_ticks(),
        ));
    }
    out
}

/// Clock drift (Chapter VII future work): sweep the drift rate ρ and
/// report whether Algorithm 1 stays linearizable over a fixed horizon.
#[must_use]
pub fn drift_experiment(params: &Params, horizon_ops: usize) -> String {
    use skewbound_lin::checker::check_history;

    let run = |rho_thousandths: u64| -> bool {
        let mut clocks = ClockAssignment::zero(params.n());
        clocks.set_rate(p(0), 1_000 + rho_thousandths, 1_000);
        clocks.set_rate(p(1), 1_000 - rho_thousandths, 1_000);
        let mut sim = Simulation::new(
            Replica::group(RmwRegister::default(), params),
            clocks,
            FixedDelay::maximal(params.delay_bounds()),
        );
        let gap = SimDuration::from_ticks(1_800);
        let mut t = skewbound_sim::time::SimTime::ZERO;
        for i in 0..horizon_ops {
            sim.schedule_invoke(p((i % 2) as u32), t, RmwOp::Write(i as i64 + 1));
            t += gap;
        }
        for (j, pid) in ProcessId::all(params.n()).enumerate() {
            sim.schedule_invoke(pid, t + params.d() * (2 + 4 * j as u64), RmwOp::Read);
        }
        sim.run().expect("drift run");
        check_history(&RmwRegister::default(), sim.history()).is_linearizable()
    };

    let horizon_ticks = 1_800 * horizon_ops as u64;
    let mut out = format!(
        "Clock drift sweep (future work; horizon {horizon_ops} writes ≈ {horizon_ticks} ticks, eps = {}):\n\
           rho        accumulated skew   verdict\n",
        params.eps().as_ticks()
    );
    for rho in [0u64, 1, 5, 10, 20, 50] {
        let skew = 2 * rho * horizon_ticks / 1_000;
        out.push_str(&format!(
            "  {:>4}.{}%   {:>16}   {}\n",
            rho / 10,
            rho % 10,
            skew,
            if run(rho) {
                "linearizable"
            } else {
                "VIOLATION (drift exceeded the skew budget)"
            },
        ));
    }
    out
}

/// The clock-synchronization premise: achieved skew vs `(1 − 1/n)u`,
/// with the pessimistic (assume-delay-`d`) strategy as the comparison
/// point showing why the midpoint assumption matters.
#[must_use]
pub fn skew_experiment(d: SimDuration, u: SimDuration, max_n: usize) -> String {
    use skewbound_clocksync::{run_sync_round_with, SyncStrategy};

    let bounds = skewbound_sim::delay::DelayBounds::new(d, u);
    let mut out = String::from(
        "Clock synchronization (Lundelius-Lynch round):\n\
           n    initial skew    midpoint    pessimistic    optimal (1-1/n)u\n",
    );
    for n in 2..=max_n {
        let clocks = ClockAssignment::spread(n, SimDuration::from_ticks(1_000_000));
        let outcome = run_sync_round(&clocks, bounds, n as u64);
        let naive = run_sync_round_with(&clocks, bounds, n as u64, SyncStrategy::Pessimistic);
        out.push_str(&format!(
            "  {:>2}    {:>12}    {:>8}    {:>11}    {:>16}\n",
            n,
            outcome.initial_skew.as_ticks(),
            outcome.achieved_skew.as_ticks(),
            naive.achieved_skew.as_ticks(),
            optimal_skew(n, u).as_ticks(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(2_400),
            SimDuration::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn fig1_report_shows_violation_and_fix() {
        let text = fig1(&params());
        assert!(
            text.contains("NOT linearizable (as the paper argues)"),
            "{text}"
        );
        assert!(
            text.contains("Algorithm 1:                 read returned Some(Value(1))"),
            "{text}"
        );
        assert!(!text.contains("unexpected"), "{text}");
    }

    #[test]
    fn theorem_reports_have_expected_verdicts() {
        let p = params();
        let c1 = thm_c1(&p);
        assert!(c1.contains("PASS") && !c1.contains("unexpected"), "{c1}");
        let d1 = thm_d1(&p, 3);
        assert!(d1.contains("PASS") && !d1.contains("unexpected"), "{d1}");
        let e1 = thm_e1(&p);
        assert!(e1.contains("PASS") && !e1.contains("unexpected"), "{e1}");
    }

    #[test]
    fn ablation_shows_violations_for_short_timers() {
        let text = ablation_timers(&params());
        // The honest row passes…
        assert!(
            text.lines().nth(2).unwrap().contains("linearizable"),
            "{text}"
        );
        // …and at least one shortened row is caught.
        assert!(text.contains("VIOLATION"), "{text}");
    }

    #[test]
    fn n_sweep_mutators_slow_with_n() {
        let text = n_sweep(
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(2_400),
            6,
        );
        assert!(text.contains("1200"), "{text}"); // n=2: eps = u/2
        assert!(text.contains("2000"), "{text}"); // n=6: eps = 5u/6
    }

    #[test]
    fn x_sweep_sum_is_constant() {
        let text = x_sweep(&params(), 4);
        // Sum column = d + 2eps = 9000 + 3200 = 12200 on every line.
        let count = text.matches("12200").count();
        assert!(count >= 4, "{text}");
    }

    #[test]
    fn skew_experiment_reports_bound() {
        let text = skew_experiment(
            SimDuration::from_ticks(10_000),
            SimDuration::from_ticks(2_000),
            5,
        );
        assert!(text.contains("optimal"));
        assert!(text.lines().count() >= 6);
        // `(1 − 1/n)u` rounds *up*: a floor would understate the skew
        // budget the sync round has to meet. n=3, u=2000 → ⌈4000/3⌉.
        assert!(text.contains("1334"), "{text}");
        assert_eq!(
            optimal_skew(3, SimDuration::from_ticks(2_000)).as_ticks(),
            1_334
        );
    }
}
