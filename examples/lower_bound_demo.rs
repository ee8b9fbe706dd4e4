//! The lower bounds, live: run the adversarial schedules from the
//! thesis's proofs against (a) Algorithm 1 and (b) implementations that
//! respond faster than the bounds allow. The linearizability checker
//! catches every foil; the honest implementation survives everything.
//!
//! ```text
//! cargo run -p skewbound-examples --bin lower_bound_demo
//! ```

use skewbound_core::bounds::Bound;
use skewbound_core::foils::{eager_accessor_group, eager_group, fast_mutator_group};
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_shift::probe::{measure_single_op_latency, probe};
use skewbound_shift::scenarios::{
    insc_dequeue_family, pair_enqueue_peek_family, permute_write_family,
};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimDuration;
use skewbound_spec::prelude::*;

fn verdict(passed: bool) -> &'static str {
    if passed {
        "linearizable in every run"
    } else {
        "CAUGHT violating linearizability"
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_400),
        SimDuration::ZERO,
    )?;
    println!("{params}\n");

    // ------------------------------------------------------------------
    // Theorem C.1: dequeue needs d + min{eps, u, d/3}.
    // ------------------------------------------------------------------
    println!(
        "Theorem C.1 — dequeue lower bound d + min{{eps,u,d/3}} = {}:",
        Bound::DPlusM.eval(&params).as_ticks()
    );
    let family = insc_dequeue_family(&params);
    let honest = probe(&family, || Replica::group(Queue::<i64>::new(), &params));
    println!(
        "  honest (responds in d + eps): {}",
        verdict(honest.all_passed())
    );
    let foil = probe(&family, || eager_group(Queue::<i64>::new(), &params, 1, 2));
    println!(
        "  half-timers foil (responds in (d + eps)/2): {} {:?}",
        verdict(foil.all_passed()),
        foil.violations()
    );
    assert!(honest.all_passed() && !foil.all_passed());

    // ------------------------------------------------------------------
    // Theorem D.1: write needs (1 - 1/k)u.
    // ------------------------------------------------------------------
    let lb = Bound::PermuteN.eval(&params);
    println!(
        "\nTheorem D.1 — write lower bound (1 - 1/n)u = {}:",
        lb.as_ticks()
    );
    let family = permute_write_family(&params, params.n());
    let honest = probe(&family, || Replica::group(RmwRegister::default(), &params));
    println!(
        "  honest (acks in eps + X): {}",
        verdict(honest.all_passed())
    );
    let foil = probe(&family, || {
        fast_mutator_group(
            RmwRegister::default(),
            &params,
            lb - SimDuration::from_ticks(1),
        )
    });
    println!(
        "  one-tick-under foil: {} {:?}",
        verdict(foil.all_passed()),
        foil.violations()
    );
    assert!(honest.all_passed() && !foil.all_passed());

    // ------------------------------------------------------------------
    // Theorem E.1: enqueue + peek needs d + min{eps, u, d/3} in total.
    // ------------------------------------------------------------------
    println!(
        "\nTheorem E.1 — |enqueue| + |peek| lower bound {}:",
        Bound::DPlusM.eval(&params).as_ticks()
    );
    let honest_w = measure_single_op_latency(
        || Replica::group(Queue::<i64>::new(), &params),
        &params,
        ProcessId::new(0),
        QueueOp::Enqueue(1),
    );
    let honest = probe(&pair_enqueue_peek_family(&params, honest_w), || {
        Replica::group(Queue::<i64>::new(), &params)
    });
    println!(
        "  honest (sum = d + 2eps = {}): {}",
        Bound::Pair.eval(&params).as_ticks(),
        verdict(honest.all_passed())
    );
    let make_foil =
        || eager_accessor_group(Queue::<i64>::new(), &params, SimDuration::from_ticks(500));
    let foil_w =
        measure_single_op_latency(make_foil, &params, ProcessId::new(0), QueueOp::Enqueue(1));
    let foil = probe(&pair_enqueue_peek_family(&params, foil_w), make_foil);
    println!(
        "  eager-peek foil (sum = {}): {} {:?}",
        (foil_w + SimDuration::from_ticks(500)).as_ticks(),
        verdict(foil.all_passed()),
        foil.violations()
    );
    assert!(honest.all_passed() && !foil.all_passed());

    println!("\nevery too-fast implementation was caught; Algorithm 1 passed everything");
    Ok(())
}
