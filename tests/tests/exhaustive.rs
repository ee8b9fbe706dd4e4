//! Integration-level exhaustive exploration: every delay/clock corner of
//! small register and queue scenarios, for both the honest algorithm and
//! a foil, through the model checker's corner grid.

use skewbound_core::foils::eager_group;
use skewbound_core::replica::Replica;
use skewbound_integration::default_params;
use skewbound_mc::{model_check, McConfig};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimTime;
use skewbound_spec::prelude::*;
use skewbound_spec::probes;

#[test]
fn register_write_write_read_corner_space() {
    // Two sequential writes then a read on a third process: the Fig. 1
    // shape. 2 broadcasts × 2 peers = 4 messages (reads do not
    // broadcast) → 2^4 × 7 clocks = 112 admissible corner cells;
    // Algorithm 1 must be linearizable in every run of every one.
    let params = default_params();
    let p = ProcessId::new;
    let t = SimTime::from_ticks;
    let script = vec![
        (p(0), t(0), RmwOp::Write(1)),
        (p(1), t(30_000), RmwOp::Write(2)),
        (p(2), t(60_000), RmwOp::Read),
    ];
    let config = McConfig::corners(&params, probes::register_states());
    let report = model_check(
        &RmwRegister::default(),
        || Replica::group(RmwRegister::default(), &params),
        &params,
        &script,
        &config,
    );
    assert_eq!(report.messages, 4);
    assert_eq!(report.cells, 16 * 7);
    assert_eq!(report.off_space, 0);
    assert!(report.all_passed(), "violations: {:?}", report.violations);
}

#[test]
fn foil_fails_inside_the_same_corner_space() {
    // The half-timer foil's dequeue beats the Theorem C.1 bound; with
    // concurrent dequeues the corner space contains runs that expose it.
    let params = default_params();
    let p = ProcessId::new;
    let t = SimTime::from_ticks;
    let script = vec![
        (p(2), t(0), QueueOp::Enqueue(7)),
        (p(0), t(40_000), QueueOp::Dequeue),
        (p(1), t(40_500), QueueOp::Dequeue),
    ];
    let config = McConfig::corners(&params, probes::queue_states());
    let honest = model_check(
        &Queue::<i64>::new(),
        || Replica::group(Queue::<i64>::new(), &params),
        &params,
        &script,
        &config,
    );
    assert_eq!(honest.off_space, 0);
    assert!(honest.all_passed(), "violations: {:?}", honest.violations);
    let foil = model_check(
        &Queue::<i64>::new(),
        || eager_group(Queue::<i64>::new(), &params, 1, 2),
        &params,
        &script,
        &config,
    );
    assert_eq!(foil.off_space, 0);
    assert!(
        !foil.violations.is_empty(),
        "the corner space must contain a run exposing the foil"
    );
}
