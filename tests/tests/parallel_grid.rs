//! The parallel grid runner must be an invisible optimization: toggling
//! `SKEWBOUND_THREADS` must not change any result, a value of it that is
//! not a worker count must be an error, and a panicking job must surface
//! as a panic, not a hang or a dropped run.
//!
//! These tests mutate process environment variables, so they run as a
//! single `#[test]` (this file is its own test binary; within a binary
//! the test harness would interleave env mutations across threads).

use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_mc::{model_check, McConfig, McReport};
use skewbound_shift::probe::probe;
use skewbound_shift::scenarios::insc_dequeue_family;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::par;
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

/// The queue corner grid under the model checker, its worker count taken
/// from the environment.
fn corner_report(params: &Params) -> McReport {
    let p = ProcessId::new;
    let t = SimTime::from_ticks;
    let script = vec![
        (p(2), t(0), QueueOp::Enqueue(42)),
        (p(0), t(40_000), QueueOp::Dequeue),
        (p(1), t(41_000), QueueOp::Dequeue),
    ];
    let config = McConfig::corners(params, probes::queue_states());
    model_check(
        &Queue::<i64>::new(),
        || Replica::group(Queue::<i64>::new(), params),
        params,
        &script,
        &config,
    )
}

fn probe_fingerprint(params: &Params) -> Vec<(String, bool, Option<u64>)> {
    let family = insc_dequeue_family(params);
    let report = probe(&family, || Replica::group(Queue::<i64>::new(), params));
    report
        .reports
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.passed(),
                r.max_latency.map(|d| d.as_ticks()),
            )
        })
        .collect()
}

#[test]
fn parallel_results_match_sequential_and_panics_surface() {
    let params = params();

    // A mistyped worker count is an error naming the variable, not a
    // silent fall-back to one worker per core.
    std::env::set_var("SKEWBOUND_THREADS", "four");
    let typo = std::panic::catch_unwind(|| par::worker_count(64));
    let msg = *typo
        .expect_err("SKEWBOUND_THREADS=four must be rejected")
        .downcast::<String>()
        .expect("the error is a message");
    assert!(msg.contains("SKEWBOUND_THREADS"), "got: {msg}");

    // Sequential reference.
    std::env::set_var("SKEWBOUND_THREADS", "1");
    assert_eq!(
        par::worker_count(64),
        1,
        "SKEWBOUND_THREADS=1 must force 1 worker"
    );
    let seq_corners = corner_report(&params);
    let seq_probe = probe_fingerprint(&params);

    // Parallel: force a multi-worker pool even on single-core machines.
    std::env::set_var("SKEWBOUND_THREADS", "4");
    assert_eq!(
        par::worker_count(64),
        4,
        "SKEWBOUND_THREADS=4 must force 4 workers"
    );
    let par_corners = corner_report(&params);
    let par_probe = probe_fingerprint(&params);

    assert_eq!(seq_corners.workers, 1);
    assert_eq!(par_corners.workers, 4);
    assert!(
        seq_corners.same_results(&par_corners),
        "corner grid must be deterministic:\n  {seq_corners:?}\nvs\n  {par_corners:?}"
    );
    assert_eq!(seq_probe, par_probe, "scenario probe must be deterministic");
    assert_eq!(seq_corners.cells, 448, "corner space is 2^6 x 7 cells");
    assert!(seq_corners.all_passed(), "{:?}", seq_corners.violations);

    // A panicking job surfaces as a panic carrying the job's message,
    // and the pool shuts down cleanly (no hang, no abort), whether the
    // worker loop runs inline or on a pool.
    let jobs: Vec<u32> = (0..64).collect();
    for threads in ["1", "4"] {
        std::env::set_var("SKEWBOUND_THREADS", threads);
        let caught = std::panic::catch_unwind(|| {
            par::run_grid(&jobs, |_, &j| {
                assert!(j != 40, "job 40 exploded");
                j
            })
        });
        let msg = *caught
            .expect_err("panic must propagate to the caller")
            .downcast::<String>()
            .expect("panic payload is the job's message");
        assert!(
            msg.contains("grid job 40 panicked: job 40 exploded"),
            "SKEWBOUND_THREADS={threads}, got: {msg}"
        );
    }

    std::env::remove_var("SKEWBOUND_THREADS");
}
