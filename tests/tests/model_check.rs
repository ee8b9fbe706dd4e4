//! Full-stack exercises of the `skewbound-mc` model checker: honest
//! implementations survive complete small-scope exploration, foils are
//! caught with minimized replay-confirmed certificates, and the DPOR
//! reduction is measured against the naive interleaving baseline on the
//! register, the queue and the stack.

use std::cell::RefCell;
use std::rc::Rc;

use skewbound_core::foils::{eager_group, LocalFirstReplica};
use skewbound_core::replica::Replica;
use skewbound_integration::default_params;
use skewbound_mc::{
    certify, model_check, replay, validate_certificate, Independence, McConfig, McReport,
    ModelActor, ViolationKind,
};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimTime;
use skewbound_sim::trace::{Trace, TraceSink};
use skewbound_spec::prelude::*;
use skewbound_spec::probes;

fn pid(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn t(ticks: u64) -> SimTime {
    SimTime::from_ticks(ticks)
}

/// The register's script: two concurrent writes and a later read.
fn register_script() -> [(ProcessId, SimTime, RmwOp); 3] {
    [
        (pid(0), t(0), RmwOp::Write(1)),
        (pid(1), t(0), RmwOp::Write(2)),
        (pid(2), t(40_000), RmwOp::Read),
    ]
}

/// The queue's script: two concurrent enqueues and a later dequeue.
fn queue_script() -> [(ProcessId, SimTime, QueueOp<i64>); 3] {
    [
        (pid(0), t(0), QueueOp::Enqueue(1)),
        (pid(1), t(0), QueueOp::Enqueue(2)),
        (pid(2), t(40_000), QueueOp::Dequeue),
    ]
}

/// The stack's script: a push and, 200 ticks later, a pop elsewhere.
fn stack_script() -> [(ProcessId, SimTime, StackOp<i64>); 2] {
    [
        (pid(0), t(0), StackOp::Push(7)),
        (pid(1), t(200), StackOp::Pop),
    ]
}

/// Every delay corner, clock corner and delivery order of the honest
/// register, queue and stack must linearize and satisfy the protocol
/// invariants.
#[test]
fn honest_register_survives_full_exploration() {
    let p = default_params();
    let register = model_check(
        &RmwRegister::default(),
        || Replica::group(RmwRegister::default(), &p),
        &p,
        &register_script(),
        &McConfig::corners(&p, probes::register_states()),
    );
    let queue = model_check(
        &Queue::<i64>::new(),
        || Replica::group(Queue::<i64>::new(), &p),
        &p,
        &queue_script(),
        &McConfig::corners(&p, probes::queue_states()),
    );
    let stack = model_check(
        &Stack::<i64>::new(),
        || Replica::group(Stack::<i64>::new(), &p),
        &p,
        &stack_script(),
        &McConfig::corners(&p, probes::stack_states()),
    );
    for report in [&register, &queue, &stack] {
        assert!(report.all_passed(), "violations: {:?}", report.violations);
        assert!(
            report.schedules >= report.cells,
            "every cell runs at least once"
        );
    }
    // Two broadcasting mutators and a local read on the register; the
    // queue's dequeue and the stack's pop broadcast too.
    assert_eq!([&register, &queue, &stack].map(|r| r.messages), [4, 6, 4]);
    // Fixed values: a change to event identity, the delay digits or the
    // dependence relation moves them.
    assert_eq!(
        [register, queue, stack].map(|r| (r.cells, r.schedules, r.pruned, r.explored_states)),
        [
            (112, 3360, 2310, 18900),
            (448, 13440, 9240, 96600),
            (112, 112, 0, 1680)
        ]
    );
}

/// Explores one script under DPOR and under the naive independence
/// relation, capped at 20 000 schedules, on zero skew only (the naive
/// baseline must stay tractable).
fn dpor_and_naive<A, F>(
    spec: &A::Spec,
    make_actors: F,
    script: &[(ProcessId, SimTime, A::Op)],
    probe_states: Vec<<A::Spec as SequentialSpec>::State>,
) -> [McReport; 2]
where
    A: ModelActor,
    A::Spec: Clone + Sync,
    <A::Spec as SequentialSpec>::State: Sync,
    <A::Spec as SequentialSpec>::Op: Send + Sync,
    <A::Spec as SequentialSpec>::Resp: Send + Sync,
    F: Fn() -> Vec<A> + Sync,
{
    let p = default_params();
    let mut config = McConfig::corners(&p, probe_states);
    config.clock_choices.truncate(1);
    [
        (Independence::Dpor, 1_000_000),
        (Independence::Naive, 20_000),
    ]
    .map(|(independence, cap)| {
        let mut c = config.clone();
        c.independence = independence;
        c.max_schedules = cap;
        model_check(spec, &make_actors, &p, script, &c)
    })
}

/// On the register, the queue and the stack, the DPOR schedule count
/// must be strictly below the naive baseline, and pruning must not
/// change the verdict.
#[test]
fn dpor_beats_naive_interleaving_and_agrees() {
    let p = default_params();
    let runs = [
        dpor_and_naive(
            &RmwRegister::default(),
            || Replica::group(RmwRegister::default(), &p),
            &register_script(),
            probes::register_states(),
        ),
        dpor_and_naive(
            &Queue::<i64>::new(),
            || Replica::group(Queue::<i64>::new(), &p),
            &queue_script(),
            probes::queue_states(),
        ),
        dpor_and_naive(
            &Stack::<i64>::new(),
            || Replica::group(Stack::<i64>::new(), &p),
            &stack_script(),
            probes::stack_states(),
        ),
    ];
    for [dpor, naive] in &runs {
        assert!(dpor.all_passed(), "violations: {:?}", dpor.violations);
        // A capped naive count is still a strict lower bound on the
        // naive schedule space, which DPOR exists to avoid enumerating.
        assert!(
            naive.violations.is_empty() && naive.unknown == 0,
            "violations: {:?}",
            naive.violations
        );
        assert!(
            dpor.schedules < naive.schedules,
            "DPOR must explore strictly fewer schedules: {} vs {}",
            dpor.schedules,
            naive.schedules
        );
    }
    // Fixed values for both modes: a change to event identity or to the
    // dependence relation moves them.
    assert_eq!(
        runs.map(|pair| pair.map(|r| (r.cells, r.schedules, r.pruned, r.explored_states))),
        [
            [(16, 480, 330, 2700), (1, 20000, 0, 360000)],
            [(64, 1920, 1320, 13800), (1, 20000, 0, 460000)],
            [(16, 16, 0, 240), (16, 2304, 0, 34560)],
        ]
    );
}

/// The local-first foil acknowledges writes before agreement; the
/// explorer must catch it and the certificate pipeline must produce a
/// minimized, schema-valid, replay-confirmed document.
#[test]
fn local_first_foil_yields_a_minimized_certificate() {
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::register_states());
    config.stop_at_first_violation = true;
    let script = [
        (pid(0), t(0), RegOp::Write(1)),
        (pid(1), t(100), RegOp::Read),
    ];
    let spec = RwRegister::<i64>::default();
    let make = || LocalFirstReplica::group(RwRegister::<i64>::default(), p.n());
    let report = model_check(&spec, make, &p, &script, &config);
    let violation = report.violations.first().expect("foil must be caught");
    assert_eq!(violation.kind, ViolationKind::NotLinearizable);

    let cert = certify(
        &spec,
        &make,
        &p,
        &script,
        &config,
        violation,
        "register",
        "local-first",
        &report,
    );
    assert!(cert.minimized);
    assert!(cert.replay_confirmed, "minimized coordinate must reproduce");
    assert!(
        cert.schedule_choices.is_empty(),
        "this foil fails under default scheduling; minimization must \
         discard every schedule choice, got {:?}",
        cert.schedule_choices
    );
    assert!(
        cert.delay_ticks.iter().all(|&d| d == p.d().as_ticks()),
        "minimization resets delays to the default d"
    );
    validate_certificate(&cert.to_json()).expect("certificate must satisfy its schema");
}

/// The eager-timer foil (Algorithm 1 with halved waits) responds before
/// the delivery horizon; the corner grid must expose it and the
/// certificate must validate.
#[test]
fn eager_timer_foil_is_caught_and_certified() {
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::queue_states());
    config.stop_at_first_violation = true;
    let script = [
        (pid(2), t(0), QueueOp::Enqueue(7)),
        (pid(0), t(40_000), QueueOp::Dequeue),
        (pid(1), t(40_500), QueueOp::Dequeue),
    ];
    let spec = Queue::<i64>::new();
    let make = || eager_group(Queue::<i64>::new(), &p, 1, 2);
    let report = model_check(&spec, make, &p, &script, &config);
    let violation = report.violations.first().expect("foil must be caught");

    let cert = certify(
        &spec,
        &make,
        &p,
        &script,
        &config,
        violation,
        "queue",
        "eager-timers",
        &report,
    );
    assert!(cert.replay_confirmed);
    let text = cert.to_json();
    validate_certificate(&text).expect("certificate must satisfy its schema");
    assert!(text.contains("\"schema\": \"skewbound-certificate/v1\""));

    // A sink observes the replay; it does not steer it.
    let replay_into = |sink: Option<Box<dyn TraceSink>>| {
        replay(
            &spec,
            &make,
            &p,
            &script,
            &config,
            violation.clock_idx,
            &violation.delay_digits,
            &violation.choices,
            sink,
        )
    };
    let trace = Rc::new(RefCell::new(Trace::new()));
    let traced = replay_into(Some(Box::new(Rc::clone(&trace))));
    let plain = replay_into(None);
    assert!(!trace.borrow().is_empty());
    assert_eq!(traced.verdict, plain.verdict);
    assert_eq!(traced.choices(), plain.choices());
    assert_eq!(traced.choices(), violation.choices);
}

/// The benchmark's `mc-register` shape: the default parameters (those of
/// the benchmark) and two waves of three concurrent register operations,
/// one per process, explored over the whole corner grid.
/// Capped at 20 000 schedules, the counts are fixed values: a change to
/// the exploration order, the sleep sets or event identity moves them.
#[test]
fn mc_register_script_pins_its_capped_counts() {
    let p = default_params();
    let script = [
        (pid(0), t(0), RmwOp::Write(11)),
        (pid(1), t(0), RmwOp::Write(22)),
        (pid(2), t(0), RmwOp::Read),
        (pid(0), t(40_000), RmwOp::Read),
        (pid(1), t(40_000), RmwOp::Write(33)),
        (pid(2), t(40_000), RmwOp::Write(44)),
    ];
    let mut config = McConfig::corners(&p, probes::register_states());
    config.max_schedules = 20_000;
    let report = model_check(
        &RmwRegister::default(),
        || Replica::group(RmwRegister::default(), &p),
        &p,
        &script,
        &config,
    );
    assert!(report.capped);
    assert!(report.violations.is_empty() && report.unknown == 0);
    assert_eq!(
        (
            report.cells,
            report.schedules,
            report.pruned,
            report.explored_states
        ),
        (1, 20_000, 15_996, 144_144)
    );
}
