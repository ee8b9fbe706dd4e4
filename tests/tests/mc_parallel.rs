//! Thread-count determinism of the parallel model checker: the
//! work-stealing frontier must produce bit-identical reports and
//! certificates at 1, 2 and 8 workers, and a schedule budget must cut
//! at the same canonical coordinate at every worker count. The
//! grid-arithmetic panics of the sequential explorer (u64 overflow on
//! wide delay grids, process-aborting send-order divergence) must
//! surface as `capped` reports and structured violations, a run that
//! leaves the enumerated delay space must fail the report, and the
//! delay grid has one dimension per delay draw.

use std::cell::RefCell;
use std::rc::Rc;

use skewbound_core::foils::LocalFirstReplica;
use skewbound_core::replica::Replica;
use skewbound_integration::default_params;
use skewbound_mc::{
    certify, model_check, validate_certificate, McConfig, McReport, ModelActor, ViolationKind,
};
use skewbound_shift::exhaustive::EnumeratedDelay;
use skewbound_sim::actor::{Actor, Context};
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::engine::Simulation;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimTime;
use skewbound_sim::trace::Trace;
use skewbound_spec::prelude::*;
use skewbound_spec::probes;

fn pid(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn t(ticks: u64) -> SimTime {
    SimTime::from_ticks(ticks)
}

fn register_script() -> Vec<(ProcessId, SimTime, RmwOp)> {
    vec![
        (pid(0), t(0), RmwOp::Write(1)),
        (pid(1), t(0), RmwOp::Write(2)),
        (pid(2), t(40_000), RmwOp::Read),
    ]
}

fn register_report(workers: Option<usize>, max_schedules: u64) -> McReport {
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::register_states());
    config.clock_choices.truncate(3);
    config.workers = workers;
    config.max_schedules = max_schedules;
    model_check(
        &RmwRegister::default(),
        || Replica::group(RmwRegister::default(), &p),
        &p,
        &register_script(),
        &config,
    )
}

/// The honest register explored at 1, 2 and 8 workers: every
/// deterministic report field must match the single-threaded run
/// exactly.
#[test]
fn thread_counts_produce_identical_reports() {
    let baseline = register_report(Some(1), 1_000_000);
    assert!(
        baseline.all_passed(),
        "violations: {:?}",
        baseline.violations
    );
    assert!(baseline.explored_states > 0, "events are counted");
    for workers in [2, 8] {
        let report = register_report(Some(workers), 1_000_000);
        assert!(
            report.same_results(&baseline),
            "workers={workers} diverged:\n  {report:?}\nvs baseline\n  {baseline:?}"
        );
        assert_eq!(report.workers, workers, "advisory worker count is recorded");
    }
}

/// The local-first register foil certified at 1, 2 and 8 workers: the
/// emitted `skewbound-certificate/v1` JSON must be byte-identical, i.e.
/// every worker count finds the same lexicographically-least violating
/// coordinate.
#[test]
fn foil_certificates_are_byte_identical_across_workers() {
    let p = default_params();
    let script = [
        (pid(0), t(0), RegOp::Write(1)),
        (pid(1), t(100), RegOp::Read),
    ];
    let mut texts = Vec::new();
    for workers in [1usize, 2, 8] {
        let mut config = McConfig::corners(&p, probes::register_states());
        config.stop_at_first_violation = true;
        config.workers = Some(workers);
        let make = || LocalFirstReplica::group(RwRegister::<i64>::default(), p.n());
        let report = model_check(&RwRegister::<i64>::default(), make, &p, &script, &config);
        let violation = report
            .violations
            .first()
            .unwrap_or_else(|| panic!("workers={workers}: foil not caught"));
        let cert = certify(
            &RwRegister::<i64>::default(),
            &make,
            &p,
            &script,
            &config,
            violation,
            "register",
            "local-first",
            &report,
        );
        let text = cert.to_json();
        validate_certificate(&text).expect("certificate is schema-valid");
        texts.push((workers, text));
    }
    let (_, baseline) = &texts[0];
    for (workers, text) in &texts[1..] {
        assert_eq!(
            text, baseline,
            "workers={workers} produced a different certificate"
        );
    }
}

/// A capped exploration must cut at the same canonical coordinate at
/// every worker count. The counts are fixed values that pin where each
/// cut lands: all three budgets stop inside the first cell's schedule
/// tree, which the frontier splits into subtrees, so the merge walk
/// must absorb or re-explore each subtree against the exact remainder.
/// The uncapped row pins the whole grid.
#[test]
fn capped_exploration_is_deterministic_across_threads() {
    for (budget, expected) in [
        (25, (1, 25, 12, 234, true)),
        (37, (1, 37, 21, 288, true)),
        (60, (1, 60, 38, 396, true)),
        (1_000_000, (48, 1440, 990, 8100, false)),
    ] {
        let baseline = register_report(Some(1), budget);
        assert_eq!(
            (
                baseline.cells,
                baseline.schedules,
                baseline.pruned,
                baseline.explored_states,
                baseline.capped,
            ),
            expected,
            "budget {budget}: (cells, schedules, pruned, explored_states, capped)"
        );
        for workers in [2, 8] {
            let report = register_report(Some(workers), budget);
            assert!(
                report.same_results(&baseline),
                "budget {budget}, workers={workers} diverged"
            );
        }
    }
}

/// 2 delay choices × 64 messages used to overflow the `u64` cell count
/// and panic (`expect("delay grid exceeds u64")`). The lazy mixed-radix
/// counter must instead explore up to the schedule budget and report
/// `capped`.
#[test]
fn wide_delay_grid_caps_instead_of_panicking() {
    let p = default_params();
    let mut config = McConfig::corners(&p, probes::register_states());
    config.clock_choices.truncate(1);
    config.workers = Some(2);
    config.max_schedules = 40;
    // 32 staggered writes at n = 3: each write broadcasts to the other
    // two replicas, so one run sends 64 messages — a 2^64-cell grid.
    let script: Vec<(ProcessId, SimTime, RmwOp)> = (0..32)
        .map(|i| {
            (
                pid(i % 3),
                t(u64::from(i) * 2_000),
                RmwOp::Write(i64::from(i)),
            )
        })
        .collect();
    let report = model_check(
        &RmwRegister::default(),
        || Replica::group(RmwRegister::default(), &p),
        &p,
        &script,
        &config,
    );
    assert_eq!(report.messages, 64, "32 broadcasts to 2 peers each");
    assert!(report.capped, "2^64 cells cannot finish in 40 schedules");
    assert_eq!(report.schedules, 40);
}

/// An implementation whose send *order* depends on delays (p1 relays
/// p0's message to p2, racing a scripted broadcast from p2 — lifted from
/// `skewbound_shift::exhaustive`'s divergence test). The old explorer
/// aborted the process; it must now return a report carrying a single
/// `SendOrderDivergence` violation.
#[derive(Debug, Clone, Default)]
struct Relay;

impl Actor for Relay {
    type Msg = u8;
    type Op = u8;
    type Resp = u8;
    type Timer = ();

    fn on_invoke(&mut self, op: u8, ctx: &mut Context<'_, Self>) {
        match op {
            0 => ctx.send(ProcessId::new(1), 0),
            _ => ctx.broadcast(1),
        }
        ctx.respond(op);
    }

    fn on_message(&mut self, _from: ProcessId, msg: u8, ctx: &mut Context<'_, Self>) {
        if msg == 0 && ctx.pid() == ProcessId::new(1) {
            ctx.send(ProcessId::new(2), 2);
        }
    }

    fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
}

/// A permissive spec for [`Relay`]: any byte op echoes itself.
#[derive(Debug, Clone, Default)]
struct EchoSpec;

impl SequentialSpec for EchoSpec {
    type State = ();
    type Op = u8;
    type Resp = u8;

    fn initial(&self) -> Self::State {}

    fn apply(&self, (): &Self::State, op: &u8) -> (Self::State, u8) {
        ((), *op)
    }

    fn class(&self, _op: &u8) -> OpClass {
        OpClass::PureMutator
    }
}

impl ModelActor for Relay {
    type Spec = EchoSpec;

    fn payload_op(_msg: &u8) -> Option<&u8> {
        None
    }
}

#[test]
fn send_order_divergence_is_reported_not_panicked() {
    let p = default_params();
    let config = McConfig::corners(&p, vec![()]);
    // Under minimal delays (d − u = 6600) the relay's second-hop send
    // happens before p2's scripted broadcast at t = 8000; under maximal
    // delays (d = 9000) it happens after: the global send order
    // diverges.
    let script = [(pid(0), t(0), 0u8), (pid(2), t(8_000), 1u8)];
    let report = model_check(
        &EchoSpec,
        || vec![Relay, Relay, Relay],
        &p,
        &script,
        &config,
    );
    assert!(!report.all_passed());
    assert_eq!(report.schedules, 0, "no cell exploration under divergence");
    assert_eq!(report.violations.len(), 1);
    let violation = &report.violations[0];
    assert_eq!(violation.kind.label(), "send-order-divergence");
    assert!(
        matches!(&violation.kind, ViolationKind::SendOrderDivergence { detail }
            if detail.contains("send")),
        "diagnostic names the diverging send: {:?}",
        violation.kind
    );
}

/// An implementation whose send *count* depends on its clock: p0's
/// invocation broadcasts, plus one extra message to p1 when p0's clock
/// does not read zero. The send-order dry runs use the first clock
/// choice (zero skew), so every skewed clock cell requests one delay
/// more than its assignment covers.
#[derive(Debug, Clone, Default)]
struct ClockCounted;

impl Actor for ClockCounted {
    type Msg = u8;
    type Op = u8;
    type Resp = u8;
    type Timer = ();

    fn on_invoke(&mut self, op: u8, ctx: &mut Context<'_, Self>) {
        ctx.broadcast(op);
        if ctx.clock().as_ticks() != 0 {
            ctx.send(ProcessId::new(1), op);
        }
        ctx.respond(op);
    }

    fn on_message(&mut self, _from: ProcessId, _msg: u8, _ctx: &mut Context<'_, Self>) {}

    fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
}

impl ModelActor for ClockCounted {
    type Spec = EchoSpec;

    fn payload_op(_msg: &u8) -> Option<&u8> {
        None
    }
}

/// Runs that left the enumerated delay space were checked for nothing,
/// so a report that contains one must not read as passed.
#[test]
fn runs_off_the_enumerated_delay_space_fail_the_report() {
    let p = default_params();
    let config = McConfig::corners(&p, vec![()]);
    let script = [(pid(0), t(0), 0u8)];
    let report = model_check(
        &EchoSpec,
        || vec![ClockCounted, ClockCounted, ClockCounted],
        &p,
        &script,
        &config,
    );
    assert_eq!(report.messages, 2, "the zero-skew dry run broadcasts once");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.off_space > 0, "skewed clock cells send one more");
    assert!(!report.all_passed(), "off-space runs must fail the report");
}

/// Sends each operation to every peer as one two-message batch: one
/// delay draw per peer carries two messages.
#[derive(Debug, Clone, Default)]
struct Batched;

impl Actor for Batched {
    type Msg = u8;
    type Op = u8;
    type Resp = u8;
    type Timer = ();

    fn on_invoke(&mut self, op: u8, ctx: &mut Context<'_, Self>) {
        ctx.broadcast_batch(&[op, op]);
        ctx.respond(op);
    }

    fn on_message(&mut self, _from: ProcessId, _msg: u8, _ctx: &mut Context<'_, Self>) {}

    fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
}

impl ModelActor for Batched {
    type Spec = EchoSpec;

    fn payload_op(_msg: &u8) -> Option<&u8> {
        None
    }
}

/// The delay grid has one dimension per delay draw, which is one per
/// sent batch: a batch of two messages is one cell digit, not two.
#[test]
fn the_delay_grid_spans_draws_not_messages() {
    let p = default_params();
    let script = [(pid(0), t(0), 1u8), (pid(1), t(20_000), 2u8)];
    // What one run draws and sends, counted by the delay model and the
    // trace.
    let mut sim = Simulation::new(
        vec![Batched; 3],
        ClockAssignment::zero(3),
        EnumeratedDelay::new(p.delay_bounds(), Vec::new()),
    );
    let trace = Rc::new(RefCell::new(Trace::new()));
    sim.set_trace_sink(Box::new(Rc::clone(&trace)));
    for (pid, at, op) in script {
        sim.schedule_invoke(pid, at, op);
    }
    sim.run().unwrap();
    let draws = sim.delays().requested();
    assert_eq!(draws, 4, "two operations, each a batch to two peers");
    assert_eq!(trace.borrow().messages().len(), 2 * draws);

    let mut config = McConfig::corners(&p, vec![()]);
    config.workers = Some(1);
    let report = model_check(&EchoSpec, || vec![Batched; 3], &p, &script, &config);
    assert_eq!(report.messages, draws);
    let base = config.delay_choices.len() as u64;
    let clocks = config.clock_choices.len() as u64;
    assert_eq!(report.cells, clocks * base.pow(4));
    assert_eq!(report.off_space, 0);
    assert!(report.all_passed(), "{report:?}");
}
