//! Cross-runtime parity: the same actors, clocks, delay model and driver
//! go through **all three** backends — the deterministic discrete-event
//! engine, the real-thread runtime and the TCP loopback mesh — by one
//! loop over their `run_history(actors, clocks, delays, driver)` entries,
//! and every observed history must be complete and linearizable.
//!
//! This is the contract the shared `NodeCore` + `Transport` split and
//! the one harness signature exist to keep: one `Actor` implementation,
//! one workload, three schedulers. The histories are not expected to be
//! identical (the rt and net backends' interleavings come from the OS),
//! only equally complete, equally correct, and built from the identical
//! per-process operation sequences.

use std::panic::{catch_unwind, AssertUnwindSafe};

use skewbound_core::params::Params;
use skewbound_core::prelude::{bounds, Replica};
use skewbound_lin::checker::check_history;
use skewbound_net::runtime;
use skewbound_net::wire::{Decode, Encode};
use skewbound_sim::prelude::*;
use skewbound_sim::{engine, rt};
use skewbound_spec::prelude::*;

/// One backend's harness entry, with the driver behind a trait object
/// so one value of this type fits all three.
type RunHistory<A, D> = fn(
    Vec<A>,
    ClockAssignment,
    D,
    &mut (dyn Driver<<A as Actor>::Op, <A as Actor>::Resp> + 'static),
) -> Result<History<<A as Actor>::Op, <A as Actor>::Resp>, SimError>;

/// A backend's name and the history it observed.
type Observed<S> = (
    &'static str,
    History<<S as SequentialSpec>::Op, <S as SequentialSpec>::Resp>,
);

/// The three backends, by name.
fn backends<A, D>() -> [(&'static str, RunHistory<A, D>); 3]
where
    A: Actor + Send,
    A::Msg: Encode + Decode + Send,
    A::Op: Encode + Decode + Send,
    A::Resp: Encode + Decode + Send,
    A::Timer: Send,
    D: DelayModel + Send,
{
    [
        ("engine", engine::run_history),
        ("rt", rt::run_history),
        ("net", runtime::run_history),
    ]
}

/// µs-scale parameters shared by every backend (one tick is one µs on
/// the wall-clock backends): d = 20 ms, u = 8 ms, optimal skew.
fn parity_params(n: usize) -> Params {
    Params::with_optimal_skew(
        n,
        SimDuration::from_ticks(20_000),
        SimDuration::from_ticks(8_000),
        SimDuration::ZERO,
    )
    .unwrap()
}

/// The delay bounds every parity leg draws from: `[d − u, d − 7u/8]`.
/// With a µs-per-tick timebase and real OS scheduling, a delivery
/// processed later than `d` after its send breaks the partial-synchrony
/// assumption Algorithm 1's replica agreement rests on; the remaining
/// `7u/8` of `d` absorbs the loopback hop and scheduling stalls.
fn parity_bounds(params: &Params) -> DelayBounds {
    let u = params.u();
    DelayBounds::new(params.d() - u.mul_frac(7, 8), u.mul_frac(1, 8))
}

/// Runs the same actors, clocks, delay model and driver on each of
/// `backends` and returns each history, asserting it complete with `expected_ops`
/// operations and linearizable against `spec`. Only the net leg's
/// linearizability gets a couple of retries on fresh runs: a host stall
/// longer than the headroom breaks the timing model itself.
/// Completeness and op count must hold on every run.
fn on_every_backend<S, A, D>(
    backends: &[(&'static str, RunHistory<A, D>)],
    spec: &S,
    expected_ops: usize,
    actors: impl Fn() -> Vec<A>,
    clocks: &ClockAssignment,
    delays: impl Fn() -> D,
    driver: impl Fn() -> Box<dyn Driver<S::Op, S::Resp>>,
) -> Vec<Observed<S>>
where
    S: SequentialSpec,
    A: Actor<Op = S::Op, Resp = S::Resp>,
{
    let mut histories = Vec::new();
    for &(name, run_history) in backends {
        let attempts = if name == "net" { 3 } else { 1 };
        for attempt in 1..=attempts {
            let history = run_history(actors(), clocks.clone(), delays(), &mut *driver()).unwrap();
            assert!(history.is_complete(), "{name}: incomplete history");
            assert_eq!(history.len(), expected_ops, "{name}: wrong op count");
            if check_history(spec, &history).is_linearizable() {
                histories.push((name, history));
                break;
            }
            assert!(
                attempt < attempts,
                "{name}: non-linearizable history on {attempt} attempts: {:?}",
                history.records()
            );
            eprintln!("{name} attempt {attempt} hit a timing-model violation; retrying");
        }
    }
    histories
}

const OPS_PER_PROCESS: usize = 3;

/// The per-process operation sequence of a history, in invocation order.
fn ops_of<O: Clone, R>(h: &History<O, R>, pid: ProcessId) -> Vec<O> {
    h.records()
        .iter()
        .filter(|r| r.pid == pid)
        .map(|r| r.op.clone())
        .collect()
}

/// Runs Algorithm 1 under a closed loop whose generator is a pure
/// function of `(pid, idx)` on each of `backends` — the backends
/// complete operations in different real-time orders, so a generator
/// drawing from the shared `StdRng` would issue different ops — and
/// asserts every history complete, linearizable, and made of the
/// engine's per-process operation sequences.
fn parity<S>(
    backends: &[(&'static str, RunHistory<Replica<S>, UniformDelay>)],
    make_spec: fn() -> S,
    gen: fn(ProcessId, usize) -> S::Op,
) where
    S: SequentialSpec + 'static,
{
    let n = 3;
    let params = parity_params(n);
    let driver = || -> Box<dyn Driver<S::Op, S::Resp>> {
        Box::new(ClosedLoop::new(
            ProcessId::all(n).collect(),
            OPS_PER_PROCESS,
            42,
            move |pid, idx, _rng: &mut rand::rngs::StdRng| gen(pid, idx),
        ))
    };
    let histories = on_every_backend(
        backends,
        &make_spec(),
        n * OPS_PER_PROCESS,
        || Replica::group(make_spec(), &params),
        &ClockAssignment::zero(n),
        || UniformDelay::new(parity_bounds(&params), 7),
        driver,
    );
    let (_, engine) = &histories[0];
    for (name, history) in &histories[1..] {
        for pid in ProcessId::all(n) {
            assert_eq!(
                ops_of(engine, pid),
                ops_of(history, pid),
                "{pid}: engine and {name} issued different operations"
            );
        }
    }
}

/// [`parity`] on all three backends.
fn three_backend_parity<S>(make_spec: fn() -> S, gen: fn(ProcessId, usize) -> S::Op)
where
    S: SequentialSpec + Send + Sync + 'static,
    S::State: Send,
    S::Op: Encode + Decode + Send,
    S::Resp: Encode + Decode + Send,
{
    parity(&backends(), make_spec, gen);
}

/// The counter has no wire codec (the mesh serves registers, queues and
/// key-value stores), so it runs on the two in-process backends.
#[test]
fn same_workload_runs_on_both_backends() {
    let in_process: [(&str, RunHistory<_, _>); 2] =
        [("engine", engine::run_history), ("rt", rt::run_history)];
    parity(&in_process, Counter::default, |pid, idx| match idx % 3 {
        0 => CounterOp::Add(i64::from(pid.as_u32()) * 10 + 1),
        1 => CounterOp::Read,
        _ => CounterOp::Add(-1),
    });
}

#[test]
fn register_workload_parity_across_three_backends() {
    three_backend_parity(RwRegister::<i64>::default, |pid, idx| match idx % 3 {
        0 => RegOp::Write(i64::from(pid.as_u32()) * 100 + idx as i64),
        1 => RegOp::Read,
        _ => RegOp::Write(-i64::from(pid.as_u32()) - 1),
    });
}

#[test]
fn queue_workload_parity_across_three_backends() {
    three_backend_parity(Queue::<i64>::new, |pid, idx| match idx % 3 {
        0 => QueueOp::Enqueue(i64::from(pid.as_u32()) * 10 + idx as i64),
        1 => QueueOp::Dequeue,
        _ => QueueOp::Peek,
    });
}

#[test]
fn kv_workload_parity_across_three_backends() {
    three_backend_parity(KvStore::new, |pid, idx| {
        let key = i64::from(pid.as_u32() % 2);
        match idx % 3 {
            0 => KvOp::Put {
                key,
                value: i64::from(pid.as_u32()) * 10 + idx as i64,
            },
            1 => KvOp::Get { key },
            _ => KvOp::Remove { key: 1 - key },
        }
    });
}

/// Anchored arming removes timer *lateness*, never the wait itself: on
/// every backend — virtual time, worker channels and real sockets —
/// every observed latency is still at least its class's prescribed time
/// (`ε + X`, `d + ε − X`, `d + ε`). A response that beats it would mean
/// a timer fired ahead of its nominal instant.
#[test]
fn net_responses_never_beat_their_class_bound() {
    const OPS: usize = 6;
    let n = 3;
    let params = parity_params(n);
    let spec = Queue::<i64>::new();
    let gen = |pid: ProcessId, idx: usize| match (idx + pid.index()) % 3 {
        0 => QueueOp::Enqueue(i64::from(pid.as_u32()) * 10 + idx as i64),
        1 => QueueOp::Dequeue,
        _ => QueueOp::Peek,
    };
    let histories = on_every_backend(
        &backends(),
        &spec,
        n * OPS,
        || Replica::group(Queue::<i64>::new(), &params),
        &ClockAssignment::zero(n),
        || UniformDelay::new(parity_bounds(&params), 11),
        || {
            Box::new(ClosedLoop::new(
                ProcessId::all(n).collect(),
                OPS,
                11,
                move |pid, idx, _rng: &mut rand::rngs::StdRng| gen(pid, idx),
            ))
        },
    );
    for (name, history) in &histories {
        for rec in history.records() {
            let bound = match spec.class(&rec.op) {
                OpClass::PureMutator => bounds::ub_mop(&params),
                OpClass::PureAccessor => bounds::ub_aop(&params),
                OpClass::Other => bounds::ub_oop(&params),
            };
            let latency = rec.latency().expect("complete history");
            assert!(
                latency >= bound,
                "{name}: {:?} at {} answered in {latency:?}, before its bound {bound:?}",
                rec.op,
                rec.pid
            );
        }
    }
}

/// Each process forwards its op value to the next process and responds
/// when the ring token returns to process 0.
#[derive(Debug, Default, Clone)]
struct Ring;

impl Actor for Ring {
    type Msg = i64;
    type Op = i64;
    type Resp = i64;
    type Timer = ();

    fn on_invoke(&mut self, op: i64, ctx: &mut Context<'_, Self>) {
        let next = ProcessId::new((ctx.pid().as_u32() + 1) % ctx.n() as u32);
        ctx.send(next, op);
    }

    fn on_message(&mut self, _from: ProcessId, msg: i64, ctx: &mut Context<'_, Self>) {
        if ctx.pid() == ProcessId::new(0) {
            ctx.respond(msg);
        } else {
            let next = ProcessId::new((ctx.pid().as_u32() + 1) % ctx.n() as u32);
            ctx.send(next, msg);
        }
    }

    fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
}

/// The delay model takes effect on every backend: under
/// `FixedDelay::maximal` a ring token around `n` processes answers no
/// earlier than `n · d` — on the engine exactly then. The mesh's client
/// and servers stamp on separate timebases of the same epoch, which can
/// round one µs apart.
#[test]
fn ring_answers_no_earlier_than_hops_times_d() {
    let n = 3;
    let bounds = DelayBounds::new(
        SimDuration::from_ticks(5_000),
        SimDuration::from_ticks(2_000),
    );
    let hops_d = bounds.max() * n as u64;
    for (name, run_history) in backends::<Ring, FixedDelay>() {
        let mut script = Script::new().at(ProcessId::new(0), SimTime::ZERO, 42);
        let history = run_history(
            vec![Ring; n],
            ClockAssignment::zero(n),
            FixedDelay::maximal(bounds),
            &mut script,
        )
        .unwrap();
        let rec = &history.records()[0];
        assert_eq!(rec.resp(), Some(&42), "{name}");
        let latency = rec.latency().unwrap();
        assert!(
            latency + SimDuration::from_ticks(1) >= hops_d,
            "{name}: answered in {latency:?}, under {n} hops of d = {:?}",
            bounds.max()
        );
        if name == "engine" {
            assert_eq!(latency, hops_d);
        }
    }
}

/// The clock and delay seams take effect on every backend: Algorithm 1
/// with clock offsets spread across the whole skew bound `ε`, under the
/// circulant delay matrix of Theorem D.1, stays linearizable.
#[test]
fn algorithm_1_under_skewed_clocks_and_circulant_delays_stays_linearizable() {
    let n = 3;
    let params = parity_params(n);
    let clocks = ClockAssignment::spread(n, params.eps());
    assert!(clocks.within_skew(params.eps()) && clocks.max_skew() > SimDuration::ZERO);
    let gen = |pid: ProcessId, idx: usize| match idx % 2 {
        0 => RegOp::Write(i64::from(pid.as_u32()) * 10 + idx as i64),
        _ => RegOp::Read,
    };
    on_every_backend(
        &backends(),
        &RwRegister::<i64>::default(),
        n * 4,
        || Replica::group(RwRegister::<i64>::default(), &params),
        &clocks,
        || MatrixDelay::circulant(n, n, parity_bounds(&params)),
        || {
            Box::new(ClosedLoop::new(
                ProcessId::all(n).collect(),
                4,
                3,
                move |pid, idx, _rng: &mut rand::rngs::StdRng| gen(pid, idx),
            ))
        },
    );
}

/// Responds to `op` after a 20 ms timer.
#[derive(Debug, Default)]
struct SlowEcho;

impl Actor for SlowEcho {
    type Msg = i64;
    type Op = i64;
    type Resp = i64;
    type Timer = i64;

    fn on_invoke(&mut self, op: i64, ctx: &mut Context<'_, Self>) {
        ctx.set_timer(SimDuration::from_ticks(20_000), op);
    }
    fn on_message(&mut self, _: ProcessId, _: i64, _: &mut Context<'_, Self>) {}
    fn on_timer(&mut self, op: i64, ctx: &mut Context<'_, Self>) {
        ctx.respond(op);
    }
}

/// A driver that invokes at a process whose operation is still pending
/// fails the same way on every backend: with the one panic the engine's
/// node core raises, before the second invocation reaches any actor.
#[test]
fn overlapping_invocations_fail_alike_on_every_backend() {
    let bounds = DelayBounds::new(
        SimDuration::from_ticks(2_000),
        SimDuration::from_ticks(1_000),
    );
    let mut messages = Vec::new();
    for (name, run_history) in backends::<SlowEcho, FixedDelay>() {
        let p0 = ProcessId::new(0);
        let mut script =
            Script::new()
                .at(p0, SimTime::ZERO, 1)
                .at(p0, SimTime::from_ticks(1_000), 2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_history(
                vec![SlowEcho, SlowEcho],
                ClockAssignment::zero(2),
                FixedDelay::maximal(bounds),
                &mut script,
            )
        }));
        let message = panic_message(name, outcome);
        assert!(
            message.contains("another operation is pending"),
            "{name}: {message}"
        );
        messages.push(message);
    }
    assert!(messages.iter().all(|m| *m == messages[0]), "{messages:?}");
}

/// The message of the panic `outcome` must carry, on backend `name`.
fn panic_message<T>(name: &str, outcome: std::thread::Result<T>) -> String {
    let Err(payload) = outcome else {
        panic!("{name}: the run did not panic");
    };
    let message = payload.downcast_ref::<String>().cloned();
    message
        .or_else(|| payload.downcast_ref::<&str>().map(|m| (*m).to_owned()))
        .unwrap_or_else(|| panic!("{name}: the panic carries no message"))
}

/// Every backend checks the group the same way, before it runs
/// anything: an empty actor list, or clocks for a group of another
/// size, fail with one message on all three.
#[test]
fn malformed_groups_fail_alike_on_every_backend() {
    let bounds = DelayBounds::new(
        SimDuration::from_ticks(2_000),
        SimDuration::from_ticks(1_000),
    );
    for (actors, clocks) in [(0, 2), (2, 3)] {
        let mut messages = Vec::new();
        for (name, run_history) in backends::<SlowEcho, FixedDelay>() {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_history(
                    (0..actors).map(|_| SlowEcho).collect(),
                    ClockAssignment::zero(clocks),
                    FixedDelay::maximal(bounds),
                    &mut Script::new(),
                )
            }));
            let message = panic_message(name, outcome);
            assert!(
                message.contains("clock assignment must cover every process"),
                "{name}: {message}"
            );
            messages.push(message);
        }
        assert!(messages.iter().all(|m| *m == messages[0]), "{messages:?}");
    }
}
