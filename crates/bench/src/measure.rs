//! Latency measurement workloads for the table experiments.
//!
//! For each object of Chapter VI we run closed-loop mixed workloads on
//! Algorithm 1 and on the centralized baseline, across several admissible
//! delay models (maximal, minimal, seeded-random) and clock assignments
//! (perfectly synchronized, maximally skewed within `ε`), and collect the
//! worst observed invocation-to-response latency per operation kind. The
//! engine is exact — zero local processing, delays exactly as assigned —
//! so the measured maxima can be compared against the closed-form bound
//! formulas tick-for-tick.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use skewbound_core::centralized::Centralized;
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_lin::{check_history, validate_linearization, CheckOutcome};
use skewbound_sim::actor::Actor;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::{DelayBounds, DelayModel, FixedDelay, MsgMeta, UniformDelay};
use skewbound_sim::engine::Simulation;
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::par::run_grid;
use skewbound_sim::time::SimDuration;
use skewbound_sim::workload::ClosedLoop;
use skewbound_spec::prelude::*;

/// Worst-case latency observed per operation label.
pub type MaxLatencies = BTreeMap<&'static str, SimDuration>;

fn clock_assignments(params: &Params) -> Vec<ClockAssignment> {
    vec![
        ClockAssignment::zero(params.n()),
        ClockAssignment::spread(params.n(), params.eps()),
    ]
}

/// Which delay model a grid point runs under. A plain descriptor so grid
/// points stay `Sync` and each worker builds its own model.
#[derive(Debug, Clone, Copy)]
enum DelaySpec {
    Maximal,
    Minimal,
    Seeded(u64),
}

impl DelaySpec {
    fn build(self, bounds: DelayBounds) -> GridDelay {
        match self {
            DelaySpec::Maximal => GridDelay::Fixed(FixedDelay::maximal(bounds)),
            DelaySpec::Minimal => GridDelay::Fixed(FixedDelay::minimal(bounds)),
            DelaySpec::Seeded(seed) => GridDelay::Uniform(UniformDelay::new(bounds, seed)),
        }
    }
}

enum GridDelay {
    Fixed(FixedDelay),
    Uniform(UniformDelay),
}

impl DelayModel for GridDelay {
    fn delay(&mut self, meta: MsgMeta) -> SimDuration {
        match self {
            GridDelay::Fixed(m) => m.delay(meta),
            GridDelay::Uniform(m) => m.delay(meta),
        }
    }

    fn bounds(&self) -> DelayBounds {
        match self {
            GridDelay::Fixed(m) => m.bounds(),
            GridDelay::Uniform(m) => m.bounds(),
        }
    }
}

/// One point of a measurement grid: clocks × delay model × workload seed.
struct GridPoint {
    clocks: ClockAssignment,
    delays: DelaySpec,
    run_seed: u64,
}

/// The full grid: every delay spec under every clock assignment, with
/// workload seeds numbered `1..` in the same order the sequential loops
/// used.
fn grid_points(params: &Params, delay_specs: &[DelaySpec]) -> Vec<GridPoint> {
    let mut run_seed = 1u64;
    let mut points = Vec::with_capacity(2 * delay_specs.len());
    for clocks in clock_assignments(params) {
        for &delays in delay_specs {
            points.push(GridPoint {
                clocks: clocks.clone(),
                delays,
                run_seed,
            });
            run_seed += 1;
        }
    }
    points
}

/// Checks one run's history against the spec. Histories beyond the
/// checker's 128-op bitmask are skipped rather than split, keeping the
/// measurement unbiased.
///
/// # Panics
///
/// Panics if the run produced a non-linearizable history: every grid
/// point simulates a correct implementation, so a violation here is an
/// engine or implementation bug, not a measurement result.
fn check_linearizable<S: SequentialSpec>(spec: &S, history: &History<S::Op, S::Resp>) {
    if history.len() > 128 {
        return;
    }
    match check_history(spec, history) {
        CheckOutcome::Linearizable(lin) => {
            debug_assert!(
                validate_linearization(spec, history, &lin),
                "checker returned an invalid witness"
            );
        }
        CheckOutcome::Unknown { .. } => {}
        CheckOutcome::NotLinearizable(v) => panic!(
            "measurement run produced a non-linearizable history \
             ({} ops, longest legal prefix {})",
            v.total_ops,
            v.longest_prefix.len()
        ),
    }
}

/// Runs one grid point's closed-loop workload, checks its history, and
/// returns each completed operation's worst latency per label.
fn run_point<A, S, G, L>(
    actors: Vec<A>,
    spec: &S,
    point: &GridPoint,
    bounds: DelayBounds,
    ops_per_process: usize,
    gen: G,
    label: L,
) -> MaxLatencies
where
    A: Actor,
    A::Op: Clone,
    S: SequentialSpec<Op = A::Op, Resp = A::Resp>,
    G: FnMut(ProcessId, usize, &mut StdRng) -> A::Op,
    L: Fn(&A::Op) -> &'static str,
{
    let n = point.clocks.len();
    let mut driver = ClosedLoop::new(
        ProcessId::all(n).collect(),
        ops_per_process,
        point.run_seed,
        gen,
    );
    let mut sim = Simulation::new(actors, point.clocks.clone(), point.delays.build(bounds));
    sim.run_with(&mut driver).expect("measurement run failed");
    assert!(sim.history().is_complete(), "incomplete measurement run");
    check_linearizable(spec, sim.history());
    let mut acc = MaxLatencies::new();
    for rec in sim.history().records() {
        let lat = rec.latency().expect("complete");
        let entry = acc.entry(label(&rec.op)).or_insert(SimDuration::ZERO);
        *entry = (*entry).max(lat);
    }
    acc
}

/// Fans a grid out over the [`skewbound_sim::par`] worker pool and merges
/// the per-point results in grid order. Merging maxima is
/// order-insensitive, so the merged latencies are identical to the
/// sequential loops' regardless of worker count.
fn measure_grid<A, S, F, G, L>(
    points: &[GridPoint],
    make_actors: F,
    spec: &S,
    bounds: DelayBounds,
    ops_per_process: usize,
    gen: &G,
    label: L,
) -> MaxLatencies
where
    A: Actor,
    A::Op: Clone,
    S: SequentialSpec<Op = A::Op, Resp = A::Resp> + Sync,
    F: Fn() -> Vec<A> + Sync,
    G: FnMut(ProcessId, usize, &mut StdRng) -> A::Op + Clone + Sync,
    L: Fn(&A::Op) -> &'static str + Copy + Sync,
{
    let results = run_grid(points, |_, point| {
        run_point(
            make_actors(),
            spec,
            point,
            bounds,
            ops_per_process,
            gen.clone(),
            label,
        )
    });
    let mut acc = MaxLatencies::new();
    for latencies in results {
        for (op, lat) in latencies {
            let entry = acc.entry(op).or_insert(SimDuration::ZERO);
            *entry = (*entry).max(lat);
        }
    }
    acc
}

/// Replica grid delay specs: `{fixed-maximal, fixed-minimal, three random
/// seeds}`.
const REPLICA_DELAYS: [DelaySpec; 5] = [
    DelaySpec::Maximal,
    DelaySpec::Minimal,
    DelaySpec::Seeded(11),
    DelaySpec::Seeded(22),
    DelaySpec::Seeded(33),
];

/// Centralized grid delay specs: `{fixed-maximal, two random seeds}`.
const CENTRALIZED_DELAYS: [DelaySpec; 3] = [
    DelaySpec::Maximal,
    DelaySpec::Seeded(11),
    DelaySpec::Seeded(22),
];

/// Measures Algorithm 1 across the standard delay/clock grid:
/// {fixed-maximal, fixed-minimal, three random seeds} × {zero skew,
/// maximal skew}.
pub fn measure_replica_grid<S, G, L>(
    spec: S,
    params: &Params,
    ops_per_process: usize,
    gen: G,
    label: L,
) -> MaxLatencies
where
    S: SequentialSpec + Send + Sync,
    G: FnMut(ProcessId, usize, &mut StdRng) -> S::Op + Clone + Sync,
    L: Fn(&S::Op) -> &'static str + Copy + Sync,
{
    let spec = Arc::new(spec);
    measure_grid(
        &grid_points(params, &REPLICA_DELAYS),
        || Replica::group_shared(&spec, params),
        spec.as_ref(),
        params.delay_bounds(),
        ops_per_process,
        &gen,
        label,
    )
}

/// Measures the centralized baseline across the same grid.
pub fn measure_centralized_grid<S, G, L>(
    spec: S,
    params: &Params,
    ops_per_process: usize,
    gen: G,
    label: L,
) -> MaxLatencies
where
    S: SequentialSpec + Send + Sync,
    G: FnMut(ProcessId, usize, &mut StdRng) -> S::Op + Clone + Sync,
    L: Fn(&S::Op) -> &'static str + Copy + Sync,
{
    let spec = Arc::new(spec);
    measure_grid(
        &grid_points(params, &CENTRALIZED_DELAYS),
        || Centralized::group_shared(&spec, params.n()),
        spec.as_ref(),
        params.delay_bounds(),
        ops_per_process,
        &gen,
        label,
    )
}

// ---------------------------------------------------------------------
// Per-object workloads (generators + labelers).
// ---------------------------------------------------------------------

/// Register workload: mixed read/write/RMW.
#[must_use]
pub fn register_gen(_pid: ProcessId, idx: usize, _rng: &mut StdRng) -> RmwOp {
    match idx % 4 {
        0 => RmwOp::Write(idx as i64),
        1 => RmwOp::Read,
        2 => RmwOp::Rmw(RmwKind::FetchAdd(1)),
        _ => RmwOp::Read,
    }
}

/// Labels register ops for the table rows.
#[must_use]
pub fn register_label(op: &RmwOp) -> &'static str {
    match op {
        RmwOp::Read => "read",
        RmwOp::Write(_) => "write",
        RmwOp::Rmw(_) => "read-modify-write",
    }
}

/// Queue workload: mixed enqueue/dequeue/peek.
#[must_use]
pub fn queue_gen(pid: ProcessId, idx: usize, _rng: &mut StdRng) -> QueueOp {
    match idx % 4 {
        0 | 1 => QueueOp::Enqueue((pid.index() * 1000 + idx) as i64),
        2 => QueueOp::Dequeue,
        _ => QueueOp::Peek,
    }
}

/// Labels queue ops for the table rows.
#[must_use]
pub fn queue_label(op: &QueueOp) -> &'static str {
    match op {
        QueueOp::Enqueue(_) => "enqueue",
        QueueOp::Dequeue => "dequeue",
        QueueOp::Peek => "peek",
        QueueOp::Len => "len",
    }
}

/// Stack workload: mixed push/pop/peek.
#[must_use]
pub fn stack_gen(pid: ProcessId, idx: usize, _rng: &mut StdRng) -> StackOp {
    match idx % 4 {
        0 | 1 => StackOp::Push((pid.index() * 1000 + idx) as i64),
        2 => StackOp::Pop,
        _ => StackOp::Peek,
    }
}

/// Labels stack ops for the table rows.
#[must_use]
pub fn stack_label(op: &StackOp) -> &'static str {
    match op {
        StackOp::Push(_) => "push",
        StackOp::Pop => "pop",
        StackOp::Peek => "peek",
        StackOp::Len => "len",
    }
}

/// Tree workload: inserts under random existing-ish parents, deletes,
/// searches and depth queries.
#[must_use]
pub fn tree_gen(pid: ProcessId, idx: usize, _rng: &mut StdRng) -> TreeOp {
    let node = (pid.index() as u32) * 1_000 + idx as u32 + 1;
    match idx % 5 {
        0 => TreeOp::Insert { node, parent: 0 },
        1 => TreeOp::Insert {
            node,
            parent: node.saturating_sub(1),
        },
        2 => TreeOp::Delete {
            node: node.saturating_sub(2),
        },
        3 => TreeOp::Search { node: node / 2 },
        _ => TreeOp::Depth,
    }
}

/// Labels tree ops for the table rows.
#[must_use]
pub fn tree_label(op: &TreeOp) -> &'static str {
    match op {
        TreeOp::Insert { .. } => "insert",
        TreeOp::Delete { .. } => "delete",
        TreeOp::Search { .. } => "search",
        TreeOp::Depth => "depth",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_core::bounds;

    fn params() -> Params {
        Params::with_optimal_skew(
            4,
            SimDuration::from_ticks(10_000),
            SimDuration::from_ticks(2_000),
            SimDuration::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn register_measured_matches_formulas() {
        let p = params();
        let measured =
            measure_replica_grid(RmwRegister::default(), &p, 6, register_gen, register_label);
        assert_eq!(measured["write"], bounds::ub_mop(&p), "write = eps + X");
        assert_eq!(measured["read"], bounds::ub_aop(&p), "read = d + eps - X");
        assert!(measured["read-modify-write"] <= bounds::ub_oop(&p));
    }

    #[test]
    fn centralized_measured_is_2d_shaped() {
        let p = params();
        let measured =
            measure_centralized_grid(RmwRegister::default(), &p, 6, register_gen, register_label);
        let two_d = bounds::ub_centralized(&p);
        for (op, &lat) in &measured {
            assert!(lat <= two_d, "{op} exceeded 2d");
        }
        // Under maximal fixed delays some remote op hits exactly 2d.
        assert!(measured.values().any(|&l| l == two_d));
    }

    #[test]
    fn queue_measured_within_bounds() {
        let p = params();
        let measured = measure_replica_grid(Queue::<i64>::new(), &p, 6, queue_gen, queue_label);
        assert_eq!(measured["enqueue"], bounds::ub_mop(&p));
        assert!(measured["dequeue"] <= bounds::ub_oop(&p));
        assert_eq!(measured["peek"], bounds::ub_aop(&p));
    }
}
