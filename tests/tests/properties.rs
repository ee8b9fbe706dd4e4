//! Property tests across the whole stack: for *any* seeded workload mix,
//! clock assignment within `ε`, and admissible delay assignment,
//! Algorithm 1 must produce linearizable histories, converging replicas,
//! and latencies within the paper's bounds. Cases are drawn from a
//! seeded PRNG so failures reproduce deterministically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skewbound_core::bounds::{self, Bound};
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_integration::assert_linearizable;
use skewbound_lin::{check_namespace, flatten_batches};
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::UniformDelay;
use skewbound_sim::engine::Simulation;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{ClockOffset, SimDuration};
use skewbound_sim::workload::ClosedLoop;
use skewbound_spec::prelude::*;

/// n in 2..=4, d in 5000..=12000, u <= d/2 (rounded to keep integers
/// tame), X = 0.
fn gen_params(rng: &mut StdRng) -> Params {
    let n = rng.gen_range(2usize..=4);
    let d = rng.gen_range(5_000u64..=12_000);
    let u_frac = rng.gen_range(1u64..=8);
    let u = d / 2 / u_frac;
    Params::with_optimal_skew(
        n,
        SimDuration::from_ticks(d),
        SimDuration::from_ticks(u.max(n as u64)),
        SimDuration::ZERO,
    )
    .expect("valid")
}

#[test]
fn queue_always_linearizable() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x0AAE ^ case);
        let params = gen_params(&mut rng);
        let seed = rng.gen_range(0u64..1_000);
        let n = params.n();
        let mut driver =
            ClosedLoop::new(
                ProcessId::all(n).collect(),
                4,
                seed,
                |pid, idx, rng| match (idx + rng.gen_range(0usize..3)) % 3 {
                    0 => QueueOp::Enqueue((pid.index() * 50 + idx) as i64),
                    1 => QueueOp::Dequeue,
                    _ => QueueOp::Peek,
                },
            );
        let mut sim = Simulation::new(
            Replica::group(Queue::<i64>::new(), &params),
            ClockAssignment::spread(n, params.eps()),
            UniformDelay::new(params.delay_bounds(), seed),
        );
        sim.run_with(&mut driver).expect("run");
        assert_linearizable(&Queue::<i64>::new(), sim.history());
        // Convergence.
        let s0 = sim.actor(ProcessId::new(0)).local_state().clone();
        for pid in ProcessId::all(n) {
            assert_eq!(sim.actor(pid).local_state(), &s0);
        }
    }
}

#[test]
fn register_latency_bounds_hold() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x0BBE ^ case);
        let params = gen_params(&mut rng);
        let seed = rng.gen_range(0u64..1_000);
        let offsets_seed = rng.gen_range(0u64..1_000);
        let n = params.n();
        // Arbitrary offsets within eps.
        let eps = params.eps().as_ticks();
        let offsets: Vec<ClockOffset> = (0..n)
            .map(|i| {
                let v = (seed
                    .wrapping_mul(31)
                    .wrapping_add(offsets_seed * 7 + i as u64))
                    % (eps + 1);
                ClockOffset::from_ticks(v as i64)
            })
            .collect();
        let mut driver =
            ClosedLoop::new(
                ProcessId::all(n).collect(),
                4,
                seed,
                |_pid, idx, _| match idx % 3 {
                    0 => RmwOp::Write(idx as i64),
                    1 => RmwOp::Rmw(RmwKind::FetchAdd(1)),
                    _ => RmwOp::Read,
                },
            );
        let mut sim = Simulation::new(
            Replica::group(RmwRegister::default(), &params),
            ClockAssignment::from_offsets(offsets),
            UniformDelay::new(params.delay_bounds(), seed ^ 0x5555),
        );
        sim.run_with(&mut driver).expect("run");
        let history = sim.history();
        assert!(history.is_complete());
        for rec in history.records() {
            let lat = rec.latency().unwrap();
            let bound = match &rec.op {
                RmwOp::Write(_) => bounds::ub_mop(&params),
                RmwOp::Read => bounds::ub_aop(&params),
                RmwOp::Rmw(_) => bounds::ub_oop(&params),
            };
            assert!(
                lat <= bound,
                "{:?} took {} > bound {}",
                rec.op,
                lat.as_ticks(),
                bound.as_ticks()
            );
        }
        assert_linearizable(&RmwRegister::default(), history);
    }
}

#[test]
fn counter_converges_to_sum() {
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x0CCE ^ case);
        let params = gen_params(&mut rng);
        let seed = rng.gen_range(0u64..1_000);
        let n = params.n();
        let mut driver =
            ClosedLoop::new(ProcessId::all(n).collect(), 5, seed, |_pid, _idx, rng| {
                CounterOp::Add(rng.gen_range(-3i64..=3))
            });
        let mut sim = Simulation::new(
            Replica::group(Counter::default(), &params),
            ClockAssignment::spread(n, params.eps()),
            UniformDelay::new(params.delay_bounds(), seed),
        );
        sim.run_with(&mut driver).expect("run");
        let expected: i64 = sim
            .history()
            .records()
            .iter()
            .map(|r| match r.op {
                CounterOp::Add(d) => d,
                CounterOp::Read => 0,
            })
            .sum();
        for pid in ProcessId::all(n) {
            assert_eq!(*sim.actor(pid).local_state(), expected);
        }
    }
}

/// Lemma C.10 as a property: across random workloads, skews and
/// delays, all replicas execute the broadcast operations in the same
/// ascending timestamp order.
#[test]
fn executed_orders_identical_and_ascending() {
    for case in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(0x0DDE ^ case);
        let params = gen_params(&mut rng);
        let seed = rng.gen_range(0u64..1_000);
        let n = params.n();
        let mut driver =
            ClosedLoop::new(
                ProcessId::all(n).collect(),
                5,
                seed,
                |pid, idx, rng| match rng.gen_range(0..3) {
                    0 => StackOp::Push((pid.index() * 50 + idx) as i64),
                    1 => StackOp::Pop,
                    _ => StackOp::Peek,
                },
            );
        let mut sim = Simulation::new(
            Replica::group(Stack::<i64>::new(), &params),
            ClockAssignment::spread(n, params.eps()),
            UniformDelay::new(params.delay_bounds(), seed ^ 0x77),
        );
        sim.run_with(&mut driver).expect("run");
        let order0 = sim.actor(ProcessId::new(0)).executed_order().to_vec();
        assert!(order0.windows(2).all(|w| w[0] < w[1]), "ascending");
        for pid in ProcessId::all(n) {
            assert_eq!(sim.actor(pid).executed_order(), &order0[..]);
        }
    }
}

/// Batched invocation is Algorithm 1 over `Batch<S>`: batches of queue
/// operations on a few keys, of any class mix (dequeue is an `OOP`, so
/// is any batch that mixes classes), each answer within the bound of the
/// batch's class, the flattened history is linearizable key by key, and
/// the replicas converge.
#[test]
fn mixed_class_batches_stay_within_bounds() {
    let mut classes = [0usize; 3];
    for case in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(0x0EEE ^ case);
        let params = gen_params(&mut rng);
        let seed = rng.gen_range(0u64..1_000);
        let n = params.n();
        let mut driver = ClosedLoop::new(ProcessId::all(n).collect(), 4, seed, |pid, idx, rng| {
            (0..rng.gen_range(1..=3))
                .map(|j| {
                    let op = match rng.gen_range(0..3) {
                        0 => QueueOp::Enqueue((pid.index() * 100 + idx * 10 + j) as i64),
                        1 => QueueOp::Dequeue,
                        _ => QueueOp::Peek,
                    };
                    NsOp::new(rng.gen_range(0..3), op)
                })
                .collect::<Vec<_>>()
        });
        let spec = Batch::new(Namespace::new(Queue::<i64>::new()));
        let mut sim = Simulation::new(
            Replica::group(spec.clone(), &params),
            ClockAssignment::spread(n, params.eps()),
            UniformDelay::new(params.delay_bounds(), seed),
        );
        sim.run_with(&mut driver).expect("run");
        let history = sim.history();
        assert!(history.is_complete());
        for rec in history.records() {
            let class = spec.class(&rec.op);
            classes[class as usize] += 1;
            let bound = Bound::upper(class).eval(&params);
            assert!(
                rec.latency().unwrap() <= bound,
                "case {case}: {:?} took {} > {class:?} bound {}",
                rec.op,
                rec.latency().unwrap().as_ticks(),
                bound.as_ticks()
            );
        }
        let gate = check_namespace(&Queue::<i64>::new(), &flatten_batches(history));
        assert!(gate.is_linearizable(), "case {case}: {gate:?}");
        let s0 = sim.actor(ProcessId::new(0)).local_state().clone();
        for pid in ProcessId::all(n) {
            assert_eq!(sim.actor(pid).local_state(), &s0, "case {case}");
        }
    }
    assert!(
        classes.iter().all(|&c| c > 10),
        "every class exercised: {classes:?}"
    );
}
