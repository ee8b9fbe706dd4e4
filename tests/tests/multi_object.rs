//! Multi-object systems: the thesis's linearizability definition is
//! per-object ("for each object O, the restriction of π to O is legal").
//! `Namespace` and `ProductSpec` express such systems, and
//! Herlihy & Wing's locality theorem — a history is linearizable iff
//! every per-object sub-history is — holds executably.

use skewbound_core::replica::Replica;
use skewbound_integration::{assert_linearizable, default_params};
use skewbound_lin::checker::check_history;
use skewbound_lin::multi::split_history;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::UniformDelay;
use skewbound_sim::engine::Simulation;
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimTime;
use skewbound_sim::workload::ClosedLoop;
use skewbound_spec::prelude::*;

type MultiQ = Namespace<Queue<i64>>;
type MultiHistory = History<NsOp<QueueOp<i64>>, QueueResp<i64>>;

/// Object `key`'s sub-history, with the key stripped off.
fn sub_history(history: &MultiHistory, key: u64) -> History<QueueOp<i64>, QueueResp<i64>> {
    split_history(history, |op| op.key)
        .into_iter()
        .find(|(k, _)| *k == key)
        .map(|(_, sub)| sub.map(|op| op.op.clone(), Clone::clone))
        .expect("key present")
}

fn run_multi(seed: u64) -> MultiHistory {
    let params = default_params();
    let n = params.n();
    let spec = MultiQ::new(Queue::new());
    let mut driver = ClosedLoop::new(ProcessId::all(n).collect(), 6, seed, |pid, idx, _rng| {
        let op = match idx % 3 {
            0 => QueueOp::Enqueue((pid.index() * 100 + idx) as i64),
            1 => QueueOp::Dequeue,
            _ => QueueOp::Peek,
        };
        NsOp::new(((pid.index() + idx) % 2) as u64, op)
    });
    let mut sim = Simulation::new(
        Replica::group(spec, &params),
        ClockAssignment::spread(n, params.eps()),
        UniformDelay::new(params.delay_bounds(), seed ^ 0xFEED),
    );
    sim.run_with(&mut driver).expect("run");
    sim.history().clone()
}

#[test]
fn multi_object_system_is_linearizable() {
    for seed in 0..4 {
        let history = run_multi(seed);
        assert_linearizable(&MultiQ::new(Queue::new()), &history);
    }
}

#[test]
fn locality_each_subhistory_linearizable() {
    // Forward direction of locality: the full multi-object history is
    // linearizable, so each per-object restriction must be too.
    let history = run_multi(7);
    assert_linearizable(&MultiQ::new(Queue::new()), &history);
    for index in 0..2 {
        let sub = sub_history(&history, index);
        assert!(
            check_history(&Queue::<i64>::new(), &sub).is_linearizable(),
            "object {index} sub-history not linearizable"
        );
    }
}

#[test]
fn locality_violation_in_one_object_breaks_the_whole() {
    // Hand-build a two-object history where object 0 is fine and object
    // 1 dequeues the same element twice: the full history must be
    // rejected, and the blame isolates to object 1's sub-history.
    let spec = MultiQ::new(Queue::new());
    let mut h: MultiHistory = History::new();
    let p = ProcessId::new;
    let t = SimTime::from_ticks;
    let at = NsOp::new;

    let ids = [
        h.record_invoke(p(0), at(0, QueueOp::Enqueue(1)), t(0)),
        h.record_invoke(p(1), at(1, QueueOp::Enqueue(9)), t(0)),
        h.record_invoke(p(0), at(1, QueueOp::Dequeue), t(10)),
        h.record_invoke(p(1), at(1, QueueOp::Dequeue), t(20)),
        h.record_invoke(p(2), at(0, QueueOp::Dequeue), t(30)),
    ];
    h.record_response(ids[0], QueueResp::Ack, t(5));
    h.record_response(ids[1], QueueResp::Ack, t(5));
    h.record_response(ids[2], QueueResp::Value(Some(9)), t(15));
    h.record_response(ids[3], QueueResp::Value(Some(9)), t(25)); // duplicate!
    h.record_response(ids[4], QueueResp::Value(Some(1)), t(35));

    assert!(check_history(&spec, &h).is_violation());
    assert!(check_history(&Queue::<i64>::new(), &sub_history(&h, 0)).is_linearizable());
    assert!(check_history(&Queue::<i64>::new(), &sub_history(&h, 1)).is_violation());
}

#[test]
fn product_spec_system_works_end_to_end() {
    // A queue of jobs plus a counter of completions, in one system.
    let params = default_params();
    let n = params.n();
    let spec = ProductSpec::new(Queue::<i64>::new(), Counter::default());
    let mut sim = Simulation::new(
        Replica::group(spec.clone(), &params),
        ClockAssignment::zero(n),
        UniformDelay::new(params.delay_bounds(), 3),
    );
    let p = ProcessId::new;
    sim.schedule_invoke(p(0), SimTime::ZERO, EitherOp::Left(QueueOp::Enqueue(7)));
    sim.schedule_invoke(
        p(1),
        SimTime::from_ticks(20_000),
        EitherOp::Left(QueueOp::Dequeue),
    );
    sim.schedule_invoke(
        p(1),
        SimTime::from_ticks(40_000),
        EitherOp::Right(CounterOp::Add(1)),
    );
    sim.schedule_invoke(
        p(2),
        SimTime::from_ticks(60_000),
        EitherOp::Right(CounterOp::Read),
    );
    sim.run().unwrap();
    let records = sim.history().records();
    assert_eq!(
        records[1].resp(),
        Some(&EitherResp::Left(QueueResp::Value(Some(7))))
    );
    assert_eq!(
        records[3].resp(),
        Some(&EitherResp::Right(CounterResp::Value(1)))
    );
    assert_linearizable(&spec, sim.history());
}

#[test]
fn kv_store_end_to_end() {
    let params = default_params();
    let n = params.n();
    let mut driver = ClosedLoop::new(ProcessId::all(n).collect(), 6, 5, |pid, idx, _rng| {
        match idx % 4 {
            0 => KvOp::Put {
                key: (pid.index() % 2) as i64,
                value: idx as i64,
            },
            1 => KvOp::Get { key: 0 },
            2 => KvOp::Remove { key: 1 },
            _ => KvOp::Len,
        }
    });
    let mut sim = Simulation::new(
        Replica::group(KvStore::new(), &params),
        ClockAssignment::spread(n, params.eps()),
        UniformDelay::new(params.delay_bounds(), 17),
    );
    sim.run_with(&mut driver).unwrap();
    assert_linearizable(&KvStore::new(), sim.history());
    let s0 = sim.actor(ProcessId::new(0)).local_state().clone();
    for pid in ProcessId::all(n) {
        assert_eq!(*sim.actor(pid).local_state(), s0);
    }
}
