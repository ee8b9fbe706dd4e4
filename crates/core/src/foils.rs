//! Deliberately-too-fast implementations ("foils").
//!
//! The lower bounds of Chapter IV say: *any* implementation whose
//! operations respond faster than the bound is incorrect — there exists an
//! admissible run whose history is not linearizable. The foils here are
//! those hypothetical too-fast implementations, built to be run under the
//! adversarial scenarios of `skewbound-shift`, where the linearizability
//! checker catches them. Algorithm 1 with its honest
//! [`crate::replica::TimerProfile`] survives the same
//! scenarios.
//!
//! * [`LocalFirstReplica`] — responds instantly from the local copy and
//!   gossips mutations with no ordering (the incorrect implementation of
//!   Fig. 1(a); violates every bound at once);
//! * [`eager_group`] — Algorithm 1 with every wait scaled down;
//! * [`fast_mutator_group`] — mutators respond faster than `(1 − 1/n)u`
//!   (falsified by the Theorem D.1 scenario);
//! * [`short_hold_group`] — the `To_Execute` hold is shorter than `u + ε`
//!   (replicas execute in different orders under adversarial delays);
//! * [`eager_accessor_group`] — accessors respond faster than the paired
//!   bound allows (falsified by the Theorem E.1 scenario).

use core::fmt;
use std::sync::Arc;

use skewbound_sim::actor::{Actor, Context};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimDuration;
use skewbound_spec::seqspec::SequentialSpec;

use crate::params::Params;
use crate::replica::{Replica, TimerProfile};

/// Algorithm 1 with every wait scaled to `num/den` of the honest value.
#[must_use]
pub fn eager_group<S: SequentialSpec>(
    spec: S,
    params: &Params,
    num: u64,
    den: u64,
) -> Vec<Replica<S>> {
    Replica::group_with_profile(spec, params, TimerProfile::scaled(params, num, den))
}

/// Algorithm 1 whose pure mutators respond after `wait` instead of
/// `ε + X`. With `wait < (1 − 1/n)u` this violates Theorem D.1.
#[must_use]
pub fn fast_mutator_group<S: SequentialSpec>(
    spec: S,
    params: &Params,
    wait: SimDuration,
) -> Vec<Replica<S>> {
    let profile = TimerProfile {
        mutator_wait: wait,
        ..TimerProfile::from_params(params)
    };
    Replica::group_with_profile(spec, params, profile)
}

/// Algorithm 1 whose `To_Execute` hold is `hold` instead of `u + ε`.
/// Replicas may then execute mutators in different timestamp orders.
#[must_use]
pub fn short_hold_group<S: SequentialSpec>(
    spec: S,
    params: &Params,
    hold: SimDuration,
) -> Vec<Replica<S>> {
    let profile = TimerProfile {
        hold,
        ..TimerProfile::from_params(params)
    };
    Replica::group_with_profile(spec, params, profile)
}

/// Algorithm 1 whose pure accessors respond after `wait` instead of
/// `d + ε − X` (without adjusting timestamps). With a small enough `wait`
/// the accessor answers before remote mutators can reach it —
/// Theorem E.1's violation.
#[must_use]
pub fn eager_accessor_group<S: SequentialSpec>(
    spec: S,
    params: &Params,
    wait: SimDuration,
) -> Vec<Replica<S>> {
    let profile = TimerProfile {
        accessor_wait: wait,
        ..TimerProfile::from_params(params)
    };
    Replica::group_with_profile(spec, params, profile)
}

/// The "obvious" incorrect implementation: every operation is applied to
/// the local copy and answered immediately (zero latency); mutations are
/// gossiped to peers, who apply them on receipt in arrival order.
///
/// This is Fig. 1(a)'s implementation generalized to arbitrary types. It
/// is *fast* — every operation takes zero time — and *wrong*: a read
/// issued between a remote write's send and its delivery returns stale
/// data, two dequeues on different processes return the same element, etc.
pub struct LocalFirstReplica<S: SequentialSpec> {
    /// The sequential specification, shared by every process of a group.
    spec: Arc<S>,
    local: S::State,
}

impl<S: SequentialSpec> Clone for LocalFirstReplica<S> {
    fn clone(&self) -> Self {
        LocalFirstReplica {
            spec: Arc::clone(&self.spec),
            local: self.local.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.spec, &source.spec) {
            self.spec = Arc::clone(&source.spec);
        }
        self.local.clone_from(&source.local);
    }
}

impl<S: SequentialSpec> fmt::Debug for LocalFirstReplica<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalFirstReplica")
            .field("local", &self.local)
            .finish_non_exhaustive()
    }
}

/// Gossip message of [`LocalFirstReplica`]: a mutating operation to apply.
pub struct Gossip<S: SequentialSpec> {
    /// The mutating operation.
    pub op: S::Op,
}

impl<S: SequentialSpec> Clone for Gossip<S> {
    fn clone(&self) -> Self {
        Gossip {
            op: self.op.clone(),
        }
    }
}

impl<S: SequentialSpec> fmt::Debug for Gossip<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gossip({:?})", self.op)
    }
}

impl<S: SequentialSpec> LocalFirstReplica<S> {
    /// Creates one process.
    #[must_use]
    pub fn new(spec: S) -> Self {
        Self::new_shared(Arc::new(spec))
    }

    /// Creates one process sharing an existing spec.
    #[must_use]
    pub fn new_shared(spec: Arc<S>) -> Self {
        let local = spec.initial();
        LocalFirstReplica { spec, local }
    }

    /// One process per replica slot. The spec is wrapped in an [`Arc`]
    /// once and shared, not cloned per process.
    #[must_use]
    pub fn group(spec: S, n: usize) -> Vec<Self> {
        Self::group_shared(&Arc::new(spec), n)
    }

    /// One process per replica slot, sharing an existing spec.
    #[must_use]
    pub fn group_shared(spec: &Arc<S>, n: usize) -> Vec<Self> {
        (0..n)
            .map(|_| LocalFirstReplica::new_shared(Arc::clone(spec)))
            .collect()
    }
}

impl<S: SequentialSpec> LocalFirstReplica<S> {
    /// The local copy.
    #[must_use]
    pub fn local_state(&self) -> &S::State {
        &self.local
    }
}

impl<S: SequentialSpec> Actor for LocalFirstReplica<S> {
    type Msg = Gossip<S>;
    type Op = S::Op;
    type Resp = S::Resp;
    type Timer = ();

    fn on_invoke(&mut self, op: S::Op, ctx: &mut Context<'_, Self>) {
        let (next, resp) = self.spec.apply(&self.local, &op);
        let mutated = next != self.local;
        self.local = next;
        if mutated || self.spec.class(&op).is_mutator() {
            ctx.broadcast(Gossip { op });
        }
        ctx.respond(resp);
    }

    fn on_message(&mut self, _from: ProcessId, msg: Gossip<S>, _ctx: &mut Context<'_, Self>) {
        let (next, _) = self.spec.apply(&self.local, &msg.op);
        self.local = next;
    }

    fn on_timer(&mut self, _t: (), _ctx: &mut Context<'_, Self>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_lin::checker::check_history;
    use skewbound_sim::prelude::*;
    use skewbound_spec::prelude::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    fn params() -> Params {
        Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(30),
            SimDuration::ZERO,
        )
        .unwrap()
    }

    #[test]
    fn local_first_reproduces_fig1a_violation() {
        // p0: write(0) then write(1); p1 reads after both responded but
        // before the gossip arrives → returns 0. Not linearizable.
        let bounds = params().delay_bounds();
        let mut sim = Simulation::new(
            LocalFirstReplica::group(RwRegister::new(0), 3),
            ClockAssignment::zero(3),
            FixedDelay::maximal(bounds),
        );
        sim.schedule_invoke(p(0), t(0), RegOp::Write(0));
        sim.schedule_invoke(p(0), t(1), RegOp::Write(1));
        sim.schedule_invoke(p(1), t(2), RegOp::Read);
        sim.run().unwrap();
        let records = sim.history().records();
        assert_eq!(records[2].resp(), Some(&RegResp::Value(0)), "stale read");
        assert!(check_history(&RwRegister::new(0), sim.history()).is_violation());
    }

    #[test]
    fn local_first_duplicates_dequeues() {
        let bounds = params().delay_bounds();
        let mut sim = Simulation::new(
            LocalFirstReplica::group(Queue::<i64>::new(), 3),
            ClockAssignment::zero(3),
            FixedDelay::maximal(bounds),
        );
        sim.schedule_invoke(p(0), t(0), QueueOp::Enqueue(7));
        // Both dequeues happen after the enqueue's gossip arrives (t=100)
        // but before each other's gossip does.
        sim.schedule_invoke(p(1), t(150), QueueOp::Dequeue);
        sim.schedule_invoke(p(2), t(151), QueueOp::Dequeue);
        sim.run().unwrap();
        let records = sim.history().records();
        assert_eq!(records[1].resp(), Some(&QueueResp::Value(Some(7))));
        assert_eq!(records[2].resp(), Some(&QueueResp::Value(Some(7))));
        assert!(check_history(&Queue::<i64>::new(), sim.history()).is_violation());
    }

    #[test]
    fn foil_profiles_are_faster_than_honest() {
        let params = params();
        let honest = TimerProfile::from_params(&params);
        let group = eager_group(RmwRegister::default(), &params, 1, 2);
        assert!(group[0].profile().hold < honest.hold);
        let fm = fast_mutator_group(RmwRegister::default(), &params, SimDuration::ZERO);
        assert_eq!(fm[0].profile().mutator_wait, SimDuration::ZERO);
        let sh = short_hold_group(RmwRegister::default(), &params, SimDuration::from_ticks(1));
        assert_eq!(sh[0].profile().hold.as_ticks(), 1);
        let ea = eager_accessor_group(RmwRegister::default(), &params, SimDuration::from_ticks(5));
        assert_eq!(ea[0].profile().accessor_wait.as_ticks(), 5);
    }

    #[test]
    fn honest_replica_survives_fig1a_schedule() {
        // The same schedule that broke LocalFirstReplica is handled
        // correctly by Algorithm 1.
        let params = params();
        let mut sim = Simulation::new(
            Replica::group(RwRegister::new(0), &params),
            ClockAssignment::zero(3),
            FixedDelay::maximal(params.delay_bounds()),
        );
        sim.schedule_invoke(p(0), t(0), RegOp::Write(0));
        sim.schedule_invoke(p(0), t(100), RegOp::Write(1));
        sim.schedule_invoke(p(1), t(300), RegOp::Read);
        sim.run().unwrap();
        assert_eq!(sim.history().records()[2].resp(), Some(&RegResp::Value(1)));
        assert!(check_history(&RwRegister::new(0), sim.history()).is_linearizable());
    }
}
