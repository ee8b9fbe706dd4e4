//! **Algorithm 1**: the sub-`2d` linearizable implementation (Chapter V).
//!
//! Every process keeps a full copy of the object. Operations are grouped
//! by [`OpClass`]:
//!
//! * **`OOP`** (mutator+accessor, e.g. dequeue): the invoker timestamps
//!   the operation with `⟨local_time, pid⟩`, broadcasts it, and adds it to
//!   its own priority queue `To_Execute` after `d − u` (the "fastest
//!   message to itself"). Whenever an operation has sat in `To_Execute`
//!   for `u + ε` (the *hold* timer), every queued operation with a smaller
//!   or equal timestamp is executed in timestamp order — by then no
//!   smaller-timestamped operation can still arrive (Lemma C.8). The
//!   invoker responds when its own operation executes: at worst
//!   `(d − u) + (u + ε) = d + ε` after invocation.
//! * **`MOP`** (pure mutator, e.g. write/enqueue/push): broadcast and
//!   queue exactly like `OOP`, but respond early — `ε + X` after
//!   invocation — which is sound because a pure mutator's response reveals
//!   nothing; waiting `≥ ε` suffices to order non-overlapping mutators.
//! * **`AOP`** (pure accessor, e.g. read/peek): no broadcast. The
//!   timestamp is `⟨local_time − X, pid⟩` ("pretend it was invoked `X`
//!   earlier"), and the response comes `d + ε − X` after invocation, after
//!   executing every queued operation with a smaller timestamp.
//!
//! The resulting worst-case times are `|OOP| ≤ d + ε`, `|MOP| = ε + X`,
//! `|AOP| = d + ε − X` (Theorems D.1/D.2 of Chapter V).
//!
//! The local copy, `To_Execute` and the execute pass are one
//! crate-private struct, `ToExecute`, defined here. [`Replica`] (one
//! operation at a time, all three classes) and
//! [`NsReplica`](crate::nsreplica::NsReplica) (class-homogeneous batches
//! over a keyed namespace) are the two invocation front-ends over it and
//! share the broadcast message [`OpMsg`].
//!
//! [`TimerProfile`] isolates the four wait durations so that the
//! lower-bound experiments can build *foils* — replicas that wait less
//! than the theory requires and therefore lose linearizability under
//! adversarial schedules (see [`crate::foils`]).

use core::fmt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use skewbound_sim::actor::{Actor, Context};
use skewbound_sim::time::SimDuration;
use skewbound_spec::seqspec::{OpClass, SequentialSpec};

use crate::params::Params;
use crate::timestamp::Timestamp;

/// The four wait durations of Algorithm 1.
///
/// [`TimerProfile::from_params`] gives the honest profile; anything
/// smaller sacrifices correctness (that is the point of the lower bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerProfile {
    /// Wait before adding one's own broadcast op to `To_Execute`
    /// (paper: `d − u`).
    pub self_add: SimDuration,
    /// Hold time in `To_Execute` before execution (paper: `u + ε`).
    pub hold: SimDuration,
    /// Pure-mutator response wait (paper: `ε + X`).
    pub mutator_wait: SimDuration,
    /// Pure-accessor response wait (paper: `d + ε − X`).
    pub accessor_wait: SimDuration,
}

impl TimerProfile {
    /// The correct profile from the system parameters.
    #[must_use]
    pub fn from_params(p: &Params) -> Self {
        TimerProfile {
            self_add: p.d() - p.u(),
            hold: p.u() + p.eps(),
            mutator_wait: p.eps() + p.x(),
            accessor_wait: p.d() + p.eps() - p.x(),
        }
    }

    /// A uniformly scaled profile (`num/den` of every wait) — used to
    /// build "too fast" foils. `scaled(p, 1, 1)` equals
    /// [`TimerProfile::from_params`].
    ///
    /// Rounding happens once per *pair* on the common basis
    /// `self_add + hold` and `mutator_wait + accessor_wait`, not per
    /// wait: scaling each of the four waits independently truncates up
    /// to four times, which breaks pair-sum identities such as
    /// `self_add + hold = scaled(d + ε)` and makes `scaled(99, 100)`
    /// foils non-monotone at small tick counts (a wait could round to
    /// the honest value while its pair partner loses two ticks).
    #[must_use]
    pub fn scaled(p: &Params, num: u64, den: u64) -> Self {
        let base = Self::from_params(p);
        let self_add = base.self_add.mul_frac(num, den);
        let mutator_wait = base.mutator_wait.mul_frac(num, den);
        TimerProfile {
            self_add,
            hold: (base.self_add + base.hold).mul_frac(num, den) - self_add,
            mutator_wait,
            accessor_wait: (base.mutator_wait + base.accessor_wait).mul_frac(num, den)
                - mutator_wait,
        }
    }
}

/// The broadcast message: an operation and its timestamp.
pub struct OpMsg<S: SequentialSpec> {
    /// The operation (with arguments).
    pub op: S::Op,
    /// Its global timestamp.
    pub ts: Timestamp,
}

impl<S: SequentialSpec> Clone for OpMsg<S> {
    fn clone(&self) -> Self {
        OpMsg {
            op: self.op.clone(),
            ts: self.ts,
        }
    }
}

impl<S: SequentialSpec> fmt::Debug for OpMsg<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpMsg({:?} @ {})", self.op, self.ts)
    }
}

/// Timers set by the replica, tagged per the pseudocode's
/// `set_timer(counter, ⟨op, arg, ts⟩, action)`.
pub enum ReplicaTimer<S: SequentialSpec> {
    /// Add one's own broadcast operation to `To_Execute` (action `add`).
    SelfAdd {
        /// The operation.
        op: S::Op,
        /// Its timestamp.
        ts: Timestamp,
    },
    /// Execute everything with timestamp `≤ ts` (action `execute`).
    Execute {
        /// The hold-expired timestamp.
        ts: Timestamp,
    },
    /// Respond to the pending pure mutator (action `respond`).
    MutatorRespond {
        /// The (state-independent) mutator acknowledgment.
        resp: S::Resp,
    },
    /// Execute everything smaller, then respond to the pending pure
    /// accessor (action `respond`).
    AccessorRespond {
        /// The accessor operation.
        op: S::Op,
        /// Its (shifted) timestamp.
        ts: Timestamp,
    },
}

impl<S: SequentialSpec> Clone for ReplicaTimer<S> {
    fn clone(&self) -> Self {
        match self {
            ReplicaTimer::SelfAdd { op, ts } => ReplicaTimer::SelfAdd {
                op: op.clone(),
                ts: *ts,
            },
            ReplicaTimer::Execute { ts } => ReplicaTimer::Execute { ts: *ts },
            ReplicaTimer::MutatorRespond { resp } => {
                ReplicaTimer::MutatorRespond { resp: resp.clone() }
            }
            ReplicaTimer::AccessorRespond { op, ts } => ReplicaTimer::AccessorRespond {
                op: op.clone(),
                ts: *ts,
            },
        }
    }
}

impl<S: SequentialSpec> fmt::Debug for ReplicaTimer<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaTimer::SelfAdd { op, ts } => write!(f, "SelfAdd({op:?} @ {ts})"),
            ReplicaTimer::Execute { ts } => write!(f, "Execute(≤ {ts})"),
            ReplicaTimer::MutatorRespond { .. } => write!(f, "MutatorRespond"),
            ReplicaTimer::AccessorRespond { op, ts } => {
                write!(f, "AccessorRespond({op:?} @ {ts})")
            }
        }
    }
}

/// An entry of the `To_Execute` priority queue.
struct Queued<S: SequentialSpec> {
    ts: Timestamp,
    op: S::Op,
}

impl<S: SequentialSpec> PartialEq for Queued<S> {
    fn eq(&self, other: &Self) -> bool {
        self.ts == other.ts
    }
}
impl<S: SequentialSpec> Eq for Queued<S> {}
impl<S: SequentialSpec> PartialOrd for Queued<S> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S: SequentialSpec> Ord for Queued<S> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.ts.cmp(&other.ts)
    }
}

/// The part of Algorithm 1 that does not depend on how operations are
/// invoked: the local copy of the object, the `To_Execute` priority
/// queue, the timestamp-ordered execute pass and the non-committing
/// read. [`Replica`] and [`NsReplica`](crate::nsreplica::NsReplica) are
/// invocation front-ends over it; each owns its timer enum, so setting
/// the hold timer is left to them.
pub(crate) struct ToExecute<S: SequentialSpec> {
    /// The sequential specification, shared by every replica of a group
    /// (and across scenario-grid runs) instead of cloned per process.
    spec: Arc<S>,
    local: S::State,
    heap: BinaryHeap<Reverse<Queued<S>>>,
    /// Count of operations executed on the local copy (diagnostics).
    executed: u64,
}

impl<S: SequentialSpec> ToExecute<S> {
    pub(crate) fn new(spec: Arc<S>) -> Self {
        let local = spec.initial();
        ToExecute {
            spec,
            local,
            heap: BinaryHeap::new(),
            executed: 0,
        }
    }

    pub(crate) fn spec(&self) -> &S {
        &self.spec
    }

    pub(crate) fn local(&self) -> &S::State {
        &self.local
    }

    pub(crate) fn queued_len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn executed(&self) -> u64 {
        self.executed
    }

    /// Queues every `(ts, op)` of one arrival — a delivered message or
    /// batch, or the process's own broadcast after `d − u` — and returns
    /// the timestamp to set the arrival's hold timer at: the largest.
    ///
    /// Everything that arrives together shares one hold deadline, so a
    /// single `Execute` timer at the largest timestamp stands in for one
    /// timer per op: [`ToExecute::execute_up_to`] is inclusive and
    /// timestamp-ordered, so firing once at the maximum executes each op
    /// of the arrival exactly when its own timer would have.
    pub(crate) fn push_all(
        &mut self,
        pairs: impl IntoIterator<Item = (Timestamp, S::Op)>,
    ) -> Option<Timestamp> {
        let mut max_ts: Option<Timestamp> = None;
        for (ts, op) in pairs {
            max_ts = Some(max_ts.map_or(ts, |m| m.max(ts)));
            self.heap.push(Reverse(Queued { ts, op }));
        }
        max_ts
    }

    /// Executes every queued operation with timestamp `≤ bound` (or
    /// `< bound` when `inclusive` is false) on the local copy in
    /// timestamp order, handing each executed timestamp and its response
    /// to `on_executed`.
    pub(crate) fn execute_up_to(
        &mut self,
        bound: Timestamp,
        inclusive: bool,
        mut on_executed: impl FnMut(Timestamp, S::Resp),
    ) {
        while let Some(Reverse(head)) = self.heap.peek() {
            let within = if inclusive {
                head.ts <= bound
            } else {
                head.ts < bound
            };
            if !within {
                break;
            }
            let Reverse(entry) = self.heap.pop().expect("peeked");
            let resp = self.spec.apply_mut(&mut self.local, &entry.op);
            self.executed += 1;
            on_executed(entry.ts, resp);
        }
    }

    /// The response `op` gets on the current local copy, without
    /// committing state: sound for pure accessors (state-preserving) and
    /// for pure mutators (state-independent responses), both by class
    /// consistency (`classify::check_class_consistency`).
    pub(crate) fn peek(&self, op: &S::Op) -> S::Resp {
        self.spec.peek(&self.local, op)
    }
}

/// One process of Algorithm 1.
///
/// # Examples
///
/// Running a replicated queue under random admissible delays:
///
/// ```
/// use skewbound_core::params::Params;
/// use skewbound_core::replica::Replica;
/// use skewbound_sim::prelude::*;
/// use skewbound_spec::prelude::*;
///
/// let params = Params::with_optimal_skew(
///     3,
///     SimDuration::from_ticks(100),
///     SimDuration::from_ticks(30),
///     SimDuration::ZERO,
/// )?;
/// let actors = Replica::group(Queue::<i64>::new(), &params);
/// let mut sim = Simulation::new(
///     actors,
///     ClockAssignment::zero(3),
///     UniformDelay::new(params.delay_bounds(), 42),
/// );
/// sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, QueueOp::Enqueue(7));
/// sim.schedule_invoke(
///     ProcessId::new(1),
///     SimTime::from_ticks(500),
///     QueueOp::Dequeue,
/// );
/// sim.run().unwrap();
/// assert_eq!(
///     sim.history().records()[1].resp(),
///     Some(&QueueResp::Value(Some(7)))
/// );
/// # Ok::<(), skewbound_core::params::ParamError>(())
/// ```
pub struct Replica<S: SequentialSpec> {
    core: ToExecute<S>,
    x: SimDuration,
    profile: TimerProfile,
    /// Timestamp of this process's pending `OOP` operation, if any — the
    /// response fires when it is executed on the local copy.
    own_other_pending: Option<Timestamp>,
    /// Timestamps of executed operations, in execution order. Lemma C.10
    /// says this sequence is ascending and identical across replicas at
    /// quiescence; tests assert it.
    executed_order: Vec<Timestamp>,
}

impl<S: SequentialSpec> fmt::Debug for Replica<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replica")
            .field("local", self.core.local())
            .field("queued", &self.core.queued_len())
            .field("executed", &self.core.executed())
            .finish_non_exhaustive()
    }
}

impl<S: SequentialSpec> Replica<S> {
    /// A replica with the honest timer profile from `params`.
    #[must_use]
    pub fn new(spec: S, params: &Params) -> Self {
        Self::with_profile_shared(
            Arc::new(spec),
            params.x(),
            TimerProfile::from_params(params),
        )
    }

    /// A replica with an explicit timer profile (foils use this),
    /// sharing an existing spec.
    #[must_use]
    pub fn with_profile_shared(spec: Arc<S>, x: SimDuration, profile: TimerProfile) -> Self {
        Replica {
            core: ToExecute::new(spec),
            x,
            profile,
            own_other_pending: None,
            executed_order: Vec::new(),
        }
    }

    /// One replica per process, ready for
    /// [`Simulation::new`](skewbound_sim::engine::Simulation::new).
    ///
    /// The spec is wrapped in an [`Arc`] once and shared by every
    /// replica; use [`Replica::group_shared`] when the caller already
    /// holds an `Arc` (e.g. across a scenario grid).
    #[must_use]
    pub fn group(spec: S, params: &Params) -> Vec<Self> {
        Self::group_shared(&Arc::new(spec), params)
    }

    /// One replica per process, sharing an existing spec.
    #[must_use]
    pub fn group_shared(spec: &Arc<S>, params: &Params) -> Vec<Self> {
        Self::group_of(spec, params, TimerProfile::from_params(params))
    }

    /// A group with an explicit profile (foils).
    #[must_use]
    pub fn group_with_profile(spec: S, params: &Params, profile: TimerProfile) -> Vec<Self> {
        Self::group_of(&Arc::new(spec), params, profile)
    }

    fn group_of(spec: &Arc<S>, params: &Params, profile: TimerProfile) -> Vec<Self> {
        (0..params.n())
            .map(|_| Self::with_profile_shared(Arc::clone(spec), params.x(), profile))
            .collect()
    }
}

impl<S: SequentialSpec> Replica<S> {
    /// The current local copy of the object.
    #[must_use]
    pub fn local_state(&self) -> &S::State {
        self.core.local()
    }

    /// Number of operations waiting in `To_Execute`.
    #[must_use]
    pub fn queued_len(&self) -> usize {
        self.core.queued_len()
    }

    /// Number of operations executed on the local copy so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.core.executed()
    }

    /// Timestamps of executed operations, in execution order.
    ///
    /// Lemma C.10: every replica executes the broadcast operations in
    /// ascending timestamp order, so at quiescence this sequence is
    /// identical on all replicas.
    #[must_use]
    pub fn executed_order(&self) -> &[Timestamp] {
        &self.executed_order
    }

    /// The timer profile in force.
    #[must_use]
    pub fn profile(&self) -> &TimerProfile {
        &self.profile
    }

    /// Queues one arrival and sets its hold timer.
    fn enqueue(
        &mut self,
        pairs: impl IntoIterator<Item = (Timestamp, S::Op)>,
        ctx: &mut Context<'_, Self>,
    ) {
        if let Some(ts) = self.core.push_all(pairs) {
            ctx.set_timer(self.profile.hold, ReplicaTimer::Execute { ts });
        }
    }

    /// Runs the execute pass, recording the order (Lemma C.10) and
    /// responding if one of the executed operations is this process's
    /// own pending `OOP` operation.
    fn execute_up_to(&mut self, bound: Timestamp, inclusive: bool, ctx: &mut Context<'_, Self>) {
        let Replica {
            core,
            own_other_pending,
            executed_order,
            ..
        } = self;
        core.execute_up_to(bound, inclusive, |ts, resp| {
            executed_order.push(ts);
            if *own_other_pending == Some(ts) {
                *own_other_pending = None;
                ctx.respond(resp);
            }
        });
    }
}

impl<S: SequentialSpec> Actor for Replica<S> {
    type Msg = OpMsg<S>;
    type Op = S::Op;
    type Resp = S::Resp;
    type Timer = ReplicaTimer<S>;

    fn on_invoke(&mut self, op: S::Op, ctx: &mut Context<'_, Self>) {
        match self.core.spec().class(&op) {
            OpClass::PureAccessor => {
                let ts = Timestamp::accessor(ctx.clock(), self.x, ctx.pid());
                ctx.set_timer(
                    self.profile.accessor_wait,
                    ReplicaTimer::AccessorRespond { op, ts },
                );
            }
            class => {
                let ts = Timestamp::new(ctx.clock(), ctx.pid());
                ctx.broadcast(OpMsg { op: op.clone(), ts });
                ctx.set_timer(
                    self.profile.self_add,
                    ReplicaTimer::SelfAdd { op: op.clone(), ts },
                );
                if class == OpClass::PureMutator {
                    // A pure mutator's response is state-independent
                    // (verified by `classify::check_class_consistency`),
                    // so it can be computed now and delivered at `ε + X`.
                    let resp = self.core.peek(&op);
                    ctx.set_timer(
                        self.profile.mutator_wait,
                        ReplicaTimer::MutatorRespond { resp },
                    );
                } else {
                    self.own_other_pending = Some(ts);
                }
            }
        }
    }

    fn on_message(
        &mut self,
        _from: skewbound_sim::ids::ProcessId,
        msg: OpMsg<S>,
        ctx: &mut Context<'_, Self>,
    ) {
        self.enqueue([(msg.ts, msg.op)], ctx);
    }

    fn on_message_batch(
        &mut self,
        _from: skewbound_sim::ids::ProcessId,
        msgs: Vec<OpMsg<S>>,
        ctx: &mut Context<'_, Self>,
    ) {
        self.enqueue(msgs.into_iter().map(|m| (m.ts, m.op)), ctx);
    }

    fn on_timer(&mut self, timer: ReplicaTimer<S>, ctx: &mut Context<'_, Self>) {
        match timer {
            ReplicaTimer::SelfAdd { op, ts } => self.enqueue([(ts, op)], ctx),
            ReplicaTimer::Execute { ts } => self.execute_up_to(ts, true, ctx),
            ReplicaTimer::MutatorRespond { resp } => ctx.respond(resp),
            ReplicaTimer::AccessorRespond { op, ts } => {
                self.execute_up_to(ts, false, ctx);
                ctx.respond(self.core.peek(&op));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_sim::prelude::*;
    use skewbound_spec::prelude::*;

    fn params() -> Params {
        Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(30),
            SimDuration::ZERO,
        )
        .unwrap()
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn profile_matches_paper() {
        let p = params(); // n=3, d=100, u=30 → eps=20
        let prof = TimerProfile::from_params(&p);
        assert_eq!(prof.self_add.as_ticks(), 70); // d - u
        assert_eq!(prof.hold.as_ticks(), 50); // u + eps
        assert_eq!(prof.mutator_wait.as_ticks(), 20); // eps + 0
        assert_eq!(prof.accessor_wait.as_ticks(), 120); // d + eps - 0
    }

    #[test]
    fn scaled_profile() {
        let p = params();
        let prof = TimerProfile::scaled(&p, 1, 2);
        assert_eq!(prof.self_add.as_ticks(), 35);
        assert_eq!(prof.hold.as_ticks(), 25);
        assert_eq!(
            TimerProfile::scaled(&p, 1, 1),
            TimerProfile::from_params(&p)
        );
    }

    #[test]
    fn scaled_profile_preserves_pair_sum_identities() {
        // Deliberately awkward ticks: d=101, u=31, explicit eps=19, X=7 —
        // every wait is odd, so per-wait truncation would lose ticks.
        let p = Params::new(
            3,
            SimDuration::from_ticks(101),
            SimDuration::from_ticks(31),
            SimDuration::from_ticks(19),
            SimDuration::from_ticks(7),
        )
        .unwrap();
        let honest = TimerProfile::from_params(&p);
        for (num, den) in [(1, 2), (2, 3), (99, 100), (1, 3), (3, 7)] {
            let s = TimerProfile::scaled(&p, num, den);
            // Pair sums round exactly once on the common basis.
            assert_eq!(
                s.self_add + s.hold,
                (honest.self_add + honest.hold).mul_frac(num, den),
                "self_add + hold identity broken at {num}/{den}"
            );
            assert_eq!(
                s.mutator_wait + s.accessor_wait,
                (honest.mutator_wait + honest.accessor_wait).mul_frac(num, den),
                "mutator_wait + accessor_wait identity broken at {num}/{den}"
            );
        }
        // The honest closed forms: self_add + hold = d + ε and
        // mutator_wait + accessor_wait = d + 2ε = (self_add + hold) + ε.
        assert_eq!(honest.self_add + honest.hold, p.d() + p.eps());
        assert_eq!(
            honest.mutator_wait + honest.accessor_wait,
            honest.self_add + honest.hold + p.eps(),
        );
    }

    #[test]
    fn scaled_99_over_100_is_monotone_at_small_ticks() {
        // With per-wait truncation, scaling by 99/100 at tiny tick
        // counts could leave one wait at the honest value while its pair
        // partner lost a tick — the "too fast" foil would not be
        // uniformly ≤ honest with a strictly smaller pair sum. The
        // common basis guarantees each pair sum shrinks by the scaled
        // amount exactly once.
        let p = Params::new(
            2,
            SimDuration::from_ticks(7),
            SimDuration::from_ticks(3),
            SimDuration::from_ticks(2),
            SimDuration::from_ticks(1),
        )
        .unwrap();
        let honest = TimerProfile::from_params(&p);
        let foil = TimerProfile::scaled(&p, 99, 100);
        assert!(foil.self_add <= honest.self_add);
        assert!(foil.hold <= honest.hold);
        assert!(foil.mutator_wait <= honest.mutator_wait);
        assert!(foil.accessor_wait <= honest.accessor_wait);
        assert_eq!(
            foil.self_add + foil.hold,
            (honest.self_add + honest.hold).mul_frac(99, 100),
        );
        assert_eq!(
            foil.mutator_wait + foil.accessor_wait,
            (honest.mutator_wait + honest.accessor_wait).mul_frac(99, 100),
        );
    }

    #[test]
    fn accessor_tie_is_exclusive_but_execute_is_inclusive() {
        // Two processes, zero skew, X = 0: a write and a read invoked at
        // the same instant carry timestamps tied on the clock component
        // — (0, writer) vs (0, reader). `AccessorRespond` executes
        // strictly below the accessor's own timestamp, so the pid
        // tiebreak decides whether the read observes the write; the
        // `Execute` path is inclusive (`≤ ts`), so the write lands on
        // every replica either way. Both outcomes are linearizable: the
        // operations overlap in real time.
        let params = Params::with_optimal_skew(
            2,
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(30),
            SimDuration::ZERO,
        )
        .unwrap();
        let run = |writer: u32, reader: u32| {
            let mut sim = Simulation::new(
                Replica::group(RmwRegister::default(), &params),
                ClockAssignment::zero(2),
                FixedDelay::maximal(params.delay_bounds()),
            );
            sim.schedule_invoke(p(writer), t(0), RmwOp::Write(1));
            sim.schedule_invoke(p(reader), t(0), RmwOp::Read);
            sim.run().unwrap();
            assert!(
                skewbound_lin::check_history(&RmwRegister::default(), sim.history())
                    .is_linearizable(),
                "tie run writer={writer} reader={reader} not linearizable"
            );
            // Inclusive `Execute` still applies the tied write everywhere:
            // the replicas converge on identical execution orders (Lemma
            // C.10) and final state.
            assert_eq!(
                sim.actor(p(0)).executed_order(),
                sim.actor(p(1)).executed_order()
            );
            assert_eq!(sim.actor(p(0)).local_state(), &1);
            assert_eq!(sim.actor(p(1)).local_state(), &1);
            sim.history()
                .records()
                .iter()
                .find(|r| matches!(r.op, RmwOp::Read))
                .and_then(|r| r.resp())
                .cloned()
        };
        // Writer pid 0 < reader pid 1: the tied write sorts strictly
        // below the read's timestamp and is observed.
        assert_eq!(run(0, 1), Some(RmwResp::Value(1)));
        // Writer pid 1 > reader pid 0: the tied write sorts above the
        // read's timestamp; the exclusive bound skips it.
        assert_eq!(run(1, 0), Some(RmwResp::Value(0)));
    }

    #[test]
    fn mutator_latency_is_eps_plus_x() {
        let params = params();
        let mut sim = Simulation::new(
            Replica::group(RmwRegister::default(), &params),
            ClockAssignment::zero(3),
            FixedDelay::maximal(params.delay_bounds()),
        );
        sim.schedule_invoke(p(0), t(0), RmwOp::Write(5));
        sim.run().unwrap();
        let rec = &sim.history().records()[0];
        assert_eq!(rec.resp(), Some(&RmwResp::Ack));
        assert_eq!(rec.latency().unwrap(), params.eps() + params.x());
    }

    #[test]
    fn accessor_latency_is_d_plus_eps_minus_x() {
        let params = params();
        let mut sim = Simulation::new(
            Replica::group(RmwRegister::default(), &params),
            ClockAssignment::zero(3),
            FixedDelay::maximal(params.delay_bounds()),
        );
        sim.schedule_invoke(p(1), t(0), RmwOp::Read);
        sim.run().unwrap();
        let rec = &sim.history().records()[0];
        assert_eq!(rec.resp(), Some(&RmwResp::Value(0)));
        assert_eq!(
            rec.latency().unwrap(),
            params.d() + params.eps() - params.x()
        );
    }

    #[test]
    fn oop_latency_at_most_d_plus_eps() {
        let params = params();
        let mut sim = Simulation::new(
            Replica::group(RmwRegister::default(), &params),
            ClockAssignment::zero(3),
            FixedDelay::maximal(params.delay_bounds()),
        );
        sim.schedule_invoke(p(0), t(0), RmwOp::Rmw(RmwKind::FetchAdd(1)));
        sim.run().unwrap();
        let rec = &sim.history().records()[0];
        assert_eq!(rec.resp(), Some(&RmwResp::Value(0)));
        assert!(rec.latency().unwrap() <= params.d() + params.eps());
        // With no concurrent traffic it is exactly d + eps.
        assert_eq!(rec.latency().unwrap(), params.d() + params.eps());
    }

    #[test]
    fn read_after_write_sees_value() {
        let params = params();
        let mut sim = Simulation::new(
            Replica::group(RmwRegister::default(), &params),
            ClockAssignment::zero(3),
            UniformDelay::new(params.delay_bounds(), 11),
        );
        // Write completes at eps; read invoked well after, on another
        // process.
        sim.schedule_invoke(p(0), t(0), RmwOp::Write(42));
        sim.schedule_invoke(p(2), t(1_000), RmwOp::Read);
        sim.run().unwrap();
        assert_eq!(sim.history().records()[1].resp(), Some(&RmwResp::Value(42)));
    }

    #[test]
    fn queue_fifo_across_processes() {
        let params = params();
        let mut sim = Simulation::new(
            Replica::group(Queue::<i64>::new(), &params),
            ClockAssignment::zero(3),
            UniformDelay::new(params.delay_bounds(), 5),
        );
        sim.schedule_invoke(p(0), t(0), QueueOp::Enqueue(1));
        sim.schedule_invoke(p(1), t(200), QueueOp::Enqueue(2));
        sim.schedule_invoke(p(2), t(600), QueueOp::Dequeue);
        sim.schedule_invoke(p(0), t(900), QueueOp::Dequeue);
        sim.run().unwrap();
        let records = sim.history().records();
        assert_eq!(records[2].resp(), Some(&QueueResp::Value(Some(1))));
        assert_eq!(records[3].resp(), Some(&QueueResp::Value(Some(2))));
    }

    #[test]
    fn replicas_converge_to_same_state() {
        let params = params();
        let mut sim = Simulation::new(
            Replica::group(Queue::<i64>::new(), &params),
            ClockAssignment::spread(3, params.eps()),
            UniformDelay::new(params.delay_bounds(), 9),
        );
        for i in 0..5 {
            sim.schedule_invoke(
                p(i % 3),
                t(u64::from(i) * 300),
                QueueOp::Enqueue(i64::from(i)),
            );
        }
        sim.run().unwrap();
        let s0 = sim.actor(p(0)).local_state().clone();
        for i in 1..3 {
            assert_eq!(&s0, sim.actor(p(i)).local_state(), "replica {i} diverged");
        }
        assert_eq!(s0.len(), 5);
        for i in ProcessId::all(3) {
            assert_eq!(sim.actor(i).queued_len(), 0);
            assert_eq!(sim.actor(i).executed(), 5);
        }
    }

    #[test]
    fn concurrent_mutators_ordered_by_timestamp_everywhere() {
        let params = params();
        // p1's clock is ahead: its concurrent write gets the larger
        // timestamp and must win on all replicas.
        let mut clocks = ClockAssignment::zero(3);
        clocks.shift(p(1), i64::try_from(params.eps().as_ticks()).unwrap());
        let mut sim = Simulation::new(
            Replica::group(RmwRegister::default(), &params),
            clocks,
            FixedDelay::maximal(params.delay_bounds()),
        );
        sim.schedule_invoke(p(0), t(10), RmwOp::Write(100));
        sim.schedule_invoke(p(1), t(10), RmwOp::Write(200));
        sim.run().unwrap();
        for i in ProcessId::all(3) {
            assert_eq!(sim.actor(i).local_state(), &200, "replica {i}");
        }
    }

    #[test]
    fn executed_order_ascending_and_identical_everywhere() {
        // Lemma C.10, executable: replicas execute all broadcast ops in
        // the same ascending timestamp order.
        let params = params();
        let mut sim = Simulation::new(
            Replica::group(Queue::<i64>::new(), &params),
            ClockAssignment::spread(3, params.eps()),
            UniformDelay::new(params.delay_bounds(), 77),
        );
        for i in 0..6u64 {
            sim.schedule_invoke(p((i % 3) as u32), t(i * 400), QueueOp::Enqueue(i as i64));
        }
        sim.run().unwrap();
        let order0 = sim.actor(p(0)).executed_order().to_vec();
        assert_eq!(order0.len(), 6);
        assert!(order0.windows(2).all(|w| w[0] < w[1]), "ascending");
        for i in 1..3 {
            assert_eq!(sim.actor(p(i)).executed_order(), &order0[..], "replica {i}");
        }
    }

    #[test]
    fn accessor_does_not_mutate_local_copy() {
        let params = params();
        let mut sim = Simulation::new(
            Replica::group(Queue::<i64>::new(), &params),
            ClockAssignment::zero(3),
            FixedDelay::maximal(params.delay_bounds()),
        );
        sim.schedule_invoke(p(0), t(0), QueueOp::Enqueue(7));
        sim.schedule_invoke(p(1), t(500), QueueOp::Peek);
        sim.schedule_invoke(p(2), t(1000), QueueOp::Peek);
        sim.run().unwrap();
        let records = sim.history().records();
        assert_eq!(records[1].resp(), Some(&QueueResp::Value(Some(7))));
        assert_eq!(records[2].resp(), Some(&QueueResp::Value(Some(7))));
        assert_eq!(sim.actor(p(1)).local_state(), &vec![7]);
    }
}
