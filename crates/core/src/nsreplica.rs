//! Algorithm 1 over a keyed namespace, with batched invocations.
//!
//! [`NsReplica`] is the batch invocation front-end over the crate's one
//! `To_Execute` core (`ToExecute` in [`crate::replica`], shared with
//! [`Replica`](crate::replica::Replica)): the local copy, the priority
//! queue, the timestamp-ordered execute pass and the non-committing read
//! live there; this module holds only what batching adds — seq-stamped
//! timestamps, one timer per role, the class check and the framing
//! switch. Its object is a [`Namespace`]: every operation carries an
//! object key, the local copy is the namespace's map from keys to
//! per-object states, mutated in place through `Namespace::apply_mut`
//! (only the touched key's entry changes), and the broadcast message is
//! the ordinary [`OpMsg`] over the namespace spec.
//!
//! Invocations are **class-homogeneous batches**: one `Vec<NsOp>` of
//! pure mutators or pure accessors invoked together and responded
//! together. A batch shares one invocation clock reading; its ops are
//! disambiguated by the timestamp's sequence component
//! (`⟨clock, pid, #j⟩`, see [`Timestamp::with_seq`]), so all ops of one
//! batch are adjacent in the global timestamp order — no foreign
//! timestamp can fall strictly between `⟨t, p, #0⟩` and `⟨t, p, #k⟩`,
//! because any other process's timestamp differs in the time or pid
//! component and those order first.
//!
//! Because of that adjacency, a batch needs only **one timer per role**
//! where the unbatched replica needs one per op:
//!
//! * one `SelfAdd` at `d − u` carrying all `(ts, op)` pairs;
//! * one `Execute` hold timer at `u + ε` per *delivery*, set at the
//!   batch's largest timestamp (the inclusive, timestamp-ordered
//!   execute pass then fires each op exactly when its own timer would
//!   have — the "single timestamp pass");
//! * one `MutatorRespond` at `ε + X` carrying the whole response vector,
//!   or one `AccessorRespond` at `d + ε − X` executing everything below
//!   the batch's first timestamp and then reading all ops back to back.
//!
//! The `batched` flag controls *message framing only*: `true` sends one
//! delivery batch per broadcast ([`Context::broadcast_batch`]), `false`
//! sends one message per op. Timer placement and response times are
//! identical either way, which is what lets the benchmarks A/B the
//! transport-level batching in isolation.

use core::fmt;
use std::sync::Arc;

use skewbound_sim::actor::{Actor, Context};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimDuration;
use skewbound_spec::namespace::{Namespace, NsOp, NsState};
use skewbound_spec::seqspec::{OpClass, SequentialSpec};

use crate::params::Params;
use crate::replica::{OpMsg, TimerProfile, ToExecute};
use crate::timestamp::Timestamp;

/// Timers of the batched namespace replica (one per batch, not per op —
/// see the [module docs](self)).
pub enum NsTimer<S: SequentialSpec> {
    /// Add one's own broadcast batch to `To_Execute`.
    SelfAdd {
        /// The batch's `(timestamp, op)` pairs, in sequence order.
        ops: Vec<(Timestamp, NsOp<S::Op>)>,
    },
    /// Execute everything with timestamp `≤ ts`.
    Execute {
        /// The hold-expired (largest-of-batch) timestamp.
        ts: Timestamp,
    },
    /// Respond to the pending pure-mutator batch.
    MutatorRespond {
        /// The precomputed (state-independent) responses, in batch order.
        resps: Vec<S::Resp>,
    },
    /// Execute everything below the batch's first timestamp, then read
    /// and respond to the pending pure-accessor batch.
    AccessorRespond {
        /// The batch's `(timestamp, op)` pairs, in sequence order.
        ops: Vec<(Timestamp, NsOp<S::Op>)>,
    },
}

impl<S: SequentialSpec> Clone for NsTimer<S> {
    fn clone(&self) -> Self {
        match self {
            NsTimer::SelfAdd { ops } => NsTimer::SelfAdd { ops: ops.clone() },
            NsTimer::Execute { ts } => NsTimer::Execute { ts: *ts },
            NsTimer::MutatorRespond { resps } => NsTimer::MutatorRespond {
                resps: resps.clone(),
            },
            NsTimer::AccessorRespond { ops } => NsTimer::AccessorRespond { ops: ops.clone() },
        }
    }
}

impl<S: SequentialSpec> fmt::Debug for NsTimer<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NsTimer::SelfAdd { ops } => write!(f, "SelfAdd(×{})", ops.len()),
            NsTimer::Execute { ts } => write!(f, "Execute(≤ {ts})"),
            NsTimer::MutatorRespond { resps } => write!(f, "MutatorRespond(×{})", resps.len()),
            NsTimer::AccessorRespond { ops } => write!(f, "AccessorRespond(×{})", ops.len()),
        }
    }
}

/// One process of the batched namespace replica group.
///
/// Only **pure** batches are supported: every op of a batch must be a
/// pure mutator, or every op a pure accessor (the `OOP` class couples
/// each response to its own execution instant, which has no batched
/// analogue — invoke those through [`Replica`](crate::replica::Replica)).
///
/// # Examples
///
/// ```
/// use skewbound_core::nsreplica::NsReplica;
/// use skewbound_core::params::Params;
/// use skewbound_sim::prelude::*;
/// use skewbound_spec::prelude::*;
///
/// let params = Params::with_optimal_skew(
///     3,
///     SimDuration::from_ticks(100),
///     SimDuration::from_ticks(30),
///     SimDuration::ZERO,
/// )?;
/// let actors = NsReplica::group(RmwRegister::default(), &params, true);
/// let mut sim = Simulation::new(
///     actors,
///     ClockAssignment::zero(3),
///     UniformDelay::new(params.delay_bounds(), 42),
/// );
/// sim.schedule_invoke(
///     ProcessId::new(0),
///     SimTime::ZERO,
///     vec![NsOp::new(7, RmwOp::Write(5)), NsOp::new(9, RmwOp::Write(6))],
/// );
/// sim.schedule_invoke(
///     ProcessId::new(1),
///     SimTime::from_ticks(500),
///     vec![NsOp::new(7, RmwOp::Read), NsOp::new(9, RmwOp::Read)],
/// );
/// sim.run().unwrap();
/// assert_eq!(
///     sim.history().records()[1].resp(),
///     Some(&vec![RmwResp::Value(5), RmwResp::Value(6)])
/// );
/// # Ok::<(), skewbound_core::params::ParamError>(())
/// ```
pub struct NsReplica<S: SequentialSpec> {
    core: ToExecute<Namespace<S>>,
    x: SimDuration,
    profile: TimerProfile,
    /// Frame broadcasts as delivery batches (`true`) or per-op messages.
    batched: bool,
}

impl<S: SequentialSpec> fmt::Debug for NsReplica<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NsReplica")
            .field("keys", &self.core.local().len())
            .field("queued", &self.core.queued_len())
            .field("executed", &self.core.executed())
            .field("batched", &self.batched)
            .finish_non_exhaustive()
    }
}

impl<S: SequentialSpec> NsReplica<S> {
    /// One replica per process with the honest timer profile from
    /// `params`, sharing the namespace spec over `inner`.
    #[must_use]
    pub fn group(inner: S, params: &Params, batched: bool) -> Vec<Self> {
        let spec = Arc::new(Namespace::new(inner));
        (0..params.n())
            .map(|_| NsReplica {
                core: ToExecute::new(Arc::clone(&spec)),
                x: params.x(),
                profile: TimerProfile::from_params(params),
                batched,
            })
            .collect()
    }

    /// Per-key local states (absent keys are at the inner initial state).
    #[must_use]
    pub fn local_states(&self) -> &NsState<S::State> {
        self.core.local()
    }

    /// Number of operations executed on the local copy so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.core.executed()
    }

    /// Number of operations waiting in `To_Execute`.
    #[must_use]
    pub fn queued_len(&self) -> usize {
        self.core.queued_len()
    }

    /// Queues one arrival and sets its hold timer.
    fn enqueue(
        &mut self,
        pairs: impl IntoIterator<Item = (Timestamp, NsOp<S::Op>)>,
        ctx: &mut Context<'_, Self>,
    ) {
        if let Some(ts) = self.core.push_all(pairs) {
            ctx.set_timer(self.profile.hold, NsTimer::Execute { ts });
        }
    }

    /// The (single) class of `batch`.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, a mixed-class batch, or an `Other`-class
    /// op (unsupported here; see the type docs).
    fn batch_class(&self, batch: &[NsOp<S::Op>]) -> OpClass {
        let spec = self.core.spec();
        let class = spec.class(batch.first().expect("empty batch invoked"));
        assert!(
            class != OpClass::Other,
            "NsReplica batches must be pure mutators or pure accessors"
        );
        for op in &batch[1..] {
            assert!(
                spec.class(op) == class,
                "mixed-class batch: {:?} is not {class:?}",
                op.op
            );
        }
        class
    }
}

impl<S: SequentialSpec> Actor for NsReplica<S> {
    type Msg = OpMsg<Namespace<S>>;
    type Op = Vec<NsOp<S::Op>>;
    type Resp = Vec<S::Resp>;
    type Timer = NsTimer<S>;

    fn on_invoke(&mut self, batch: Vec<NsOp<S::Op>>, ctx: &mut Context<'_, Self>) {
        let (clock, pid) = (ctx.clock(), ctx.pid());
        match self.batch_class(&batch) {
            OpClass::PureAccessor => {
                let ops = (0u32..)
                    .zip(batch)
                    .map(|(j, op)| (Timestamp::accessor_with_seq(clock, self.x, pid, j), op))
                    .collect();
                ctx.set_timer(self.profile.accessor_wait, NsTimer::AccessorRespond { ops });
            }
            _ => {
                // Pure-mutator responses are state-independent, so the
                // whole response vector is computable at invocation.
                let resps = batch.iter().map(|op| self.core.peek(op)).collect();
                let msgs: Vec<Self::Msg> = (0u32..)
                    .zip(batch)
                    .map(|(j, op)| OpMsg {
                        ts: Timestamp::with_seq(clock, pid, j),
                        op,
                    })
                    .collect();
                if self.batched {
                    ctx.broadcast_batch(&msgs);
                } else {
                    for msg in &msgs {
                        ctx.broadcast(msg.clone());
                    }
                }
                let ops = msgs.into_iter().map(|m| (m.ts, m.op)).collect();
                ctx.set_timer(self.profile.self_add, NsTimer::SelfAdd { ops });
                ctx.set_timer(self.profile.mutator_wait, NsTimer::MutatorRespond { resps });
            }
        }
    }

    fn on_message(&mut self, _from: ProcessId, msg: Self::Msg, ctx: &mut Context<'_, Self>) {
        self.enqueue([(msg.ts, msg.op)], ctx);
    }

    fn on_message_batch(
        &mut self,
        _from: ProcessId,
        msgs: Vec<Self::Msg>,
        ctx: &mut Context<'_, Self>,
    ) {
        self.enqueue(msgs.into_iter().map(|m| (m.ts, m.op)), ctx);
    }

    fn on_timer(&mut self, timer: NsTimer<S>, ctx: &mut Context<'_, Self>) {
        match timer {
            NsTimer::SelfAdd { ops } => self.enqueue(ops, ctx),
            NsTimer::Execute { ts } => self.core.execute_up_to(ts, true, |_, _| {}),
            NsTimer::MutatorRespond { resps } => ctx.respond(resps),
            NsTimer::AccessorRespond { ops } => {
                let first = ops.first().expect("empty accessor batch").0;
                self.core.execute_up_to(first, false, |_, _| {});
                // The batch's timestamps are adjacent in the global
                // order (same clock/pid, consecutive seq), so reading
                // back to back observes exactly the executions below
                // each op's own timestamp.
                let resps = ops.iter().map(|(_, op)| self.core.peek(op)).collect();
                ctx.respond(resps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skewbound_sim::prelude::*;
    use skewbound_spec::prelude::*;

    fn params(n: usize) -> Params {
        Params::with_optimal_skew(
            n,
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

    fn run(batched: bool) -> History<Vec<NsOp<RmwOp>>, Vec<RmwResp>> {
        let params = params(3);
        let mut sim = Simulation::new(
            NsReplica::group(RmwRegister::default(), &params, batched),
            ClockAssignment::zero(3),
            UniformDelay::new(params.delay_bounds(), 7),
        );
        sim.schedule_invoke(
            p(0),
            t(0),
            vec![
                NsOp::new(1, RmwOp::Write(10)),
                NsOp::new(2, RmwOp::Write(20)),
            ],
        );
        sim.schedule_invoke(p(1), t(0), vec![NsOp::new(3, RmwOp::Write(30))]);
        sim.schedule_invoke(
            p(2),
            t(1_000),
            vec![
                NsOp::new(1, RmwOp::Read),
                NsOp::new(2, RmwOp::Read),
                NsOp::new(3, RmwOp::Read),
            ],
        );
        sim.run().unwrap();
        sim.into_history()
    }

    #[test]
    fn batched_mutators_are_visible_to_later_accessors() {
        let h = run(true);
        assert!(h.is_complete());
        assert_eq!(
            h.records()[2].resp(),
            Some(&vec![
                RmwResp::Value(10),
                RmwResp::Value(20),
                RmwResp::Value(30)
            ])
        );
    }

    #[test]
    fn batching_changes_framing_not_outcomes() {
        // Timer placement and timestamps are identical either way; only
        // the wire framing differs, so the histories must match exactly.
        let batched = run(true);
        let unbatched = run(false);
        assert_eq!(batched.records().len(), unbatched.records().len());
        for (a, b) in batched.records().iter().zip(unbatched.records()) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.response, b.response);
            assert_eq!(a.invoked_at, b.invoked_at);
        }
    }

    #[test]
    fn mutator_batch_responds_at_eps_plus_x() {
        let h = run(true);
        let params = params(3);
        assert_eq!(
            h.records()[0].latency().unwrap(),
            crate::bounds::ub_mop(&params)
        );
    }

    #[test]
    fn replicas_converge_per_key() {
        let params = params(3);
        let mut sim = Simulation::new(
            NsReplica::group(RmwRegister::default(), &params, true),
            ClockAssignment::zero(3),
            UniformDelay::new(params.delay_bounds(), 3),
        );
        sim.schedule_invoke(p(0), t(0), vec![NsOp::new(5, RmwOp::Write(1))]);
        sim.schedule_invoke(p(1), t(10), vec![NsOp::new(5, RmwOp::Write(2))]);
        sim.schedule_invoke(p(2), t(20), vec![NsOp::new(9, RmwOp::Write(3))]);
        sim.run().unwrap();
        let states: Vec<_> = (0..3)
            .map(|i| sim.actor(p(i)).local_states().clone())
            .collect();
        assert_eq!(states[0], states[1]);
        assert_eq!(states[1], states[2]);
        assert_eq!(states[0].get(9), Some(&3));
        // Three broadcast writes → three executions on every replica.
        assert!((0..3).all(|i| sim.actor(p(i)).executed() == 3));
    }

    #[test]
    fn one_op_batches_match_the_single_op_front_end() {
        // The two front-ends run the same algorithm: a pure-op workload
        // invoked as one-op batches here and as single ops on
        // `Replica<Namespace<_>>` yields the same history, record for
        // record, instants included.
        use crate::replica::Replica;
        use rand::rngs::StdRng;
        use rand::Rng;

        let params = Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(100),
            SimDuration::from_ticks(30),
            SimDuration::from_ticks(7),
        )
        .unwrap();
        let gen = |_pid: ProcessId, _idx: usize, rng: &mut StdRng| {
            let key = rng.gen_range(0..5);
            if rng.gen_bool(0.5) {
                NsOp::new(key, RmwOp::Write(rng.gen_range(1..100)))
            } else {
                NsOp::new(key, RmwOp::Read)
            }
        };
        let pids: Vec<_> = ProcessId::all(3).collect();
        let clocks = || ClockAssignment::spread(3, params.eps());
        let delays = || FixedDelay::maximal(params.delay_bounds());

        let batches = crate::harness::run_history(
            NsReplica::group(RmwRegister::default(), &params, true),
            clocks(),
            delays(),
            &mut ClosedLoop::new(pids.clone(), 40, 23, |p, i, r: &mut StdRng| {
                vec![gen(p, i, r)]
            }),
        )
        .unwrap();
        let singles = crate::harness::run_history(
            Replica::group(Namespace::new(RmwRegister::default()), &params),
            clocks(),
            delays(),
            &mut ClosedLoop::new(pids, 40, 23, gen),
        )
        .unwrap();

        assert_eq!(batches.len(), 120);
        assert_eq!(batches.len(), singles.len());
        let mut classes = [0usize; 2];
        for (b, s) in batches.records().iter().zip(singles.records()) {
            assert_eq!(b.pid, s.pid);
            assert_eq!(b.op, vec![s.op.clone()]);
            assert_eq!(b.invoked_at, s.invoked_at);
            let (resp, at) = s.response.clone().expect("complete history");
            assert_eq!(b.response, Some((vec![resp], at)));
            classes[usize::from(matches!(s.op.op, RmwOp::Read))] += 1;
        }
        assert!(classes.iter().all(|&c| c > 20), "both classes exercised");
    }

    #[test]
    #[should_panic(expected = "pure mutators or pure accessors")]
    fn oop_batches_are_rejected() {
        let params = params(2);
        let mut sim = Simulation::new(
            NsReplica::group(RmwRegister::default(), &params, true),
            ClockAssignment::zero(2),
            UniformDelay::new(params.delay_bounds(), 1),
        );
        sim.schedule_invoke(
            p(0),
            t(0),
            vec![NsOp::new(0, RmwOp::Rmw(RmwKind::FetchAdd(1)))],
        );
        let _ = sim.run();
    }

    #[test]
    #[should_panic(expected = "mixed-class batch")]
    fn mixed_batches_are_rejected() {
        let params = params(2);
        let mut sim = Simulation::new(
            NsReplica::group(RmwRegister::default(), &params, true),
            ClockAssignment::zero(2),
            UniformDelay::new(params.delay_bounds(), 1),
        );
        sim.schedule_invoke(
            p(0),
            t(0),
            vec![NsOp::new(0, RmwOp::Write(1)), NsOp::new(1, RmwOp::Read)],
        );
        let _ = sim.run();
    }
}
