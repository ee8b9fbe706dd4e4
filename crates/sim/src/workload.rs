//! Workload drivers: who invokes what, when.
//!
//! The application layer of the model invokes operations at processes,
//! each process having at most one pending operation. A [`Driver`]
//! captures that layer: it supplies the initial invocations and, on each
//! response, optionally the process's next operation. Closed-loop drivers
//! (invoke, wait for response, invoke again) keep the one-pending-op
//! invariant by construction; a driver that breaks it fails the run with
//! the same panic on every backend. The engine consumes a driver in
//! [`Simulation::run_with`](crate::engine::Simulation::run_with); both
//! wall-clock backends consume it through [`drive`], which also owns
//! their run's history.

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Instant;

use fxhash::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deadline::TimeBase;
use crate::history::History;
use crate::ids::ProcessId;
use crate::node::overlapping_invocation;
use crate::time::{SimDuration, SimTime};

/// The application layer: initial invocations plus a closed-loop "what
/// next" rule.
pub trait Driver<O, R> {
    /// Invocations to schedule before the run starts.
    fn initial(&mut self) -> Vec<(ProcessId, SimTime, O)>;

    /// Called when `pid` completes `op` with response `resp` at real time
    /// `now`. Returning `Some((gap, next))` invokes `next` at `now + gap`.
    fn next(&mut self, pid: ProcessId, op: &O, resp: &R, now: SimTime) -> Option<(SimDuration, O)>;
}

/// A driver that schedules nothing (pure scripted runs use
/// [`Simulation::schedule_invoke`](crate::engine::Simulation::schedule_invoke)).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDriver;

impl<O, R> Driver<O, R> for NoDriver {
    fn initial(&mut self) -> Vec<(ProcessId, SimTime, O)> {
        Vec::new()
    }

    fn next(
        &mut self,
        _pid: ProcessId,
        _op: &O,
        _resp: &R,
        _now: SimTime,
    ) -> Option<(SimDuration, O)> {
        None
    }
}

/// Closed-loop driver: every process draws operations from a generator
/// until it has completed its per-process quota.
///
/// The generator is called as `gen(pid, index, rng)` where `index` counts
/// the operations issued by that process so far; runs are deterministic
/// for a fixed seed.
pub struct ClosedLoop<O, F> {
    gen: F,
    ops_per_process: usize,
    processes: Vec<ProcessId>,
    gap: SimDuration,
    issued: Vec<usize>,
    rng: StdRng,
    _marker: core::marker::PhantomData<O>,
}

impl<O, F> core::fmt::Debug for ClosedLoop<O, F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ClosedLoop")
            .field("processes", &self.processes)
            .field("ops_per_process", &self.ops_per_process)
            .field("issued", &self.issued)
            .finish_non_exhaustive()
    }
}

impl<O, F> ClosedLoop<O, F>
where
    F: FnMut(ProcessId, usize, &mut StdRng) -> O,
{
    /// Creates a closed-loop driver over `processes`, issuing
    /// `ops_per_process` operations each, all starting at time zero with
    /// no think time.
    #[must_use]
    pub fn new(processes: Vec<ProcessId>, ops_per_process: usize, seed: u64, gen: F) -> Self {
        let issued = vec![0; processes.len()];
        ClosedLoop {
            gen,
            ops_per_process,
            processes,
            gap: SimDuration::ZERO,
            issued,
            rng: StdRng::seed_from_u64(seed),
            _marker: core::marker::PhantomData,
        }
    }

    /// Sets the think time between a response and the next invocation.
    #[must_use]
    pub fn with_gap(mut self, gap: SimDuration) -> Self {
        self.gap = gap;
        self
    }

    fn slot(&self, pid: ProcessId) -> Option<usize> {
        self.processes.iter().position(|&p| p == pid)
    }
}

impl<O, R, F> Driver<O, R> for ClosedLoop<O, F>
where
    F: FnMut(ProcessId, usize, &mut StdRng) -> O,
{
    fn initial(&mut self) -> Vec<(ProcessId, SimTime, O)> {
        let mut out = Vec::new();
        for i in 0..self.processes.len() {
            if self.ops_per_process == 0 {
                break;
            }
            let pid = self.processes[i];
            let op = (self.gen)(pid, 0, &mut self.rng);
            self.issued[i] = 1;
            out.push((pid, SimTime::ZERO, op));
        }
        out
    }

    fn next(
        &mut self,
        pid: ProcessId,
        _op: &O,
        _resp: &R,
        _now: SimTime,
    ) -> Option<(SimDuration, O)> {
        let slot = self.slot(pid)?;
        if self.issued[slot] >= self.ops_per_process {
            return None;
        }
        let index = self.issued[slot];
        self.issued[slot] += 1;
        let op = (self.gen)(pid, index, &mut self.rng);
        Some((self.gap, op))
    }
}

/// A scripted schedule: a fixed list of `(pid, time, op)` invocations and
/// no closed-loop follow-ups.
///
/// Useful for the adversarial lower-bound scenarios where invocation times
/// are part of the construction. The caller is responsible for leaving
/// enough room between operations of the same process.
#[derive(Debug, Clone)]
pub struct Script<O> {
    invocations: Vec<(ProcessId, SimTime, O)>,
}

impl<O> Script<O> {
    /// Creates an empty script.
    #[must_use]
    pub fn new() -> Self {
        Script {
            invocations: Vec::new(),
        }
    }

    /// Appends an invocation.
    #[must_use]
    pub fn at(mut self, pid: ProcessId, time: SimTime, op: O) -> Self {
        self.invocations.push((pid, time, op));
        self
    }

    /// Appends an invocation (non-builder form).
    pub fn push(&mut self, pid: ProcessId, time: SimTime, op: O) {
        self.invocations.push((pid, time, op));
    }

    /// Number of scripted invocations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// `true` when the script is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }
}

impl<O> Default for Script<O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O: Clone, R> Driver<O, R> for Script<O> {
    fn initial(&mut self) -> Vec<(ProcessId, SimTime, O)> {
        self.invocations.clone()
    }

    fn next(
        &mut self,
        _pid: ProcessId,
        _op: &O,
        _resp: &R,
        _now: SimTime,
    ) -> Option<(SimDuration, O)> {
        None
    }
}

/// Runs `driver` against a wall-clock cluster — the one closed-loop
/// driver of the thread runtime and the socket mesh, as
/// [`Simulation::run_with`](crate::engine::Simulation::run_with) is the
/// engine's — and returns the run's history.
///
/// Each initial invocation is handed to `invoke` at its tick of `base`
/// and recorded at that instant. The backend reports each completion on
/// `done` as `(pid, response, response instant)`; it is recorded, and
/// the driver is consulted for the process's follow-up, which is handed
/// to `invoke` at the response instant plus the driver's gap, as on the
/// engine. Returns once every invocation has responded and none is left
/// to issue.
///
/// # Panics
///
/// Panics, as the engine's node core does, if the driver invokes at a
/// process whose previous operation is still pending.
pub fn drive<O: Clone, R, Dr>(
    driver: &mut Dr,
    base: TimeBase,
    done: &Receiver<(ProcessId, R, SimTime)>,
    mut invoke: impl FnMut(ProcessId, O),
) -> History<O, R>
where
    Dr: Driver<O, R> + ?Sized,
{
    let instant = |at: SimTime| {
        base.instant_for(at.as_ticks())
            .expect("invocation time beyond any instant")
    };
    let mut due: Vec<(Instant, ProcessId, O)> = driver
        .initial()
        .into_iter()
        .map(|(pid, at, op)| (instant(at), pid, op))
        .collect();
    let mut history = History::new();
    let mut pending = FxHashMap::default();
    let mut woken_by = None;
    loop {
        // File every completion already reported first, so an invocation
        // due now never finds a finished operation still pending.
        for (pid, resp, at) in woken_by.take().into_iter().chain(done.try_iter()) {
            let op_id = pending
                .remove(&pid)
                .expect("a completion answers a pending op");
            history.record_response(op_id, resp, at);
            let rec = history.get(op_id).expect("completed op is recorded");
            let resp = rec.resp().expect("completion implies a response");
            if let Some((gap, op)) = driver.next(pid, &rec.op, resp, at) {
                due.push((instant(at + gap), pid, op));
            }
        }
        let now = Instant::now();
        while let Some(i) = (0..due.len())
            .filter(|&i| due[i].0 <= now)
            .min_by_key(|&i| due[i].0)
        {
            let (_, pid, op) = due.swap_remove(i);
            if pending.contains_key(&pid) {
                overlapping_invocation(pid);
            }
            let at = SimTime::from_ticks(base.now_ticks());
            pending.insert(pid, history.record_invoke(pid, op.clone(), at));
            invoke(pid, op);
        }
        if pending.is_empty() && due.is_empty() {
            return history;
        }
        let waited = match due.iter().map(|d| d.0).min() {
            Some(at) => done.recv_timeout(at.saturating_duration_since(Instant::now())),
            None => done.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match waited {
            Ok(completion) => woken_by = Some(completion),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return history,
        }
    }
}

/// Draws an index from `0..weights.len()` proportionally to `weights`.
///
/// Helper for operation-mix generators ("80% reads, 20% writes").
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn weighted_index<R: Rng>(weights: &[u32], rng: &mut R) -> usize {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    assert!(total > 0, "weights must not be empty or all zero");
    let mut pick = rng.gen_range(0..total);
    for (i, &w) in weights.iter().enumerate() {
        let w = u64::from(w);
        if pick < w {
            return i;
        }
        pick -= w;
    }
    unreachable!("weighted_index: pick exceeded total weight")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn closed_loop_issues_quota() {
        let procs = vec![ProcessId::new(0), ProcessId::new(1)];
        let mut d = ClosedLoop::new(procs, 3, 1, |_pid, idx, _rng| idx as u32);
        let initial = Driver::<u32, ()>::initial(&mut d);
        assert_eq!(initial.len(), 2);
        // p0 completes all three.
        let mut count = 1;
        let mut last = initial[0].2;
        while let Some((_, op)) =
            Driver::<u32, ()>::next(&mut d, ProcessId::new(0), &last, &(), SimTime::ZERO)
        {
            last = op;
            count += 1;
        }
        assert_eq!(count, 3);
        assert_eq!(last, 2);
    }

    #[test]
    fn closed_loop_zero_quota_idle() {
        let mut d = ClosedLoop::new(vec![ProcessId::new(0)], 0, 1, |_p, _i, _r| 0u32);
        assert!(Driver::<u32, ()>::initial(&mut d).is_empty());
    }

    #[test]
    fn closed_loop_ignores_unknown_process() {
        let mut d = ClosedLoop::new(vec![ProcessId::new(0)], 5, 1, |_p, _i, _r| 0u32);
        let _ = Driver::<u32, ()>::initial(&mut d);
        assert_eq!(
            Driver::<u32, ()>::next(&mut d, ProcessId::new(9), &0, &(), SimTime::ZERO),
            None
        );
    }

    #[test]
    fn script_replays_invocations() {
        let mut s = Script::new()
            .at(ProcessId::new(0), SimTime::from_ticks(5), "a")
            .at(ProcessId::new(1), SimTime::from_ticks(9), "b");
        let initial = Driver::<&str, ()>::initial(&mut s);
        assert_eq!(initial.len(), 2);
        assert_eq!(initial[1].1, SimTime::from_ticks(9));
        assert_eq!(
            Driver::<&str, ()>::next(&mut s, ProcessId::new(0), &"a", &(), SimTime::ZERO),
            None
        );
    }

    /// A follow-up is due the driver's gap after the response instant,
    /// however late the completion is filed: a response reported a
    /// whole gap after its instant gets its follow-up invoked at once.
    #[test]
    fn a_follow_up_waits_its_gap_from_the_response_not_from_its_filing() {
        const GAP: Duration = Duration::from_millis(300);
        let base = TimeBase::new(TimeBase::epoch_now_micros());
        let gap = SimDuration::from_ticks(GAP.as_micros() as u64);
        let mut driver =
            ClosedLoop::new(vec![ProcessId::new(0)], 2, 1, |_, idx, _| idx).with_gap(gap);
        let (tx, rx) = channel();
        let mut invoked = Vec::new();
        let history = thread::scope(|scope| {
            drive(&mut driver, base, &rx, |pid, _op| {
                invoked.push(Instant::now());
                let (tx, at) = (tx.clone(), SimTime::from_ticks(base.now_ticks()));
                let late = if invoked.len() == 1 {
                    GAP
                } else {
                    Duration::ZERO
                };
                scope.spawn(move || {
                    thread::sleep(late);
                    tx.send((pid, (), at)).unwrap();
                });
            })
        });
        assert!(history.is_complete());
        assert_eq!(history.len(), 2);
        let waited = invoked[1] - invoked[0];
        assert!(
            waited < GAP * 3 / 2,
            "the follow-up came {waited:?} after the first invocation"
        );
    }

    /// One pending operation per process, checked on `drive` alone: an
    /// invocation at a process whose first is still pending panics;
    /// invocations at other processes at the same instant, and at the
    /// same process once it has responded, are accepted. Every
    /// invocation responds at once, on the `done` channel the test holds.
    #[test]
    fn drive_admits_one_pending_operation_per_process() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let (tx, rx) = channel();
        let base = TimeBase::new(TimeBase::epoch_now_micros());
        let mut overlapping = Script::new()
            .at(p0, SimTime::ZERO, 0)
            .at(p0, SimTime::ZERO, 1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(&mut overlapping, base, &rx, |_, _: u32| {})
        }));
        let payload = outcome.expect_err("overlapping invocations at p0 must be rejected");
        let message = payload
            .downcast_ref::<String>()
            .expect("the panic carries a message");
        assert!(
            message.contains("another operation is pending"),
            "{message}"
        );

        let base = TimeBase::new(TimeBase::epoch_now_micros());
        let mut disjoint = Script::new()
            .at(p0, SimTime::ZERO, 0)
            .at(p1, SimTime::ZERO, 1)
            .at(p0, SimTime::from_ticks(1_000), 2);
        let mut invoked = Vec::new();
        let history = drive(&mut disjoint, base, &rx, |pid, op| {
            let at = SimTime::from_ticks(base.now_ticks());
            invoked.push((op, at));
            tx.send((pid, (), at)).unwrap();
        });
        assert!(history.is_complete());
        assert_eq!(history.len(), 3);
        let (op, at) = invoked[2];
        assert_eq!(op, 2, "p0's second invocation comes last");
        assert!(
            at >= SimTime::from_ticks(1_000),
            "invoked at {at}, before it was due"
        );
    }

    #[test]
    fn weighted_index_respects_zero_weight() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let i = weighted_index(&[0, 5, 0, 7], &mut rng);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    #[should_panic(expected = "weights")]
    fn weighted_index_rejects_all_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = weighted_index(&[0, 0], &mut rng);
    }
}
