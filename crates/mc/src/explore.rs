//! The stateful explorer: every delivery order, every delay corner,
//! every clock corner — pruned by dynamic partial-order reduction.
//!
//! Each grid cell fixes a clock assignment and one delay per message
//! (replayed by [`EnumeratedDelay`]). Within a cell, a
//! [`SchedulePolicy`] branches over every order of same-time event
//! batches, turning the engine into a model checker that, as in the
//! VeriSoft tradition, stores no visited states. It does not re-execute
//! prefixes either: at each choice point the policy pauses the run
//! ([`ScheduleDecision::Yield`]) and the explorer keeps a fork of it, so
//! backtracking resumes that snapshot on the next branch instead of
//! replaying the choices above it from t = 0. Nor does it drop a run: a
//! finished one is judged in place and refilled as the next fork
//! ([`Simulation::fork_from`]), and retired snapshot slots are the pool
//! new snapshots refill. A worker holds one slot per choice depth it has
//! reached, plus the run in flight. A schedule allocates only its new
//! sends' payloads and, when clean, the list of replica orders the
//! invariants read. Only [`replay`] and [`minimize`] run a coordinate
//! from t = 0.
//! [`crate::model_check`] drives the cells over the work-stealing
//! frontier in [`crate::frontier`].
//!
//! Exploration is pruned with **sleep sets**: after the branch executing
//! event `a` before its sibling `b` has been fully explored, the branch
//! that defers `a` keeps `a` asleep until some executed event is
//! *dependent* with it — if `a` is still asleep when it would run, the
//! interleaving is a commutation of one already checked and the run is
//! abandoned ([`SimError::PolicyAbort`]). Independence is structural
//! (events at different processes commute; the engine applies them to
//! disjoint actors) plus semantic: two same-process deliveries commute
//! when their payload operations commute on every probe state
//! ([`immediately_non_commuting`] finds no witness). The semantic check
//! is an approximation on the probe set — see `DESIGN.md §8` for why
//! this is used as a *reduction* only in tandem with batches that are
//! conservatively re-branched whenever any pair is dependent.
//!
//! Every run additionally passes through the linearizability checker and
//! the [`skewbound_core::invariants`] protocol invariants; violations
//! carry a replayable coordinate (`clock × delays × choices`) that
//! [`minimize`] shrinks to a locally-minimal failing configuration for
//! certificate emission.

use skewbound_core::invariants::{check_invariants, RunView};
use skewbound_core::params::Params;
use skewbound_lin::checker::{
    check_history_in, CheckBuffers, CheckLimits, CheckOutcome, CheckStats, MAX_OPS,
};
use skewbound_shift::exhaustive::{
    verify_send_order_independence, AssignmentExhausted, EnumeratedDelay,
};
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::engine::{
    EventView, ScheduleDecision, SchedulePolicy, SimError, SimReport, Simulation,
};
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_sim::trace::TraceSink;
use skewbound_spec::classify::immediately_non_commuting;
use skewbound_spec::seqspec::SequentialSpec;

use crate::model::ModelActor;

/// The independence relation the explorer prunes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Independence {
    /// Structural + commuting-delivery independence (the real relation).
    Dpor,
    /// Nothing is independent: every same-time batch branches over every
    /// order. Exists so the DPOR reduction is *measurable* — explored
    /// schedule counts under [`Independence::Dpor`] must come out
    /// strictly smaller on any scenario with concurrent deliveries.
    Naive,
}

/// Grid, limits and relation for [`crate::model_check`].
#[derive(Debug, Clone)]
pub struct McConfig<S: SequentialSpec> {
    /// Delay values each delay draw may take (all within `[d − u, d]`).
    /// A run draws one delay per sent batch, a single send being a batch
    /// of one.
    pub delay_choices: Vec<SimDuration>,
    /// Clock assignments to explore (all within skew `ε`).
    pub clock_choices: Vec<ClockAssignment>,
    /// Probe states for the commuting-delivery independence check.
    pub probe_states: Vec<S::State>,
    /// The independence relation ([`Independence::Dpor`] normally).
    pub independence: Independence,
    /// Hard cap on executed schedules across the whole exploration.
    pub max_schedules: u64,
    /// Stop at the first violating run instead of exploring on.
    pub stop_at_first_violation: bool,
    /// Worker threads for the exploration frontier. `None` defers to the
    /// environment (`SKEWBOUND_THREADS`, one per core
    /// otherwise — see [`skewbound_sim::par`]); `Some(1)` forces the
    /// sequential path. The report is bit-identical either way.
    pub workers: Option<usize>,
}

impl<S: SequentialSpec> McConfig<S> {
    /// Endpoint delays `{d − u, d}` with the zero-skew clock and, per
    /// process, the clock `ε` late and the clock `ε` ahead: the corners of
    /// the admissible space, where the shifting proofs construct their
    /// adversarial runs.
    #[must_use]
    pub fn corners(params: &Params, probe_states: Vec<S::State>) -> Self {
        let bounds = params.delay_bounds();
        let n = params.n();
        let eps = params.eps();
        let mut clock_choices = vec![ClockAssignment::zero(n)];
        for pid in ProcessId::all(n) {
            clock_choices.push(ClockAssignment::single_late(n, pid, eps));
            let mut ahead = ClockAssignment::zero(n);
            ahead.shift(pid, i64::try_from(eps.as_ticks()).expect("eps fits"));
            clock_choices.push(ahead);
        }
        McConfig {
            delay_choices: vec![bounds.min(), bounds.max()],
            clock_choices,
            probe_states,
            independence: Independence::Dpor,
            max_schedules: 1_000_000,
            stop_at_first_violation: false,
            workers: None,
        }
    }
}

/// Why one explored run was rejected (or not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// The history admits no legal linearization.
    NotLinearizable,
    /// An operation never received a response at quiescence.
    IncompleteHistory,
    /// A protocol invariant failed (`skewbound_core::invariants`).
    Invariant {
        /// The invariant's stable name.
        name: String,
        /// The first violation's evidence.
        detail: String,
    },
    /// The implementation's send pattern depends on message delays, so
    /// the enumerated delay grid does not cover its behaviours and no
    /// per-cell verdict is sound. Detected up front by
    /// [`verify_send_order_independence`] (two opposite-extreme dry
    /// runs); the whole exploration is abandoned with this single
    /// violation instead of aborting the process.
    SendOrderDivergence {
        /// The divergence diagnostic (first differing send, both
        /// orders, both counts).
        detail: String,
    },
}

impl ViolationKind {
    /// Stable machine-matchable label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ViolationKind::NotLinearizable => "not-linearizable",
            ViolationKind::IncompleteHistory => "incomplete-history",
            ViolationKind::Invariant { .. } => "invariant",
            ViolationKind::SendOrderDivergence { .. } => "send-order-divergence",
        }
    }

    /// `true` when `other` is the same *kind* of failure (for invariant
    /// violations: the same invariant, details may differ). Minimization
    /// shrinks a counterexample only while the kind is preserved.
    #[must_use]
    pub fn same_kind(&self, other: &ViolationKind) -> bool {
        match (self, other) {
            (
                ViolationKind::Invariant { name: a, .. },
                ViolationKind::Invariant { name: b, .. },
            ) => a == b,
            _ => self.label() == other.label(),
        }
    }
}

impl core::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ViolationKind::NotLinearizable => write!(f, "history is not linearizable"),
            ViolationKind::IncompleteHistory => {
                write!(f, "an operation never responded (incomplete history)")
            }
            ViolationKind::Invariant { name, detail } => {
                write!(f, "protocol invariant {name} violated: {detail}")
            }
            ViolationKind::SendOrderDivergence { detail } => {
                write!(f, "send order depends on delays: {detail}")
            }
        }
    }
}

/// Verdict of a single (re-)executed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunVerdict {
    /// Linearizable and every invariant held.
    Clean,
    /// The sleep set proved the run a commutation of one already
    /// explored; it was abandoned unchecked.
    Pruned,
    /// The run requested more delays than the enumerated assignment
    /// covers — it left the enumerated space and proves nothing.
    OffSpace(AssignmentExhausted),
    /// The linearizability checker hit its node limit.
    Unknown,
    /// A genuine violation.
    Violation(ViolationKind),
}

/// A replayable coordinate of one violating run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McViolation {
    /// Index into [`McConfig::clock_choices`].
    pub clock_idx: usize,
    /// Per-draw indices into [`McConfig::delay_choices`], in global
    /// send order.
    pub delay_digits: Vec<usize>,
    /// Branch taken at each schedule choice point, in order.
    pub choices: Vec<usize>,
    /// What failed.
    pub kind: ViolationKind,
}

/// What [`crate::model_check`] explored and found.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Delay draws per run, one per sent batch (delay-assignment
    /// dimensionality).
    pub messages: usize,
    /// `clock × delay` grid cells visited.
    pub cells: u64,
    /// Schedules executed (including pruned ones).
    pub schedules: u64,
    /// Schedules the sleep sets abandoned as redundant.
    pub pruned: u64,
    /// Runs that left the enumerated delay space (any one fails
    /// [`McReport::all_passed`]).
    pub off_space: u64,
    /// Runs the linearizability checker could not decide.
    pub unknown: u64,
    /// Exploration hit [`McConfig::max_schedules`] before finishing.
    pub capped: bool,
    /// Engine events executed across all completed (non-pruned) runs —
    /// the deterministic work measure of the exploration.
    pub explored_states: u64,
    /// Every violating run found (first per cell under
    /// `stop_at_first_violation`), in canonical cell order: ascending
    /// clock index, then delay code, then DFS plan — the first entry is
    /// the lexicographically-least violating coordinate regardless of
    /// the worker count.
    pub violations: Vec<McViolation>,
    /// Wall-clock time of the exploration (advisory: not covered by the
    /// determinism contract, varies run to run).
    pub wall_nanos: u64,
    /// Worker threads the frontier actually used (advisory).
    pub workers: usize,
    /// Always 0: every run is checked directly, with no verdict cache.
    /// Kept only because the benchmark harness still reads it as
    /// `mc.table.entries`; the next benchmark change deletes it together
    /// with its `mc.table.*` metrics (ROADMAP item 11).
    pub table_entries: u64,
    /// Always 0, like [`McReport::table_entries`], and deleted with it.
    pub table_hits: u64,
}

impl McReport {
    /// `true` when the whole explored space is violation-free and fully
    /// decided. A run that left the enumerated delay space was checked
    /// for nothing, so any `off_space` run fails the report too.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.violations.is_empty() && self.unknown == 0 && self.off_space == 0 && !self.capped
    }

    /// `true` when `other` reports the same exploration *results*: every
    /// deterministic field matches (messages, cells, schedules, pruned,
    /// off-space, unknown, capped, explored states, violations). The
    /// advisory timing and worker fields are deliberately excluded —
    /// this is the thread-count determinism contract.
    #[must_use]
    pub fn same_results(&self, other: &McReport) -> bool {
        self.messages == other.messages
            && self.cells == other.cells
            && self.schedules == other.schedules
            && self.pruned == other.pruned
            && self.off_space == other.off_space
            && self.unknown == other.unknown
            && self.capped == other.capped
            && self.explored_states == other.explored_states
            && self.violations == other.violations
    }
}

/// Sleep-set key: what we must remember about an event to decide
/// dependence later, after its `EventView` is gone.
#[derive(Debug, Clone)]
enum EvKey<Op> {
    Invoke(ProcessId),
    Timer(ProcessId),
    Deliver(ProcessId, Option<Op>),
}

impl<Op> EvKey<Op> {
    fn pid(&self) -> ProcessId {
        match self {
            EvKey::Invoke(p) | EvKey::Timer(p) | EvKey::Deliver(p, _) => *p,
        }
    }
}

fn key_of<A: ModelActor>(ev: &EventView<'_, A>) -> EvKey<A::Op> {
    match ev {
        EventView::Invoke { pid, .. } => EvKey::Invoke(*pid),
        EventView::Timer { pid, .. } => EvKey::Timer(*pid),
        // A batch of one keys on its payload op. A longer batch carries
        // several; keep its key payload-free so the dependence check stays
        // conservative (a `None` payload is never proven commuting).
        EventView::DeliverBatch { pid, msgs, .. } => match msgs {
            [msg] => EvKey::Deliver(*pid, A::payload_op(msg).cloned()),
            _ => EvKey::Deliver(*pid, None),
        },
    }
}

/// The dependence relation. Sound over-approximation: anything not
/// provably commuting is dependent.
fn dependent<S: SequentialSpec>(
    independence: Independence,
    spec: &S,
    states: &[S::State],
    a: &EvKey<S::Op>,
    b: &EvKey<S::Op>,
) -> bool {
    if independence == Independence::Naive {
        return true;
    }
    if a.pid() != b.pid() {
        // The engine dispatches each event to exactly one actor; events
        // at different processes touch disjoint state and commute. (Their
        // *sends* enqueue with the same delays either way.)
        return false;
    }
    if let (EvKey::Deliver(_, Some(x)), EvKey::Deliver(_, Some(y))) = (a, b) {
        // Same process, both deliveries: commuting payload operations
        // reach the same replica state in either order.
        return immediately_non_commuting(
            spec,
            states,
            core::slice::from_ref(x),
            core::slice::from_ref(y),
        )
        .is_some();
    }
    true
}

/// One schedule choice point: how many alternatives the policy saw, and
/// which it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Non-sleeping candidates in the batch.
    pub alts: usize,
    /// Index of the branch taken.
    pub chosen: usize,
}

/// A [`SchedulePolicy`] that replays a choice prefix and maintains the
/// sleep set. Beyond the prefix it takes the first alternative, except at
/// choice points at depth `pause_from` or deeper: there it yields first
/// ([`ScheduleDecision::Yield`]), so that the explorer can fork the run,
/// and on the next call takes the branch the explorer put in `resume`.
struct ReplayPolicy<'a, S: SequentialSpec> {
    spec: &'a S,
    states: &'a [S::State],
    independence: Independence,
    plan: &'a [usize],
    /// `usize::MAX` for a run that never pauses.
    pause_from: usize,
    /// The branch to take at the choice point the run paused at.
    resume: Option<usize>,
    /// The alternatives at the choice point the run last paused at.
    paused_alts: usize,
    depth: usize,
    trace: Vec<ChoicePoint>,
    sleep: Vec<(u64, EvKey<S::Op>)>,
    /// Each batch's keys and non-sleeping candidates, in buffers reused
    /// from step to step.
    keys: Vec<EvKey<S::Op>>,
    cands: Vec<usize>,
}

impl<'a, S: SequentialSpec> ReplayPolicy<'a, S> {
    fn new(
        spec: &'a S,
        states: &'a [S::State],
        independence: Independence,
        plan: &'a [usize],
        pause_from: usize,
    ) -> Self {
        ReplayPolicy {
            spec,
            states,
            independence,
            plan,
            pause_from,
            resume: None,
            paused_alts: 0,
            depth: 0,
            trace: Vec::new(),
            sleep: Vec::new(),
            keys: Vec::new(),
            cands: Vec::new(),
        }
    }
}

impl<A> SchedulePolicy<A> for ReplayPolicy<'_, A::Spec>
where
    A: ModelActor,
{
    fn choose(&mut self, _now: SimTime, enabled: &[EventView<'_, A>]) -> ScheduleDecision {
        self.keys.clear();
        self.keys.extend(enabled.iter().map(key_of::<A>));
        self.cands.clear();
        let sleep = &self.sleep;
        self.cands.extend(
            (0..enabled.len()).filter(|&i| !sleep.iter().any(|(seq, _)| *seq == enabled[i].seq())),
        );
        let (keys, cands) = (&self.keys, &self.cands);
        if cands.is_empty() {
            // Every enabled event is asleep: any continuation is a
            // commutation of an already-explored schedule.
            return ScheduleDecision::Abort;
        }
        let pick = if cands.len() == 1 {
            0
        } else {
            let branching = cands.iter().enumerate().any(|(i, &a)| {
                cands[i + 1..].iter().any(|&b| {
                    dependent(
                        self.independence,
                        self.spec,
                        self.states,
                        &keys[a],
                        &keys[b],
                    )
                })
            });
            if branching {
                let chosen = if let Some(&planned) = self.plan.get(self.depth) {
                    planned
                } else if let Some(resumed) = self.resume.take() {
                    resumed
                } else if self.depth >= self.pause_from {
                    // Nothing is committed yet: the explorer keeps a fork
                    // of the run from just before this point.
                    self.paused_alts = cands.len();
                    return ScheduleDecision::Yield;
                } else {
                    0
                };
                if chosen >= cands.len() {
                    // The plan no longer fits the run's branching
                    // structure. Unreachable from `model_check` (plans
                    // are prefixes of recorded traces and replays are
                    // deterministic), but `minimize` probes perturbed
                    // plans — a divergent trial is simply abandoned.
                    return ScheduleDecision::Abort;
                }
                self.depth += 1;
                self.trace.push(ChoicePoint {
                    alts: cands.len(),
                    chosen,
                });
                // Earlier siblings were (or will have been) fully explored
                // by branches to our left: they go to sleep.
                for &ci in &cands[..chosen] {
                    self.sleep.push((enabled[ci].seq(), keys[ci].clone()));
                }
                chosen
            } else {
                // Whole batch pairwise-independent: one order suffices.
                0
            }
        };
        let chosen_idx = cands[pick];
        let chosen_key = &keys[chosen_idx];
        // Executing an event wakes every sleeping event dependent with it
        // (their orders relative to it now matter again).
        self.sleep.retain(|(seq, key)| {
            *seq != enabled[chosen_idx].seq()
                && !dependent(self.independence, self.spec, self.states, key, chosen_key)
        });
        ScheduleDecision::Take(chosen_idx)
    }
}

/// One run's full result: verdict plus everything a certificate needs.
#[derive(Debug)]
pub struct RunOutcome<S: SequentialSpec> {
    /// The verdict.
    pub verdict: RunVerdict,
    /// The observed history.
    pub history: History<S::Op, S::Resp>,
    /// Every choice point the run passed through, in order (the replayed
    /// plan prefix plus default-first decisions beyond it).
    pub trace: Vec<ChoicePoint>,
    /// Engine events the run executed (0 for pruned runs, whose engine
    /// report is discarded on abort).
    pub events: u64,
}

impl<S: SequentialSpec> RunOutcome<S> {
    /// The branch taken at each choice point — a plan that replays this
    /// exact run.
    #[must_use]
    pub fn choices(&self) -> Vec<usize> {
        choices(&self.trace)
    }
}

/// The branch taken at each choice point of `trace`.
fn choices(trace: &[ChoicePoint]) -> Vec<usize> {
    trace.iter().map(|cp| cp.chosen).collect()
}

/// Mixed-radix counter over delay assignments: digit `i` (index into
/// [`McConfig::delay_choices`]) for message `i`, least-significant digit
/// first. Replaces the old `base.pow(messages)` cell count, which
/// overflowed `u64` at 2 choices × 64 messages and panicked — the
/// counter enumerates the same codes in the same order without ever
/// materializing the grid size. With `base == 1` or `len == 0` there is
/// exactly one (all-zero / empty) assignment.
#[derive(Debug)]
pub(crate) struct DigitCounter {
    digits: Vec<usize>,
    base: usize,
}

impl DigitCounter {
    pub(crate) fn new(base: usize, len: usize) -> Self {
        assert!(base >= 1, "need at least one delay choice");
        DigitCounter {
            digits: vec![0; len],
            base,
        }
    }

    pub(crate) fn current(&self) -> &[usize] {
        &self.digits
    }

    /// Advances to the next assignment; `false` once every code has been
    /// produced (the counter wrapped back to all zeros).
    pub(crate) fn advance(&mut self) -> bool {
        for d in &mut self.digits {
            *d += 1;
            if *d < self.base {
                return true;
            }
            *d = 0;
        }
        false
    }
}

/// The engine at t = 0 of one grid cell: the cell's clock assignment,
/// one delay per message from its digits, and the script scheduled.
fn new_sim<A, F>(
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    clocks: &ClockAssignment,
    digits: &[usize],
) -> Simulation<A, EnumeratedDelay>
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    let bounds = params.delay_bounds();
    let assignment: Vec<SimDuration> = digits.iter().map(|&d| config.delay_choices[d]).collect();
    let mut sim = Simulation::new(
        make_actors(),
        clocks.clone(),
        EnumeratedDelay::new(bounds, assignment),
    );
    for (pid, at, op) in script {
        sim.schedule_invoke(*pid, *at, op.clone());
    }
    sim
}

/// Runs one coordinate from t = 0: a clock assignment, one delay digit
/// per message and a schedule-choice plan. With a sink, every engine
/// event streams into it, followed after the run by the linearizability
/// checker's `"check"`-stage counters (`nodes`, `memo_hits`,
/// `max_frontier_depth`); a caller that wants the sink back keeps an
/// `Rc` clone of it.
#[allow(clippy::too_many_arguments)]
fn run_one<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    clocks: &ClockAssignment,
    digits: &[usize],
    plan: &[usize],
    sink: Option<Box<dyn TraceSink>>,
) -> RunOutcome<A::Spec>
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    let mut sim = new_sim(make_actors, params, script, config, clocks, digits);
    if let Some(sink) = sink {
        sim.set_trace_sink(sink);
    }
    let (states, independence) = (&config.probe_states, config.independence);
    let mut policy = ReplayPolicy::new(spec, states, independence, plan, usize::MAX);
    let result = sim
        .run_scheduled(&mut policy)
        .map(|report| report.expect("a policy that never yields runs to the end"));
    let mut buffers = CheckBuffers::default();
    let (verdict, events, check_stats) = judge(
        spec,
        params,
        &sim,
        result,
        digits,
        &policy.trace,
        &mut buffers,
    );
    if let (Some(mut sink), Some(stats)) = (sim.take_trace_sink(), check_stats) {
        sink.counter("check", "nodes", stats.nodes);
        sink.counter("check", "memo_hits", stats.memo_hits);
        sink.counter("check", "max_frontier_depth", stats.max_frontier_depth);
    }
    RunOutcome {
        verdict,
        history: sim.into_history(),
        trace: policy.trace,
        events,
    }
}

/// Judges a run that has ended, reading it where it stands: its verdict
/// from the engine's result, the delay model's coverage, the
/// linearizability check (searched in `buffers`) and the protocol
/// invariants, with the run's event count and the check's counters.
fn judge<A: ModelActor>(
    spec: &A::Spec,
    params: &Params,
    sim: &Simulation<A, EnumeratedDelay>,
    result: Result<SimReport, SimError>,
    digits: &[usize],
    trace: &[ChoicePoint],
    buffers: &mut CheckBuffers,
) -> (RunVerdict, u64, Option<CheckStats>) {
    let report = match result {
        Ok(report) => report,
        Err(SimError::PolicyAbort) => return (RunVerdict::Pruned, 0, None),
        // Internal invariant: the engine only fails on its own limits;
        // name the coordinate so a grid-sized exploration is debuggable.
        Err(e) => panic!(
            "model-checked run failed at delay digits {digits:?}, plan {:?}: {e}",
            choices(trace)
        ),
    };
    let history = sim.history();
    let mut check_stats = None;
    let verdict = if let Err(exhausted) = sim.delays().check_exhausted() {
        RunVerdict::OffSpace(exhausted)
    } else if !history.is_complete() {
        RunVerdict::Violation(ViolationKind::IncompleteHistory)
    } else if history.len() > MAX_OPS {
        RunVerdict::Unknown
    } else {
        let (outcome, stats) = check_history_in(buffers, spec, history, CheckLimits::default());
        check_stats = Some(stats);
        let verdict = match &outcome {
            CheckOutcome::NotLinearizable(_) => {
                RunVerdict::Violation(ViolationKind::NotLinearizable)
            }
            CheckOutcome::Unknown { .. } => RunVerdict::Unknown,
            CheckOutcome::Linearizable(_) => {
                let executed_orders: Vec<_> = ProcessId::all(params.n())
                    .filter_map(|pid| sim.actor(pid).executed_order())
                    .collect();
                let view = RunView {
                    params,
                    spec,
                    history,
                    executed_orders: &executed_orders,
                };
                let violations = check_invariants(&view);
                match violations.into_iter().next() {
                    Some(v) => RunVerdict::Violation(ViolationKind::Invariant {
                        name: v.invariant.to_owned(),
                        detail: v.detail,
                    }),
                    None => RunVerdict::Clean,
                }
            }
        };
        buffers.reclaim(outcome);
        verdict
    };
    (verdict, report.events, check_stats)
}

/// Re-executes the single run a violation (or any coordinate) names.
/// With a sink attached, the run's invocations, sends, deliveries,
/// timer arms/firings and responses stream into it (stamped with real
/// time, local clock reading and process id), followed by the
/// `"check"`-stage counters of the replay's linearizability check; keep
/// an `Rc` clone of the sink to read it back.
#[allow(clippy::too_many_arguments)]
pub fn replay<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    clock_idx: usize,
    delay_digits: &[usize],
    choices: &[usize],
    sink: Option<Box<dyn TraceSink>>,
) -> RunOutcome<A::Spec>
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    run_one(
        spec,
        make_actors,
        params,
        script,
        config,
        &config.clock_choices[clock_idx],
        delay_digits,
        choices,
        sink,
    )
}

/// Checks the send pattern and sizes the delay grid; `Err` carries the
/// ready-made divergence report.
pub(crate) fn preflight<A, F>(
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
) -> Result<usize, Box<McReport>>
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    assert!(!config.delay_choices.is_empty(), "need delay choices");
    assert!(!config.clock_choices.is_empty(), "need clock choices");
    let bounds = params.delay_bounds();
    match verify_send_order_independence(make_actors, &config.clock_choices[0], bounds, script) {
        Ok(messages) => Ok(messages),
        Err(divergence) => Err(Box::new(McReport {
            messages: 0,
            cells: 0,
            schedules: 0,
            pruned: 0,
            off_space: 0,
            unknown: 0,
            capped: false,
            explored_states: 0,
            violations: vec![McViolation {
                // The divergence is a property of the whole grid, not of
                // one cell; anchor it at the origin coordinate (which is
                // one of the two dry runs that exposed it).
                clock_idx: 0,
                delay_digits: Vec::new(),
                choices: Vec::new(),
                kind: ViolationKind::SendOrderDivergence {
                    detail: divergence.to_string(),
                },
            }],
            wall_nanos: 0,
            workers: 1,
            table_entries: 0,
            table_hits: 0,
        })),
    }
}

/// What exploring one work unit produced. A unit is a DFS subtree of one
/// grid cell: the cell's full schedule tree for a fresh cell, or the
/// subtree under a locked choice prefix for a split-off sibling.
#[derive(Debug)]
pub(crate) struct UnitOutcome {
    /// 1 when this unit counted its cell (a fresh cell that executed at
    /// least one run), 0 for split subtrees and untouched units.
    pub cells: u64,
    pub schedules: u64,
    pub pruned: u64,
    pub off_space: u64,
    pub unknown: u64,
    /// Engine events across the unit's completed runs.
    pub events: u64,
    pub violations: Vec<McViolation>,
    /// Set when the unit stopped on its schedule budget with part of its
    /// subtree unexplored.
    pub capped: bool,
    /// Depth-0 sibling subtrees split off for other workers: `(plan,
    /// lock_depth)` pairs, in ascending plan order.
    pub spawned: Vec<(Vec<usize>, usize)>,
    /// Every run's verdict, choices and event count, in DFS order.
    #[cfg(test)]
    pub runs: Vec<(RunVerdict, Vec<usize>, u64)>,
}

/// A run paused just before its choice point at `depth`: a fork of the
/// engine and the sleep set in force there. The trace needs no copy:
/// every run resumed from here shares its first `depth` choice points
/// with the run that left it.
struct Snapshot<A: ModelActor> {
    sim: Simulation<A, EnumeratedDelay>,
    sleep: Vec<(u64, EvKey<A::Op>)>,
    depth: usize,
    /// The next branch to take here, always `< alts`.
    next: usize,
    alts: usize,
}

/// Runs the DFS of one work unit: starts at `start_plan`, never
/// backtracks above `lock_depth` (those choice points belong to sibling
/// units), and stops after `budget` schedules. When the unit owns a
/// whole fresh cell whose first run branches at depth 0, the siblings of
/// the first branch are split off as new units instead of being walked
/// inline — the deterministic work-splitting rule (the split depends
/// only on the cell's first trace, never on thread timing).
///
/// Only the unit's first run starts at t = 0. Every choice point a run
/// reaches below the lock pauses it, and the unit keeps a fork of the
/// run there on a stack with at most one snapshot per depth. To
/// backtrack, it resumes the deepest snapshot on its next branch — the
/// last branch takes the snapshot itself rather than a fork of it.
/// Replays are deterministic, so the resumed run is exactly the run a
/// replay of its choices from t = 0 would produce.
///
/// Nothing is dropped along the way. A finished run is judged where it
/// stands and then refilled ([`Simulation::fork_from`]) as the fork of
/// the snapshot it backtracks to; a snapshot taken on its last branch
/// leaves its stack slot to the run it replaces. Those retired slots
/// above the live snapshots are the unit's pool: a new snapshot is
/// refilled into one. Once the buffers have grown to the unit's runs, a
/// schedule allocates only its new sends' payloads and, when clean, the
/// list of replica orders the invariants read.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_unit<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    clock_idx: usize,
    digits: &[usize],
    start_plan: &[usize],
    lock_depth: usize,
    budget: u64,
) -> UnitOutcome
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    let fresh = start_plan.is_empty() && lock_depth == 0;
    let mut out = UnitOutcome {
        cells: 0,
        schedules: 0,
        pruned: 0,
        off_space: 0,
        unknown: 0,
        events: 0,
        violations: Vec::new(),
        capped: false,
        spawned: Vec::new(),
        #[cfg(test)]
        runs: Vec::new(),
    };
    let clocks = &config.clock_choices[clock_idx];
    let mut sim = new_sim(make_actors, params, script, config, clocks, digits);
    // A fresh cell hands its depth-0 siblings to the frontier (every
    // choice point has at least two alternatives), so no unit ever
    // backtracks to depth 0.
    let (states, independence) = (&config.probe_states, config.independence);
    let pause_from = lock_depth.max(1);
    let mut policy = ReplayPolicy::new(spec, states, independence, start_plan, pause_from);
    let mut buffers = CheckBuffers::default();
    // The live snapshots are `stack[..live]`, deepest last; the slots
    // above them are retired runs, kept for refilling.
    let mut stack: Vec<Snapshot<A>> = Vec::new();
    let mut live = 0;
    loop {
        if out.schedules >= budget {
            out.capped = true;
            return out;
        }
        let result = loop {
            match sim.run_scheduled(&mut policy) {
                Ok(None) => {
                    let (depth, alts) = (policy.depth, policy.paused_alts);
                    if let Some(slot) = stack.get_mut(live) {
                        slot.sim.fork_from(&sim);
                        slot.sleep.clone_from(&policy.sleep);
                        (slot.depth, slot.next, slot.alts) = (depth, 1, alts);
                    } else {
                        stack.push(Snapshot {
                            sim: sim.fork(),
                            sleep: policy.sleep.clone(),
                            depth,
                            next: 1,
                            alts,
                        });
                    }
                    live += 1;
                    policy.resume = Some(0);
                }
                Ok(Some(report)) => break Ok(report),
                Err(e) => break Err(e),
            }
        };
        let trace = &policy.trace;
        let (verdict, events, _) = judge(spec, params, &sim, result, digits, trace, &mut buffers);
        if fresh && out.schedules == 0 {
            out.cells = 1;
            if let Some(cp0) = trace.first() {
                // The cell's first decision has siblings: hand them to
                // the frontier and keep only subtree 0 for ourselves.
                out.spawned.extend((1..cp0.alts).map(|j| (vec![j], 1)));
            }
        }
        out.schedules += 1;
        out.events += events;
        #[cfg(test)]
        out.runs.push((verdict.clone(), choices(trace), events));
        match verdict {
            RunVerdict::Clean => {}
            RunVerdict::Pruned => out.pruned += 1,
            RunVerdict::OffSpace(_) => out.off_space += 1,
            RunVerdict::Unknown => out.unknown += 1,
            RunVerdict::Violation(kind) => {
                out.violations.push(McViolation {
                    clock_idx,
                    delay_digits: digits.to_vec(),
                    choices: choices(trace),
                    kind,
                });
                if config.stop_at_first_violation {
                    return out;
                }
            }
        }
        // Backtrack: resume the deepest choice point that still has an
        // unexplored branch. The choices above it are kept; everything
        // below it starts again from its first branch.
        let Some(top) = live.checked_sub(1).map(|i| &mut stack[i]) else {
            return out;
        };
        let (depth, branch) = (top.depth, top.next);
        top.next += 1;
        if top.next == top.alts {
            core::mem::swap(&mut sim, &mut top.sim);
            core::mem::swap(&mut policy.sleep, &mut top.sleep);
            live -= 1;
        } else {
            sim.fork_from(&top.sim);
            policy.sleep.clone_from(&top.sleep);
        }
        policy.depth = depth;
        policy.trace.truncate(depth);
        policy.resume = Some(branch);
    }
}

/// Shrinks a violation to a locally-minimal failing configuration of the
/// *same kind*: the shortest failing choice prefix, with every surviving
/// choice as small as possible and every delay digit reset to the
/// default (last delay choice, i.e. `d`) where the failure allows.
///
/// Delta-debugging by re-execution: every candidate reduction is
/// re-run, and kept only if the violation kind is preserved.
pub fn minimize<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    violation: &McViolation,
) -> McViolation
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    minimize_counted(spec, make_actors, params, script, config, violation).0
}

/// [`minimize`] plus the number of delta-debugging steps it took: one
/// step per candidate reduction re-executed (kept or not). The count
/// feeds the `"mc"`-stage `delta_debug_steps` trace counter and the
/// certificate's `explored` block.
pub fn minimize_counted<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    violation: &McViolation,
) -> (McViolation, u64)
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    let kind = &violation.kind;
    let steps = core::cell::Cell::new(0u64);
    let still_fails = |digits: &[usize], choices: &[usize]| -> bool {
        steps.set(steps.get() + 1);
        let outcome = run_one(
            spec,
            make_actors,
            params,
            script,
            config,
            &config.clock_choices[violation.clock_idx],
            digits,
            choices,
            None,
        );
        matches!(&outcome.verdict, RunVerdict::Violation(k) if k.same_kind(kind))
    };
    let default_digit = config.delay_choices.len() - 1;
    let mut digits = violation.delay_digits.clone();
    let mut choices = violation.choices.clone();
    // Each pass is monotone (only shrinks); iterate to a fixpoint with a
    // hard round bound as a backstop.
    for _round in 0..8 {
        let mut changed = false;
        // 1. Shortest failing choice prefix (the suffix falls back to
        //    the policy's default-first decisions).
        for k in 0..choices.len() {
            if still_fails(&digits, &choices[..k]) {
                choices.truncate(k);
                changed = true;
                break;
            }
        }
        // 2. Smallest branch index per surviving choice point.
        for i in 0..choices.len() {
            while choices[i] > 0 {
                let mut trial = choices.clone();
                trial[i] -= 1;
                if still_fails(&digits, &trial) {
                    choices = trial;
                    changed = true;
                } else {
                    break;
                }
            }
        }
        // 3. Default delay (`d`) per message where the failure survives.
        for i in 0..digits.len() {
            if digits[i] != default_digit {
                let mut trial = digits.clone();
                trial[i] = default_digit;
                if still_fails(&trial, &choices) {
                    digits = trial;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (
        McViolation {
            clock_idx: violation.clock_idx,
            delay_digits: digits,
            choices,
            kind: kind.clone(),
        },
        steps.get(),
    )
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use skewbound_core::foils::LocalFirstReplica;
    use skewbound_core::replica::Replica;
    use skewbound_spec::probes;
    use skewbound_spec::register::{RegOp, RmwOp, RmwRegister, RwRegister};

    use super::*;
    use crate::frontier::model_check;

    type Script<Op> = Vec<(ProcessId, SimTime, Op)>;

    fn params() -> Params {
        Params::with_optimal_skew(
            3,
            SimDuration::from_ticks(9_000),
            SimDuration::from_ticks(2_400),
            SimDuration::ZERO,
        )
        .expect("valid parameters")
    }

    fn at(pid: u32, ticks: u64) -> (ProcessId, SimTime) {
        (ProcessId::new(pid), SimTime::from_ticks(ticks))
    }

    /// Two waves of three concurrent register operations.
    fn six_ops() -> Script<RmwOp> {
        [
            (at(0, 0), RmwOp::Write(11)),
            (at(1, 0), RmwOp::Write(22)),
            (at(2, 0), RmwOp::Read),
            (at(0, 40_000), RmwOp::Read),
            (at(1, 40_000), RmwOp::Write(33)),
            (at(2, 40_000), RmwOp::Write(44)),
        ]
        .map(|((pid, t), op)| (pid, t, op))
        .to_vec()
    }

    /// The oracle: a unit walked the stateless way, every schedule a
    /// replay of its whole plan from t = 0 through [`run_one`], the plan
    /// advanced at the deepest choice point (at or below the lock) with
    /// an unexplored branch.
    #[allow(clippy::too_many_arguments)]
    fn replay_unit<A, F>(
        spec: &A::Spec,
        make_actors: &F,
        params: &Params,
        script: &[(ProcessId, SimTime, A::Op)],
        config: &McConfig<A::Spec>,
        clock_idx: usize,
        digits: &[usize],
        start_plan: &[usize],
        lock_depth: usize,
        budget: u64,
    ) -> UnitOutcome
    where
        A: ModelActor,
        F: Fn() -> Vec<A>,
    {
        let fresh = start_plan.is_empty() && lock_depth == 0;
        let mut out = UnitOutcome {
            cells: 0,
            schedules: 0,
            pruned: 0,
            off_space: 0,
            unknown: 0,
            events: 0,
            violations: Vec::new(),
            capped: false,
            spawned: Vec::new(),
            runs: Vec::new(),
        };
        let clocks = &config.clock_choices[clock_idx];
        let mut plan = start_plan.to_vec();
        let mut lock = lock_depth;
        loop {
            if out.schedules >= budget {
                out.capped = true;
                return out;
            }
            let outcome = run_one(
                spec,
                make_actors,
                params,
                script,
                config,
                clocks,
                digits,
                &plan,
                None,
            );
            if fresh && out.schedules == 0 {
                out.cells = 1;
                if let Some(cp0) = outcome.trace.first() {
                    out.spawned.extend((1..cp0.alts).map(|j| (vec![j], 1)));
                    lock = 1;
                }
            }
            out.schedules += 1;
            out.events += outcome.events;
            out.runs
                .push((outcome.verdict.clone(), outcome.choices(), outcome.events));
            match &outcome.verdict {
                RunVerdict::Clean => {}
                RunVerdict::Pruned => out.pruned += 1,
                RunVerdict::OffSpace(_) => out.off_space += 1,
                RunVerdict::Unknown => out.unknown += 1,
                RunVerdict::Violation(kind) => {
                    out.violations.push(McViolation {
                        clock_idx,
                        delay_digits: digits.to_vec(),
                        choices: outcome.choices(),
                        kind: kind.clone(),
                    });
                    if config.stop_at_first_violation {
                        return out;
                    }
                }
            }
            let trace = &outcome.trace;
            let Some(depth) = (lock..trace.len())
                .rev()
                .find(|&k| trace[k].chosen + 1 < trace[k].alts)
            else {
                return out;
            };
            plan = trace[..depth].iter().map(|cp| cp.chosen).collect();
            plan.push(trace[depth].chosen + 1);
        }
    }

    type UnitFn<'a> = dyn Fn(usize, &[usize], &[usize], usize, u64) -> UnitOutcome + 'a;

    /// Explores the whole grid one unit at a time in canonical order, as
    /// the frontier's merge walk absorbs them, with `unit` walking each.
    /// Returns the report and every run in exploration order.
    fn walk<S: SequentialSpec>(
        messages: usize,
        config: &McConfig<S>,
        unit: &UnitFn<'_>,
    ) -> (McReport, Vec<(RunVerdict, Vec<usize>, u64)>) {
        let mut report = McReport {
            messages,
            cells: 0,
            schedules: 0,
            pruned: 0,
            off_space: 0,
            unknown: 0,
            capped: false,
            explored_states: 0,
            violations: Vec::new(),
            wall_nanos: 0,
            workers: 1,
            table_entries: 0,
            table_hits: 0,
        };
        let mut runs = Vec::new();
        'grid: for clock_idx in 0..config.clock_choices.len() {
            let mut cells = DigitCounter::new(config.delay_choices.len(), messages);
            loop {
                let digits = cells.current().to_vec();
                let mut units = VecDeque::from([(Vec::new(), 0)]);
                while let Some((plan, lock)) = units.pop_front() {
                    let remaining = config.max_schedules - report.schedules;
                    if remaining == 0 {
                        report.capped = true;
                        break 'grid;
                    }
                    let out = unit(clock_idx, &digits, &plan, lock, remaining);
                    report.cells += out.cells;
                    report.schedules += out.schedules;
                    report.pruned += out.pruned;
                    report.off_space += out.off_space;
                    report.unknown += out.unknown;
                    report.explored_states += out.events;
                    let violated = !out.violations.is_empty();
                    report.violations.extend(out.violations);
                    runs.extend(out.runs);
                    units.extend(out.spawned);
                    if out.capped {
                        report.capped = true;
                        break 'grid;
                    }
                    if config.stop_at_first_violation && violated {
                        break 'grid;
                    }
                }
                if !cells.advance() {
                    break;
                }
            }
        }
        (report, runs)
    }

    /// Walks the grid with the snapshot DFS and with the replay oracle
    /// and requires the same run sequence and the same report, which must
    /// also be what [`model_check`] reports at one and at two workers.
    /// Every violation must reproduce through [`replay`]. Returns the
    /// report.
    fn agrees_with_the_oracle<A, F>(
        spec: &A::Spec,
        make_actors: &F,
        params: &Params,
        script: &[(ProcessId, SimTime, A::Op)],
        config: &McConfig<A::Spec>,
    ) -> McReport
    where
        A: ModelActor,
        A::Spec: Clone + Sync,
        <A::Spec as SequentialSpec>::State: Sync,
        <A::Spec as SequentialSpec>::Op: Send + Sync,
        <A::Spec as SequentialSpec>::Resp: Send + Sync,
        F: Fn() -> Vec<A> + Sync,
    {
        let messages = preflight(make_actors, params, script, config).expect("send order");
        let (dfs, dfs_runs) = walk(messages, config, &|c, d, p, l, b| {
            explore_unit(spec, make_actors, params, script, config, c, d, p, l, b)
        });
        let (oracle, oracle_runs) = walk(messages, config, &|c, d, p, l, b| {
            replay_unit(spec, make_actors, params, script, config, c, d, p, l, b)
        });
        assert_eq!(dfs_runs.len(), oracle_runs.len());
        for (i, (a, b)) in dfs_runs.iter().zip(&oracle_runs).enumerate() {
            assert_eq!(a, b, "schedule {i}: snapshot DFS against replay");
        }
        assert!(dfs.same_results(&oracle), "{dfs:?}\n{oracle:?}");
        for workers in [1, 2] {
            let mut config = config.clone();
            config.workers = Some(workers);
            let checked = model_check(spec, make_actors, params, script, &config);
            assert!(checked.same_results(&oracle), "{workers} workers");
        }
        for v in &oracle.violations {
            let again = replay(
                spec,
                make_actors,
                params,
                script,
                config,
                v.clock_idx,
                &v.delay_digits,
                &v.choices,
                None,
            );
            assert_eq!(again.verdict, RunVerdict::Violation(v.kind.clone()));
            assert_eq!(again.choices(), v.choices);
        }
        oracle
    }

    #[test]
    fn snapshot_dfs_matches_replay_on_the_honest_register() {
        let p = params();
        let script = six_ops()[..3].to_vec();
        let config = McConfig::corners(&p, probes::register_states());
        let make = || Replica::group(RmwRegister::default(), &p);
        let report = agrees_with_the_oracle(&RmwRegister::default(), &make, &p, &script, &config);
        assert!(report.all_passed());
        assert!(report.schedules > 10 * report.cells, "{report:?}");
    }

    #[test]
    fn snapshot_dfs_matches_replay_on_every_violation_of_the_local_first_foil() {
        let p = params();
        let script = vec![
            (ProcessId::new(0), SimTime::ZERO, RegOp::Write(1)),
            (ProcessId::new(1), SimTime::ZERO, RegOp::Write(2)),
            (ProcessId::new(2), SimTime::from_ticks(6_600), RegOp::Read),
            (ProcessId::new(0), SimTime::from_ticks(9_000), RegOp::Read),
        ];
        let mut config = McConfig::corners(&p, probes::register_states());
        config.stop_at_first_violation = false;
        let make = || LocalFirstReplica::group(RwRegister::<i64>::default(), p.n());
        let spec = RwRegister::<i64>::default();
        let report = agrees_with_the_oracle(&spec, &make, &p, &script, &config);
        assert!(report.violations.len() > 1, "{report:?}");
        assert!(
            report.violations.iter().any(|v| !v.choices.is_empty()),
            "some violation sits below a choice point"
        );
    }

    #[test]
    fn snapshot_dfs_matches_replay_under_a_capped_budget() {
        let p = params();
        let mut config = McConfig::corners(&p, probes::register_states());
        config.max_schedules = 1_500;
        let make = || Replica::group(RmwRegister::default(), &p);
        let report =
            agrees_with_the_oracle(&RmwRegister::default(), &make, &p, &six_ops(), &config);
        assert!(report.capped && report.schedules == 1_500);
    }

    #[test]
    fn snapshot_dfs_matches_replay_on_a_split_unit() {
        let p = params();
        let script = six_ops();
        let config = McConfig::corners(&p, probes::register_states());
        let make = || Replica::group(RmwRegister::default(), &p);
        let spec = RmwRegister::default();
        let messages = preflight(&make, &p, &script, &config).expect("send order");
        let digits = vec![0; messages];
        let fresh = explore_unit(&spec, &make, &p, &script, &config, 0, &digits, &[], 0, 1);
        let (plan, lock) = fresh.spawned.first().cloned().expect("a depth-0 split");
        assert_eq!((plan.as_slice(), lock), (&[1][..], 1));
        let unit = |explore: &UnitFn<'_>| explore(0, &digits, &plan, lock, 2_000);
        let dfs = unit(&|c, d, p_, l, b| {
            explore_unit(&spec, &make, &p, &script, &config, c, d, p_, l, b)
        });
        let oracle =
            unit(&|c, d, p_, l, b| replay_unit(&spec, &make, &p, &script, &config, c, d, p_, l, b));
        assert!(dfs.runs.len() > 100, "{} runs", dfs.runs.len());
        assert!(dfs.runs.iter().all(|(_, choices, _)| choices[0] == 1));
        assert_eq!(dfs.runs, oracle.runs);
        assert_eq!(
            (dfs.cells, dfs.schedules, dfs.pruned, dfs.events, dfs.capped),
            (
                oracle.cells,
                oracle.schedules,
                oracle.pruned,
                oracle.events,
                oracle.capped
            )
        );
        assert!(dfs.spawned.is_empty() && oracle.spawned.is_empty());
    }
}
