//! The work-stealing exploration frontier and its deterministic merge.
//!
//! [`model_check`] splits the exploration grid into **work units** — one
//! per `clock × delay-code` cell, plus DFS subtrees split off at a hot
//! cell's first (depth-0) choice point — and fans them out over a
//! scoped worker pool in the style of
//! [`skewbound_sim::par::run_grid`]: workers claim units from a shared
//! frontier (smallest canonical coordinate first), explore them with
//! [`crate::explore`]'s snapshot-resume DFS, each run checked directly for
//! linearizability.
//!
//! ## The determinism contract
//!
//! Parallel execution is treated as *best-effort precomputation*: after
//! the pool drains, a single-threaded **merge walk** revisits every unit
//! in canonical order — ascending clock index, then delay code, then
//! DFS plan — and absorbs each unit's result into the report. A unit
//! whose recorded result does not fit the canonical schedule budget at
//! its position (or that no worker got to) is simply re-explored inline
//! by the merge walk with the exact remaining budget. Worker scheduling
//! can therefore change *how fast* the answer arrives, never *what* it
//! is: counts, `capped` and violation order (lexicographically-least
//! first) are bit-identical at any `SKEWBOUND_THREADS`.
//!
//! The split rule is deterministic for the same reason: a fresh cell
//! always splits at its first run's depth-0 choice point when that
//! point branches, regardless of pool pressure, so the unit set itself
//! does not depend on thread timing.
//!
//! ## Budget
//!
//! [`McConfig::max_schedules`] is a *total* budget. Workers stop
//! claiming once the global executed-schedule counter passes it; the
//! merge walk then computes the exact canonical cut, re-running the cut
//! unit with the precise remainder, and sets `capped` exactly when
//! unexplored work remains at the cut. Cells are enumerated lazily
//! throughout, so a `2^64`-cell grid caps cleanly instead of
//! overflowing.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use skewbound_core::params::Params;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::par;
use skewbound_sim::time::SimTime;
use skewbound_spec::seqspec::SequentialSpec;

use crate::explore::{explore_unit, preflight, DigitCounter, McConfig, McReport, UnitOutcome};
use crate::model::ModelActor;

/// One work unit: a DFS subtree of one grid cell. `plan == []` with
/// `lock_depth == 0` is the whole fresh cell; a split sibling carries
/// the locked choice prefix it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Unit {
    clock_idx: usize,
    /// Delay digits, least-significant first (index into
    /// `McConfig::delay_choices` per message).
    digits: Vec<usize>,
    plan: Vec<usize>,
    lock_depth: usize,
}

impl Ord for Unit {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Canonical exploration order: clock index, then delay *code*
        // (digits are little-endian, so compare from the most
        // significant end), then DFS plan (lexicographic; a prefix
        // precedes its extensions, matching DFS emission order).
        self.clock_idx
            .cmp(&other.clock_idx)
            .then_with(|| self.digits.len().cmp(&other.digits.len()))
            .then_with(|| self.digits.iter().rev().cmp(other.digits.iter().rev()))
            .then_with(|| self.plan.cmp(&other.plan))
            .then_with(|| self.lock_depth.cmp(&other.lock_depth))
    }
}

impl PartialOrd for Unit {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy generator of fresh cells in canonical order.
#[derive(Debug)]
struct CellCursor {
    clock_idx: usize,
    clock_count: usize,
    counter: DigitCounter,
}

impl CellCursor {
    fn new(base: usize, messages: usize, clock_count: usize) -> Self {
        CellCursor {
            clock_idx: 0,
            clock_count,
            counter: DigitCounter::new(base, messages),
        }
    }

    fn next_cell(&mut self) -> Option<(usize, Vec<usize>)> {
        if self.clock_idx >= self.clock_count {
            return None;
        }
        let cell = (self.clock_idx, self.counter.current().to_vec());
        if !self.counter.advance() {
            self.clock_idx += 1;
        }
        Some(cell)
    }
}

/// Claimable work: split-off units first (they always precede every
/// cell the cursor has yet to produce), then fresh cells off the lazy
/// cursor. `BTreeMap` keyed by the canonical order so the smallest
/// coordinate is claimed first — that keeps worker effort aligned with
/// the canonical budget cut.
#[derive(Debug)]
struct FrontierState {
    pending: BTreeMap<Unit, ()>,
    cursor: CellCursor,
}

impl FrontierState {
    fn claim(&mut self) -> Option<Unit> {
        if let Some((unit, ())) = self.pending.pop_first() {
            return Some(unit);
        }
        let (clock_idx, digits) = self.cursor.next_cell()?;
        Some(Unit {
            clock_idx,
            digits,
            plan: Vec::new(),
            lock_depth: 0,
        })
    }
}

/// Explores every `(clock, delay assignment, schedule)` combination of
/// the scripted scenario, checking each run's history against `spec` and
/// the protocol invariants.
///
/// Work is fanned out over this module's work-stealing frontier (worker
/// count from [`McConfig::workers`], else `SKEWBOUND_THREADS` / one per
/// core); results are merged in canonical cell order, so the report is
/// bit-identical at any thread count. A delay-dependent send pattern
/// (detected up front by
/// [`skewbound_shift::exhaustive::verify_send_order_independence`])
/// yields a report with a single
/// [`ViolationKind::SendOrderDivergence`](crate::ViolationKind) violation
/// instead of a panic, and arbitrarily large delay grids are enumerated
/// lazily — hitting [`McConfig::max_schedules`] sets `capped` rather than
/// overflowing.
///
/// # Panics
///
/// Panics if `config` has no delay or clock choices.
pub fn model_check<A, F>(
    spec: &A::Spec,
    make_actors: F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
) -> McReport
where
    A: ModelActor,
    A::Spec: Sync,
    <A::Spec as SequentialSpec>::State: Sync,
    <A::Spec as SequentialSpec>::Op: Send + Sync,
    <A::Spec as SequentialSpec>::Resp: Send + Sync,
    F: Fn() -> Vec<A> + Sync,
{
    let started = Instant::now();
    let make_actors = &make_actors;
    let messages = match preflight(make_actors, params, script, config) {
        Ok(messages) => messages,
        Err(report) => return *report,
    };

    let base = config.delay_choices.len();
    let clock_count = config.clock_choices.len();
    let workers = config.workers.unwrap_or_else(par::available_workers).max(1);
    let budget = config.max_schedules;

    let frontier = Mutex::new(FrontierState {
        pending: BTreeMap::new(),
        cursor: CellCursor::new(base, messages, clock_count),
    });
    let results: Mutex<Vec<(Unit, UnitOutcome)>> = Mutex::new(Vec::new());
    let schedules_done = AtomicU64::new(0);
    let min_violating: Mutex<Option<Unit>> = Mutex::new(None);
    let first_panic: Mutex<Option<(Unit, String)>> = Mutex::new(None);

    let run_worker = || {
        loop {
            let done = schedules_done.load(Ordering::Relaxed);
            if done >= budget {
                return;
            }
            let unit = {
                let mut frontier = frontier.lock().expect("frontier poisoned");
                if config.stop_at_first_violation {
                    // Units past the least violating coordinate are dead
                    // weight: the merge walk will discard them.
                    let min = min_violating.lock().expect("min poisoned");
                    if let Some(min) = min.as_ref() {
                        let ahead_of_min = frontier
                            .pending
                            .first_key_value()
                            .is_some_and(|(u, ())| u < min);
                        if !ahead_of_min {
                            return;
                        }
                    }
                }
                frontier.claim()
            };
            let Some(unit) = unit else { return };
            let unit_budget = budget.saturating_sub(done);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                explore_unit(
                    spec,
                    make_actors,
                    params,
                    script,
                    config,
                    unit.clock_idx,
                    &unit.digits,
                    &unit.plan,
                    unit.lock_depth,
                    unit_budget,
                )
            }));
            match outcome {
                Ok(outcome) => {
                    schedules_done.fetch_add(outcome.schedules, Ordering::Relaxed);
                    if !outcome.spawned.is_empty() {
                        let mut frontier = frontier.lock().expect("frontier poisoned");
                        for (plan, lock_depth) in &outcome.spawned {
                            frontier.pending.insert(
                                Unit {
                                    clock_idx: unit.clock_idx,
                                    digits: unit.digits.clone(),
                                    plan: plan.clone(),
                                    lock_depth: *lock_depth,
                                },
                                (),
                            );
                        }
                    }
                    if config.stop_at_first_violation && !outcome.violations.is_empty() {
                        let mut min = min_violating.lock().expect("min poisoned");
                        if min.as_ref().is_none_or(|m| unit < *m) {
                            *min = Some(unit.clone());
                        }
                    }
                    results
                        .lock()
                        .expect("results poisoned")
                        .push((unit, outcome));
                }
                Err(payload) => {
                    let message = par::panic_message(payload.as_ref());
                    let mut first = first_panic.lock().expect("panic slot poisoned");
                    if first.as_ref().is_none_or(|(u, _)| unit < *u) {
                        *first = Some((unit, message));
                    }
                    return;
                }
            }
        }
    };

    if workers <= 1 {
        run_worker();
    } else {
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(run_worker);
            }
        });
    }

    if let Some((unit, message)) = first_panic.into_inner().expect("panic slot poisoned") {
        panic!(
            "exploration of clock {}, delay digits {:?}, plan {:?} panicked: {message}",
            unit.clock_idx, unit.digits, unit.plan
        );
    }

    // ---- Deterministic merge walk (single-threaded) ----

    let mut map: BTreeMap<Unit, Option<UnitOutcome>> = BTreeMap::new();
    for (unit, outcome) in results.into_inner().expect("results poisoned") {
        map.insert(unit, Some(outcome));
    }
    let leftover = frontier.into_inner().expect("frontier poisoned");
    for (unit, ()) in leftover.pending {
        map.entry(unit).or_insert(None);
    }
    let mut cursor = leftover.cursor;

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
        workers,
        table_entries: 0,
        table_hits: 0,
    };
    loop {
        let (unit, recorded) = match map.pop_first() {
            Some(entry) => entry,
            None => match cursor.next_cell() {
                Some((clock_idx, digits)) => (
                    Unit {
                        clock_idx,
                        digits,
                        plan: Vec::new(),
                        lock_depth: 0,
                    },
                    None,
                ),
                None => break,
            },
        };
        let remaining = budget.saturating_sub(report.schedules);
        if remaining == 0 {
            // The budget is spent and this unit is still unexplored.
            report.capped = true;
            break;
        }
        let outcome = match recorded {
            Some(o)
                if (!o.capped && o.schedules <= remaining)
                    || (o.capped && o.schedules == remaining) =>
            {
                o
            }
            // No worker reached this unit, or its recorded run does not
            // land on the canonical cut: re-explore inline with the
            // exact remaining budget.
            _ => explore_unit(
                spec,
                make_actors,
                params,
                script,
                config,
                unit.clock_idx,
                &unit.digits,
                &unit.plan,
                unit.lock_depth,
                remaining,
            ),
        };
        report.cells += outcome.cells;
        report.schedules += outcome.schedules;
        report.pruned += outcome.pruned;
        report.off_space += outcome.off_space;
        report.unknown += outcome.unknown;
        report.explored_states += outcome.events;
        let violated = !outcome.violations.is_empty();
        report.violations.extend(outcome.violations);
        for (plan, lock_depth) in outcome.spawned {
            map.entry(Unit {
                clock_idx: unit.clock_idx,
                digits: unit.digits.clone(),
                plan,
                lock_depth,
            })
            .or_insert(None);
        }
        if outcome.capped {
            report.capped = true;
            break;
        }
        if config.stop_at_first_violation && violated {
            // A violation at this coordinate ends the exploration:
            // everything later in canonical order is discarded.
            break;
        }
    }

    report.wall_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    report
}
