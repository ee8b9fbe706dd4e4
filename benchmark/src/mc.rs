//! `mc-register`: the model checker exploring a six-operation register
//! script — millions of tiny engine replays under a schedule policy,
//! each checked through the transposition table.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_mc::{model_check, McConfig, McReport};
use skewbound_sim::ids::ProcessId;
use skewbound_sim::stats::peak_rss_bytes;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_spec::probes;
use skewbound_spec::register::{RmwOp, RmwRegister};

use crate::metrics::{median, RunResult};
use crate::spans::Spans;
use crate::Env;

/// Schedules one capped exploration executes; sized so a repeat takes
/// about a second on two cores and a run holds a dozen of them.
const MAX_SCHEDULES: u64 = 150_000;
type Script = Vec<(ProcessId, SimTime, RmwOp)>;

fn params() -> Params {
    Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_400),
        SimDuration::ZERO,
    )
    .expect("mc parameters are valid")
}

/// Two waves of three concurrent operations, one per process; the seed
/// picks the written values, never the shape, so every seed explores a
/// space of the same size.
fn script(seed: u64) -> Script {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut value = || rng.gen_range(1..1_000i64);
    let (pid, t) = (ProcessId::new, SimTime::from_ticks);
    vec![
        (pid(0), t(0), RmwOp::Write(value())),
        (pid(1), t(0), RmwOp::Write(value())),
        (pid(2), t(0), RmwOp::Read),
        (pid(0), t(40_000), RmwOp::Read),
        (pid(1), t(40_000), RmwOp::Write(value())),
        (pid(2), t(40_000), RmwOp::Write(value())),
    ]
}

fn explore(
    script: &[(ProcessId, SimTime, RmwOp)],
    max_schedules: u64,
    workers: Option<usize>,
) -> McReport {
    let p = params();
    let mut config = McConfig::corners(&p, probes::register_states());
    config.max_schedules = max_schedules;
    config.workers = workers;
    model_check(
        &RmwRegister::default(),
        || Replica::group(RmwRegister::default(), &p),
        &p,
        script,
        &config,
    )
}

/// Set-up: the uncapped five-operation exploration that must pass
/// before the capped six-operation one is worth timing.
fn setup(script: &Script, result: &mut RunResult) -> f64 {
    let start = Instant::now();
    let report = explore(&script[..5], u64::MAX, None);
    if !report.all_passed() {
        result.fail(format!(
            "five-op exploration did not pass: {} violations, {} unknown, capped={}",
            report.violations.len(),
            report.unknown,
            report.capped
        ));
    }
    start.elapsed().as_secs_f64()
}

/// The gates every capped repeat must pass.
fn gate(report: &McReport, first: &McReport, repeat: u64, result: &mut RunResult) -> bool {
    let ok = report.violations.is_empty() && report.unknown == 0 && report.same_results(first);
    if !ok {
        result.fail(format!(
            "repeat {repeat}: {} violations, {} unknown, same_results={}",
            report.violations.len(),
            report.unknown,
            report.same_results(first)
        ));
    }
    ok
}

const SETUP_SAMPLES: usize = 3;

/// The untraced pass. One operation is one explored schedule: a replay
/// of the script under one delivery order, run to the end and checked,
/// or abandoned by the sleep sets as redundant.
pub fn run(_env: &Env, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut result = RunResult::new();
    let script = script(seed);
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| setup(&script, &mut result))
        .collect();

    let start = Instant::now();
    let mut first: Option<McReport> = None;
    let mut per_op_us = Vec::new();
    let mut repeat = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let report = explore(&script, MAX_SCHEDULES, None);
        let ops = report.schedules;
        per_op_us.push(t.elapsed().as_secs_f64() * 1e6 / ops as f64);
        result.attempted += ops;
        if !gate(
            &report,
            first.get_or_insert_with(|| report.clone()),
            repeat,
            &mut result,
        ) {
            result.failed += ops;
        }
        repeat += 1;
    }

    // Both from the median repeat: interference from the host only ever
    // adds time, and the median sheds its bursts. Virtual time mandates
    // no real wait, so all host time per schedule is excess.
    let n = per_op_us.len();
    let per_op = median(per_op_us);
    let m = &mut result.metrics;
    m.set_q("ops_per_s", 1e6 / per_op, n);
    m.set_q("excess_p50_us", per_op, n);
    m.set("peak_rss_mb", peak_rss_bytes() as f64 / 1e6);
    m.set_q("setup_s", median(setups), SETUP_SAMPLES);
    Ok(result)
}

/// The traced pass: the same repeats under spans, plus one repeat on a
/// single worker for the frontier's speed-up.
pub fn run_traced(env: &Env, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut result = RunResult::new();
    let mut spans = Spans::new();
    let script = script(seed);

    let (one_worker, wall_1w) = spans.time("mc.frontier.model_check_1w", None, 0, || {
        explore(&script, MAX_SCHEDULES, Some(1))
    });
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut last = one_worker.clone();
    let mut repeat = 1u64;
    while repeat < 3 || start.elapsed().as_secs_f64() + wall_1w < seconds {
        let (report, wall) = spans.time("mc.explore.model_check", None, repeat, || {
            explore(&script, MAX_SCHEDULES, None)
        });
        let ops = report.schedules;
        result.attempted += ops;
        // `same_results` against the one-worker run is the exact-count
        // assertion: schedules, pruned and explored states all repeat.
        if !gate(&report, &one_worker, repeat, &mut result) {
            result.failed += ops;
        }
        walls.push(wall);
        last = report;
        repeat += 1;
    }

    let n = walls.len();
    let wall = median(walls);
    let m = &mut result.metrics;
    m.set("mc.explore.schedules", one_worker.schedules as f64);
    m.set(
        "mc.explore.explored_states",
        one_worker.explored_states as f64,
    );
    m.set("mc.explore.pruned", one_worker.pruned as f64);
    m.set_q(
        "mc.explore.states_per_s",
        one_worker.explored_states as f64 / wall,
        n,
    );
    m.set_q(
        "mc.explore.schedules_per_s",
        one_worker.schedules as f64 / wall,
        n,
    );
    m.set("mc.frontier.wall_1w_s", wall_1w);
    m.set("mc.frontier.speedup", wall_1w / wall);
    m.set("mc.table.hits", last.table_hits as f64);
    m.set("mc.table.entries", last.table_entries as f64);
    result.notes.push(format!(
        "{n} repeats at {} workers, counts identical to the 1-worker run",
        last.workers
    ));

    spans
        .dump(&env.out_dir.join("mc-register-spans.jsonl"))
        .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(result)
}
