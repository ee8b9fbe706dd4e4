//! The skewbound benchmark harness. `run.sh` builds it and
//! `skewbound-serve` and passes the paths in; see README.md.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one pass of
//!   one workload and ends with the result as one JSON line;
//! * without `--workload` it runs all four, untraced then traced, and
//!   prints every metric by name (`--quick`: 5 s passes, the smoke
//!   mode; `--repeat-check`: the whole set twice, compared against the
//!   bounds).

mod engine;
mod join;
mod layers;
mod mc;
mod mesh;
mod metrics;
mod netload;
mod nettrace;
mod spans;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{
    is_exact, print_table, result_json, RunResult, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};

/// Where things are and what built them; recorded with every result.
pub struct Env {
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
    git_rev: String,
    rustc: String,
}

const USAGE: &str =
    "usage: benchmark/run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
    [--quick] [--repeat-check] [--print-benchmark-json]";

struct Args {
    env: Env,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    repeat_check: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        env: Env {
            serve_bin: PathBuf::new(),
            out_dir: PathBuf::new(),
            git_rev: "unknown".into(),
            rustc: "unknown".into(),
        },
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        quick: false,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds wants a value in (0, 60]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--serve-bin" => args.env.serve_bin = value()?.into(),
            "--out-dir" => args.env.out_dir = value()?.into(),
            "--git-rev" => args.env.git_rev = value()?,
            "--rustc" => args.env.rustc = value()?,
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.env.serve_bin.as_os_str().is_empty() || args.env.out_dir.as_os_str().is_empty() {
        return Err("--serve-bin and --out-dir are required (run.sh passes them)".into());
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|d| d.name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|d| d.name).collect();
            return Err(format!("unknown workload {w}; known: {}", names.join(", ")));
        }
    }
    Ok(Some(args))
}

fn run_one(
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    match (workload, traced) {
        ("net-queue-mixed", false) => netload::queue_mixed(seed).run(env, seconds),
        ("net-queue-mixed", true) => netload::queue_mixed(seed).run_traced(env, seconds),
        ("net-register-writes", false) => netload::register_writes(seed).run(env, seconds),
        ("net-register-writes", true) => netload::register_writes(seed).run_traced(env, seconds),
        ("engine-sharded", false) => engine::run(env, seed, seconds),
        ("engine-sharded", true) => engine::run_traced(env, seed, seconds),
        ("mc-register", false) => mc::run(env, seed, seconds),
        ("mc-register", true) => mc::run_traced(env, seed, seconds),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

/// Runs one pass, prints its table, appends it (with the host record)
/// to `out/results.jsonl`.
fn run_and_report(
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let result = run_one(env, workload, seed, seconds, traced)?;
    print_table(workload, traced, &result);
    let line = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"traced\": {traced}, \
         \"host_cores\": {}, \"git_rev\": \"{}\", \"rustc\": \"{}\", \"result\": {}}}\n",
        host_cores(),
        env.git_rev,
        env.rustc,
        result_json(&result, traced)
    );
    let path = env.out_dir.join("results.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| file.write_all(line.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(result)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One pass as a child process saw it: whether its gates held and the
/// values of its result line.
struct Pass {
    correct: bool,
    values: Vec<(&'static str, f64)>,
}

impl Pass {
    fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }
}

/// Runs one pass in a process of its own — exactly what the one-pass
/// mode does, so peak memory and warm-up are never inherited from the
/// pass before — and relays its table.
fn run_in_child(
    env: &Env,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find the harness: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--serve-bin")
        .arg(&env.serve_bin)
        .arg("--out-dir")
        .arg(&env.out_dir)
        .args(["--git-rev", &env.git_rev, "--rustc", &env.rustc])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("the {workload} pass printed no result ({})", out.status))?;
    // The child's first line repeats the header this process printed.
    println!("{}", table.split_once('\n').map_or("", |(_, rest)| rest));
    let (correct, values) = metrics::parse_result_json(line, traced).ok_or_else(|| {
        format!(
            "the {workload} pass ended without a result ({})",
            out.status
        )
    })?;
    Ok(Pass { correct, values })
}

/// One full set: every workload untraced, then traced.
struct Set(Vec<(&'static str, Pass, Pass)>);

fn run_set(env: &Env, seed: u64, seconds: f64, traced_seconds: f64) -> Result<Set, String> {
    let mut set = Vec::new();
    for w in WORKLOADS {
        let untraced = run_in_child(env, w.name, seed, seconds, false)?;
        let traced = run_in_child(env, w.name, seed, traced_seconds, true)?;
        set.push((w.name, untraced, traced));
    }
    Ok(Set(set))
}

impl Set {
    fn correct(&self) -> bool {
        self.0.iter().all(|(_, u, t)| u.correct && t.correct)
    }
}

/// Compares two sets of the same code: every end-to-end metric of every
/// workload against its bound, every exact count for equality. Returns
/// the report and whether all of it held.
fn compare(a: &Set, b: &Set) -> (String, bool) {
    let mut out = String::from("## repeat check: set 2 against set 1\n");
    let (mut in_bounds, mut exact_equal) = (true, true);
    for ((name, ua, ta), (_, ub, tb)) in a.0.iter().zip(&b.0) {
        for m in END_TO_END {
            let (va, vb) = (ua.get(m.name).unwrap_or(0.0), ub.get(m.name).unwrap_or(0.0));
            let worse = if m.better == "higher" {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let held = worse <= m.bound;
            in_bounds &= held;
            writeln!(
                out,
                "  {name:<20} {:<14} {va:>14.4} -> {vb:>14.4} {:<4} worse by {:>+7.2} % of bound {:>5.1} %  {}",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                if held { "ok" } else { "OUT OF BOUND" }
            )
            .unwrap();
        }
        for m in PER_LAYER.iter().filter(|m| is_exact(m.unit)) {
            let (va, vb) = (ta.get(m.name), tb.get(m.name));
            if va != vb {
                exact_equal = false;
                writeln!(
                    out,
                    "  {name:<20} {} is marked exact but read {va:?} then {vb:?}",
                    m.name
                )
                .unwrap();
            }
        }
    }
    if exact_equal {
        out.push_str("  exact counts: all identical across the two sets\n");
    }
    (out, in_bounds && exact_equal)
}

fn real_main() -> Result<bool, String> {
    let Some(args) = parse_args().map_err(|e| format!("{e}\n{USAGE}"))? else {
        return Ok(true);
    };
    std::fs::create_dir_all(&args.env.out_dir)
        .map_err(|e| format!("{}: {e}", args.env.out_dir.display()))?;
    let env = &args.env;
    println!(
        "# skewbound benchmark: host_cores={} git_rev={} rustc=\"{}\" seed={}",
        host_cores(),
        env.git_rev,
        env.rustc,
        args.seed
    );

    if let Some(workload) = &args.workload {
        let result = run_and_report(env, workload, args.seed, args.seconds, args.traced)?;
        println!("{}", result_json(&result, args.traced));
        return Ok(result.correct);
    }

    let seconds = if args.quick { 5.0 } else { args.seconds };
    let traced_seconds = if args.quick { 5.0 } else { args.seconds / 2.0 };
    let first = run_set(env, args.seed, seconds, traced_seconds)?;
    let mut ok = first.correct();
    if args.repeat_check {
        let second = run_set(env, args.seed, seconds, traced_seconds)?;
        let (report, held) = compare(&first, &second);
        print!("{report}");
        // The quick mode is too short for the bounds to mean anything.
        ok &= second.correct() && (held || args.quick);
    }
    println!(
        "# {}",
        if ok {
            "all gates passed"
        } else {
            "SOME GATE FAILED"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("skewbound-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
