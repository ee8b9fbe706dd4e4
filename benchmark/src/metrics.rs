//! The metric and workload catalogue — the single source `BENCHMARK.json`
//! is generated from — plus the result container and quantile helpers.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one run measures; `run_seconds` of `BENCHMARK.json` and the
/// default of `run.sh` without `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "net-queue-mixed",
        why: "3 serve processes, d=20ms, Enqueue/Dequeue/Peek in equal shares: MOP, OOP and AOP each against its own bound; timer-dominated, so excess_p50_us is the signal and ops_per_s stays flat",
    },
    WorkloadDef {
        name: "net-register-writes",
        why: "same mesh, eps=500us, 127 of 128 ops writes: socket, codec and thread hand-off are about a quarter of each op, so ops_per_s moves with the I/O path",
    },
    WorkloadDef {
        name: "engine-sharded",
        why: "in-process virtual time, 8 shards x 3 NsReplicas, 192000 ops simulated then checked per iteration: bypasses crates/net; host time splits between sim::engine and lin::checker",
    },
    WorkloadDef {
        name: "mc-register",
        why: "in-process DPOR exploration of a six-op register script: many tiny engine replays through mc::frontier and mc::table, the engine and checker used the other way round",
    },
];

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so
/// each is defined on all four; README.md gives the per-workload reading.
/// The bounds are three times the spread ten runs showed on this shared
/// 2-vCPU VM (about 8 % on every metric's noisiest workload), which is
/// also the most the contract allows.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndDef {
        name: "excess_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> LayerDef {
    LayerDef { name, unit, better }
}

/// A unit that starts with `count` marks an exact count: it repeats for
/// a fixed seed, and the run asserts that it does.
pub const PER_LAYER: &[LayerDef] = &[
    layer("net.runtime.req_path_p50_us", "us", "lower"),
    layer("net.runtime.timer_late_p50_us", "us", "lower"),
    layer("net.runtime.timer_late_p90_us", "us", "lower"),
    layer("net.runtime.resp_path_p50_us", "us", "lower"),
    layer("net.runtime.excess_aop_p50_us", "us", "lower"),
    layer("net.runtime.excess_mop_p50_us", "us", "lower"),
    layer("net.runtime.excess_oop_p50_us", "us", "lower"),
    layer("net.runtime.excess_p90_us", "us", "lower"),
    layer("net.runtime.excess_p99_us", "us", "lower"),
    layer("net.runtime.excess_max_us", "us", "lower"),
    layer("net.runtime.stall_ops", "ops", "lower"),
    layer("net.runtime.early_responses", "ops", "lower"),
    layer("net.runtime.delivery_p50_us", "us", "lower"),
    layer("net.runtime.delivery_max_us", "us", "lower"),
    layer("net.runtime.window_violation_ratio", "ratio", "lower"),
    layer("net.runtime.frames_per_op", "frames/op", "lower"),
    layer("net.runtime.trace_overhead_us", "us", "lower"),
    layer("net.wire.encode_ns_per_msg", "ns", "lower"),
    layer("net.wire.decode_ns_per_msg", "ns", "lower"),
    layer("net.wire.frame_ns", "ns", "lower"),
    layer("net.wire.batch64_decode_ns_per_msg", "ns", "lower"),
    layer("net.wire.bytes_per_write_op", "count", "lower"),
    layer("net.tcp.hop_p50_us", "us", "lower"),
    layer("net.tcp.hop_p90_us", "us", "lower"),
    layer("sim.rt.excess_p50_us", "us", "lower"),
    layer("sim.engine.run_s", "s", "lower"),
    layer("sim.engine.events", "count", "lower"),
    layer("sim.engine.events_per_s", "1/s", "higher"),
    layer("core.nsreplica.events_per_op", "count/op", "lower"),
    layer("core.nsreplica.unbatched_ops_per_s", "1/s", "higher"),
    layer("core.shard.max_shard_s", "s", "lower"),
    layer("lin.checker.check_s", "s", "lower"),
    layer("lin.checker.nodes", "count", "lower"),
    layer("lin.checker.nodes_per_s", "1/s", "higher"),
    layer("lin.checker.memo_hits", "count", "higher"),
    layer("mc.explore.schedules", "count", "lower"),
    layer("mc.explore.explored_states", "count", "lower"),
    layer("mc.explore.pruned", "count", "higher"),
    layer("mc.explore.states_per_s", "1/s", "higher"),
    layer("mc.explore.schedules_per_s", "1/s", "higher"),
    layer("mc.frontier.wall_1w_s", "s", "lower"),
    layer("mc.frontier.speedup", "ratio", "higher"),
    layer("mc.table.hits", "hits", "higher"),
    layer("mc.table.entries", "entries", "lower"),
    layer("lint.audit.events_per_s", "1/s", "higher"),
    layer("lint.audit.sb101_findings", "findings", "lower"),
];

pub fn is_exact(unit: &str) -> bool {
    unit.starts_with("count")
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// One measured value; `n` is the sample count behind a quantile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: Option<usize>,
}

/// The metrics of one run, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    /// Records `name`; panics on a name the catalogue does not list, so
    /// a typo cannot silently print as a zero.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.insert(name, value, None);
    }

    /// Records a quantile together with its sample count.
    pub fn set_q(&mut self, name: &'static str, value: f64, n: usize) {
        self.insert(name, value, Some(n));
    }

    fn insert(&mut self, name: &'static str, value: f64, n: Option<usize>) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, Value { value, n });
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// What one `--workload W --trace T` run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness gate of the workload passed.
    pub correct: bool,
    pub metrics: Metrics,
    /// Human-readable remarks (gate failures, sample sizes).
    pub notes: Vec<String>,
}

impl RunResult {
    /// An empty result that no gate has failed yet.
    pub fn new() -> Self {
        RunResult {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Metrics::default(),
            notes: Vec::new(),
        }
    }

    /// Marks the run incorrect and remembers why.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("FAILED: {why}"));
    }
}

/// The names and units a run of this kind must print, in catalogue
/// order. A per-layer metric the workload does not exercise reads 0.
pub fn reported(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The driver's result line.
pub fn result_json(result: &RunResult, traced: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, (name, unit)) in reported(traced).into_iter().enumerate() {
        let value = result.metrics.get(name).map_or(0.0, |v| v.value);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .unwrap();
    }
    out.push_str("}}");
    out
}

/// Reads a result line back: whether the run was correct, and the value
/// of every metric a run of this kind reports. `None` when the line is
/// not a result line.
pub fn parse_result_json(line: &str, traced: bool) -> Option<(bool, Vec<(&'static str, f64)>)> {
    let after = |key: &str| {
        let rest = &line[line.find(key)? + key.len()..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let correct = after("\"correct\":")?.parse().ok()?;
    let values = reported(traced)
        .into_iter()
        .map(|(name, _)| {
            let value = after(&format!("\"{name}\": {{\"value\":"))?.parse().ok()?;
            Some((name, value))
        })
        .collect::<Option<_>>()?;
    Some((correct, values))
}

/// The human-readable table: every metric by name, with unit and, for a
/// quantile, its sample count.
pub fn print_table(workload: &str, traced: bool, result: &RunResult) {
    println!(
        "## {workload} ({}): attempted={} failed={} correct={}",
        if traced {
            "traced pass, per-layer"
        } else {
            "untraced pass, end-to-end"
        },
        result.attempted,
        result.failed,
        result.correct
    );
    for (name, unit) in reported(traced) {
        match result.metrics.get(name) {
            Some(Value { value, n }) => {
                let n = n.map_or(String::new(), |n| format!("  (n={n})"));
                let exact = if is_exact(unit) { "  [exact]" } else { "" };
                println!("  {name:<40} {value:>16.4} {unit}{n}{exact}");
            }
            None => println!(
                "  {name:<40} {:>16} {unit}  (layer not on this workload's path)",
                0
            ),
        }
    }
    for note in &result.notes {
        println!("  note: {note}");
    }
}

/// The text of `BENCHMARK.json`, generated so the file and the harness
/// cannot drift apart (a unit test compares them).
pub fn benchmark_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

/// Nearest-rank quantile of an ascending slice (`p` in `[0, 1]`).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns them (total order: no NaNs are produced
/// by the harness).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn median(samples: Vec<f64>) -> f64 {
    quantile(&sorted(samples), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64, "{n} is too long");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "why of {} has {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn result_lines_read_back() {
        let mut result = RunResult::new();
        result.metrics.set("ops_per_s", 104.25);
        result.metrics.set("excess_p50_us", 277.0);
        result.metrics.set("peak_rss_mb", 7.8602);
        result.metrics.set("setup_s", 1.5e-3);
        let (correct, values) = parse_result_json(&result_json(&result, false), false).unwrap();
        assert!(correct);
        assert_eq!(values[0], ("ops_per_s", 104.25));
        assert_eq!(values[3], ("setup_s", 1.5e-3));
        result.fail("gate".into());
        let line = result_json(&result, true);
        let (correct, values) = parse_result_json(&line, true).unwrap();
        assert!(!correct);
        assert_eq!(values.len(), PER_LAYER.len());
        assert!(values.iter().all(|v| v.1 == 0.0));
        assert!(parse_result_json("## a table line", false).is_none());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = sorted(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.9), 5.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
    }
}
