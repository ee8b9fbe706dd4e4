//! `skewlint` — the certificate artefacts and the offline trace audit.
//!
//! `skewlint [--out DIR] [--trace FILE]` writes the artefacts nothing
//! else produces:
//!
//! 1. **Foil certificates**: each known-broken implementation must be
//!    caught by [`model_check`], and the catch is shrunk to a minimized,
//!    replay-confirmed certificate, schema-validated and written to the
//!    output directory (`local_first_register.json`, `eager_queue.json`).
//! 2. **Honest trace**: a real honest register run is traced, audited
//!    offline ([`skewbound_lint::audit`]) against the declared delivery
//!    window — it must be clean — and written as `honest.trace.jsonl`.
//! 3. With `--trace FILE`, the register foil's minimized counterexample
//!    is replayed with a JSON-lines trace sink attached, written to
//!    `FILE`, read back, and cross-checked against the certificate's
//!    `delay_ticks` (DESIGN.md §9).
//!
//! `--out` defaults to `target/skewlint`. Every check runs; the exit
//! code is nonzero if any failed, and the final line is `skewlint: OK`
//! exactly when every check held. The committed copies of these files
//! live in `tests/golden/`, and `tests/skewlint_goldens.rs` compares
//! them byte for byte.
//!
//! `skewlint audit FILE [--window D,U]` audits an arbitrary JSON-lines
//! trace; it prints every diagnostic, a summary line, and `audit: OK`
//! iff there are no error-severity findings (warnings do not fail the
//! audit).

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;

use skewbound_core::foils::{eager_group, LocalFirstReplica};
use skewbound_core::params::Params;
use skewbound_core::replica::Replica;
use skewbound_lint::audit::{audit_text, AuditConfig};
use skewbound_lint::json::{parse_lines, Json};
use skewbound_lint::JsonLinesSink;
use skewbound_mc::{
    certify, minimize, model_check, replay, validate_certificate, Certificate, McConfig,
    ModelActor, RunVerdict,
};
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::delay::FixedDelay;
use skewbound_sim::engine::Simulation;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{SimDuration, SimTime};
use skewbound_sim::trace::TraceSink;
use skewbound_spec::prelude::*;
use skewbound_spec::probes;

fn params() -> Params {
    Params::with_optimal_skew(
        3,
        SimDuration::from_ticks(9_000),
        SimDuration::from_ticks(2_400),
        SimDuration::ZERO,
    )
    .expect("valid parameters")
}

struct Gate {
    failures: u32,
}

impl Gate {
    fn expect(&mut self, ok: bool, what: &str) {
        if ok {
            println!("  ok: {what}");
        } else {
            self.failures += 1;
            println!("  FAIL: {what}");
        }
    }
}

/// Catches one foil, certifies the catch and writes the certificate to
/// `out_dir/file`. With `trace_path`, also writes and checks the traced
/// replay of the certificate.
#[allow(clippy::too_many_arguments)]
fn check_foil<A, F>(
    gate: &mut Gate,
    out_dir: &Path,
    file: &str,
    object: &str,
    implementation: &str,
    spec: &A::Spec,
    make_actors: F,
    p: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    probe_states: Vec<<A::Spec as SequentialSpec>::State>,
    trace_path: Option<&Path>,
) where
    A: ModelActor,
    A::Spec: Sync,
    <A::Spec as SequentialSpec>::State: Sync,
    <A::Spec as SequentialSpec>::Op: Send + Sync,
    <A::Spec as SequentialSpec>::Resp: Send + Sync,
    F: Fn() -> Vec<A> + Sync,
{
    let mut config = McConfig::corners(p, probe_states);
    config.stop_at_first_violation = true;
    let report = model_check(spec, &make_actors, p, script, &config);
    let name = format!("{object}/{implementation}");
    let Some(violation) = report.violations.first() else {
        gate.expect(false, &format!("{name} foil caught"));
        return;
    };
    gate.expect(true, &format!("{name} foil caught"));
    let cert = certify(
        spec,
        &make_actors,
        p,
        script,
        &config,
        violation,
        object,
        implementation,
        &report,
    );
    println!(
        "  {name}: {} at clock#{} delays={:?} choices={:?} (minimized)",
        cert.violation_kind, violation.clock_idx, cert.delay_ticks, cert.schedule_choices,
    );
    gate.expect(cert.replay_confirmed, &format!("{name} replay confirmed"));
    let text = cert.to_json();
    match validate_certificate(&text) {
        Ok(()) => gate.expect(true, &format!("{name} certificate schema-valid")),
        Err(e) => gate.expect(false, &format!("{name} certificate schema-valid: {e}")),
    }
    write(gate, &out_dir.join(file), &text);
    if let Some(trace_path) = trace_path {
        // `certify` keeps only the certificate; minimizing again is
        // deterministic and yields the coordinate it replayed.
        let min = minimize(spec, &make_actors, p, script, &config, violation);
        let shared = Rc::new(RefCell::new(JsonLinesSink::new()));
        let outcome = replay(
            spec,
            &make_actors,
            p,
            script,
            &config,
            min.clock_idx,
            &min.delay_digits,
            &min.choices,
            Some(Box::new(Rc::clone(&shared))),
        );
        gate.expect(
            matches!(&outcome.verdict, RunVerdict::Violation(k) if k.same_kind(&min.kind)),
            "traced replay reproduces the violation",
        );
        trace_gate(gate, trace_path, &shared, &cert);
    }
}

/// Writes the traced replay of `cert`'s counterexample to `trace_path`,
/// then re-reads it and checks every message's `deliver.at − send.at`
/// against the certificate's `delay_ticks` entry for that message (both
/// are indexed by global send order).
fn trace_gate(
    gate: &mut Gate,
    trace_path: &Path,
    shared: &RefCell<JsonLinesSink>,
    cert: &Certificate,
) {
    let mut sink = shared.borrow_mut();
    sink.counter("mc", "schedules", cert.schedules_explored);
    sink.counter("mc", "pruned", cert.schedules_pruned);
    sink.counter("mc", "delta_debug_steps", cert.delta_debug_steps);
    if !write(gate, trace_path, sink.lines()) {
        return;
    }
    // Validate by re-reading what was written, not the in-memory copy.
    let values = match std::fs::read_to_string(trace_path).map(|text| parse_lines(&text)) {
        Ok(Ok(values)) => values,
        Ok(Err(e)) => return gate.expect(false, &format!("trace parses as JSON lines: {e}")),
        Err(e) => return gate.expect(false, &format!("read back {}: {e}", trace_path.display())),
    };
    gate.expect(
        !values.is_empty(),
        &format!("trace parses as JSON lines ({} lines)", values.len()),
    );
    let mut send_at = std::collections::BTreeMap::new();
    let mut deliver_at = std::collections::BTreeMap::new();
    for v in &values {
        let msg_at = v
            .get("msg")
            .and_then(Json::as_num)
            .map(|msg| (msg, v.get("at").and_then(Json::as_num)));
        match v.get("kind").and_then(Json::as_str) {
            Some("send") => send_at.extend(msg_at),
            Some("deliver") => deliver_at.extend(msg_at),
            _ => {}
        }
    }
    gate.expect(
        send_at.len() == cert.delay_ticks.len(),
        &format!(
            "trace has one send per certificate delay ({} = {})",
            send_at.len(),
            cert.delay_ticks.len()
        ),
    );
    let consistent = cert.delay_ticks.iter().enumerate().all(|(i, &delay)| {
        let msg = i64::try_from(i).expect("msg id fits");
        match (send_at.get(&msg), deliver_at.get(&msg)) {
            (Some(Some(sent)), Some(Some(recv))) => {
                recv.checked_sub(*sent).and_then(|d| u64::try_from(d).ok()) == Some(delay)
            }
            _ => false,
        }
    });
    gate.expect(
        consistent,
        "trace delivery delays match certificate delay_ticks",
    );
}

/// Traces one honest Algorithm 1 register run (write at 0, read at
/// 30 000 ticks, maximal fixed delays, zero skew), audits the trace
/// against the declared window — it must be clean — and writes it to
/// `out_dir/honest.trace.jsonl`.
fn honest_trace(gate: &mut Gate, out_dir: &Path) {
    let p = params();
    let shared = Rc::new(RefCell::new(JsonLinesSink::new()));
    let mut sim = Simulation::new(
        Replica::group(RmwRegister::default(), &p),
        ClockAssignment::zero(p.n()),
        FixedDelay::maximal(p.delay_bounds()),
    );
    sim.set_trace_sink(Box::new(Rc::clone(&shared)));
    sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, RmwOp::Write(1));
    sim.schedule_invoke(ProcessId::new(1), SimTime::from_ticks(30_000), RmwOp::Read);
    if let Err(e) = sim.run() {
        return gate.expect(false, &format!("honest register run completes: {e:?}"));
    }
    let text = shared.borrow().lines().to_owned();
    let cfg = AuditConfig {
        window: Some((
            i64::try_from(p.d().as_ticks()).expect("d fits"),
            i64::try_from(p.u().as_ticks()).expect("u fits"),
        )),
    };
    match audit_text(&text, &cfg) {
        Ok((report, summary)) => {
            println!(
                "  honest register trace: {} events, {} processes, {} message(s) matched",
                summary.events, summary.processes, summary.matched_messages
            );
            for d in &report.diagnostics {
                println!("    {d}");
            }
            gate.expect(
                report.is_clean(),
                "honest register trace audits clean (window, matching, FIFO, timers)",
            );
        }
        Err(e) => gate.expect(false, &format!("honest trace parses: {e}")),
    }
    write(gate, &out_dir.join("honest.trace.jsonl"), &text);
}

/// Writes `text` to `path`; an I/O error fails the gate and returns
/// `false`.
fn write(gate: &mut Gate, path: &Path, text: &str) -> bool {
    match std::fs::write(path, text) {
        Ok(()) => {
            println!("  wrote {}", path.display());
            true
        }
        Err(e) => {
            gate.expect(false, &format!("write {}: {e}", path.display()));
            false
        }
    }
}

/// `skewlint audit FILE [--window D,U]`: audit an arbitrary JSON-lines
/// trace. Prints diagnostics and a summary; exits zero iff there are no
/// error-severity findings.
fn audit_command(mut args: std::env::Args) -> ExitCode {
    let mut file: Option<PathBuf> = None;
    let mut window: Option<(i64, i64)> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--window" => {
                let Some(spec) = args.next() else {
                    eprintln!("--window needs D,U (ticks)");
                    return ExitCode::FAILURE;
                };
                let parts: Vec<_> = spec.split(',').collect();
                let parsed = match parts.as_slice() {
                    [d, u] => d
                        .trim()
                        .parse::<i64>()
                        .ok()
                        .zip(u.trim().parse::<i64>().ok()),
                    _ => None,
                };
                // The model's window is [D − U, D] with 0 ≤ U ≤ D; any
                // other pair bounds nothing (and D − U may overflow).
                let Some((d, u)) = parsed.filter(|&(d, u)| 0 <= u && u <= d) else {
                    eprintln!(
                        "--window needs D,U (ticks) with 0 <= U <= D, got {spec:?} \
                         (usage: skewlint audit FILE [--window D,U])"
                    );
                    return ExitCode::FAILURE;
                };
                window = Some((d, u));
            }
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(PathBuf::from(other));
            }
            other => {
                eprintln!("unknown argument {other:?} (usage: skewlint audit FILE [--window D,U])");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(file) = file else {
        eprintln!("usage: skewlint audit FILE [--window D,U]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    };
    match audit_text(&text, &AuditConfig { window }) {
        Ok((report, summary)) => {
            for d in &report.diagnostics {
                println!("{d}");
            }
            println!(
                "audit: {} events, {} processes, {} message(s) matched, \
                 {} error(s), {} warning(s)",
                summary.events,
                summary.processes,
                summary.matched_messages,
                report.errors(),
                report.warnings()
            );
            if report.errors() == 0 {
                println!("audit: OK");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("audit: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let mut out_dir = PathBuf::from("target/skewlint");
    let mut trace_path: Option<PathBuf> = None;
    let mut first = true;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "audit" if first => return audit_command(args),
            "--out" => {
                let Some(dir) = args.next() else {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                };
                out_dir = PathBuf::from(dir);
            }
            "--trace" => {
                let Some(path) = args.next() else {
                    eprintln!("--trace needs a file path");
                    return ExitCode::FAILURE;
                };
                trace_path = Some(PathBuf::from(path));
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} \
                     (usage: skewlint [--out DIR] [--trace FILE] \
                     | skewlint audit FILE [--window D,U])"
                );
                return ExitCode::FAILURE;
            }
        }
        first = false;
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let mut gate = Gate { failures: 0 };
    let p = params();
    let t = SimTime::from_ticks;
    let pid = ProcessId::new;
    println!("[1/2] foils must be caught, with certificates");
    // Local-first: responds from local state before agreement — even a
    // register with one writer and one later reader is broken.
    check_foil(
        &mut gate,
        &out_dir,
        "local_first_register.json",
        "register",
        "local-first",
        &RwRegister::<i64>::default(),
        || LocalFirstReplica::group(RwRegister::<i64>::default(), p.n()),
        &p,
        &[
            // The write's local-first ack completes before t = 100, but
            // gossip needs at least d − u = 6600 ticks: the read must
            // observe the write yet can only see local state.
            (pid(0), t(0), RegOp::Write(1)),
            (pid(1), t(100), RegOp::Read),
        ],
        probes::register_states(),
        trace_path.as_deref(),
    );
    // Eager Algorithm 1 with halved timer waits: responds before the
    // delivery horizon, so a corner schedule reorders a dequeue past the
    // enqueue it should observe.
    check_foil(
        &mut gate,
        &out_dir,
        "eager_queue.json",
        "queue",
        "eager-timers",
        &Queue::<i64>::new(),
        || eager_group(Queue::<i64>::new(), &p, 1, 2),
        &p,
        &[
            (pid(2), t(0), QueueOp::Enqueue(7)),
            (pid(0), t(40_000), QueueOp::Dequeue),
            (pid(1), t(40_500), QueueOp::Dequeue),
        ],
        probes::queue_states(),
        None,
    );
    println!("[2/2] honest register trace, audited");
    honest_trace(&mut gate, &out_dir);

    if gate.failures == 0 {
        println!("skewlint: OK");
        ExitCode::SUCCESS
    } else {
        println!("skewlint: {} expectation(s) failed", gate.failures);
        ExitCode::FAILURE
    }
}
