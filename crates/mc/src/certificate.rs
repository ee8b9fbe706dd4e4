//! Minimized counterexample certificates.
//!
//! A violation found by [`crate::explore::model_check`] is only as good
//! as its reproducibility: a [`Certificate`] pins down the exact run —
//! clock offsets, per-message delays in global send order, and the
//! branch taken at every schedule choice point — together with the
//! observed history and the violated property. [`certify`] first shrinks
//! the coordinate with [`crate::explore::minimize`], then re-executes it
//! once more and records whether the replay reproduced the violation
//! (`replay_confirmed`); for histories of at most eight operations a
//! non-linearizability verdict is additionally cross-checked against the
//! permutation brute-forcer.
//!
//! Certificates serialize to a stable JSON schema
//! (`skewbound-certificate/v1`) via the in-tree [`crate::json`] module;
//! [`validate_certificate`] re-parses a document and checks every
//! schema obligation, so CI can gate on emitted files without trusting
//! the emitter.

use skewbound_core::params::Params;
use skewbound_lin::checker::check_history_brute_force;
use skewbound_sim::clock::ClockAssignment;
use skewbound_sim::history::History;
use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::SimTime;
use skewbound_spec::seqspec::SequentialSpec;

use crate::explore::{
    minimize_counted, replay, McConfig, McReport, McViolation, RunVerdict, ViolationKind,
};
use crate::json::{obj, parse, Json};
use crate::model::ModelActor;

/// The schema identifier every certificate carries.
pub const SCHEMA: &str = "skewbound-certificate/v1";

/// One operation of the violating history, with `Debug`-rendered
/// operation and response (payloads are strings by design —
/// certificates are evidence for humans and replay coordinates for
/// machines, not wire formats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRecord {
    /// Invoking process.
    pub pid: u32,
    /// The operation, `Debug`-rendered.
    pub op: String,
    /// The response, `Debug`-rendered, if the operation completed.
    pub resp: Option<String>,
    /// Invocation real time, ticks.
    pub invoked_at: u64,
    /// Response real time, ticks, if completed.
    pub responded_at: Option<u64>,
}

/// A self-contained, replayable counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Object name (e.g. `"queue"`).
    pub object: String,
    /// Implementation name (e.g. `"local-first"`).
    pub implementation: String,
    /// `n` replicas.
    pub n: usize,
    /// Message delay upper bound `d`, ticks.
    pub d: u64,
    /// Delay uncertainty `u`, ticks.
    pub u: u64,
    /// Clock skew bound `ε`, ticks.
    pub eps: u64,
    /// The accessor/mutator trade-off knob `X`, ticks.
    pub x: u64,
    /// Per-process clock offsets, ticks (signed).
    pub clock_offsets: Vec<i64>,
    /// Per-message delays in global send order, ticks.
    pub delay_ticks: Vec<u64>,
    /// Branch taken at each schedule choice point.
    pub schedule_choices: Vec<usize>,
    /// Violation kind label (`not-linearizable`, `incomplete-history`,
    /// `invariant`, `send-order-divergence`).
    pub violation_kind: String,
    /// Human-readable account of the violation.
    pub violation_detail: String,
    /// The violating history.
    pub history: Vec<CertRecord>,
    /// The coordinate went through [`minimize`](crate::explore::minimize).
    pub minimized: bool,
    /// Re-executing the minimized coordinate reproduced the violation.
    pub replay_confirmed: bool,
    /// Schedules the surrounding exploration executed.
    pub schedules_explored: u64,
    /// Schedules the surrounding exploration pruned as redundant.
    pub schedules_pruned: u64,
    /// Candidate reductions [`minimize`](crate::explore::minimize) re-executed while shrinking
    /// this certificate's coordinate.
    pub delta_debug_steps: u64,
}

fn history_records<S: SequentialSpec>(history: &History<S::Op, S::Resp>) -> Vec<CertRecord> {
    history
        .records()
        .iter()
        .map(|rec| CertRecord {
            pid: u32::try_from(rec.pid.index()).expect("pid fits"),
            op: format!("{:?}", rec.op),
            resp: rec.resp().map(|r| format!("{r:?}")),
            invoked_at: rec.invoked_at.as_ticks(),
            responded_at: rec.responded_at().map(SimTime::as_ticks),
        })
        .collect()
}

/// Minimizes `violation`, replays the result for confirmation, and
/// packages everything as a [`Certificate`].
#[allow(clippy::too_many_arguments)]
pub fn certify<A, F>(
    spec: &A::Spec,
    make_actors: &F,
    params: &Params,
    script: &[(ProcessId, SimTime, A::Op)],
    config: &McConfig<A::Spec>,
    violation: &McViolation,
    object: &str,
    implementation: &str,
    report: &McReport,
) -> Certificate
where
    A: ModelActor,
    F: Fn() -> Vec<A>,
{
    let (min, delta_debug_steps) =
        minimize_counted(spec, make_actors, params, script, config, violation);
    let outcome = replay(
        spec,
        make_actors,
        params,
        script,
        config,
        min.clock_idx,
        &min.delay_digits,
        &min.choices,
    );
    let mut replay_confirmed =
        matches!(&outcome.verdict, RunVerdict::Violation(k) if k.same_kind(&min.kind));
    // Independent cross-check where the brute-forcer's cap allows it.
    if replay_confirmed
        && matches!(min.kind, ViolationKind::NotLinearizable)
        && outcome.history.is_complete()
        && outcome.history.len() <= 8
    {
        replay_confirmed = !check_history_brute_force(spec, &outcome.history);
    }
    let clocks: &ClockAssignment = &config.clock_choices[min.clock_idx];
    Certificate {
        object: object.to_owned(),
        implementation: implementation.to_owned(),
        n: params.n(),
        d: params.d().as_ticks(),
        u: params.u().as_ticks(),
        eps: params.eps().as_ticks(),
        x: params.x().as_ticks(),
        clock_offsets: ProcessId::all(params.n())
            .map(|pid| clocks.offset(pid).as_ticks())
            .collect(),
        delay_ticks: min
            .delay_digits
            .iter()
            .map(|&d| config.delay_choices[d].as_ticks())
            .collect(),
        schedule_choices: min.choices.clone(),
        violation_kind: min.kind.label().to_owned(),
        violation_detail: min.kind.to_string(),
        history: history_records::<A::Spec>(&outcome.history),
        minimized: true,
        replay_confirmed,
        schedules_explored: report.schedules,
        schedules_pruned: report.pruned,
        delta_debug_steps,
    }
}

impl Certificate {
    /// Serializes to the `skewbound-certificate/v1` JSON schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let num_u = |v: u64| Json::Num(i64::try_from(v).expect("ticks fit i64"));
        let num_us = |v: usize| Json::Num(i64::try_from(v).expect("count fits i64"));
        let doc = obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("object", Json::Str(self.object.clone())),
            ("implementation", Json::Str(self.implementation.clone())),
            (
                "params",
                obj([
                    ("n", num_us(self.n)),
                    ("d", num_u(self.d)),
                    ("u", num_u(self.u)),
                    ("eps", num_u(self.eps)),
                    ("x", num_u(self.x)),
                ]),
            ),
            (
                "clock_offsets",
                Json::Arr(self.clock_offsets.iter().map(|&o| Json::Num(o)).collect()),
            ),
            (
                "delay_ticks",
                Json::Arr(self.delay_ticks.iter().map(|&t| num_u(t)).collect()),
            ),
            (
                "schedule_choices",
                Json::Arr(self.schedule_choices.iter().map(|&c| num_us(c)).collect()),
            ),
            (
                "violation",
                obj([
                    ("kind", Json::Str(self.violation_kind.clone())),
                    ("detail", Json::Str(self.violation_detail.clone())),
                ]),
            ),
            (
                "history",
                Json::Arr(
                    self.history
                        .iter()
                        .map(|rec| {
                            obj([
                                ("pid", Json::Num(i64::from(rec.pid))),
                                ("op", Json::Str(rec.op.clone())),
                                ("resp", rec.resp.clone().map_or(Json::Null, Json::Str)),
                                ("invoked_at", num_u(rec.invoked_at)),
                                ("responded_at", rec.responded_at.map_or(Json::Null, num_u)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("minimized", Json::Bool(self.minimized)),
            ("replay_confirmed", Json::Bool(self.replay_confirmed)),
            (
                "explored",
                obj([
                    ("schedules", num_u(self.schedules_explored)),
                    ("pruned", num_u(self.schedules_pruned)),
                    ("delta_debug_steps", num_u(self.delta_debug_steps)),
                ]),
            ),
        ]);
        doc.pretty()
    }
}

fn require<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn require_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    require(doc, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a string"))
}

fn require_num(doc: &Json, key: &str) -> Result<i64, String> {
    require(doc, key)?
        .as_num()
        .ok_or_else(|| format!("field {key:?} must be a number"))
}

fn require_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    require(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} must be an array"))
}

fn require_bool(doc: &Json, key: &str) -> Result<bool, String> {
    require(doc, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} must be a boolean"))
}

/// Parses and schema-checks a certificate document, including the
/// cross-field obligations (delays within `[d − u, d]`, clock offsets
/// within `ε`, one offset per process, confirmed replay).
pub fn validate_certificate(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    if require_str(&doc, "schema")? != SCHEMA {
        return Err(format!(
            "schema is {:?}, expected {SCHEMA:?}",
            require_str(&doc, "schema")?
        ));
    }
    require_str(&doc, "object")?;
    require_str(&doc, "implementation")?;

    let params = require(&doc, "params")?;
    let n = require_num(params, "n")?;
    let d = require_num(params, "d")?;
    let u = require_num(params, "u")?;
    let eps = require_num(params, "eps")?;
    require_num(params, "x")?;
    if n < 2 {
        return Err(format!("params.n must be at least 2, got {n}"));
    }
    if !(0 < u && u <= d) {
        return Err(format!("params must satisfy 0 < u ≤ d, got u={u}, d={d}"));
    }

    let offsets = require_arr(&doc, "clock_offsets")?;
    let n_usize = usize::try_from(n).map_err(|_| format!("params.n does not fit usize: {n}"))?;
    if offsets.len() != n_usize {
        return Err(format!(
            "clock_offsets has {} entries for n={n} processes",
            offsets.len()
        ));
    }
    for (i, off) in offsets.iter().enumerate() {
        let off = off
            .as_num()
            .ok_or_else(|| format!("clock_offsets[{i}] must be a number"))?;
        if off.abs() > eps {
            return Err(format!(
                "clock_offsets[{i}] = {off} exceeds the skew bound ε = {eps}"
            ));
        }
    }

    for (i, ticks) in require_arr(&doc, "delay_ticks")?.iter().enumerate() {
        let t = ticks
            .as_num()
            .ok_or_else(|| format!("delay_ticks[{i}] must be a number"))?;
        if t < d - u || t > d {
            return Err(format!(
                "delay_ticks[{i}] = {t} outside the admissible [d − u, d] = [{}, {d}]",
                d - u
            ));
        }
    }

    for (i, c) in require_arr(&doc, "schedule_choices")?.iter().enumerate() {
        if c.as_num().is_none_or(|c| c < 0) {
            return Err(format!(
                "schedule_choices[{i}] must be a non-negative number"
            ));
        }
    }

    let violation = require(&doc, "violation")?;
    let kind = require_str(violation, "kind")?;
    if !matches!(
        kind,
        "not-linearizable" | "incomplete-history" | "invariant" | "send-order-divergence"
    ) {
        return Err(format!("unknown violation.kind {kind:?}"));
    }
    require_str(violation, "detail")?;

    let history = require_arr(&doc, "history")?;
    if history.is_empty() {
        return Err("history must not be empty".into());
    }
    for (i, rec) in history.iter().enumerate() {
        let pid = require_num(rec, "pid")?;
        if pid < 0 || pid >= n {
            return Err(format!("history[{i}].pid = {pid} out of range for n={n}"));
        }
        require_str(rec, "op")?;
        require_num(rec, "invoked_at")?;
        // resp / responded_at may be null (incomplete-history evidence).
        require(rec, "resp")?;
        require(rec, "responded_at")?;
    }

    require_bool(&doc, "minimized")?;
    if !require_bool(&doc, "replay_confirmed")? {
        return Err("replay_confirmed is false: the certificate does not reproduce".into());
    }

    let explored = require(&doc, "explored")?;
    require_num(explored, "schedules")?;
    require_num(explored, "pruned")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Certificate {
        Certificate {
            object: "queue".into(),
            implementation: "local-first".into(),
            n: 3,
            d: 9_000,
            u: 2_400,
            eps: 1_600,
            x: 0,
            clock_offsets: vec![0, -1_600, 0],
            delay_ticks: vec![9_000, 6_600, 9_000],
            schedule_choices: vec![1, 0],
            violation_kind: "not-linearizable".into(),
            violation_detail: "history is not linearizable".into(),
            history: vec![
                CertRecord {
                    pid: 2,
                    op: "Enqueue(42)".into(),
                    resp: Some("Done".into()),
                    invoked_at: 0,
                    responded_at: Some(1_600),
                },
                CertRecord {
                    pid: 0,
                    op: "Dequeue".into(),
                    resp: Some("Empty".into()),
                    invoked_at: 40_000,
                    responded_at: Some(50_600),
                },
            ],
            minimized: true,
            replay_confirmed: true,
            schedules_explored: 128,
            schedules_pruned: 32,
            delta_debug_steps: 17,
        }
    }

    #[test]
    fn emitted_certificates_validate() {
        let text = sample().to_json();
        validate_certificate(&text).unwrap();
        assert!(text.contains("\"schema\": \"skewbound-certificate/v1\""));
        assert!(text.contains("\"replay_confirmed\": true"));
    }

    #[test]
    fn validation_rejects_schema_violations() {
        let ok = sample();

        let mut unconfirmed = ok.clone();
        unconfirmed.replay_confirmed = false;
        assert!(validate_certificate(&unconfirmed.to_json())
            .unwrap_err()
            .contains("replay_confirmed"));

        let mut inadmissible = ok.clone();
        inadmissible.delay_ticks[0] = 9_001;
        assert!(validate_certificate(&inadmissible.to_json())
            .unwrap_err()
            .contains("admissible"));

        let mut skewed = ok.clone();
        skewed.clock_offsets[1] = -1_601;
        assert!(validate_certificate(&skewed.to_json())
            .unwrap_err()
            .contains("skew bound"));

        let mut wrong_arity = ok.clone();
        wrong_arity.clock_offsets.pop();
        assert!(validate_certificate(&wrong_arity.to_json())
            .unwrap_err()
            .contains("entries"));

        let mut bad_kind = ok;
        bad_kind.violation_kind = "mystery".into();
        assert!(validate_certificate(&bad_kind.to_json())
            .unwrap_err()
            .contains("violation.kind"));

        assert!(validate_certificate("{}").is_err());
        assert!(validate_certificate("not json").is_err());
    }
}
