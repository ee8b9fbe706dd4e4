//! What the traced mesh pass reads out of its raw material: the
//! client-side excess of every operation, each operation's joined path
//! through the server, the merged server traces, and the audit.

use std::collections::BTreeMap;
use std::path::PathBuf;

use skewbound_lint::audit::{audit_events, AuditConfig};
use skewbound_lint::diag::Severity;
use skewbound_lint::json::{parse_lines, Json};
use skewbound_spec::seqspec::OpClass;

use crate::join::{delivery_latencies, OpPath};
use crate::mesh::MeshConfig;
use crate::metrics::{median, quantile, sorted, Metrics, RunResult};
use crate::spans::Spans;

fn at(ev: &Json) -> i64 {
    ev.get("at").and_then(Json::as_num).unwrap_or(0)
}

/// Each server's trace, in file order.
pub fn read_traces(paths: &[PathBuf]) -> Result<Vec<Vec<Json>>, String> {
    paths
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            parse_lines(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// All servers' events in one sequence ordered by event time; the sort
/// is stable, so each server's own order survives ties.
pub fn merge(per_server: Vec<Vec<Json>>) -> Vec<Json> {
    let mut merged: Vec<Json> = per_server.into_iter().flatten().collect();
    merged.sort_by_key(at);
    merged
}

/// Per-class excess and the tail, from the client side alone.
pub fn client_side(excess: &[(OpClass, f64)], headroom: u64) -> Metrics {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for &(class, e) in excess {
        let name = match class {
            OpClass::PureAccessor => "net.runtime.excess_aop_p50_us",
            OpClass::PureMutator => "net.runtime.excess_mop_p50_us",
            OpClass::Other => "net.runtime.excess_oop_p50_us",
        };
        by_class.entry(name).or_default().push(e);
    }
    let all = sorted(excess.iter().map(|&(_, e)| e).collect());
    let count = |pred: fn(f64, f64) -> bool| {
        all.iter().filter(|&&e| pred(e, headroom as f64)).count() as f64
    };
    let mut m = Metrics::default();
    for (name, samples) in by_class {
        let n = samples.len();
        m.set_q(name, median(samples), n);
    }
    m.set_q("net.runtime.excess_p90_us", quantile(&all, 0.9), all.len());
    m.set_q("net.runtime.excess_p99_us", quantile(&all, 0.99), all.len());
    m.set_q("net.runtime.excess_max_us", quantile(&all, 1.0), all.len());
    m.set("net.runtime.stall_ops", count(|e, headroom| e > headroom));
    m.set("net.runtime.early_responses", count(|e, _| e < 0.0));
    m
}

/// The joined paths as spans (one tree per operation) and as the
/// request-path, timer-lateness and response-path quantiles.
pub fn path_metrics(paths: &[(OpClass, OpPath)], spans: &mut Spans) -> Result<Metrics, String> {
    for (request, (_, p)) in paths.iter().enumerate() {
        let request = request as u64;
        let mut span = |name, parent, from: i64, to: i64| {
            spans.record(name, parent, request, from as f64, to as f64)
        };
        let root = span("client.invoke", None, p.sent, p.received);
        span("net.runtime.req_path", Some(root), p.sent, p.invoke);
        let server = span("net.runtime.server_op", Some(root), p.invoke, p.respond);
        if let Some((due, fired)) = p.timer {
            span("net.runtime.timer_late", Some(server), due, fired);
        }
        span("net.runtime.resp_path", Some(root), p.respond, p.received);
    }
    let late = sorted(
        paths
            .iter()
            .filter_map(|(_, p)| p.timer_late())
            .map(|l| l as f64)
            .collect(),
    );
    if late.is_empty() {
        return Err("no responding timer found in the traces".into());
    }
    let n = paths.len();
    let p50 = |f: fn(&OpPath) -> i64| median(paths.iter().map(|(_, p)| f(p) as f64).collect());
    let mut m = Metrics::default();
    m.set_q("net.runtime.req_path_p50_us", p50(OpPath::req_path), n);
    m.set_q("net.runtime.resp_path_p50_us", p50(OpPath::resp_path), n);
    m.set_q(
        "net.runtime.timer_late_p50_us",
        quantile(&late, 0.5),
        late.len(),
    );
    m.set_q(
        "net.runtime.timer_late_p90_us",
        quantile(&late, 0.9),
        late.len(),
    );
    Ok(m)
}

/// Closure of the join on pure mutators (one timer, no queueing): the
/// medians of request path, timer lateness and response path must add
/// up to the excess the client saw. Returns the sentence to report and
/// whether the two are within 20 % of each other.
pub fn closure(paths: &[(OpClass, OpPath)], mop_excess_p50: f64) -> (String, bool) {
    let mops: Vec<&OpPath> = paths
        .iter()
        .filter(|(c, _)| *c == OpClass::PureMutator)
        .map(|(_, p)| p)
        .collect();
    let part = |f: fn(&OpPath) -> i64| median(mops.iter().map(|p| f(p) as f64).collect());
    let sum =
        part(OpPath::req_path) + part(|p| p.timer_late().unwrap_or(0)) + part(OpPath::resp_path);
    (
        format!(
            "closure on {} MOPs: req_path + timer_late + resp_path medians = {sum:.1} us \
             vs excess_mop_p50 = {mop_excess_p50:.1} us",
            mops.len()
        ),
        (sum - mop_excess_p50).abs() <= 0.2 * mop_excess_p50.abs(),
    )
}

/// Peer deliveries and frames per operation, from readiness on.
pub fn delivery_metrics(
    merged: &[Json],
    cfg: &MeshConfig,
    ready_tick: i64,
    ops_since_ready: usize,
) -> Result<Metrics, String> {
    let deliveries = sorted(delivery_latencies(merged, ready_tick));
    if deliveries.is_empty() {
        return Err("no peer delivery found in the traces".into());
    }
    let (lo, hi) = ((cfg.d - cfg.u) as f64, cfg.d as f64);
    let outside = deliveries.iter().filter(|&&l| l < lo || l > hi).count();
    let sends = merged
        .iter()
        .filter(|ev| ev.get("kind").and_then(Json::as_str) == Some("send") && at(ev) >= ready_tick)
        .count();
    let n = deliveries.len();
    let mut m = Metrics::default();
    m.set_q("net.runtime.delivery_p50_us", quantile(&deliveries, 0.5), n);
    m.set_q("net.runtime.delivery_max_us", quantile(&deliveries, 1.0), n);
    m.set(
        "net.runtime.window_violation_ratio",
        outside as f64 / n as f64,
    );
    m.set(
        "net.runtime.frames_per_op",
        sends as f64 / ops_since_ready as f64,
    );
    Ok(m)
}

/// The offline auditor over the merged trace, judged as `skewlint
/// audit` judges it: error-severity findings fail the run — except
/// SB101 (a delivery outside the window), which on a shared host is a
/// scheduling stall and is reported as a number, counted from readiness
/// on. SB103 is a warning by design: delays drawn independently per
/// frame reorder a channel legitimately.
pub fn audit(
    merged: &[Json],
    cfg: &MeshConfig,
    ready_tick: i64,
    spans: &mut Spans,
    result: &mut RunResult,
) -> Metrics {
    let window = AuditConfig {
        window: Some((cfg.d as i64, cfg.u as i64)),
    };
    let ((report, summary), audit_s) = spans.time("lint.audit.audit_events", None, 0, || {
        audit_events(merged, &window)
    });
    let mut sb101 = 0usize;
    for d in &report.diagnostics {
        if d.code == "SB101" {
            let line = d
                .target
                .strip_prefix("line ")
                .and_then(|l| l.parse::<usize>().ok());
            // A frame sent before readiness is delivered at most `d` after it.
            sb101 +=
                usize::from(line.is_none_or(|l| at(&merged[l - 1]) >= ready_tick + cfg.d as i64));
        } else if d.severity == Severity::Error {
            result.fail(format!("audit {}: {} ({})", d.code, d.message, d.target));
        }
    }
    result.notes.push(format!(
        "audit: {} events, {} messages matched, {} warnings (SB103 channel reorderings)",
        summary.events,
        summary.matched_messages,
        report.warnings()
    ));
    let mut m = Metrics::default();
    m.set("lint.audit.events_per_s", summary.events as f64 / audit_s);
    m.set("lint.audit.sb101_findings", sb101 as f64);
    m
}
