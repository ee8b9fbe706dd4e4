//! Offline happens-before auditor for JSON-lines trace files.
//!
//! The simulator's structured trace stream (`sim::trace`, serialized by
//! [`crate::trace`]) records every invoke/respond/send/deliver/timer event
//! with virtual times and stable field names. This module replays such
//! a file *offline*, reconstructs per-process [`VectorClock`]s (ticking
//! on every local event and joining the sender's clock on delivery),
//! and checks the transport- and runtime-level obligations the paper's
//! bounds rest on:
//!
//! * `SB101` — every delivery lands inside the declared `[d−u, d]`
//!   window after its send (when a window is configured);
//! * `SB102` — sends and deliveries match one-to-one and respect
//!   happens-before: no delivery without a send, before its send, or
//!   twice for one send, and no send that is never delivered;
//! * `SB103` — per ordered `(sender, receiver)` channel, deliveries
//!   occur in send order (a warning: the delay models may legitimately
//!   reorder, but an inversion under a FIFO-claiming model is a bug);
//! * `SB104` — every timer set is eventually fired, and every fire
//!   refers to an armed timer;
//! * `SB105` — the engine's `leaked_payloads` counter is zero: no item
//!   is left on a node's agenda or invocation queue at quiescence.
//!
//! The auditor is deliberately independent of the simulator's own
//! runtime assertions: it consumes only the serialized trace, so it can
//! audit traces produced by other builds, archived runs, or seeded
//! foils.

use std::collections::BTreeMap;

use crate::diag::{Diagnostic, Report};
use crate::json::{self, Json};

/// Audit-time configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditConfig {
    /// The declared delay window as `(d, u)` in ticks: deliveries must
    /// land within `[d − u, d]` after their send. `None` disables the
    /// `SB101` window check (the trace alone does not carry the model's
    /// bounds).
    pub window: Option<(i64, i64)>,
}

/// A per-process vector clock over a fixed-size process universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock over `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        VectorClock(vec![0; n])
    }

    /// Grows the universe to at least `n` processes.
    fn grow(&mut self, n: usize) {
        if self.0.len() < n {
            self.0.resize(n, 0);
        }
    }

    /// Advances process `i`'s own component (a local event).
    pub fn tick(&mut self, i: usize) {
        self.grow(i + 1);
        self.0[i] += 1;
    }

    /// Joins another clock in (component-wise max) — the receive rule.
    pub fn join(&mut self, other: &VectorClock) {
        self.grow(other.0.len());
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// Component `i` (zero for components beyond the clock's length).
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        self.0.get(i).copied().unwrap_or(0)
    }

    /// True when `self` is component-wise `≥ other` — i.e. every event
    /// `other` has witnessed happened-before (or at) `self`.
    #[must_use]
    pub fn dominates(&self, other: &VectorClock) -> bool {
        (0..other.0.len().max(self.0.len())).all(|i| self.get(i) >= other.get(i))
    }

    /// The raw components.
    #[must_use]
    pub fn components(&self) -> &[u64] {
        &self.0
    }
}

/// What the auditor saw, beyond diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSummary {
    /// Total event records consumed.
    pub events: usize,
    /// Number of distinct processes that appeared.
    pub processes: usize,
    /// Send/deliver pairs successfully matched (happens-before edges).
    pub matched_messages: usize,
    /// The final vector clock of each process, in order of first
    /// appearance in the trace; component `i` of a clock likewise
    /// counts the events of the `i`-th process to appear.
    pub clocks: Vec<VectorClock>,
}

/// One remembered send, waiting for its delivery.
#[derive(Debug, Clone)]
struct SendRec {
    from: i64,
    to: i64,
    at: i64,
    line: usize,
    vc: VectorClock,
    delivered: bool,
}

/// Parses a JSON-lines trace and audits it.
///
/// # Errors
///
/// Returns the parse error (with its 1-based line number) if some line
/// is not a JSON value; malformed-but-parseable records are reported as
/// diagnostics instead.
pub fn audit_text(text: &str, cfg: &AuditConfig) -> Result<(Report, AuditSummary), String> {
    let events = json::parse_lines(text)?;
    Ok(audit_events(&events, cfg))
}

/// Audits already-parsed trace records in file order.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn audit_events(events: &[Json], cfg: &AuditConfig) -> (Report, AuditSummary) {
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut clocks: Vec<VectorClock> = Vec::new();
    // msg id → send record.
    let mut sends: BTreeMap<i64, SendRec> = BTreeMap::new();
    // msg ids delivered before any send was seen: line numbers.
    let mut orphan_delivers: BTreeMap<i64, usize> = BTreeMap::new();
    // (pid, timer id) → set line, for timers still armed.
    let mut armed: BTreeMap<(i64, i64), usize> = BTreeMap::new();
    // Matched deliveries per channel, for the FIFO pass:
    // (from, to) → [(send line, deliver line, msg id)].
    type ChannelPairs = Vec<(usize, usize, i64)>;
    let mut channels: BTreeMap<(i64, i64), ChannelPairs> = BTreeMap::new();
    // pid → index into `clocks`, in order of first appearance: the
    // trace's pid values are arbitrary integers, not a dense range.
    let mut index: BTreeMap<i64, usize> = BTreeMap::new();
    let mut matched = 0usize;

    for (idx, ev) in events.iter().enumerate() {
        let line = idx + 1;
        let kind = ev.get("kind").and_then(Json::as_str).unwrap_or("");
        if kind == "counter" {
            let stage = ev.get("stage").and_then(Json::as_str).unwrap_or("");
            let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
            let value = ev.get("value").and_then(Json::as_num).unwrap_or(0);
            if stage == "engine" && name == "leaked_payloads" && value != 0 {
                diags.push(Diagnostic::new(
                    "SB105",
                    format!("line {line}"),
                    format!("engine reported {value} agenda item(s) or queued invocation(s) left at quiescence"),
                ));
            }
            continue;
        }
        let Some(pid) = ev.get("pid").and_then(Json::as_num) else {
            continue;
        };
        let next = index.len();
        let pid_ix = *index.entry(pid).or_insert(next);
        if pid_ix == clocks.len() {
            clocks.push(VectorClock::new(0));
        }
        clocks[pid_ix].tick(pid_ix);
        match kind {
            "send" => {
                let (Some(msg), Some(to), Some(at)) = (
                    ev.get("msg").and_then(Json::as_num),
                    ev.get("to").and_then(Json::as_num),
                    ev.get("at").and_then(Json::as_num),
                ) else {
                    diags.push(Diagnostic::new(
                        "SB102",
                        format!("line {line}"),
                        "send record is missing msg/to/at fields".to_string(),
                    ));
                    continue;
                };
                if let Some(orphan_line) = orphan_delivers.remove(&msg) {
                    diags.push(Diagnostic::new(
                        "SB102",
                        format!("line {orphan_line}"),
                        format!(
                            "msg {msg} was delivered (line {orphan_line}) before it was \
                             sent (line {line}): happens-before violation"
                        ),
                    ));
                }
                let rec = SendRec {
                    from: pid,
                    to,
                    at,
                    line,
                    vc: clocks[pid_ix].clone(),
                    delivered: false,
                };
                if sends.insert(msg, rec).is_some() {
                    diags.push(Diagnostic::new(
                        "SB102",
                        format!("line {line}"),
                        format!("msg {msg} was sent twice"),
                    ));
                }
            }
            "deliver" => {
                let (Some(msg), Some(at)) = (
                    ev.get("msg").and_then(Json::as_num),
                    ev.get("at").and_then(Json::as_num),
                ) else {
                    diags.push(Diagnostic::new(
                        "SB102",
                        format!("line {line}"),
                        "deliver record is missing msg/at fields".to_string(),
                    ));
                    continue;
                };
                let Some(send) = sends.get_mut(&msg) else {
                    orphan_delivers.insert(msg, line);
                    continue;
                };
                if send.delivered {
                    diags.push(Diagnostic::new(
                        "SB102",
                        format!("line {line}"),
                        format!("msg {msg} was delivered twice"),
                    ));
                    continue;
                }
                send.delivered = true;
                matched += 1;
                if send.to != pid {
                    diags.push(Diagnostic::new(
                        "SB102",
                        format!("line {line}"),
                        format!("msg {msg} was sent to p{} but delivered at p{pid}", send.to),
                    ));
                }
                match at.checked_sub(send.at) {
                    None => diags.push(Diagnostic::new(
                        "SB102",
                        format!("line {line}"),
                        format!(
                            "msg {msg} was sent at {} and delivered at {at}: its latency \
                             does not fit in 64 bits",
                            send.at
                        ),
                    )),
                    Some(latency) if latency < 0 => diags.push(Diagnostic::new(
                        "SB102",
                        format!("line {line}"),
                        format!(
                            "msg {msg} was delivered {} tick(s) before it was sent",
                            latency.unsigned_abs()
                        ),
                    )),
                    Some(latency) => {
                        if let Some((d, u)) = cfg.window {
                            if latency < d - u || latency > d {
                                diags.push(Diagnostic::new(
                                    "SB101",
                                    format!("line {line}"),
                                    format!(
                                        "msg {msg} took {latency} tick(s), outside the \
                                         declared window [{}, {d}]",
                                        d - u
                                    ),
                                ));
                            }
                        }
                    }
                }
                let send_vc = send.vc.clone();
                let (send_line, channel) = (send.line, (send.from, send.to));
                clocks[pid_ix].join(&send_vc);
                channels
                    .entry(channel)
                    .or_default()
                    .push((send_line, line, msg));
            }
            "timer-set" => {
                if let Some(id) = ev.get("timer").and_then(Json::as_num) {
                    if armed.insert((pid, id), line).is_some() {
                        diags.push(Diagnostic::new(
                            "SB104",
                            format!("line {line}"),
                            format!("timer {id} at p{pid} was re-armed while still armed"),
                        ));
                    }
                } else {
                    diags.push(Diagnostic::new(
                        "SB104",
                        format!("line {line}"),
                        "timer-set record is missing its timer id".to_string(),
                    ));
                }
            }
            "timer-fire" => {
                if let Some(id) = ev.get("timer").and_then(Json::as_num) {
                    if armed.remove(&(pid, id)).is_none() {
                        diags.push(Diagnostic::new(
                            "SB104",
                            format!("line {line}"),
                            format!("timer {id} at p{pid} was fired but never set"),
                        ));
                    }
                } else {
                    diags.push(Diagnostic::new(
                        "SB104",
                        format!("line {line}"),
                        "timer-fire record is missing its timer id".to_string(),
                    ));
                }
            }
            // invoke/respond only advance the local clock.
            _ => {}
        }
    }

    // End-of-trace obligations.
    for (msg, send) in &sends {
        if !send.delivered {
            diags.push(Diagnostic::new(
                "SB102",
                format!("line {}", send.line),
                format!(
                    "msg {msg} (p{}→p{}, t={}) was sent but never delivered",
                    send.from, send.to, send.at
                ),
            ));
        }
    }
    for (msg, line) in &orphan_delivers {
        diags.push(Diagnostic::new(
            "SB102",
            format!("line {line}"),
            format!("msg {msg} was delivered but never sent"),
        ));
    }
    for ((pid, id), line) in &armed {
        diags.push(Diagnostic::new(
            "SB104",
            format!("line {line}"),
            format!("timer {id} at p{pid} was set but never fired"),
        ));
    }
    // FIFO pass: within each ordered channel, deliveries sorted by send
    // order must also be in deliver order.
    for ((from, to), mut pairs) in channels {
        pairs.sort_by_key(|&(send_line, _, _)| send_line);
        for w in pairs.windows(2) {
            let (_, d1, m1) = w[0];
            let (_, d2, m2) = w[1];
            if d2 < d1 {
                diags.push(Diagnostic::new(
                    "SB103",
                    format!("line {d1}"),
                    format!(
                        "channel p{from}→p{to} delivered msg {m2} before msg {m1} \
                         although {m1} was sent first"
                    ),
                ));
            }
        }
    }

    let summary = AuditSummary {
        events: events.len(),
        processes: clocks.len(),
        matched_messages: matched,
        clocks,
    };
    (Report { diagnostics: diags }, summary)
}

#[cfg(test)]
mod tests {
    use crate::json::obj;

    use super::*;

    fn line(kind: &str, at: i64, pid: i64, extra: &[(&'static str, i64)]) -> Json {
        let mut members = vec![
            ("kind", Json::Str(kind.into())),
            ("at", Json::Num(at)),
            ("clock", Json::Num(at)),
            ("pid", Json::Num(pid)),
        ];
        for &(k, v) in extra {
            members.push((k, Json::Num(v)));
        }
        obj(members)
    }

    fn cfg() -> AuditConfig {
        AuditConfig {
            window: Some((9000, 2400)),
        }
    }

    #[test]
    fn clean_trace_audits_clean() {
        let events = vec![
            line("invoke", 0, 0, &[]),
            line("send", 0, 0, &[("to", 1), ("msg", 0)]),
            line("timer-set", 0, 0, &[("timer", 3)]),
            line("deliver", 6600, 1, &[("from", 0), ("msg", 0)]),
            line("timer-fire", 6600, 0, &[("timer", 3)]),
            line("respond", 6600, 0, &[]),
            obj([
                ("kind", Json::Str("counter".into())),
                ("stage", Json::Str("engine".into())),
                ("name", Json::Str("leaked_payloads".into())),
                ("value", Json::Num(0)),
            ]),
        ];
        let (report, summary) = audit_events(&events, &cfg());
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(summary.matched_messages, 1);
        assert_eq!(summary.processes, 2);
        // The receiver's clock dominates the sender's send-time clock.
        assert!(summary.clocks[1].dominates(&VectorClock(vec![2, 0])));
    }

    #[test]
    fn out_of_window_delivery_trips_sb101() {
        let events = vec![
            line("send", 0, 0, &[("to", 1), ("msg", 0)]),
            line("deliver", 500, 1, &[("from", 0), ("msg", 0)]),
        ];
        let (report, _) = audit_events(&events, &cfg());
        assert!(report.has_code("SB101"), "{:?}", report.diagnostics);
        // Without a configured window, the same trace passes.
        let (report, _) = audit_events(&events, &AuditConfig::default());
        assert!(report.is_clean());
    }

    #[test]
    fn unmatched_and_duplicated_messages_trip_sb102() {
        // Orphan deliver, undelivered send, duplicate deliver, and a
        // deliver that precedes its send in trace order.
        let events = vec![
            line("deliver", 6600, 1, &[("from", 0), ("msg", 9)]),
            line("send", 0, 0, &[("to", 1), ("msg", 1)]),
            line("send", 10, 0, &[("to", 1), ("msg", 2)]),
            line("deliver", 6610, 1, &[("from", 0), ("msg", 2)]),
            line("deliver", 6611, 1, &[("from", 0), ("msg", 2)]),
            line("deliver", 100, 1, &[("from", 0), ("msg", 4)]),
            line("send", 200, 0, &[("to", 1), ("msg", 4)]),
        ];
        let (report, _) = audit_events(&events, &AuditConfig::default());
        let sb102: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "SB102")
            .collect();
        // msg 9 orphan, msg 1 undelivered, msg 2 duplicate, msg 4
        // delivered-before-sent (and then msg 4 is also undelivered).
        assert!(sb102.len() >= 4, "{sb102:?}");
        assert!(sb102.iter().any(|d| d.message.contains("never delivered")));
        assert!(sb102.iter().any(|d| d.message.contains("never sent")));
        assert!(sb102.iter().any(|d| d.message.contains("delivered twice")));
        assert!(sb102.iter().any(|d| d.message.contains("happens-before")));
    }

    #[test]
    fn fifo_inversion_trips_sb103_as_warning() {
        let events = vec![
            line("send", 0, 0, &[("to", 1), ("msg", 0)]),
            line("send", 10, 0, &[("to", 1), ("msg", 1)]),
            line("deliver", 6700, 1, &[("from", 0), ("msg", 1)]),
            line("deliver", 9000, 1, &[("from", 0), ("msg", 0)]),
        ];
        let (report, _) = audit_events(&events, &cfg());
        assert!(report.has_code("SB103"), "{:?}", report.diagnostics);
        assert_eq!(report.errors(), 0, "FIFO inversions are warnings");
        assert_eq!(report.warnings(), 1);
    }

    #[test]
    fn leaked_timers_trip_sb104() {
        let events = vec![
            line("timer-set", 0, 0, &[("timer", 5)]),
            line("timer-set", 0, 1, &[("timer", 5)]),
            line("timer-fire", 100, 1, &[("timer", 5)]),
            line("timer-fire", 200, 1, &[("timer", 8)]),
        ];
        let (report, _) = audit_events(&events, &AuditConfig::default());
        let sb104: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "SB104")
            .collect();
        // p0's timer 5 leaks; p1's timer 8 fires without being set.
        assert_eq!(sb104.len(), 2, "{sb104:?}");
        assert!(sb104.iter().any(|d| d.message.contains("never fired")));
        assert!(sb104.iter().any(|d| d.message.contains("never set")));
    }

    #[test]
    fn leak_counter_trips_sb105() {
        let events = vec![obj([
            ("kind", Json::Str("counter".into())),
            ("stage", Json::Str("engine".into())),
            ("name", Json::Str("leaked_payloads".into())),
            ("value", Json::Num(3)),
        ])];
        let (report, _) = audit_events(&events, &AuditConfig::default());
        assert!(report.has_code("SB105"), "{:?}", report.diagnostics);
    }

    #[test]
    fn audit_text_reports_parse_errors_with_line_numbers() {
        let err = audit_text("{\"kind\":\"send\"}\nnot json", &AuditConfig::default()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn huge_pids_are_indexed_not_allocated() {
        // A clock indexed by pid value would need 10^11 components.
        let events = vec![
            line("send", 0, 100_000_000_000, &[("to", 1), ("msg", 0)]),
            line("deliver", 6600, 1, &[("from", 100_000_000_000), ("msg", 0)]),
        ];
        let (report, summary) = audit_events(&events, &cfg());
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(summary.processes, 2);
        assert_eq!(summary.clocks[1].components(), &[1, 1]);
    }

    #[test]
    fn negative_pids_are_processes_of_their_own() {
        // p-1 is not p0: its events tick its own clock, and a message
        // sent to p0 but delivered at p-1 is misdelivered.
        let events = vec![
            line("invoke", 0, 0, &[]),
            line("send", 0, 0, &[("to", 0), ("msg", 0)]),
            line("deliver", 6600, -1, &[("from", 0), ("msg", 0)]),
        ];
        let (report, summary) = audit_events(&events, &cfg());
        assert_eq!(summary.processes, 2);
        assert_eq!(summary.clocks[0].components(), &[2]);
        assert_eq!(summary.clocks[1].components(), &[2, 1]);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == "SB102" && d.message.contains("delivered at p-1")),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn unrepresentable_latencies_are_reported() {
        // i64::MIN − i64::MAX wraps to 1 tick; −1 − i64::MAX is exactly
        // i64::MIN, whose negation overflows.
        for (sent, delivered) in [(i64::MAX, i64::MIN), (i64::MIN, i64::MAX), (i64::MAX, -1)] {
            let events = vec![
                line("send", sent, 0, &[("to", 1), ("msg", 0)]),
                line("deliver", delivered, 1, &[("from", 0), ("msg", 0)]),
            ];
            let (report, _) = audit_events(
                &events,
                &AuditConfig {
                    window: Some((1, 0)),
                },
            );
            assert!(
                report.has_code("SB102") && report.errors() == 1,
                "{sent} -> {delivered}: {:?}",
                report.diagnostics
            );
        }
    }
}
