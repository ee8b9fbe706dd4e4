//! # skewbound-lint
//!
//! The trace auditor and the JSON-lines trace codec it reads.
//!
//! The paper's bounds are conditional: Algorithm 1's `d + ε` accessor
//! bound holds only if the transport respects the `[d−u, d]` delivery
//! window, and its timestamp order only if every send is delivered
//! exactly once. A run's six-kind trace records what the transport and
//! the timers actually did, on any of the three backends; this crate
//! writes that trace and checks it:
//!
//! * [`trace`] — [`JsonLinesSink`], the `TraceSink` that renders every
//!   node event and counter as one JSON object per line, and
//!   [`event_json`], the one event-to-JSON mapping;
//! * [`audit`] — the offline trace auditor: vector-clock
//!   reconstruction over send/deliver/invoke/respond/timer records and
//!   the trace rules `SB101`–`SB105` (delivery window, send/deliver
//!   matching, per-channel FIFO, timer discipline, payload leaks);
//! * [`diag`] — the `SBxxx` code catalog, severities, and the
//!   [`Report`] of findings;
//! * [`json`] — the self-contained JSON value/parser the offline
//!   workspace uses for all machine-readable artifacts.
//!
//! Every rule is kept honest by a seeded foil: the tests of [`audit`]
//! run a violating trace per rule and require the diagnostic to fire.
//!
//! ```
//! use skewbound_lint::{audit_text, AuditConfig, JsonLinesSink};
//! use skewbound_sim::prelude::*;
//!
//! // p0 sends one message at t = 0; p1 receives it at t = 80.
//! let mut sink = JsonLinesSink::new();
//! let (p0, p1, msg) = (ProcessId::new(0), ProcessId::new(1), MsgId::new(0));
//! for (t, pid, kind) in [
//!     (0, p0, TraceEventKind::Send { to: p1, msg, payload: "m".into() }),
//!     (80, p1, TraceEventKind::Recv { from: p0, msg }),
//! ] {
//!     let (at, clock) = (SimTime::from_ticks(t), ClockTime::from_ticks(t as i64));
//!     sink.event(&TraceEvent { at, clock, pid, kind });
//! }
//!
//! // Inside the window [d − u, d] = [60, 100]: clean.
//! let (report, summary) = audit_text(sink.lines(), &AuditConfig { window: Some((100, 40)) })?;
//! assert!(report.is_clean());
//! assert_eq!(summary.matched_messages, 1);
//!
//! // Past d = 70: a delivery-window violation.
//! let (late, _) = audit_text(sink.lines(), &AuditConfig { window: Some((70, 10)) })?;
//! assert!(late.has_code("SB101"));
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod diag;
pub mod json;
pub mod trace;

pub use audit::{audit_events, audit_text, AuditConfig, AuditSummary, VectorClock};
pub use diag::{catalog, Diagnostic, Report, RuleMeta, Severity};
pub use trace::{event_json, JsonLinesSink};
