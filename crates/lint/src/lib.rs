//! # skewbound-lint
//!
//! A rule-based protocol analyzer with stable diagnostic codes, plus an
//! offline happens-before auditor for the simulator's JSON-lines traces.
//!
//! The paper's bounds are conditional: Algorithm 1's `d + ε` accessor
//! bound holds only if accessors really are pure, its per-object
//! timestamp order only if the transport respects the `[d−u, d]`
//! window, and the sharded namespace only if distinct keys truly
//! commute. This crate turns each of those obligations into a *checked*
//! rule:
//!
//! * [`diag`] — the `SBxxx` code catalog, severities, and the
//!   [`Report`] of findings;
//! * [`rules`] — the static spec rules `SB001`–`SB005` (routing,
//!   accessor purity, commutativity declarations, namespace batch
//!   equivalence, timestamp seq discipline), each a function that
//!   returns its findings;
//! * [`audit`] — the offline trace auditor: vector-clock
//!   reconstruction over send/deliver/invoke/respond/timer records and
//!   the trace rules `SB101`–`SB105` (delivery window, send/deliver
//!   matching, per-channel FIFO, timer discipline, payload leaks);
//! * [`json`] — the self-contained JSON value/parser the offline
//!   workspace uses for all machine-readable artifacts.
//!
//! Every rule is kept honest by a seeded foil: the tests of [`rules`]
//! and [`audit`] run a violating spec or trace per rule and require the
//! diagnostic to fire.
//!
//! ```
//! use skewbound_lint::rules::routing;
//! use skewbound_spec::{prelude::*, probes};
//!
//! let findings = routing(
//!     "register",
//!     &RmwRegister::default(),
//!     &probes::register_states(),
//!     &probes::register_ops(),
//! );
//! assert!(findings.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod diag;
pub mod json;
pub mod rules;

pub use audit::{audit_events, audit_text, AuditConfig, AuditSummary, VectorClock};
pub use diag::{catalog, Diagnostic, Report, RuleMeta, Severity};
