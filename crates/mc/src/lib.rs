//! # skewbound-mc
//!
//! A stateful model checker and protocol-invariant analyzer for the
//! shared-object implementations in this workspace.
//!
//! The lower-bound machinery (`skewbound-shift`) checks *specific*
//! adversarial runs; the theorems quantify over *every* admissible run.
//! This crate checks that quantifier finitely, and [`model_check`] is its
//! one exploration entry:
//!
//! * [`explore`] — snapshot-resume depth-first exploration of **every**
//!   delivery order among same-time events, on top of every delay and
//!   clock corner, pruned with sleep sets over a commuting-delivery
//!   independence relation (dynamic partial-order reduction);
//! * [`frontier`] — the work-stealing worker pool and the deterministic
//!   merge walk behind [`model_check`], with its schedule budget;
//! * [`model`] — the small contract ([`ModelActor`]) an implementation
//!   satisfies to be explorable: message payload ops (for the
//!   independence relation) and executed timestamp orders (for the
//!   Lemma C.10 invariant);
//! * protocol invariants from [`skewbound_core::invariants`] checked on
//!   every explored run, next to a direct linearizability check of each
//!   run (one checker call in buffers the unit reuses; no verdict cache);
//! * [`certificate`] — minimized, replay-confirmed counterexample
//!   certificates in a stable JSON schema, via `skewbound_lint::json`;
//! * `skewlint` (in `src/bin`) — writes the certificates of the
//!   known-broken foils and the audited honest register trace (the
//!   committed copies are in `tests/golden/`), and runs the offline
//!   happens-before trace auditor (`skewlint audit`).
//!
//! ```
//! use skewbound_core::{params::Params, replica::Replica};
//! use skewbound_mc::{model_check, McConfig};
//! use skewbound_sim::{ids::ProcessId, time::{SimDuration, SimTime}};
//! use skewbound_spec::{prelude::*, probes};
//!
//! let p = Params::with_optimal_skew(
//!     2,
//!     SimDuration::from_ticks(9_000),
//!     SimDuration::from_ticks(2_400),
//!     SimDuration::ZERO,
//! )?;
//! let mut config = McConfig::corners(&p, probes::register_states());
//! config.clock_choices.truncate(1); // zero-skew only, for doc-test speed
//! let script = [(ProcessId::new(0), SimTime::ZERO, RmwOp::Write(7))];
//! let report = model_check(
//!     &RmwRegister::default(),
//!     || Replica::group(RmwRegister::default(), &p),
//!     &p,
//!     &script,
//!     &config,
//! );
//! assert!(report.all_passed());
//! # Ok::<(), skewbound_core::params::ParamError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod certificate;
pub mod explore;
pub mod frontier;
pub mod model;

pub use certificate::{certify, validate_certificate, CertRecord, Certificate, SCHEMA};
pub use explore::{
    minimize, minimize_counted, replay, ChoicePoint, Independence, McConfig, McReport, McViolation,
    RunOutcome, RunVerdict, ViolationKind,
};
pub use frontier::model_check;
pub use model::ModelActor;
