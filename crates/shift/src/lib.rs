//! # skewbound-shift
//!
//! The lower-bound proof machinery of *Time Bounds for Shared Objects in
//! Partially Synchronous Systems* (Wang, 2011), made executable:
//!
//! * [`run`] — timed views and runs as data, with the admissibility
//!   conditions of Chapter III checked, not assumed;
//! * [`shiftop`] — the standard time shift `shift(R, x⃗)` and formula
//!   (4.1) for shifted delays;
//! * [`mod@chop`] — the *modified* time shift's chopping step (Lemma B.1),
//!   with shortest-path cut frontiers;
//! * [`scenarios`] — the adversarial run families of Theorems C.1
//!   (strongly immediately non-self-commuting), D.1 (eventually
//!   non-self-last-permuting) and E.1 (mutator + accessor pairs), as
//!   ready-to-run simulator scenarios;
//! * [`mod@probe`] — harnesses that run an implementation through a family
//!   and report violations; too-fast implementations are *caught*, the
//!   honest Algorithm 1 passes.
//! * [`exhaustive`] — the enumerated delay model and the send-order
//!   check the model checker (`skewbound-mc`) builds its delay grid on.
//!
//! ```
//! use skewbound_core::{params::Params, replica::Replica};
//! use skewbound_shift::{probe::probe, scenarios::insc_dequeue_family};
//! use skewbound_sim::time::SimDuration;
//! use skewbound_spec::prelude::*;
//!
//! let p = Params::with_optimal_skew(
//!     3,
//!     SimDuration::from_ticks(9_000),
//!     SimDuration::from_ticks(2_400),
//!     SimDuration::ZERO,
//! )?;
//! let family = insc_dequeue_family(&p);
//! let report = probe(&family, || Replica::group(Queue::<i64>::new(), &p));
//! assert!(report.all_passed());
//! # Ok::<(), skewbound_core::params::ParamError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chop;
pub mod exhaustive;
pub mod extract;
pub mod probe;
pub mod run;
pub mod scenarios;
pub mod shiftop;

pub use chop::{chop, shortest_paths, DelayMatrix};
pub use exhaustive::{
    verify_send_order_independence, AssignmentExhausted, EnumeratedDelay, SendOrderDivergence,
};
pub use extract::run_from_sim;
pub use probe::{measure_single_op_latency, probe, ProbeReport};
pub use run::{AdmissibilityError, Message, Run, RunTime, Step, StepKind, View};
pub use scenarios::{Scenario, ScenarioReport};
pub use shiftop::{shift_run, shift_view, shifted_delay};
