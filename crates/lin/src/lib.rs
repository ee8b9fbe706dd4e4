//! # skewbound-lin
//!
//! Linearizability checking for complete operation histories produced by
//! the `skewbound-sim` engine (or built by hand), against the sequential
//! specifications of `skewbound-spec`.
//!
//! The checker implements the classic Wing & Gong search with
//! `(taken-set, state)` memoization, returns a *witness* linearization on
//! success and a diagnostic on failure, and ships a brute-force reference
//! implementation for cross-validation.
//!
//! ```
//! use skewbound_lin::checker::check_history;
//! use skewbound_sim::history::History;
//! use skewbound_sim::ids::ProcessId;
//! use skewbound_sim::time::SimTime;
//! use skewbound_spec::prelude::*;
//!
//! let spec = RwRegister::new(0);
//! let mut h = History::new();
//! let w = h.record_invoke(ProcessId::new(0), RegOp::Write(1), SimTime::from_ticks(0));
//! h.record_response(w, RegResp::Ack, SimTime::from_ticks(5));
//! let r = h.record_invoke(ProcessId::new(1), RegOp::Read, SimTime::from_ticks(6));
//! h.record_response(r, RegResp::Value(1), SimTime::from_ticks(9));
//! assert!(check_history(&spec, &h).is_linearizable());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod intern;
pub mod multi;
pub mod pending;

pub use checker::{
    check_history, check_history_brute_force, check_history_in, check_history_stats,
    validate_linearization, CheckBuffers, CheckLimits, CheckOutcome, CheckStats, Linearization,
    Violation, MAX_OPS,
};
pub use multi::{check_namespace, flatten_batches, split_history, NsOutcome};
pub use pending::check_pending;
