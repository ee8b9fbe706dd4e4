//! # skewbound-core
//!
//! The primary contribution of *Time Bounds for Shared Objects in
//! Partially Synchronous Systems* (Wang, 2011), as a library:
//!
//! * [`replica::Replica`] — **Algorithm 1**, a linearizable
//!   implementation of an arbitrary data type that beats the folklore
//!   `2d` bound: pure mutators respond in `ε + X`, pure accessors in
//!   `d + ε − X`, and everything else in at most `d + ε`. A batch is one
//!   operation of the spec `skewbound_spec::combinators::Batch`, so
//!   batched invocation is `Replica<Batch<S>>` and this crate has one
//!   implementation of the algorithm;
//! * [`shard`] — independent `Replica<Batch<Namespace<_>>>` groups, one
//!   per shard of a keyed namespace, each on its own engine;
//! * [`centralized::Centralized`] — the `2d` folklore baseline;
//! * [`foils`] — deliberately too-fast implementations used by the
//!   lower-bound experiments (they *must* fail, and do);
//! * [`params::Params`] — validated system parameters
//!   (`n`, `d`, `u`, `ε`, `X`), with the optimal skew `(1 − 1/n)u`;
//! * [`bounds`] — the closed-form lower/upper bound formulas behind
//!   Tables I–IV.
//!
//! ```
//! use skewbound_core::prelude::*;
//! use skewbound_sim::prelude::*;
//! use skewbound_spec::prelude::*;
//!
//! let params = Params::with_optimal_skew(
//!     4,
//!     SimDuration::from_ticks(10_000), // d
//!     SimDuration::from_ticks(2_000),  // u
//!     SimDuration::ZERO,               // X
//! )?;
//! let mut sim = Simulation::new(
//!     Replica::group(RmwRegister::default(), &params),
//!     ClockAssignment::zero(4),
//!     UniformDelay::new(params.delay_bounds(), 1),
//! );
//! sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, RmwOp::Write(7));
//! sim.schedule_invoke(ProcessId::new(1), SimTime::from_ticks(20_000), RmwOp::Read);
//! sim.run().unwrap();
//! assert_eq!(sim.history().records()[1].resp(), Some(&RmwResp::Value(7)));
//! // The write responded in eps + X << 2d.
//! assert_eq!(
//!     sim.history().records()[0].latency().unwrap(),
//!     bounds::ub_mop(&params)
//! );
//! # Ok::<(), skewbound_core::params::ParamError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod bounds;
pub mod centralized;
pub mod foils;
pub mod harness;
pub mod invariants;
pub mod params;
pub mod replica;
pub mod shard;
pub mod timestamp;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::analysis::{
        analyze_group, analyze_pair, e1_hypothesis_witness, GroupAnalysis, OpGroup, PairAnalysis,
    };
    pub use crate::bounds::{self, Bound};
    pub use crate::centralized::{CentralMsg, Centralized};
    pub use crate::foils::LocalFirstReplica;
    pub use crate::harness::run_history;
    pub use crate::params::{ParamError, Params};
    pub use crate::replica::{OpMsg, Replica, ReplicaTimer, TimerProfile};
    pub use crate::shard::{
        run_shard, run_sharded, shard_params, NsBatch, ShardOutcome, ShardWorkload,
    };
    pub use crate::timestamp::Timestamp;
}
