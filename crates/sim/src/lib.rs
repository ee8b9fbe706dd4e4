//! # skewbound-sim
//!
//! A deterministic discrete-event simulator for **partially synchronous
//! message-passing systems**: `n` processes, every message delay within
//! `[d − u, d]`, and local clocks that run at the real-time rate but may be
//! pairwise offset by up to the skew bound `ε`.
//!
//! This is the substrate on which the rest of the `skewbound` workspace
//! reproduces *Time Bounds for Shared Objects in Partially Synchronous
//! Systems* (Wang, 2011): shared-object implementations are written as
//! [`actor::Actor`] state machines; the engine executes them under a
//! [`clock::ClockAssignment`] and a [`delay::DelayModel`] (which plays the
//! adversary of the lower-bound proofs), and records the operation
//! [`history::History`] whose invocation-to-response spans are the "time
//! bounds" being studied.
//!
//! ## Quick example
//!
//! ```
//! use skewbound_sim::prelude::*;
//!
//! /// A trivial local counter object (single process, no messages).
//! #[derive(Debug, Default)]
//! struct Counter {
//!     value: i64,
//! }
//!
//! impl Actor for Counter {
//!     type Msg = ();
//!     type Op = i64; // increment amount
//!     type Resp = i64; // new value
//!     type Timer = ();
//!
//!     fn on_invoke(&mut self, by: i64, ctx: &mut Context<'_, Self>) {
//!         self.value += by;
//!         ctx.respond(self.value);
//!     }
//!     fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<'_, Self>) {}
//!     fn on_timer(&mut self, _: (), _: &mut Context<'_, Self>) {}
//! }
//!
//! let bounds = DelayBounds::new(SimDuration::from_ticks(10), SimDuration::from_ticks(3));
//! let mut sim = Simulation::new(
//!     vec![Counter::default()],
//!     ClockAssignment::zero(1),
//!     FixedDelay::maximal(bounds),
//! );
//! sim.schedule_invoke(ProcessId::new(0), SimTime::ZERO, 5);
//! sim.run()?;
//! assert_eq!(sim.history().records()[0].resp(), Some(&5));
//! # Ok::<(), skewbound_sim::engine::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod actor;
pub mod clock;
pub mod deadline;
pub mod delay;
pub mod engine;
pub mod equeue;
pub mod history;
pub mod ids;
pub mod node;
pub mod par;
pub mod rt;
pub mod shard;
pub mod slab;
pub mod stats;
pub mod time;
pub mod timers;
pub mod trace;
pub mod transport;
pub mod workload;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::actor::{Actor, Context};
    pub use crate::clock::ClockAssignment;
    pub use crate::delay::{
        BimodalDelay, DelayBounds, DelayBoundsError, DelayModel, FixedDelay, MatrixDelay, MsgMeta,
        ScriptedDelay, UniformDelay,
    };
    pub use crate::engine::{
        EventView, FifoPolicy, ScheduleDecision, SchedulePolicy, SimConfig, SimError, SimReport,
        Simulation,
    };
    pub use crate::history::{History, OpRecord};
    pub use crate::ids::{MsgId, OpId, ProcessId, TimerId};
    pub use crate::node::{Activation, NodeCore, Stamp};
    pub use crate::shard::{run_shards, ShardRun};
    pub use crate::stats::LatencySummary;
    pub use crate::time::{ClockOffset, ClockTime, SimDuration, SimTime};
    pub use crate::trace::{Trace, TraceEvent, TraceEventKind, TraceSink};
    pub use crate::transport::{Transport, TransportError, WireTransport};
    pub use crate::workload::{ClosedLoop, Driver, NoDriver, Script};
}
