//! # skewbound-spec
//!
//! Sequential specifications of the shared-object data types studied in
//! *Time Bounds for Shared Objects in Partially Synchronous Systems*
//! (Wang, 2011), plus an executable version of the thesis's operation
//! classification framework (Chapter II).
//!
//! ## Data types
//!
//! * [`register::RwRegister`] / [`register::RmwRegister`] — Table I;
//! * [`queue::Queue`] — Table II;
//! * [`stack::Stack`] — Table III;
//! * [`tree::Tree`] — Table IV;
//! * [`set::SetObject`], [`counter::Counter`] — the eventually
//!   self-commuting / non-overwriting examples;
//! * [`array::UpdateNextArray`] — the Chapter II `UpdateNext` example.
//!
//! ## Classification
//!
//! [`classify`] decides, over finite probe sets, whether operation types
//! are immediately/eventually (non-)commuting, strongly immediately
//! non-self-commuting, eventually non-self-{any,last}-permuting, and
//! whether they are mutators, accessors, or overwriters. [`probes`]
//! supplies the canonical probe sets.
//!
//! ```
//! use skewbound_spec::prelude::*;
//! use skewbound_spec::{classify, probes};
//!
//! // Dequeue-style behaviour: RMW swaps are strongly immediately
//! // non-self-commuting (Theorem C.1's precondition).
//! let witness = classify::strongly_immediately_non_self_commuting(
//!     &RmwRegister::default(),
//!     &probes::register_states(),
//!     &[RmwOp::Rmw(RmwKind::Swap(1)), RmwOp::Rmw(RmwKind::Swap(2))],
//! );
//! assert!(witness.is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod catalog;
pub mod classify;
pub mod combinators;
pub mod counter;
pub mod deque;
pub mod explore;
pub mod kv;
pub mod namespace;
pub mod probes;
pub mod queue;
pub mod register;
pub mod seqspec;
pub mod set;
pub mod stack;
pub mod tree;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::array::{ArrayOp, ArrayResp, UpdateNextArray};
    pub use crate::catalog::ObjectKind;
    pub use crate::combinators::{Batch, EitherOp, EitherResp, ProductSpec};
    pub use crate::counter::{Counter, CounterOp, CounterResp};
    pub use crate::deque::{Deque, DequeOp, DequeResp};
    pub use crate::kv::{KvOp, KvResp, KvStore};
    pub use crate::namespace::{Namespace, NsOp, NsState, ShardRouter};
    pub use crate::queue::{Queue, QueueOp, QueueResp};
    pub use crate::register::{
        RegOp, RegResp, RmwKind, RmwOp, RmwRegister, RmwResp, RwRegister, Value,
    };
    pub use crate::seqspec::{OpClass, SequentialSpec};
    pub use crate::set::{SetObject, SetOp, SetResp};
    pub use crate::stack::{Stack, StackOp, StackResp};
    pub use crate::tree::{Tree, TreeOp, TreeResp, TreeState, ROOT};
}
