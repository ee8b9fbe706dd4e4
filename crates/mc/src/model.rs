//! What the model checker needs to know about an implementation,
//! beyond the [`Actor`] interface.
//!
//! The explorer reorders *deliveries*, and its partial-order reduction
//! rests on knowing which operation a message carries (two same-replica
//! deliveries commute when their payload operations commute on the probe
//! states). The per-run protocol invariants additionally want each
//! replica's executed timestamp order, for implementations that keep
//! one. [`ModelActor`] surfaces both without widening [`Actor`] itself.

use skewbound_core::foils::{Gossip, LocalFirstReplica};
use skewbound_core::replica::{OpMsg, Replica};
use skewbound_core::timestamp::Timestamp;
use skewbound_sim::actor::Actor;
use skewbound_spec::seqspec::SequentialSpec;

/// An [`Actor`] the model checker can explore: its messages expose the
/// operation they carry, and (optionally) its executed order is
/// inspectable after a run. It is `Clone` so that the explorer can fork
/// a run at a choice point and resume the copy on another branch.
pub trait ModelActor: Actor + Clone {
    /// The sequential specification the implementation claims to
    /// linearize.
    type Spec: SequentialSpec<Op = Self::Op, Resp = Self::Resp>;

    /// The operation a message carries, if any. Used for the commuting-
    /// delivery independence check; returning `None` makes deliveries of
    /// this message conservatively dependent on everything at the same
    /// process.
    fn payload_op(msg: &Self::Msg) -> Option<&Self::Op>;

    /// The timestamps this replica has executed, in execution order —
    /// `None` for implementations that do not keep one (the timestamp
    /// invariants are then vacuous).
    fn executed_order(&self) -> Option<&[Timestamp]> {
        None
    }
}

impl<S: SequentialSpec> ModelActor for Replica<S> {
    type Spec = S;

    fn payload_op(msg: &Self::Msg) -> Option<&Self::Op> {
        let OpMsg { op, .. } = msg;
        Some(op)
    }

    fn executed_order(&self) -> Option<&[Timestamp]> {
        Some(Replica::executed_order(self))
    }
}

impl<S: SequentialSpec> ModelActor for LocalFirstReplica<S> {
    type Spec = S;

    fn payload_op(msg: &Self::Msg) -> Option<&Self::Op> {
        let Gossip { op, .. } = msg;
        Some(op)
    }
}
