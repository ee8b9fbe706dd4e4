//! Linearizability for histories with **pending** operations.
//!
//! The engine always drains to quiescence, but the real-thread runtime
//! (and any real deployment) can stop with invocations still in flight.
//! Herlihy & Wing's definition covers this: a history is linearizable if
//! it can be *completed* — each pending invocation either removed (it
//! never took effect) or assigned some response (it took effect before
//! the cut) — such that the completion is legal and respects real time.
//!
//! [`check_pending`] is the complete-history checker's search with its
//! goal relaxed to the *completed* operations: a pending operation may be
//! linearized with the specification's response, and the pending ones
//! left untaken when the search succeeds are the removed invocations.

use skewbound_sim::history::History;
use skewbound_spec::seqspec::SequentialSpec;

use crate::checker::{search, CheckBuffers, CheckLimits, CheckOutcome};

/// Checks a possibly-incomplete history: pending invocations may be
/// linearized (with the specification's response) or dropped.
///
/// For complete histories this agrees with
/// [`check_history`](crate::checker::check_history).
///
/// # Panics
///
/// Panics if the history has more than
/// [`MAX_OPS`](crate::checker::MAX_OPS) operations.
#[must_use]
pub fn check_pending<S: SequentialSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
) -> CheckOutcome {
    search(
        &mut CheckBuffers::default(),
        spec,
        history,
        CheckLimits::default(),
    )
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_history;
    use skewbound_sim::ids::ProcessId;
    use skewbound_sim::time::SimTime;
    use skewbound_spec::prelude::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn agrees_with_complete_checker() {
        let spec = RwRegister::new(0);
        let mut h = History::new();
        let a = h.record_invoke(p(0), RegOp::Write(1), t(0));
        h.record_response(a, RegResp::Ack, t(5));
        let b = h.record_invoke(p(1), RegOp::Read, t(6));
        h.record_response(b, RegResp::Value(1), t(9));
        assert_eq!(
            check_pending(&spec, &h).is_linearizable(),
            check_history(&spec, &h).is_linearizable()
        );
    }

    #[test]
    fn pending_write_may_have_taken_effect() {
        // write(1) is still pending when a read returns 1: legal, because
        // the completion may include the pending write before the read.
        let spec = RwRegister::new(0);
        let mut h = History::new();
        let _w = h.record_invoke(p(0), RegOp::Write(1), t(0)); // never responds
        let r = h.record_invoke(p(1), RegOp::Read, t(10));
        h.record_response(r, RegResp::Value(1), t(20));
        assert!(check_pending(&spec, &h).is_linearizable());
    }

    #[test]
    fn pending_write_may_be_dropped() {
        // The read returns the old value: also legal — the pending write
        // simply never took effect.
        let spec = RwRegister::new(0);
        let mut h = History::new();
        let _w = h.record_invoke(p(0), RegOp::Write(1), t(0));
        let r = h.record_invoke(p(1), RegOp::Read, t(10));
        h.record_response(r, RegResp::Value(0), t(20));
        assert!(check_pending(&spec, &h).is_linearizable());
    }

    #[test]
    fn pending_op_cannot_explain_the_impossible() {
        // Reads observe 1 then 0 with only a pending write(1) around:
        // no completion explains the value going *back*.
        let spec = RwRegister::new(0);
        let mut h = History::new();
        let _w = h.record_invoke(p(0), RegOp::Write(1), t(0));
        let r1 = h.record_invoke(p(1), RegOp::Read, t(10));
        h.record_response(r1, RegResp::Value(1), t(15));
        let r2 = h.record_invoke(p(1), RegOp::Read, t(20));
        h.record_response(r2, RegResp::Value(0), t(25));
        assert!(check_pending(&spec, &h).is_violation());
    }

    #[test]
    fn pending_op_still_respects_real_time() {
        // The pending dequeue was invoked only after the enqueue-response
        // era; a completed dequeue that *precedes* the pending one cannot
        // be explained by it.
        let q: Queue<i64> = Queue::new();
        let mut h = History::new();
        let e = h.record_invoke(p(0), QueueOp::Enqueue(5), t(0));
        h.record_response(e, QueueResp::Ack, t(2));
        // Completed dequeue returns None although the element was there
        // and nothing else could have taken it: the only other dequeue is
        // invoked *after* this one completed.
        let d1 = h.record_invoke(p(1), QueueOp::Dequeue, t(10));
        h.record_response(d1, QueueResp::Value(None), t(15));
        let _d2 = h.record_invoke(p(2), QueueOp::Dequeue, t(20)); // pending
        assert!(check_pending(&q, &h).is_violation());
    }

    #[test]
    fn several_pending_ops_subset_choice() {
        // Two pending enqueues; a completed dequeue returns one of them.
        // The completion takes exactly that one.
        let q: Queue<i64> = Queue::new();
        let mut h = History::new();
        let _e1 = h.record_invoke(p(0), QueueOp::Enqueue(1), t(0));
        let _e2 = h.record_invoke(p(1), QueueOp::Enqueue(2), t(0));
        let d = h.record_invoke(p(2), QueueOp::Dequeue, t(10));
        h.record_response(d, QueueResp::Value(Some(2)), t(20));
        assert!(check_pending(&q, &h).is_linearizable());
    }

    #[test]
    fn empty_history() {
        let q: Queue<i64> = Queue::new();
        let h: History<QueueOp<i64>, QueueResp<i64>> = History::new();
        assert!(check_pending(&q, &h).is_linearizable());
    }
}
