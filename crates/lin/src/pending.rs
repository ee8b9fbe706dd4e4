//! Linearizability for histories with **pending** operations.
//!
//! The engine always drains to quiescence, but the real-thread runtime
//! (and any real deployment) can stop with invocations still in flight.
//! Herlihy & Wing's definition covers this: a history is linearizable if
//! it can be *completed* — each pending invocation either removed (it
//! never took effect) or assigned some response (it took effect before
//! the cut) — such that the completion is legal and respects real time.
//!
//! [`check_pending`] implements that: pending operations are optional
//! DFS choices whose responses come from the specification rather than
//! the record, and a run is accepted as soon as all *completed*
//! operations are linearized (remaining pending ops are then the
//! "removed" ones).

use skewbound_sim::history::History;
use skewbound_sim::ids::OpId;
use skewbound_spec::seqspec::SequentialSpec;

use crate::checker::{precedence, CheckLimits, CheckOutcome, Linearization, Violation};
use crate::intern::{SeenSet, StateInterner};

/// Checks a possibly-incomplete history: pending invocations may be
/// linearized (with the specification's response) or dropped.
///
/// For complete histories this agrees with
/// [`check_history`](crate::checker::check_history).
///
/// # Panics
///
/// Panics if the history has more than 128 operations.
#[must_use]
pub fn check_pending<S: SequentialSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
) -> CheckOutcome {
    check_pending_with(spec, history, CheckLimits::default())
}

/// [`check_pending`] with explicit limits.
///
/// # Panics
///
/// Panics if the history has more than 128 operations.
#[must_use]
pub fn check_pending_with<S: SequentialSpec>(
    spec: &S,
    history: &History<S::Op, S::Resp>,
    limits: CheckLimits,
) -> CheckOutcome {
    let n = history.len();
    assert!(n <= 128, "checker supports at most 128 operations, got {n}");
    if n == 0 {
        return CheckOutcome::Linearizable(Linearization {
            order: Vec::new(),
            nodes: 0,
        });
    }

    let records = history.records();
    let (predecessors, _) = precedence(records);
    let completed_mask: u128 = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.response.is_some())
        .map(|(i, _)| 1u128 << i)
        .sum();

    // Same hash-consed memo representation as the complete-history
    // checker: `(taken, interned state id)` under fxhash.
    let mut interner: StateInterner<S::State> = StateInterner::new();
    let mut seen: SeenSet = SeenSet::default();
    let mut stack: Vec<(u128, S::State, Vec<OpId>)> = vec![(0, spec.initial(), Vec::new())];
    let mut nodes = 0u64;
    let mut longest_prefix: Vec<OpId> = Vec::new();

    while let Some((taken, state, order)) = stack.pop() {
        nodes += 1;
        if nodes > limits.max_nodes {
            return CheckOutcome::Unknown { nodes };
        }
        // Done once every *completed* operation is linearized; pending
        // ones not taken are the removed invocations.
        if taken & completed_mask == completed_mask {
            return CheckOutcome::Linearizable(Linearization { order, nodes });
        }
        if order.len() > longest_prefix.len() {
            longest_prefix = order.clone();
        }
        for (i, rec) in records.iter().enumerate() {
            let bit = 1u128 << i;
            if taken & bit != 0 {
                continue;
            }
            if predecessors[i] & !taken != 0 {
                continue;
            }
            let (next_state, resp) = spec.apply(&state, &rec.op);
            // Completed operations must return their recorded response;
            // pending ones take whatever the specification gives.
            if let Some(expected) = rec.resp() {
                if *expected != resp {
                    continue;
                }
            }
            let next_taken = taken | bit;
            let state_id = interner.intern(&next_state);
            if seen.insert((next_taken, state_id)) {
                let mut next_order = order.clone();
                next_order.push(rec.id);
                stack.push((next_taken, next_state, next_order));
            }
        }
    }

    CheckOutcome::NotLinearizable(Violation {
        total_ops: n,
        longest_prefix,
        nodes,
    })
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
