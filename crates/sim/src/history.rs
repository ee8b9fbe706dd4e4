//! Operation histories: what the application layer observed.
//!
//! A history records, for every operation instance, its invoking process,
//! invocation real time, and (once it completes) its response and response
//! real time. Histories are the interface between the simulator and both
//! the linearizability checker and the latency measurements: the thesis's
//! time bound for an operation is exactly
//! `response_real_time − invocation_real_time` in the worst case.

use crate::ids::{OpId, ProcessId};
use crate::time::{SimDuration, SimTime};

/// One operation instance as observed at the application layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord<O, R> {
    /// Run-unique operation id.
    pub id: OpId,
    /// Invoking (and responding) process.
    pub pid: ProcessId,
    /// The invocation (operation plus arguments).
    pub op: O,
    /// Real time of the invocation.
    pub invoked_at: SimTime,
    /// The response value and its real time, if the operation completed.
    pub response: Option<(R, SimTime)>,
}

impl<O, R> OpRecord<O, R> {
    /// The response value, if any.
    #[must_use]
    pub fn resp(&self) -> Option<&R> {
        self.response.as_ref().map(|(r, _)| r)
    }

    /// The real time of the response, if any.
    #[must_use]
    pub fn responded_at(&self) -> Option<SimTime> {
        self.response.as_ref().map(|&(_, t)| t)
    }

    /// Invocation-to-response latency, if the operation completed.
    #[must_use]
    pub fn latency(&self) -> Option<SimDuration> {
        self.responded_at().map(|t| t - self.invoked_at)
    }

    /// `true` when `self` finished strictly before `other` was invoked
    /// (the real-time precedence that linearizability must respect).
    #[must_use]
    pub fn precedes(&self, other: &OpRecord<O, R>) -> bool {
        match self.responded_at() {
            Some(t) => t < other.invoked_at,
            None => false,
        }
    }
}

/// The complete record of all operations in a run, in invocation order.
///
/// # Examples
///
/// ```
/// use skewbound_sim::history::History;
/// use skewbound_sim::ids::ProcessId;
/// use skewbound_sim::time::SimTime;
///
/// let mut h: History<&str, i64> = History::new();
/// let id = h.record_invoke(ProcessId::new(0), "read", SimTime::from_ticks(0));
/// h.record_response(id, 42, SimTime::from_ticks(10));
/// assert!(h.is_complete());
/// assert_eq!(h.max_latency().unwrap().as_ticks(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History<O, R> {
    records: Vec<OpRecord<O, R>>,
}

impl<O, R> Default for History<O, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<O, R> History<O, R> {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> Self {
        History {
            records: Vec::new(),
        }
    }

    /// Creates an empty history with room for `capacity` operations
    /// before reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        History {
            records: Vec::with_capacity(capacity),
        }
    }

    /// Reserves room for at least `additional` further operations.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
    }

    /// Appends an invocation and returns its id.
    pub fn record_invoke(&mut self, pid: ProcessId, op: O, at: SimTime) -> OpId {
        let id = OpId::new(self.records.len() as u64);
        self.records.push(OpRecord {
            id,
            pid,
            op,
            invoked_at: at,
            response: None,
        });
        id
    }

    /// Records the response of operation `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or already responded: both indicate an
    /// engine bug or a malformed hand-built history.
    pub fn record_response(&mut self, id: OpId, resp: R, at: SimTime) {
        let rec = self
            .records
            .get_mut(id.as_u64() as usize)
            .expect("response for unknown operation id");
        assert!(rec.response.is_none(), "operation {id:?} responded twice");
        assert!(
            at >= rec.invoked_at,
            "operation {id:?} responded before its invocation"
        );
        rec.response = Some((resp, at));
    }

    /// All records, in invocation order.
    #[must_use]
    pub fn records(&self) -> &[OpRecord<O, R>] {
        &self.records
    }

    /// Number of operations (complete or pending).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no operations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record with the given id.
    #[must_use]
    pub fn get(&self, id: OpId) -> Option<&OpRecord<O, R>> {
        self.records.get(id.as_u64() as usize)
    }

    /// `true` when every invocation has a matching response — the
    /// "complete run" precondition for linearizability checking.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.records.iter().all(|r| r.response.is_some())
    }

    /// Iterates over completed operations only.
    pub fn completed(&self) -> impl Iterator<Item = &OpRecord<O, R>> {
        self.records.iter().filter(|r| r.response.is_some())
    }

    /// The worst-case (maximum) latency over completed operations.
    #[must_use]
    pub fn max_latency(&self) -> Option<SimDuration> {
        self.records.iter().filter_map(OpRecord::latency).max()
    }

    /// The worst-case latency over completed operations matching `pred`
    /// (e.g. "all dequeues"). Returns `None` when nothing matches.
    pub fn max_latency_where<F>(&self, mut pred: F) -> Option<SimDuration>
    where
        F: FnMut(&O) -> bool,
    {
        self.records
            .iter()
            .filter(|r| pred(&r.op))
            .filter_map(OpRecord::latency)
            .max()
    }

    /// All latencies of completed operations matching `pred`, in
    /// invocation order.
    pub fn latencies_where<F>(&self, mut pred: F) -> Vec<SimDuration>
    where
        F: FnMut(&O) -> bool,
    {
        self.records
            .iter()
            .filter(|r| pred(&r.op))
            .filter_map(OpRecord::latency)
            .collect()
    }

    /// Maps operations and responses into another representation (e.g. the
    /// checker's generic event type).
    pub fn map<O2, R2, FO, FR>(&self, mut fo: FO, mut fr: FR) -> History<O2, R2>
    where
        FO: FnMut(&O) -> O2,
        FR: FnMut(&R) -> R2,
    {
        History {
            records: self
                .records
                .iter()
                .map(|r| OpRecord {
                    id: r.id,
                    pid: r.pid,
                    op: fo(&r.op),
                    invoked_at: r.invoked_at,
                    response: r.response.as_ref().map(|(resp, t)| (fr(resp), *t)),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn record_and_complete() {
        let mut h: History<&str, u32> = History::new();
        let a = h.record_invoke(ProcessId::new(0), "w", t(0));
        let b = h.record_invoke(ProcessId::new(1), "r", t(2));
        assert!(!h.is_complete());
        h.record_response(a, 0, t(5));
        h.record_response(b, 1, t(9));
        assert!(h.is_complete());
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(a).unwrap().latency().unwrap().as_ticks(), 5);
        assert_eq!(h.max_latency().unwrap().as_ticks(), 7);
    }

    #[test]
    fn precedence_requires_strict_order() {
        let mut h: History<&str, u32> = History::new();
        let a = h.record_invoke(ProcessId::new(0), "a", t(0));
        let b = h.record_invoke(ProcessId::new(1), "b", t(5));
        h.record_response(a, 0, t(5));
        h.record_response(b, 0, t(8));
        // a responds exactly when b is invoked → they overlap per the model
        // ("response occurs before the invocation" is strict).
        assert!(!h.records()[0].precedes(&h.records()[1]));
        let mut h2: History<&str, u32> = History::new();
        let a2 = h2.record_invoke(ProcessId::new(0), "a", t(0));
        let b2 = h2.record_invoke(ProcessId::new(1), "b", t(6));
        h2.record_response(a2, 0, t(5));
        h2.record_response(b2, 0, t(8));
        assert!(h2.records()[0].precedes(&h2.records()[1]));
    }

    #[test]
    #[should_panic(expected = "responded twice")]
    fn double_response_rejected() {
        let mut h: History<&str, u32> = History::new();
        let a = h.record_invoke(ProcessId::new(0), "a", t(0));
        h.record_response(a, 0, t(1));
        h.record_response(a, 0, t(2));
    }

    #[test]
    #[should_panic(expected = "before its invocation")]
    fn response_before_invoke_rejected() {
        let mut h: History<&str, u32> = History::new();
        let a = h.record_invoke(ProcessId::new(0), "a", t(5));
        h.record_response(a, 0, t(3));
    }

    #[test]
    fn filtered_latencies() {
        let mut h: History<&str, u32> = History::new();
        let a = h.record_invoke(ProcessId::new(0), "read", t(0));
        let b = h.record_invoke(ProcessId::new(1), "write", t(0));
        h.record_response(a, 0, t(4));
        h.record_response(b, 0, t(9));
        assert_eq!(
            h.max_latency_where(|op| *op == "read").unwrap().as_ticks(),
            4
        );
        assert_eq!(h.latencies_where(|op| *op == "write").len(), 1);
        assert_eq!(h.max_latency_where(|op| *op == "cas"), None);
    }

    #[test]
    fn map_preserves_structure() {
        let mut h: History<&str, u32> = History::new();
        let a = h.record_invoke(ProcessId::new(0), "read", t(0));
        h.record_response(a, 7, t(4));
        let m = h.map(|op| op.len(), |r| i64::from(*r));
        assert_eq!(m.records()[0].op, 4);
        assert_eq!(m.records()[0].resp(), Some(&7i64));
    }
}
