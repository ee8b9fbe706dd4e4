//! Operation timestamps `⟨clock_time, process_id⟩`.
//!
//! Algorithm 1 orders all broadcast operations by these timestamps; every
//! replica executes them on its local copy in ascending timestamp order.
//! Pure accessors get the timestamp `⟨local_time − X, pid⟩`, "pretending"
//! they were invoked `X` earlier (Chapter V §A.2).
//!
//! The timestamp also carries a third `seq` component, ordered after the
//! pid. Every timestamp this crate makes has `seq = 0`, which compares and
//! prints exactly as the paper's two-component timestamps: a batch is one
//! operation with one timestamp. The wire format carries `seq` so that
//! decoders accept any value.

use core::fmt;

use skewbound_sim::ids::ProcessId;
use skewbound_sim::time::{ClockTime, SimDuration};

/// A totally ordered operation timestamp: clock time first, process id as
/// tie-breaker, then `seq`.
///
/// # Examples
///
/// ```
/// use skewbound_core::timestamp::Timestamp;
/// use skewbound_sim::ids::ProcessId;
/// use skewbound_sim::time::ClockTime;
///
/// let a = Timestamp::new(ClockTime::from_ticks(5), ProcessId::new(0));
/// let b = Timestamp::new(ClockTime::from_ticks(5), ProcessId::new(1));
/// let c = Timestamp::new(ClockTime::from_ticks(6), ProcessId::new(0));
/// assert!(a < b && b < c);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// The invoking process's clock reading (minus `X` for accessors).
    pub time: ClockTime,
    /// The invoking process.
    pub pid: ProcessId,
    /// A tiebreak after `pid`. Every timestamp Algorithm 1 makes has
    /// `seq = 0`; the field is kept because the wire format carries it.
    pub seq: u32,
}

impl Timestamp {
    /// Creates a timestamp (with `seq = 0`).
    #[must_use]
    pub fn new(time: ClockTime, pid: ProcessId) -> Self {
        Timestamp { time, pid, seq: 0 }
    }

    /// Creates a timestamp with an explicit `seq` tiebreak.
    #[must_use]
    pub fn with_seq(time: ClockTime, pid: ProcessId, seq: u32) -> Self {
        Timestamp { time, pid, seq }
    }

    /// The accessor timestamp: `time − x`.
    #[must_use]
    pub fn accessor(time: ClockTime, x: SimDuration, pid: ProcessId) -> Self {
        Timestamp {
            time: time - x,
            pid,
            seq: 0,
        }
    }
}

/// Shared `⟨time,pid⟩` / `⟨time,pid,#seq⟩` rendering for Debug and
/// Display: the `seq` component is elided when zero so single-op
/// timestamps keep the paper's two-component notation.
fn fmt_ts(ts: &Timestamp, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ts.seq == 0 {
        write!(f, "⟨{},{}⟩", ts.time, ts.pid)
    } else {
        write!(f, "⟨{},{},#{}⟩", ts.time, ts.pid, ts.seq)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ts(self, f)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ts(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_order() {
        let t = |c: i64, p: u32| Timestamp::new(ClockTime::from_ticks(c), ProcessId::new(p));
        assert!(t(1, 9) < t(2, 0));
        assert!(t(1, 0) < t(1, 1));
        assert_eq!(t(3, 2), t(3, 2));
    }

    #[test]
    fn accessor_shifts_back() {
        let ts = Timestamp::accessor(
            ClockTime::from_ticks(10),
            SimDuration::from_ticks(4),
            ProcessId::new(1),
        );
        assert_eq!(ts.time, ClockTime::from_ticks(6));
    }

    #[test]
    fn display_format() {
        let ts = Timestamp::new(ClockTime::from_ticks(-2), ProcessId::new(3));
        assert_eq!(format!("{ts}"), "⟨-2,p3⟩");
    }

    #[test]
    fn seq_orders_within_batch_and_displays() {
        let t = |c: i64, p: u32, s: u32| {
            Timestamp::with_seq(ClockTime::from_ticks(c), ProcessId::new(p), s)
        };
        // `seq` orders after the pid: nothing from another process can
        // sort between ⟨5,p1,#0⟩ and ⟨5,p1,#2⟩.
        assert!(t(5, 1, 0) < t(5, 1, 1) && t(5, 1, 1) < t(5, 1, 2));
        assert!(t(5, 1, 2) < t(5, 2, 0));
        assert_eq!(
            t(5, 1, 0),
            Timestamp::new(ClockTime::from_ticks(5), ProcessId::new(1))
        );
        assert_eq!(format!("{}", t(5, 1, 2)), "⟨5,p1,#2⟩");
    }
}
