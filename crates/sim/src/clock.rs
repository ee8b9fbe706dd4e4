//! Per-process clock assignments with bounded skew.
//!
//! Each process `p_i` owns a clock `clock_i(t) = t + c_i` where `c_i` is a
//! constant offset (no drift). A run is admissible only when
//! `|c_i − c_j| ≤ ε` for every pair (Chapter III §B.3). The builders here
//! produce the assignments used by the experiments:
//!
//! * perfectly synchronized clocks (`zero`),
//! * random offsets within the skew bound (`random_within`),
//! * the adversarial assignments of the lower-bound proofs
//!   (`single_late`, `from_offsets`, `spread`).

use rand::Rng;

use crate::ids::ProcessId;
use crate::time::{ClockOffset, SimDuration, SimTime};

/// A clock offset (and optional rate) per process.
///
/// By default clocks run at the real-time rate (the thesis's model). The
/// optional per-process *rates* extend the model toward the thesis's
/// stated future work — bounded clock **drift**: process `i`'s clock
/// reads `offset_i + t · num_i / den_i`. Timer durations are interpreted
/// in clock units, so a fast clock fires its timers early in real time.
///
/// # Examples
///
/// ```
/// use skewbound_sim::clock::ClockAssignment;
/// use skewbound_sim::time::SimDuration;
///
/// let clocks = ClockAssignment::zero(4);
/// assert_eq!(clocks.max_skew(), SimDuration::ZERO);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct ClockAssignment {
    offsets: Vec<ClockOffset>,
    /// Per-process clock rate as a rational `num/den`; `(1, 1)` = no
    /// drift.
    rates: Vec<(u64, u64)>,
}

crate::clone_fields!([] ClockAssignment { offsets, rates });

impl ClockAssignment {
    /// All clocks equal to real time (a perfectly synchronous system).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn zero(n: usize) -> Self {
        assert!(n > 0, "at least one process required");
        ClockAssignment {
            offsets: vec![ClockOffset::ZERO; n],
            rates: vec![(1, 1); n],
        }
    }

    /// Builds an assignment from explicit offsets.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty.
    #[must_use]
    pub fn from_offsets(offsets: Vec<ClockOffset>) -> Self {
        assert!(!offsets.is_empty(), "at least one process required");
        let n = offsets.len();
        ClockAssignment {
            offsets,
            rates: vec![(1, 1); n],
        }
    }

    /// All clocks zero except process `late`, whose clock runs `amount`
    /// *behind* the others (its offset is `−amount`).
    ///
    /// This is the shape used in the proof of Theorem C.1, where `p_j`'s
    /// local clock is `m` later than everyone else's.
    ///
    /// # Panics
    ///
    /// Panics if `late` is out of range.
    #[must_use]
    pub fn single_late(n: usize, late: ProcessId, amount: SimDuration) -> Self {
        let mut clocks = Self::zero(n);
        let a = i64::try_from(amount.as_ticks()).expect("offset exceeds i64");
        clocks.set(late, ClockOffset::from_ticks(-a));
        clocks
    }

    /// Spreads offsets evenly across `[−span/2, +span/2]`, giving maximum
    /// pairwise skew exactly `span` (for `n ≥ 2`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn spread(n: usize, span: SimDuration) -> Self {
        assert!(n > 0, "at least one process required");
        if n == 1 {
            return Self::zero(1);
        }
        let span = i64::try_from(span.as_ticks()).expect("span exceeds i64");
        let offsets = (0..n)
            .map(|i| {
                // Evenly spaced from −span/2 to +span/2 inclusive.
                let num = span * i64::try_from(i).unwrap();
                let den = i64::try_from(n - 1).unwrap();
                ClockOffset::from_ticks(num / den - span / 2)
            })
            .collect();
        Self::from_offsets(offsets)
    }

    /// Samples offsets uniformly from `[0, eps]`, guaranteeing max skew
    /// `≤ eps`.
    #[must_use]
    pub fn random_within<R: Rng>(n: usize, eps: SimDuration, rng: &mut R) -> Self {
        assert!(n > 0, "at least one process required");
        let offsets = (0..n)
            .map(|_| {
                let o = rng.gen_range(0..=eps.as_ticks());
                ClockOffset::from_ticks(i64::try_from(o).expect("offset exceeds i64"))
            })
            .collect();
        Self::from_offsets(offsets)
    }

    /// Number of processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// `true` when there are no processes (never constructible; kept for
    /// API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The group check every backend's `run_history` makes: one clock
    /// per process of an `n`-process group. An assignment is never
    /// empty, so this also rejects an empty group.
    ///
    /// # Panics
    ///
    /// Panics, with the same message on every backend, if `n` differs
    /// from [`ClockAssignment::len`].
    pub fn assert_covers(&self, n: usize) {
        assert_eq!(n, self.len(), "clock assignment must cover every process");
    }

    /// The offset of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn offset(&self, pid: ProcessId) -> ClockOffset {
        self.offsets[pid.index()]
    }

    /// Replaces the offset of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn set(&mut self, pid: ProcessId, off: ClockOffset) {
        self.offsets[pid.index()] = off;
    }

    /// Shifts the offset of `pid` by `delta` ticks (positive = clock runs
    /// ahead). Mirrors the per-process shifts in the proofs.
    pub fn shift(&mut self, pid: ProcessId, delta: i64) {
        let cur = self.offsets[pid.index()].as_ticks();
        self.offsets[pid.index()] = ClockOffset::from_ticks(cur + delta);
    }

    /// Sets the clock *rate* of `pid` to `num/den` (drift extension; the
    /// thesis's model is the default `1/1`).
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero, or `pid` is out of range.
    pub fn set_rate(&mut self, pid: ProcessId, num: u64, den: u64) {
        assert!(num > 0 && den > 0, "rates must be positive");
        self.rates[pid.index()] = (num, den);
    }

    /// The clock rate of `pid` as `(num, den)`.
    #[must_use]
    pub fn rate(&self, pid: ProcessId) -> (u64, u64) {
        self.rates[pid.index()]
    }

    /// `true` when every clock runs at the real-time rate (the thesis's
    /// drift-free model).
    #[must_use]
    pub fn is_drift_free(&self) -> bool {
        self.rates.iter().all(|&r| r == (1, 1))
    }

    /// Converts a clock-time duration at `pid` into a real-time duration
    /// (identity in the drift-free model; a fast clock's timers fire
    /// early in real time).
    #[must_use]
    pub fn clock_to_real(&self, pid: ProcessId, d: SimDuration) -> SimDuration {
        let (num, den) = self.rates[pid.index()];
        if (num, den) == (1, 1) {
            d
        } else {
            d.mul_frac(den, num)
        }
    }

    /// The clock reading of `pid` at real time `t`.
    ///
    /// # Panics
    ///
    /// Panics on arithmetic overflow for extreme rates.
    #[must_use]
    pub fn clock_at(&self, pid: ProcessId, t: SimTime) -> crate::time::ClockTime {
        let (num, den) = self.rates[pid.index()];
        if (num, den) == (1, 1) {
            return t.to_clock(self.offset(pid));
        }
        let scaled = u128::from(t.as_ticks()) * u128::from(num) / u128::from(den);
        let scaled = i64::try_from(scaled).expect("scaled clock exceeds i64");
        crate::time::ClockTime::from_ticks(scaled + self.offset(pid).as_ticks())
    }

    /// The maximum pairwise skew `max_{i,j} |c_i − c_j|`.
    #[must_use]
    pub fn max_skew(&self) -> SimDuration {
        let min = self
            .offsets
            .iter()
            .min()
            .copied()
            .unwrap_or(ClockOffset::ZERO);
        let max = self
            .offsets
            .iter()
            .max()
            .copied()
            .unwrap_or(ClockOffset::ZERO);
        min.skew_to(max)
    }

    /// Checks the admissibility condition `max_skew ≤ eps`.
    #[must_use]
    pub fn within_skew(&self, eps: SimDuration) -> bool {
        self.max_skew() <= eps
    }

    /// All offsets, indexed by process.
    #[must_use]
    pub fn offsets(&self) -> &[ClockOffset] {
        &self.offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_assignment_has_no_skew() {
        let c = ClockAssignment::zero(5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.max_skew(), SimDuration::ZERO);
        assert!(c.within_skew(SimDuration::ZERO));
    }

    #[test]
    fn single_late_process() {
        let c = ClockAssignment::single_late(3, ProcessId::new(1), SimDuration::from_ticks(7));
        assert_eq!(c.offset(ProcessId::new(1)), ClockOffset::from_ticks(-7));
        assert_eq!(c.max_skew(), SimDuration::from_ticks(7));
        // A late clock reads an earlier value.
        assert_eq!(
            c.clock_at(ProcessId::new(1), SimTime::from_ticks(10))
                .as_ticks(),
            3
        );
    }

    #[test]
    fn spread_has_exact_span() {
        let c = ClockAssignment::spread(4, SimDuration::from_ticks(9));
        assert_eq!(c.max_skew(), SimDuration::from_ticks(9));
    }

    #[test]
    fn spread_single_process_is_zero() {
        let c = ClockAssignment::spread(1, SimDuration::from_ticks(9));
        assert_eq!(c.max_skew(), SimDuration::ZERO);
    }

    #[test]
    fn random_within_respects_bound() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let c = ClockAssignment::random_within(6, SimDuration::from_ticks(13), &mut rng);
            assert!(
                c.within_skew(SimDuration::from_ticks(13)),
                "skew {:?}",
                c.max_skew()
            );
        }
    }

    #[test]
    fn shift_adjusts_offset() {
        let mut c = ClockAssignment::zero(2);
        c.shift(ProcessId::new(0), 5);
        c.shift(ProcessId::new(0), -2);
        assert_eq!(c.offset(ProcessId::new(0)), ClockOffset::from_ticks(3));
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_rejected() {
        let _ = ClockAssignment::zero(0);
    }
}
