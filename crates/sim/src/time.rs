//! Simulated time.
//!
//! The thesis's model measures everything — message delays `[d − u, d]`,
//! clock skew `ε`, operation response times — in *real time*, while each
//! process only observes its *clock time*, offset from real time by a
//! per-process constant (clocks run at the real-time rate, no drift;
//! Chapter III §B.2).
//!
//! The engine works in integer "ticks" so that every experiment is exactly
//! reproducible and the worst-case schedules of the lower-bound proofs can
//! be expressed without rounding. A tick has no fixed physical meaning;
//! experiments in this repository conventionally use 1 tick = 1 µs.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in *real time* (the global time of the run), in ticks.
///
/// Real time starts at zero and never goes negative. Arithmetic that would
/// underflow panics, which in this codebase always indicates a malformed
/// scenario.
///
/// # Examples
///
/// ```
/// use skewbound_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_ticks(5);
/// assert_eq!(t.as_ticks(), 5);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_ticks(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in ticks.
///
/// # Examples
///
/// ```
/// use skewbound_sim::time::SimDuration;
///
/// let d = SimDuration::from_ticks(10_000);
/// assert_eq!(d / 4, SimDuration::from_ticks(2_500));
/// assert_eq!(d * 2, SimDuration::from_ticks(20_000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// A *clock time*: what a process reads off its local clock.
///
/// `clock_time = real_time + offset` where the per-process `offset` may be
/// negative, so clock time is signed. Clock times of different processes
/// are comparable only up to the skew bound `ε`.
///
/// # Examples
///
/// ```
/// use skewbound_sim::time::{ClockTime, SimDuration};
///
/// let c = ClockTime::from_ticks(-3) + SimDuration::from_ticks(10);
/// assert_eq!(c, ClockTime::from_ticks(7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClockTime(i64);

/// A signed clock offset `c_i` relating a process's clock to real time
/// (`clock = real + offset`), in ticks.
///
/// Offsets are what the skew bound constrains: a run is admissible when
/// `|c_i − c_j| ≤ ε` for all process pairs (Chapter III §B.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClockOffset(i64);

impl SimTime {
    /// The start of every run.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn as_ticks(self) -> u64 {
        self.0
    }

    /// Saturating subtraction of a duration (clamps at time zero).
    #[must_use]
    pub const fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }

    /// Checked subtraction of a duration.
    #[must_use]
    pub const fn checked_sub(self, d: SimDuration) -> Option<SimTime> {
        match self.0.checked_sub(d.0) {
            Some(t) => Some(SimTime(t)),
            None => None,
        }
    }

    /// The clock reading of a process with offset `off` at this real time.
    #[must_use]
    pub fn to_clock(self, off: ClockOffset) -> ClockTime {
        let t = i64::try_from(self.0).expect("real time exceeds i64 range");
        ClockTime(t + off.0)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        SimDuration(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn as_ticks(self) -> u64 {
        self.0
    }

    /// `true` when the duration is zero ticks.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction.
    #[must_use]
    pub const fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        match self.0.checked_sub(other.0) {
            Some(d) => Some(SimDuration(d)),
            None => None,
        }
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Multiplies by a rational `num/den`, rounding down.
    ///
    /// Used for bound formulas such as `(1 − 1/k)·u = u·(k−1)/k`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or the intermediate product overflows `u128`
    /// beyond `u64` after division.
    #[must_use]
    pub fn mul_frac(self, num: u64, den: u64) -> SimDuration {
        assert!(den != 0, "mul_frac: zero denominator");
        let v = u128::from(self.0) * u128::from(num) / u128::from(den);
        SimDuration(u64::try_from(v).expect("mul_frac overflow"))
    }

    /// Multiplies by a rational `num/den`, rounding up.
    ///
    /// Used where rounding *down* would under-claim a guarantee — e.g.
    /// the optimal skew `ε = (1 − 1/n)·u`: a flooring of the true bound
    /// would let clock assignments exceed the claimed `ε`, so the bound
    /// must be taken at the ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or the intermediate product overflows `u128`
    /// beyond `u64` after division.
    #[must_use]
    pub fn mul_frac_ceil(self, num: u64, den: u64) -> SimDuration {
        assert!(den != 0, "mul_frac_ceil: zero denominator");
        let v = (u128::from(self.0) * u128::from(num)).div_ceil(u128::from(den));
        SimDuration(u64::try_from(v).expect("mul_frac_ceil overflow"))
    }
}

impl ClockTime {
    /// Clock reading zero.
    pub const ZERO: ClockTime = ClockTime(0);

    /// Creates a clock time from a raw (signed) tick count.
    #[must_use]
    pub const fn from_ticks(ticks: i64) -> Self {
        ClockTime(ticks)
    }

    /// Returns the raw signed tick count.
    #[must_use]
    pub const fn as_ticks(self) -> i64 {
        self.0
    }

    /// The real time at which a process with offset `off` reads this value,
    /// saturating at real time zero.
    ///
    /// Clock readings before real time zero are reachable in admissible
    /// runs — an accessor timestamp is `⟨local − X, pid⟩`, so an accessor
    /// invoked near `t = 0` on a negatively offset clock maps before the
    /// run began. Saturation keeps such timestamps ordered consistently
    /// (everything pre-run collapses to `t = 0`, which precedes every
    /// in-run event); use [`ClockTime::checked_to_real`] to distinguish
    /// the pre-run case.
    #[must_use]
    pub fn to_real(self, off: ClockOffset) -> SimTime {
        self.checked_to_real(off).unwrap_or(SimTime::ZERO)
    }

    /// The real time at which a process with offset `off` reads this value,
    /// or `None` if that real time precedes the run (would be negative).
    #[must_use]
    pub fn checked_to_real(self, off: ClockOffset) -> Option<SimTime> {
        let t = self.0.checked_sub(off.0)?;
        u64::try_from(t).ok().map(SimTime)
    }
}

impl ClockOffset {
    /// The zero offset (clock equals real time).
    pub const ZERO: ClockOffset = ClockOffset(0);

    /// Creates an offset from a raw signed tick count.
    #[must_use]
    pub const fn from_ticks(ticks: i64) -> Self {
        ClockOffset(ticks)
    }

    /// Returns the raw signed tick count.
    #[must_use]
    pub const fn as_ticks(self) -> i64 {
        self.0
    }

    /// The absolute difference between two offsets, as a duration.
    ///
    /// This is the pairwise skew the admissibility condition bounds by `ε`.
    #[must_use]
    pub fn skew_to(self, other: ClockOffset) -> SimDuration {
        SimDuration(self.0.abs_diff(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: subtracting past time zero"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime difference would be negative"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow: result would be negative"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Add<SimDuration> for ClockTime {
    type Output = ClockTime;
    fn add(self, rhs: SimDuration) -> ClockTime {
        let d = i64::try_from(rhs.0).expect("duration exceeds i64 range");
        ClockTime(self.0.checked_add(d).expect("ClockTime overflow"))
    }
}

impl Sub<SimDuration> for ClockTime {
    type Output = ClockTime;
    fn sub(self, rhs: SimDuration) -> ClockTime {
        let d = i64::try_from(rhs.0).expect("duration exceeds i64 range");
        ClockTime(self.0.checked_sub(d).expect("ClockTime underflow"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for ClockTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClockTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for ClockOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "off{:+}", self.0)
    }
}

impl fmt::Display for ClockOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+}", self.0)
    }
}

// --- wall-clock interop (wall-clock backends; 1 tick = 1 µs) ----------

/// Converts a tick count (µs) to a wall-clock duration. Total: every
/// `u64` tick count maps to a representable `Duration`.
pub(crate) fn ticks_to_duration(d: SimDuration) -> std::time::Duration {
    std::time::Duration::from_micros(d.as_ticks())
}

/// Converts a wall-clock duration since the epoch to sim ticks (µs),
/// truncating sub-tick remainders and saturating at `u64::MAX` ticks —
/// a run would have to last ~584 thousand years to hit the saturation,
/// but saturating keeps the conversion total and monotone instead of
/// panicking.
pub(crate) fn duration_to_ticks(d: std::time::Duration) -> SimTime {
    SimTime::from_ticks(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

/// Real time since the runtime epoch, in sim ticks. Instants before the
/// epoch clamp to zero (monotone, never panics).
pub(crate) fn instant_to_sim(epoch: std::time::Instant, at: std::time::Instant) -> SimTime {
    duration_to_ticks(at.saturating_duration_since(epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_ticks(10) + SimDuration::from_ticks(5);
        assert_eq!(t, SimTime::from_ticks(15));
    }

    #[test]
    fn time_difference() {
        let a = SimTime::from_ticks(12);
        let b = SimTime::from_ticks(7);
        assert_eq!(a - b, SimDuration::from_ticks(5));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn time_difference_negative_panics() {
        let _ = SimTime::from_ticks(7) - SimTime::from_ticks(12);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            SimTime::from_ticks(3).saturating_sub(SimDuration::from_ticks(9)),
            SimTime::ZERO
        );
    }

    #[test]
    fn clock_conversion_roundtrip() {
        let off = ClockOffset::from_ticks(-4);
        let t = SimTime::from_ticks(10);
        let c = t.to_clock(off);
        assert_eq!(c, ClockTime::from_ticks(6));
        assert_eq!(c.to_real(off), t);
    }

    #[test]
    fn negative_offset_clock_before_zero() {
        let off = ClockOffset::from_ticks(-4);
        assert_eq!(SimTime::ZERO.to_clock(off), ClockTime::from_ticks(-4));
    }

    #[test]
    fn pre_run_clock_reading_saturates_to_real_zero() {
        // An accessor timestamp ⟨local − X, pid⟩ taken near t = 0 on a
        // positively offset clock maps before the run began: with off=+5,
        // clock reading 3 corresponds to real time −2.
        let off = ClockOffset::from_ticks(5);
        let c = ClockTime::from_ticks(3);
        assert_eq!(c.checked_to_real(off), None);
        assert_eq!(c.to_real(off), SimTime::ZERO);
        // At or after the boundary both forms agree.
        assert_eq!(
            ClockTime::from_ticks(5).checked_to_real(off),
            Some(SimTime::ZERO)
        );
        assert_eq!(
            ClockTime::from_ticks(9).to_real(off),
            SimTime::from_ticks(4)
        );
    }

    #[test]
    fn skew_is_symmetric() {
        let a = ClockOffset::from_ticks(3);
        let b = ClockOffset::from_ticks(-2);
        assert_eq!(a.skew_to(b), SimDuration::from_ticks(5));
        assert_eq!(b.skew_to(a), SimDuration::from_ticks(5));
    }

    #[test]
    fn mul_frac_rounds_down() {
        // (1 - 1/3) * 10 = 6.66… → 6
        assert_eq!(
            SimDuration::from_ticks(10).mul_frac(2, 3),
            SimDuration::from_ticks(6)
        );
    }

    #[test]
    fn mul_frac_ceil_rounds_up() {
        // (1 - 1/3) * 10 = 6.66… → 7
        assert_eq!(
            SimDuration::from_ticks(10).mul_frac_ceil(2, 3),
            SimDuration::from_ticks(7)
        );
        // Exact fractions agree between the two directions.
        assert_eq!(
            SimDuration::from_ticks(10).mul_frac_ceil(1, 2),
            SimDuration::from_ticks(10).mul_frac(1, 2),
        );
        assert_eq!(SimDuration::ZERO.mul_frac_ceil(2, 3), SimDuration::ZERO);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_ticks(9);
        assert_eq!(d * 3, SimDuration::from_ticks(27));
        assert_eq!(d / 2, SimDuration::from_ticks(4));
        assert_eq!(
            d.min(SimDuration::from_ticks(4)),
            SimDuration::from_ticks(4)
        );
        assert_eq!(d.max(SimDuration::from_ticks(4)), d);
    }

    #[test]
    fn clock_time_arithmetic() {
        let c = ClockTime::from_ticks(-2);
        assert_eq!(c + SimDuration::from_ticks(5), ClockTime::from_ticks(3));
        assert_eq!(c - SimDuration::from_ticks(5), ClockTime::from_ticks(-7));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{:?}", SimTime::from_ticks(5)), "t5");
        assert_eq!(format!("{:?}", SimDuration::from_ticks(5)), "5t");
        assert_eq!(format!("{:?}", ClockOffset::from_ticks(-5)), "off-5");
    }

    // --- wall-clock conversion edge cases (rt runtime) ------------------

    #[test]
    fn ticks_to_duration_zero_and_extremes() {
        assert_eq!(ticks_to_duration(SimDuration::ZERO), Duration::ZERO);
        assert_eq!(
            ticks_to_duration(SimDuration::from_ticks(1)),
            Duration::from_micros(1)
        );
        // u64::MAX µs must convert without overflow or panic.
        let max = ticks_to_duration(SimDuration::from_ticks(u64::MAX));
        assert_eq!(max, Duration::from_micros(u64::MAX));
    }

    #[test]
    fn duration_to_ticks_truncates_sub_tick() {
        assert_eq!(duration_to_ticks(Duration::ZERO).as_ticks(), 0);
        // Anything under one microsecond is sub-tick and truncates to 0.
        assert_eq!(duration_to_ticks(Duration::from_nanos(999)).as_ticks(), 0);
        assert_eq!(duration_to_ticks(Duration::from_nanos(1000)).as_ticks(), 1);
        assert_eq!(duration_to_ticks(Duration::from_nanos(1999)).as_ticks(), 1);
    }

    #[test]
    fn duration_to_ticks_saturates_near_u64_max() {
        // Exactly u64::MAX µs round-trips.
        assert_eq!(
            duration_to_ticks(Duration::from_micros(u64::MAX)).as_ticks(),
            u64::MAX
        );
        // Beyond u64::MAX µs (Duration::MAX ≈ u64::MAX seconds) the
        // conversion saturates instead of panicking.
        assert_eq!(duration_to_ticks(Duration::MAX).as_ticks(), u64::MAX);
    }

    #[test]
    fn duration_to_ticks_is_monotone() {
        let ladder = [
            Duration::ZERO,
            Duration::from_nanos(1),
            Duration::from_nanos(999),
            Duration::from_micros(1),
            Duration::from_millis(1),
            Duration::from_secs(1),
            Duration::from_micros(u64::MAX),
            Duration::MAX,
        ];
        for pair in ladder.windows(2) {
            assert!(
                duration_to_ticks(pair[0]) <= duration_to_ticks(pair[1]),
                "{pair:?} went non-monotone"
            );
        }
    }

    #[test]
    fn instant_to_sim_clamps_pre_epoch_and_stays_monotone() {
        let epoch = Instant::now();
        // An instant before the epoch clamps to tick 0 (no underflow).
        assert_eq!(
            instant_to_sim(epoch + Duration::from_millis(5), epoch).as_ticks(),
            0
        );
        assert_eq!(instant_to_sim(epoch, epoch).as_ticks(), 0);
        // Sub-tick progress truncates to 0 rather than jumping.
        assert_eq!(
            instant_to_sim(epoch, epoch + Duration::from_nanos(500)).as_ticks(),
            0
        );
        let mut last = SimTime::ZERO;
        for ms in [0u64, 1, 2, 10, 100] {
            let t = instant_to_sim(epoch, epoch + Duration::from_millis(ms));
            assert!(t >= last, "instant_to_sim went backwards at {ms} ms");
            last = t;
        }
        assert_eq!(last.as_ticks(), 100_000);
    }
}
