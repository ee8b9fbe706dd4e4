//! System parameters: `n`, `d`, `u`, `ε`, `X`.
//!
//! The implementation of Chapter V assumes clocks synchronized within the
//! *optimal* skew `ε = (1 − 1/n)·u` (achievable by Lundelius–Lynch
//! synchronization) and a tuning knob `X ∈ [0, d + ε − u]` trading pure
//! accessor latency (`d + ε − X`) against pure mutator latency (`ε + X`).

use core::fmt;

use skewbound_sim::delay::DelayBounds;
use skewbound_sim::time::SimDuration;

/// Validated parameters of a shared-object deployment.
///
/// # Examples
///
/// ```
/// use skewbound_core::params::Params;
/// use skewbound_sim::time::SimDuration;
///
/// let d = SimDuration::from_ticks(10_000);
/// let u = SimDuration::from_ticks(4_000);
/// let p = Params::with_optimal_skew(4, d, u, SimDuration::ZERO)?;
/// assert_eq!(p.eps().as_ticks(), 3_000); // (1 - 1/4) * 4000
/// # Ok::<(), skewbound_core::params::ParamError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    n: usize,
    d: SimDuration,
    u: SimDuration,
    eps: SimDuration,
    x: SimDuration,
}

/// Validation failures when constructing [`Params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// Fewer than two processes.
    TooFewProcesses {
        /// Provided process count.
        n: usize,
    },
    /// `u > d` would make the minimum delay negative.
    UncertaintyExceedsDelay,
    /// `X` outside `[0, d + ε − u]`.
    XOutOfRange {
        /// Provided `X`.
        x: SimDuration,
        /// The maximum admissible `X`.
        max: SimDuration,
    },
    /// `d` must be positive.
    ZeroDelay,
    /// `d + 2ε` exceeds [`MAX_WAIT_TICKS`], so a derived wait (`u + ε`,
    /// `ε + X`, `d + ε − X`) added to a clock reading could overflow.
    SkewTooLarge {
        /// Provided `ε`.
        eps: SimDuration,
    },
}

/// The bound on `d + 2ε`, which bounds every derived wait. Half the
/// `i64` range, so a wait added to any clock reading below `2^62` ticks
/// (146 000 years of microseconds) cannot overflow.
pub const MAX_WAIT_TICKS: u64 = 1 << 62;

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::TooFewProcesses { n } => {
                write!(f, "need at least 2 processes, got {n}")
            }
            ParamError::UncertaintyExceedsDelay => {
                write!(f, "delay uncertainty u exceeds delay bound d")
            }
            ParamError::XOutOfRange { x, max } => {
                write!(f, "X = {x} outside [0, d + eps - u] = [0, {max}]")
            }
            ParamError::ZeroDelay => write!(f, "delay bound d must be positive"),
            ParamError::SkewTooLarge { eps } => {
                write!(f, "d + 2*eps exceeds 2^62 ticks (eps = {eps})")
            }
        }
    }
}

impl std::error::Error for ParamError {}

impl Params {
    /// The optimal clock skew `(1 − 1/n)·u` (Lundelius & Lynch 1984),
    /// rounded **up** to whole ticks.
    ///
    /// Rounding direction matters at non-divisible `(n, u)`: `ε` is the
    /// skew the synchronization layer *guarantees as a bound*, so an
    /// integer `ε` must not under-claim the real-valued `(1 − 1/n)·u` —
    /// truncation toward zero would admit clock assignments whose true
    /// skew exceeds the declared bound, making Algorithm 1's timer waits
    /// (`hold = u + ε`, `accessor_wait = d + ε − X`) too short to cover
    /// the delivery horizon. Taking the ceiling only lengthens waits and
    /// widens the admissible `X` range, which is always safe.
    #[must_use]
    pub fn optimal_eps(n: usize, u: SimDuration) -> SimDuration {
        assert!(n >= 1, "n must be positive");
        u.mul_frac_ceil(n as u64 - 1, n as u64)
    }

    /// Creates parameters with an explicit skew bound `eps`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] when `n < 2`, `d == 0`, `u > d`,
    /// `d + 2·eps >` [`MAX_WAIT_TICKS`], or `x ∉ [0, d + eps − u]`.
    pub fn new(
        n: usize,
        d: SimDuration,
        u: SimDuration,
        eps: SimDuration,
        x: SimDuration,
    ) -> Result<Self, ParamError> {
        if n < 2 {
            return Err(ParamError::TooFewProcesses { n });
        }
        if d.is_zero() {
            return Err(ParamError::ZeroDelay);
        }
        if u > d {
            return Err(ParamError::UncertaintyExceedsDelay);
        }
        let fits = eps
            .as_ticks()
            .checked_mul(2)
            .and_then(|e2| e2.checked_add(d.as_ticks()))
            .is_some_and(|w| w <= MAX_WAIT_TICKS);
        if !fits {
            return Err(ParamError::SkewTooLarge { eps });
        }
        let max_x = d + eps - u;
        if x > max_x {
            return Err(ParamError::XOutOfRange { x, max: max_x });
        }
        Ok(Params { n, d, u, eps, x })
    }

    /// Creates parameters with the optimal skew `ε = (1 − 1/n)·u`.
    ///
    /// # Errors
    ///
    /// Same as [`Params::new`].
    pub fn with_optimal_skew(
        n: usize,
        d: SimDuration,
        u: SimDuration,
        x: SimDuration,
    ) -> Result<Self, ParamError> {
        if n < 2 {
            return Err(ParamError::TooFewProcesses { n });
        }
        Params::new(n, d, u, Self::optimal_eps(n, u), x)
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Message delay upper bound `d`.
    #[must_use]
    pub fn d(&self) -> SimDuration {
        self.d
    }

    /// Message delay uncertainty `u`.
    #[must_use]
    pub fn u(&self) -> SimDuration {
        self.u
    }

    /// Clock skew bound `ε`.
    #[must_use]
    pub fn eps(&self) -> SimDuration {
        self.eps
    }

    /// The accessor/mutator trade-off knob `X`.
    #[must_use]
    pub fn x(&self) -> SimDuration {
        self.x
    }

    /// The largest admissible `X`, `d + ε − u`.
    #[must_use]
    pub fn max_x(&self) -> SimDuration {
        self.d + self.eps - self.u
    }

    /// Returns a copy with a different `X`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError::XOutOfRange`] when `x > d + ε − u`.
    pub fn with_x(&self, x: SimDuration) -> Result<Self, ParamError> {
        Params::new(self.n, self.d, self.u, self.eps, x)
    }

    /// The network delay bounds `[d − u, d]`.
    #[must_use]
    pub fn delay_bounds(&self) -> DelayBounds {
        DelayBounds::new(self.d, self.u)
    }

    /// `m = min{ε, u, d/3}`, the slack term in the Theorem C.1/E.1
    /// lower bounds.
    #[must_use]
    pub fn m(&self) -> SimDuration {
        self.eps.min(self.u).min(self.d / 3)
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} d={} u={} eps={} X={}",
            self.n, self.d, self.u, self.eps, self.x
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(t: u64) -> SimDuration {
        SimDuration::from_ticks(t)
    }

    #[test]
    fn optimal_eps_formula() {
        assert_eq!(Params::optimal_eps(2, ticks(10)), ticks(5));
        assert_eq!(Params::optimal_eps(1, ticks(10)), ticks(0));
    }

    #[test]
    fn optimal_eps_rounds_up_at_non_divisible_pairs() {
        // (1 − 1/3)·10 = 6.66… must round *up*: a declared ε = 6 would
        // under-claim the skew the synchronization layer can exhibit.
        assert_eq!(Params::optimal_eps(3, ticks(10)), ticks(7));
        // (1 − 1/4)·10 = 7.5 → 8.
        assert_eq!(Params::optimal_eps(4, ticks(10)), ticks(8));
        // Exactly divisible pairs are unaffected by the direction.
        assert_eq!(Params::optimal_eps(4, ticks(2_000)), ticks(1_500));
        assert_eq!(Params::optimal_eps(3, ticks(2_400)), ticks(1_600));
    }

    #[test]
    fn optimal_eps_never_below_true_bound() {
        // ceil(u(n−1)/n) ≥ u(n−1)/n for a spread of non-divisible pairs.
        for n in 2..=7u64 {
            for u in 1..=50u64 {
                let eps = Params::optimal_eps(n as usize, ticks(u)).as_ticks();
                assert!(
                    u128::from(eps) * u128::from(n) >= u128::from(u) * u128::from(n - 1),
                    "eps={eps} under-claims (1-1/{n})*{u}"
                );
            }
        }
    }

    #[test]
    fn valid_construction() {
        let p = Params::with_optimal_skew(3, ticks(100), ticks(30), ticks(10)).unwrap();
        assert_eq!(p.eps(), ticks(20));
        assert_eq!(p.max_x(), ticks(90));
        assert_eq!(p.m(), ticks(20)); // min(20, 30, 33)
    }

    #[test]
    fn m_picks_smallest() {
        // eps large: m = d/3.
        let p = Params::new(3, ticks(90), ticks(80), ticks(50), ticks(0)).unwrap();
        assert_eq!(p.m(), ticks(30));
        // u smallest.
        let p = Params::new(3, ticks(90), ticks(10), ticks(50), ticks(0)).unwrap();
        assert_eq!(p.m(), ticks(10));
    }

    #[test]
    fn rejects_bad_params() {
        assert_eq!(
            Params::with_optimal_skew(1, ticks(10), ticks(5), ticks(0)),
            Err(ParamError::TooFewProcesses { n: 1 })
        );
        assert_eq!(
            Params::new(3, ticks(10), ticks(11), ticks(0), ticks(0)),
            Err(ParamError::UncertaintyExceedsDelay)
        );
        assert!(matches!(
            Params::new(3, ticks(10), ticks(5), ticks(2), ticks(8)),
            Err(ParamError::XOutOfRange { .. })
        ));
        assert_eq!(
            Params::new(3, ticks(0), ticks(0), ticks(0), ticks(0)),
            Err(ParamError::ZeroDelay)
        );
        // A skew whose derived waits overflow is an error, not a panic.
        for eps in [u64::MAX, 1 << 63, 1 << 61] {
            assert_eq!(
                Params::new(3, ticks(100), ticks(10), ticks(eps), ticks(0)),
                Err(ParamError::SkewTooLarge { eps: ticks(eps) })
            );
        }
        // The largest admissible skew still builds, with X at its maximum.
        let eps = (MAX_WAIT_TICKS - 100) / 2;
        let p = Params::new(3, ticks(100), ticks(10), ticks(eps), ticks(90 + eps)).unwrap();
        assert_eq!(
            crate::replica::TimerProfile::from_params(&p).mutator_wait,
            ticks(2 * eps + 90)
        );
    }

    #[test]
    fn with_x_revalidates() {
        let p = Params::with_optimal_skew(3, ticks(100), ticks(30), ticks(0)).unwrap();
        assert!(p.with_x(p.max_x()).is_ok());
        assert!(p.with_x(p.max_x() + ticks(1)).is_err());
    }

    #[test]
    fn delay_bounds_roundtrip() {
        let p = Params::with_optimal_skew(3, ticks(100), ticks(30), ticks(0)).unwrap();
        assert_eq!(p.delay_bounds().max(), ticks(100));
        assert_eq!(p.delay_bounds().min(), ticks(70));
    }
}
