//! Message-delay models for the partially synchronous network.
//!
//! The admissibility condition requires every delivered message to take
//! between `d − u` and `d` real time (Chapter III §B.3). The engine asks a
//! [`DelayModel`] for each message's delay and validates the answer against
//! the bounds, so a buggy model cannot silently produce an inadmissible run.
//!
//! The lower-bound proofs rely on *specific* delay assignments, e.g. the
//! pairwise-uniform matrices of Theorems C.1/E.1 and the circulant matrix
//! `d_{i,j} = d − ((i−j) mod k)/k · u` of Theorem D.1; [`MatrixDelay`]
//! expresses those.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ids::ProcessId;
use crate::time::SimDuration;

/// The network's delay bounds: every message takes between `d − u` and `d`.
///
/// # Examples
///
/// ```
/// use skewbound_sim::delay::DelayBounds;
/// use skewbound_sim::time::SimDuration;
///
/// let b = DelayBounds::new(SimDuration::from_ticks(100), SimDuration::from_ticks(30));
/// assert_eq!(b.min().as_ticks(), 70);
/// assert!(b.contains(SimDuration::from_ticks(85)));
/// assert!(!b.contains(SimDuration::from_ticks(101)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayBounds {
    d: SimDuration,
    u: SimDuration,
}

/// Why a requested `[d − u, d]` window is inadmissible. Returned by
/// [`DelayBounds::try_new`] so callers wiring up transports from
/// untrusted configuration can reject bad windows in release builds
/// instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayBoundsError {
    /// `d` was zero: a zero-width window at zero means instantaneous
    /// delivery, which the partially synchronous model excludes.
    ZeroMax,
    /// `u > d`: the minimum delay `d − u` would be negative.
    UncertaintyExceedsMax {
        /// The requested maximum delay.
        d: SimDuration,
        /// The requested (too large) uncertainty.
        u: SimDuration,
    },
}

impl core::fmt::Display for DelayBoundsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DelayBoundsError::ZeroMax => write!(f, "delay bound d must be positive"),
            DelayBoundsError::UncertaintyExceedsMax { d, u } => {
                write!(f, "uncertainty u must not exceed d (u = {u}, d = {d})")
            }
        }
    }
}

impl std::error::Error for DelayBoundsError {}

impl DelayBounds {
    /// Creates bounds with maximum delay `d` and uncertainty `u`,
    /// rejecting inadmissible windows as a returned error (checked in
    /// release builds too — transports built from configuration go
    /// through this).
    ///
    /// # Errors
    ///
    /// [`DelayBoundsError::ZeroMax`] if `d` is zero,
    /// [`DelayBoundsError::UncertaintyExceedsMax`] if `u > d`.
    pub fn try_new(d: SimDuration, u: SimDuration) -> Result<Self, DelayBoundsError> {
        if d.is_zero() {
            return Err(DelayBoundsError::ZeroMax);
        }
        if u > d {
            return Err(DelayBoundsError::UncertaintyExceedsMax { d, u });
        }
        Ok(DelayBounds { d, u })
    }

    /// Creates bounds with maximum delay `d` and uncertainty `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u > d` (the minimum delay `d − u` would be negative) or
    /// if `d` is zero.
    #[must_use]
    pub fn new(d: SimDuration, u: SimDuration) -> Self {
        match DelayBounds::try_new(d, u) {
            Ok(bounds) => bounds,
            Err(DelayBoundsError::ZeroMax) => panic!("delay bound d must be positive"),
            Err(DelayBoundsError::UncertaintyExceedsMax { .. }) => {
                panic!("uncertainty u must not exceed d")
            }
        }
    }

    /// The maximum message delay `d`.
    #[must_use]
    pub const fn max(self) -> SimDuration {
        self.d
    }

    /// The delay uncertainty `u`.
    #[must_use]
    pub const fn uncertainty(self) -> SimDuration {
        self.u
    }

    /// The minimum message delay `d − u`.
    #[must_use]
    pub fn min(self) -> SimDuration {
        self.d - self.u
    }

    /// `true` when `delay ∈ [d − u, d]`.
    #[must_use]
    pub fn contains(self, delay: SimDuration) -> bool {
        self.min() <= delay && delay <= self.d
    }
}

/// Everything a [`DelayModel`] may condition a delay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgMeta {
    /// Sending process.
    pub from: ProcessId,
    /// Receiving process.
    pub to: ProcessId,
}

/// Assigns a delay to every message.
///
/// Implementations are the run *adversary*: within `[d − u, d]` they may
/// pick any value, including the worst-case patterns of the lower-bound
/// proofs. Returned delays are validated by the engine; an out-of-range
/// delay aborts the run with a clear panic rather than producing an
/// inadmissible history.
pub trait DelayModel {
    /// The delay for the message described by `meta`.
    fn delay(&mut self, meta: MsgMeta) -> SimDuration;

    /// The bounds this model promises to respect.
    fn bounds(&self) -> DelayBounds;
}

/// Every message takes exactly the same delay.
#[derive(Debug, Clone)]
pub struct FixedDelay {
    bounds: DelayBounds,
    delay: SimDuration,
}

impl FixedDelay {
    /// All messages take exactly `delay`.
    ///
    /// # Panics
    ///
    /// Panics if `delay ∉ [d − u, d]`.
    #[must_use]
    pub fn new(bounds: DelayBounds, delay: SimDuration) -> Self {
        assert!(
            bounds.contains(delay),
            "fixed delay {delay:?} outside bounds [{:?}, {:?}]",
            bounds.min(),
            bounds.max()
        );
        FixedDelay { bounds, delay }
    }

    /// All messages take the maximum delay `d`.
    #[must_use]
    pub fn maximal(bounds: DelayBounds) -> Self {
        FixedDelay::new(bounds, bounds.max())
    }

    /// All messages take the minimum delay `d − u`.
    #[must_use]
    pub fn minimal(bounds: DelayBounds) -> Self {
        FixedDelay::new(bounds, bounds.min())
    }
}

impl DelayModel for FixedDelay {
    fn delay(&mut self, _meta: MsgMeta) -> SimDuration {
        self.delay
    }

    fn bounds(&self) -> DelayBounds {
        self.bounds
    }
}

/// Delays drawn uniformly at random from `[d − u, d]`, seeded for
/// reproducibility.
#[derive(Debug)]
pub struct UniformDelay {
    bounds: DelayBounds,
    rng: StdRng,
}

impl UniformDelay {
    /// Creates a model seeded with `seed`.
    #[must_use]
    pub fn new(bounds: DelayBounds, seed: u64) -> Self {
        UniformDelay {
            bounds,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DelayModel for UniformDelay {
    fn delay(&mut self, _meta: MsgMeta) -> SimDuration {
        let lo = self.bounds.min().as_ticks();
        let hi = self.bounds.max().as_ticks();
        SimDuration::from_ticks(self.rng.gen_range(lo..=hi))
    }

    fn bounds(&self) -> DelayBounds {
        self.bounds
    }
}

/// Pairwise-uniform delays: a fixed delay per ordered process pair, the
/// shape every proof in Chapter IV uses ("a run with pairwise uniform
/// message delays").
#[derive(Debug, Clone)]
pub struct MatrixDelay {
    bounds: DelayBounds,
    matrix: Vec<Vec<SimDuration>>,
}

impl MatrixDelay {
    /// Builds the matrix by evaluating `f(from, to)` for every ordered
    /// pair. Diagonal entries are never used (processes do not message
    /// themselves) and are filled with `d`.
    ///
    /// # Panics
    ///
    /// Panics if any off-diagonal `f(i, j) ∉ [d − u, d]`.
    #[must_use]
    pub fn from_fn<F>(n: usize, bounds: DelayBounds, mut f: F) -> Self
    where
        F: FnMut(ProcessId, ProcessId) -> SimDuration,
    {
        let mut matrix = vec![vec![bounds.max(); n]; n];
        for i in ProcessId::all(n) {
            for j in ProcessId::all(n) {
                if i == j {
                    continue;
                }
                let delay = f(i, j);
                assert!(
                    bounds.contains(delay),
                    "delay {delay:?} for {i}->{j} outside [{:?}, {:?}]",
                    bounds.min(),
                    bounds.max()
                );
                matrix[i.index()][j.index()] = delay;
            }
        }
        MatrixDelay { bounds, matrix }
    }

    /// The delay assigned to the ordered pair `from → to`.
    #[must_use]
    pub fn pair(&self, from: ProcessId, to: ProcessId) -> SimDuration {
        self.matrix[from.index()][to.index()]
    }

    /// The circulant matrix of Theorem D.1 over the first `k` processes:
    /// `d_{i,j} = d − ((i − j) mod k)/k · u` for `i, j < k`, and the
    /// midpoint `d − u/2` for any pair involving a process `≥ k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k > n`.
    #[must_use]
    pub fn circulant(n: usize, k: usize, bounds: DelayBounds) -> Self {
        assert!(k >= 2, "circulant requires k >= 2");
        assert!(k <= n, "k must not exceed n");
        let d = bounds.max();
        let u = bounds.uncertainty();
        let mid = d - u / 2;
        Self::from_fn(n, bounds, |i, j| {
            if i.index() < k && j.index() < k {
                let r = (i.index() + k - j.index()) % k;
                d - u.mul_frac(r as u64, k as u64)
            } else {
                mid
            }
        })
    }
}

impl DelayModel for MatrixDelay {
    fn delay(&mut self, meta: MsgMeta) -> SimDuration {
        self.pair(meta.from, meta.to)
    }

    fn bounds(&self) -> DelayBounds {
        self.bounds
    }
}

impl<M: DelayModel + ?Sized> DelayModel for Box<M> {
    fn delay(&mut self, meta: MsgMeta) -> SimDuration {
        (**self).delay(meta)
    }

    fn bounds(&self) -> DelayBounds {
        (**self).bounds()
    }
}

/// One model shared by every node of a wall-clock run, as the engine
/// shares one across its processes: each send locks it for one draw.
impl<M: DelayModel + ?Sized> DelayModel for &std::sync::Mutex<M> {
    fn delay(&mut self, meta: MsgMeta) -> SimDuration {
        self.lock().expect("delay model poisoned").delay(meta)
    }

    fn bounds(&self) -> DelayBounds {
        self.lock().expect("delay model poisoned").bounds()
    }
}

/// Panics unless `delay` lies within `bounds`: every backend checks each
/// draw, since an inadmissible delay would silently void every bound
/// the run is supposed to witness.
#[inline]
pub(crate) fn assert_admissible(
    bounds: DelayBounds,
    delay: SimDuration,
    from: ProcessId,
    to: ProcessId,
) {
    assert!(
        bounds.contains(delay),
        "delay model produced inadmissible delay {delay:?} for {from}->{to} \
         (bounds [{:?}, {:?}])",
        bounds.min(),
        bounds.max()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> DelayBounds {
        DelayBounds::new(SimDuration::from_ticks(100), SimDuration::from_ticks(40))
    }

    fn meta(from: u32, to: u32) -> MsgMeta {
        MsgMeta {
            from: ProcessId::new(from),
            to: ProcessId::new(to),
        }
    }

    #[test]
    fn bounds_range() {
        let b = bounds();
        assert_eq!(b.min(), SimDuration::from_ticks(60));
        assert!(b.contains(SimDuration::from_ticks(60)));
        assert!(b.contains(SimDuration::from_ticks(100)));
        assert!(!b.contains(SimDuration::from_ticks(59)));
    }

    #[test]
    #[should_panic(expected = "u must not exceed d")]
    fn bounds_reject_u_gt_d() {
        let _ = DelayBounds::new(SimDuration::from_ticks(10), SimDuration::from_ticks(11));
    }

    #[test]
    fn try_new_returns_errors_instead_of_panicking() {
        // The release-build path for configuration-derived windows: both
        // inadmissible shapes come back as structured errors.
        assert_eq!(
            DelayBounds::try_new(SimDuration::ZERO, SimDuration::ZERO),
            Err(DelayBoundsError::ZeroMax)
        );
        let d = SimDuration::from_ticks(10);
        let u = SimDuration::from_ticks(11);
        let err = DelayBounds::try_new(d, u).unwrap_err();
        assert_eq!(err, DelayBoundsError::UncertaintyExceedsMax { d, u });
        assert!(err.to_string().contains("must not exceed"));
        let ok = DelayBounds::try_new(d, SimDuration::from_ticks(10)).unwrap();
        assert_eq!(ok.min(), SimDuration::ZERO);
        assert_eq!(ok.max(), d);
    }

    #[test]
    fn fixed_delay_constant() {
        let mut m = FixedDelay::new(bounds(), SimDuration::from_ticks(80));
        assert_eq!(m.delay(meta(0, 1)), SimDuration::from_ticks(80));
        assert_eq!(m.delay(meta(1, 0)), SimDuration::from_ticks(80));
    }

    #[test]
    #[should_panic(expected = "outside bounds")]
    fn fixed_delay_validates() {
        let _ = FixedDelay::new(bounds(), SimDuration::from_ticks(10));
    }

    #[test]
    fn uniform_delay_in_range_and_deterministic() {
        let mut a = UniformDelay::new(bounds(), 7);
        let mut b = UniformDelay::new(bounds(), 7);
        for _ in 0..200 {
            let da = a.delay(meta(0, 1));
            let db = b.delay(meta(0, 1));
            assert_eq!(da, db, "same seed must give same delays");
            assert!(bounds().contains(da));
        }
    }

    #[test]
    fn matrix_delay_per_pair() {
        let m = MatrixDelay::from_fn(3, bounds(), |i, j| {
            if i.index() < j.index() {
                SimDuration::from_ticks(100)
            } else {
                SimDuration::from_ticks(60)
            }
        });
        let mut m = m;
        assert_eq!(m.delay(meta(0, 2)), SimDuration::from_ticks(100));
        assert_eq!(m.delay(meta(2, 0)), SimDuration::from_ticks(60));
    }

    #[test]
    fn circulant_matches_theorem_d1() {
        // k = 4, d = 100, u = 40: d_{i,j} = 100 − ((i−j) mod 4)·10.
        let b = bounds();
        let m = MatrixDelay::circulant(5, 4, b);
        let p = |i: u32| ProcessId::new(i);
        assert_eq!(m.pair(p(1), p(0)), SimDuration::from_ticks(90)); // r=1
        assert_eq!(m.pair(p(0), p(1)), SimDuration::from_ticks(70)); // r=3
        assert_eq!(m.pair(p(3), p(1)), SimDuration::from_ticks(80)); // r=2
                                                                     // Pairs involving p4 (index ≥ k) take the midpoint d − u/2 = 80.
        assert_eq!(m.pair(p(4), p(0)), SimDuration::from_ticks(80));
        assert_eq!(m.pair(p(2), p(4)), SimDuration::from_ticks(80));
        // Every entry admissible.
        for i in ProcessId::all(5) {
            for j in ProcessId::all(5) {
                if i != j {
                    assert!(b.contains(m.pair(i, j)));
                }
            }
        }
    }
}
