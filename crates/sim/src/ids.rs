//! Identifier newtypes for processes, operations, messages and timers.

use core::fmt;

/// Identifies one of the `n` processes in the system, `p0 … p(n−1)`.
///
/// Process ids double as the tie-breaker in operation timestamps
/// (`⟨clock_time, process_id⟩`), so their ordering is meaningful.
///
/// # Examples
///
/// ```
/// use skewbound_sim::ids::ProcessId;
///
/// let p = ProcessId::new(2);
/// assert_eq!(p.index(), 2);
/// assert_eq!(format!("{p}"), "p2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

/// Identifies a single operation *instance* within a run (unique across
/// processes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(u64);

/// Identifies a message instance within a run.
///
/// The thesis assumes every message carries a unique id identifying sender
/// and recipient (Chapter III §B.2); the engine assigns these.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(u64);

/// Identifies an armed timer at a process in traces: minted by the node
/// when it arms a [`Context::set_timer`](crate::actor::Context::set_timer)
/// timer, and carried by that timer's set and fire events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

impl ProcessId {
    /// Creates a process id from its index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// The zero-based index of the process.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw id value.
    #[must_use]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Iterates over all process ids `p0 … p(n−1)`.
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> {
        (0..u32::try_from(n).expect("process count exceeds u32")).map(ProcessId)
    }
}

impl OpId {
    /// Creates an operation id from a raw value.
    #[must_use]
    pub const fn new(v: u64) -> Self {
        OpId(v)
    }

    /// The raw id value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl MsgId {
    /// Creates a message id from a raw value.
    #[must_use]
    pub const fn new(v: u64) -> Self {
        MsgId(v)
    }

    /// The raw id value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl TimerId {
    const SLOT_BITS: u32 = 32;
    const SLOT_MASK: u64 = (1 << Self::SLOT_BITS) - 1;

    /// Creates a timer id from a raw value.
    #[must_use]
    pub const fn new(v: u64) -> Self {
        TimerId(v)
    }

    /// The raw id value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Packs a slab coordinate into an id: `(generation << 32) | slot`
    /// (the [`TimerSlab`](crate::timers::TimerSlab) scheme).
    #[must_use]
    pub const fn from_parts(generation: u32, slot: u32) -> Self {
        TimerId(((generation as u64) << Self::SLOT_BITS) | slot as u64)
    }

    /// The slab slot this id addresses.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // masked to 32 bits
    pub const fn slot(self) -> u32 {
        (self.0 & Self::SLOT_MASK) as u32
    }

    /// The slab generation this id was minted under.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // shifted into 32 bits
    pub const fn generation(self) -> u32 {
        (self.0 >> Self::SLOT_BITS) as u32
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Debug for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m#{}", self.0)
    }
}

impl fmt::Debug for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_iteration() {
        let ids: Vec<_> = ProcessId::all(3).collect();
        assert_eq!(
            ids,
            vec![ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]
        );
    }

    #[test]
    fn process_id_ordering_matches_index() {
        assert!(ProcessId::new(1) < ProcessId::new(2));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", ProcessId::new(4)), "p4");
        assert_eq!(format!("{:?}", OpId::new(7)), "op#7");
        assert_eq!(format!("{:?}", MsgId::new(9)), "m#9");
        assert_eq!(format!("{:?}", TimerId::new(2)), "timer#2");
    }

    #[test]
    fn timer_id_packing_round_trips() {
        let id = TimerId::from_parts(7, 42);
        assert_eq!(id.generation(), 7);
        assert_eq!(id.slot(), 42);
        assert_eq!(id, TimerId::new((7 << 32) | 42));
        let extremes = TimerId::from_parts(u32::MAX, u32::MAX);
        assert_eq!(extremes.generation(), u32::MAX);
        assert_eq!(extremes.slot(), u32::MAX);
    }
}
