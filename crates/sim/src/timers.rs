//! Generation-stamped slab allocation for timer ids.
//!
//! The engine used to track timer liveness with two `HashSet<TimerId>`s
//! (`pending` and `cancelled`), paying a SipHash lookup-or-insert on
//! every set, cancel and expiry. Timer churn is proportional to event
//! count in every timer-driven protocol (Algorithm 1 arms a timer per
//! operation), so those hashes sat directly on the hot path.
//!
//! A [`TimerSlab`] replaces them with the classic generational-index
//! scheme: a [`TimerId`] packs `(generation << 32) | slot`, and a timer
//! is live exactly while its slot's current generation matches the id's.
//! Cancelling bumps the generation — the already-queued expiry event
//! then fails the match and is dropped when popped. Every operation is
//! a bounds check plus an integer compare: no hashing, no tombstone
//! sets, and slots recycle through a free list so memory stays
//! proportional to the number of *concurrently* pending timers, not the
//! total ever set.

use crate::ids::TimerId;

#[derive(Debug, Clone, Copy)]
struct Slot {
    generation: u32,
    live: bool,
}

/// Allocator and liveness oracle for [`TimerId`]s.
///
/// # Examples
///
/// ```
/// use skewbound_sim::timers::TimerSlab;
///
/// let mut slab = TimerSlab::new();
/// let a = slab.alloc();
/// assert!(slab.cancel(a));
/// assert!(!slab.fire(a), "cancelled timers do not fire");
///
/// let b = slab.alloc(); // recycles a's slot under a new generation
/// assert_ne!(a, b);
/// assert!(slab.fire(b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimerSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Slots permanently retired because their generation counter
    /// saturated (see [`TimerSlab::retire`] — recycling such a slot would
    /// wrap the generation back to zero and resurrect stale ids).
    exhausted: usize,
}

impl TimerSlab {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        TimerSlab::default()
    }

    /// Creates an empty slab with room for `capacity` concurrently
    /// pending timers before reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TimerSlab {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            exhausted: 0,
        }
    }

    /// Allocates a fresh live timer id.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` timers are pending at once.
    pub fn alloc(&mut self) -> TimerId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].live = true;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX concurrently pending timers");
                self.slots.push(Slot {
                    generation: 0,
                    live: true,
                });
                slot
            }
        };
        let generation = self.slots[slot as usize].generation;
        TimerId::from_parts(generation, slot)
    }

    /// Cancels a live timer. Returns `false` (a no-op) if the id is
    /// stale — already fired, already cancelled, or never allocated.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.retire(id)
    }

    /// Marks a timer as fired and retires its slot. Returns `false` if
    /// the id is stale (the timer was cancelled after its expiry event
    /// was queued) — the caller must then drop the event.
    pub fn fire(&mut self, id: TimerId) -> bool {
        self.retire(id)
    }

    /// Number of currently live (pending) timers.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.slots.len() - self.free.len() - self.exhausted
    }

    fn retire(&mut self, id: TimerId) -> bool {
        let slot = id.slot();
        let Some(s) = self.slots.get_mut(slot as usize) else {
            return false;
        };
        if !s.live || s.generation != id.generation() {
            return false;
        }
        s.live = false;
        if s.generation == u32::MAX {
            // Bumping would wrap the generation back to 0, and a stale id
            // minted for this slot's generation 0 (if one were still
            // queued) would match again. Saturate instead: the slot is
            // retired permanently and never re-enters the free list.
            debug_assert!(
                self.exhausted < self.slots.len(),
                "more exhausted slots than slots"
            );
            self.exhausted += 1;
            return true;
        }
        s.generation += 1;
        self.free.push(slot);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_consumes_the_id() {
        let mut slab = TimerSlab::new();
        let id = slab.alloc();
        assert_eq!(slab.pending(), 1);
        assert!(slab.fire(id));
        assert!(!slab.fire(id), "double fire must fail");
        assert_eq!(slab.pending(), 0);
    }

    #[test]
    fn cancel_prevents_fire_and_recycles() {
        let mut slab = TimerSlab::new();
        let a = slab.alloc();
        assert!(slab.cancel(a));
        assert!(!slab.cancel(a), "double cancel is a no-op");
        assert!(!slab.fire(a), "cancelled timer must not fire");
        let b = slab.alloc();
        assert_ne!(a, b, "recycled slot carries a new generation");
        assert!(slab.fire(b));
        assert!(!slab.fire(a), "stale id stays dead after slot reuse");
    }

    #[test]
    fn unknown_ids_are_noops() {
        let mut slab = TimerSlab::new();
        assert!(!slab.cancel(TimerId::new(99)));
        assert!(!slab.fire(TimerId::new(u64::MAX)));
    }

    /// Forces a slot's generation counter to its maximum and checks the
    /// saturating retirement: the exhausted slot never re-enters the free
    /// list, so a wrapped generation can never resurrect a stale id.
    #[test]
    fn generation_wrap_saturates_the_slot() {
        let mut slab = TimerSlab::new();
        let a = slab.alloc(); // slot 0, generation 0
        assert!(slab.fire(a));
        // Fast-forward the recycled slot to the last generation.
        slab.slots[0].generation = u32::MAX;
        let b = slab.alloc();
        assert_eq!(b.slot(), 0, "free list recycles slot 0");
        assert_eq!(slab.pending(), 1);
        assert!(slab.fire(b));
        assert_eq!(slab.pending(), 0, "exhausted slot is not counted pending");
        // The slot is permanently retired: a fresh alloc gets a new slot
        // instead of wrapping slot 0 back to generation 0.
        let c = slab.alloc();
        assert_eq!(c.slot(), 1, "slot 0 must not be recycled");
        assert_eq!(slab.pending(), 1);
        // Ids minted for slot 0 stay dead forever, including the id that
        // a generation-0 wraparound would have resurrected.
        let resurrected = TimerId::new(0); // slot 0, generation 0
        assert!(!slab.fire(resurrected));
        assert!(!slab.cancel(b));
        assert!(slab.fire(c));
    }

    #[test]
    fn many_concurrent_timers_distinct() {
        let mut slab = TimerSlab::new();
        let ids: Vec<_> = (0..100).map(|_| slab.alloc()).collect();
        let distinct: std::collections::HashSet<_> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 100);
        assert_eq!(slab.pending(), 100);
        for id in ids {
            assert!(slab.fire(id));
        }
        assert_eq!(slab.pending(), 0);
    }
}
