//! Generation-stamped slab allocation for timer ids.
//!
//! A [`TimerId`] packs `(generation << 32) | slot`. A node mints one id
//! per armed timer and retires it when the timer fires: the slot's
//! generation is bumped and the slot goes back on a LIFO free list, so
//! the next timer reuses it under the next generation. Timers are only
//! ever set and fired (the model has no cancellation), so each armed
//! timer leaves the agenda exactly once and an id is never stale when it
//! fires. Memory stays proportional to the number of *concurrently*
//! pending timers, not the total ever set, and the ids a run mints are a
//! pure function of its set/fire order — the golden traces pin them.

use crate::ids::TimerId;

/// Allocator of [`TimerId`]s: per-slot generations and a free list.
///
/// # Examples
///
/// ```
/// use skewbound_sim::timers::TimerSlab;
///
/// let mut slab = TimerSlab::default();
/// let a = slab.alloc(); // slot 0, generation 0
/// let b = slab.alloc(); // slot 1, generation 0
/// assert_ne!(a, b);
/// slab.fire(a);
/// let c = slab.alloc(); // slot 0 again, under generation 1
/// assert_eq!(c.as_u64(), 1 << 32);
/// ```
#[derive(Debug, Default)]
pub struct TimerSlab {
    generations: Vec<u32>,
    free: Vec<u32>,
}

crate::clone_fields!([] TimerSlab { generations, free });

impl TimerSlab {
    /// Creates an empty slab with room for `capacity` concurrently
    /// pending timers before reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TimerSlab {
            generations: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
        }
    }

    /// Mints the id of a newly armed timer: the most recently freed
    /// slot under its current generation, or a fresh slot.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` timers are pending at once.
    pub fn alloc(&mut self) -> TimerId {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = u32::try_from(self.generations.len())
                .expect("more than u32::MAX concurrently pending timers");
            self.generations.push(0);
            slot
        });
        TimerId::from_parts(self.generations[slot as usize], slot)
    }

    /// Retires the id of a timer that fired: its slot is freed under the
    /// next generation.
    pub fn fire(&mut self, id: TimerId) {
        let slot = id.slot();
        let generation = &mut self.generations[slot as usize];
        debug_assert_eq!(*generation, id.generation(), "a fired id is current");
        *generation = generation.wrapping_add(1);
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The id scheme the golden traces pin: a fired slot is reused under
    /// the next generation, so its next id is `1 << 32`.
    #[test]
    fn fire_consumes_the_id() {
        let mut slab = TimerSlab::default();
        let a = slab.alloc();
        let b = slab.alloc();
        assert_eq!((a.as_u64(), b.as_u64()), (0, 1));
        slab.fire(a);
        let c = slab.alloc();
        assert_eq!((c.slot(), c.generation()), (0, 1));
        assert_eq!(c.as_u64(), 1 << 32);
    }

    #[test]
    fn a_refilled_slab_equals_a_cloned_one() {
        let slab = |armed: usize, fired: &[usize]| {
            let mut slab = TimerSlab::default();
            let ids: Vec<_> = (0..armed).map(|_| slab.alloc()).collect();
            for &i in fired {
                slab.fire(ids[i]);
            }
            slab
        };
        let slabs = [
            TimerSlab::default(),
            slab(1, &[]),
            slab(3, &[1]),
            slab(6, &[0, 4, 2]),
        ];
        crate::assert_clone_from_is_clone(&slabs, |slab| format!("{slab:?}"));
    }

    #[test]
    fn many_concurrent_timers_distinct() {
        let mut slab = TimerSlab::default();
        let ids: Vec<_> = (0..100).map(|_| slab.alloc()).collect();
        let distinct: std::collections::HashSet<_> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 100);
        for id in ids {
            slab.fire(id);
        }
        // Every slot comes back once, under generation 1.
        let again: std::collections::HashSet<_> = (0..100).map(|_| slab.alloc()).collect();
        assert!(again.iter().all(|id| id.generation() == 1));
        assert_eq!(again.len(), 100);
    }
}
