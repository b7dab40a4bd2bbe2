//! The event queue under [`crate::sim::Simulation`]: a binary min-heap
//! over `(time, seq)` keys.
//!
//! The module and type keep the name `calendar` / `CalendarQueue` for
//! historical reasons: the kernel once ran on a calendar queue (Brown
//! 1988). On the simulator's workloads most of its pushes took the
//! sorted mid-bucket insert path, so a plain heap was both faster and
//! smaller (see `DESIGN.md` §6, "Event queue").
//!
//! Events pop in exactly ascending `(time, seq)` order, so swapping the
//! structure underneath never changes a simulation (see `DESIGN.md`,
//! "Determinism contract"). Payloads sit inline in the heap's one
//! vector: a steady-state push/pop performs no heap allocation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    /// `time.to_bits()` of a finite, non-negative time with `-0.0`
    /// folded into `+0.0`: on that domain the IEEE bit pattern orders
    /// exactly like the float.
    time_bits: u64,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    /// `(time, seq)` packed into one integer, so each heap comparison
    /// is a single wide compare rather than a tuple's two.
    #[inline]
    fn key(&self) -> u128 {
        (self.time_bits as u128) << 64 | self.seq as u128
    }

    #[inline]
    fn time(&self) -> f64 {
        f64::from_bits(self.time_bits)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    /// Reversed, so the max-heap `BinaryHeap` yields the smallest key.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A min-queue over items keyed by `(time, seq)`.
///
/// `time` must be finite and non-negative; `(time, seq)` pairs are
/// expected to be unique (the simulation kernel guarantees this by
/// assigning `seq` from a counter). Pops return items in ascending
/// `(time, seq)` order — ties on `time` leave in `seq` order, and
/// `-0.0` ties with `+0.0` (it pops as `+0.0`).
///
/// ```
/// use dra_des::calendar::CalendarQueue;
///
/// let mut q = CalendarQueue::new();
/// q.push(2.0, 0, "late");
/// q.push(1.0, 1, "early");
/// q.push(1.0, 2, "early-tie");
/// assert_eq!(q.pop(), Some((1.0, 1, "early")));
/// assert_eq!(q.pop(), Some((1.0, 2, "early-tie")));
/// assert_eq!(q.pop(), Some((2.0, 0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct CalendarQueue<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queue `item` at key `(time, seq)`.
    ///
    /// # Panics
    /// Panics if `time` is negative or non-finite.
    #[inline]
    pub fn push(&mut self, time: f64, seq: u64, item: T) {
        assert!(
            time.is_finite() && time >= 0.0,
            "event queue: time must be finite and nonnegative, got {time}"
        );
        self.heap.push(Entry {
            // `-0.0 + 0.0` is `+0.0`, so the two zeros share one key.
            time_bits: (time + 0.0).to_bits(),
            seq,
            item,
        });
    }

    /// Remove and return the minimum-keyed event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        self.heap.pop().map(|e| (e.time(), e.seq, e.item))
    }

    /// Remove and return the minimum-keyed event if its time is
    /// `<= horizon`; otherwise leave the queue untouched.
    #[inline]
    pub fn pop_at_or_before(&mut self, horizon: f64) -> Option<(f64, u64, T)> {
        if self.min_time()? > horizon {
            return None;
        }
        self.pop()
    }

    /// Time of the minimum-keyed event without removing it.
    #[inline]
    pub fn min_time(&self) -> Option<f64> {
        self.heap.peek().map(Entry::time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut q = CalendarQueue::new();
        let keys = [
            (5.0, 0),
            (1.0, 1),
            (3.0, 2),
            (1.0, 3),
            (0.0, 4),
            (3.0, 5),
            (2.5, 6),
        ];
        for &(t, s) in &keys {
            q.push(t, s, (t, s));
        }
        let mut sorted = keys.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for want in sorted {
            assert_eq!(q.pop(), Some((want.0, want.1, want)));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_pop_respects_horizon() {
        let mut q = CalendarQueue::new();
        q.push(1.0, 0, ());
        q.push(5.0, 1, ());
        assert!(q.pop_at_or_before(0.5).is_none());
        assert_eq!(q.pop_at_or_before(1.0), Some((1.0, 0, ())));
        assert!(q.pop_at_or_before(4.9).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.min_time(), Some(5.0));
        assert_eq!(q.pop_at_or_before(5.0), Some((5.0, 1, ())));
        assert_eq!(q.min_time(), None);
    }

    #[test]
    fn far_future_stragglers_are_found() {
        let mut q = CalendarQueue::new();
        // A dense cluster plus events many orders of magnitude later.
        for s in 0..100 {
            q.push(s as f64 * 1e-6, s, s);
        }
        q.push(1e9, 100, 100);
        q.push(2e9, 101, 101);
        let mut got = Vec::new();
        while let Some((_, _, v)) = q.pop() {
            got.push(v);
        }
        let want: Vec<u64> = (0..102).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_push_pop() {
        // Grow, drain most of the way, refill.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        for round in 0..3 {
            for i in 0..500u64 {
                q.push((round * 1000 + i) as f64 * 0.1, seq, seq);
                seq += 1;
            }
            let mut last = (f64::NEG_INFINITY, 0u64);
            for _ in 0..400 {
                let (t, s, _) = q.pop().unwrap();
                assert!(
                    (t, s) > last,
                    "order violated: {:?} after {:?}",
                    (t, s),
                    last
                );
                last = (t, s);
            }
        }
        assert_eq!(q.len(), 300);
    }

    #[test]
    fn same_time_batch_leaves_in_seq_order() {
        let mut q = CalendarQueue::new();
        for s in 0..1000u64 {
            q.push(7.25, s, s);
        }
        for want in 0..1000u64 {
            assert_eq!(q.pop(), Some((7.25, want, want)));
        }
    }

    #[test]
    fn push_below_last_pop_is_found_first() {
        let mut q = CalendarQueue::new();
        for s in 0..64u64 {
            q.push(100.0 + s as f64, s, s);
        }
        assert_eq!(q.pop().map(|(t, _, _)| t), Some(100.0));
        q.push(50.0, 64, 64);
        assert_eq!(q.pop(), Some((50.0, 64, 64)));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = CalendarQueue::new();
        q.push(f64::NAN, 0, ());
    }
}
