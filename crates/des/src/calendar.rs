//! A calendar-queue event scheduler (Brown 1988, with a min-hint fast
//! path), the priority queue under [`crate::sim::Simulation`].
//!
//! Events are keyed by `(time, seq)` and popped in exactly ascending
//! key order — the same total order a binary heap would give, which is
//! what keeps simulations bit-reproducible across the scheduler swap
//! (see `DESIGN.md`, "Determinism contract").
//!
//! Structure: a power-of-two array of buckets, each a `VecDeque`
//! sorted ascending by key, covering `width` units of simulated time
//! per bucket. An event at time `t` lives in virtual bucket
//! `⌊t/width⌋`, mapped to a physical bucket by masking. Dequeue walks
//! virtual buckets from the current clock position; after a full lap
//! (one "calendar year") with no hit it falls back to a direct scan of
//! all bucket heads, so sparse far-future events (armed repair timers,
//! say) cost one O(buckets) search instead of an unbounded walk.
//!
//! Three departures from the textbook structure, all load-bearing for
//! the router workloads:
//!
//! * **Stage register.** A push into an empty queue parks the event in
//!   a dedicated slot outside the buckets; a push that undercuts it
//!   swaps with it. While staged, the global minimum pops with one
//!   branch and no float math — so the one-event-in-flight shape
//!   (timer chains, self-rescheduling slot trains) runs as fast as a
//!   one-element binary heap.
//! * **Min hint.** Whenever the global minimum is known (after a
//!   resize, after popping an event whose bucket head shares its
//!   virtual bucket, after a failed bounded pop, or when a push lands
//!   below the current hint) it is cached, making the next pop O(1).
//!   Chains that keep one event in flight and same-time event batches
//!   — the two commonest simulator shapes — never re-scan.
//! * **FIFO-friendly buckets.** Buckets sort ascending with the
//!   minimum at the front: same-time events append at the back in
//!   `seq` order and leave from the front, so a batch of N events at
//!   one instant costs O(N), not the O(N²) a sorted-`Vec` insert at
//!   the front would.
//!
//! Bucket count doubles when occupancy exceeds two events per bucket
//! and halves below one per four buckets (the wide hysteresis band
//! keeps an oscillating population from thrashing resizes); each
//! rebuild re-estimates the bucket width from the inter-event gaps of
//! a bounded sample, so the calendar tracks the event density as a
//! simulation moves between regimes (warmup, steady state, drain).
//! Resizes reuse retained storage (a scratch buffer plus the physical
//! bucket vector, which never shrinks) so a steady-state resize
//! performs no heap allocation.

use std::collections::VecDeque;

/// Fewest physical buckets the calendar will shrink to.
const MIN_BUCKETS: usize = 4;
/// Most physical buckets the calendar will grow to.
const MAX_BUCKETS: usize = 1 << 20;
/// Head-sample size for the bucket-width estimate at resize time.
const WIDTH_SAMPLE: usize = 64;

struct Entry<T> {
    /// Virtual bucket `⌊time/width⌋`, cached so the dequeue walk never
    /// re-derives it from floating point.
    vb: u64,
    time: f64,
    seq: u64,
    item: T,
}

/// Cached location of the global minimum event.
#[derive(Clone, Copy)]
struct Hint {
    bucket: usize,
    vb: u64,
    time: f64,
}

/// A calendar queue over items keyed by `(time, seq)`.
///
/// `time` must be finite and non-negative; `(time, seq)` pairs are
/// expected to be unique (the simulation kernel guarantees this by
/// assigning `seq` from a counter). Pops return items in ascending
/// `(time, seq)` order — ties on `time` leave in `seq` order.
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
    /// Physical bucket storage. Only the first `mask + 1` buckets are
    /// logically active; the tail (left over from a shrink) stays
    /// allocated-but-empty so the next grow refills capacity instead
    /// of allocating. A population that oscillates across a resize
    /// boundary therefore re-files entries through retained storage —
    /// zero heap traffic — rather than reallocating every bucket.
    buckets: Vec<VecDeque<Entry<T>>>,
    /// Logical bucket count minus one; always a power of two minus one.
    mask: usize,
    width: f64,
    inv_width: f64,
    /// Events held in `buckets` (the stage is counted separately).
    len: usize,
    /// Lower bound on every bucketed event's virtual bucket: the
    /// dequeue walk resumes here.
    cur_vb: u64,
    hint: Option<Hint>,
    /// Stage register: when `Some`, this event's key is strictly below
    /// every bucketed key, so it is the global minimum and pops O(1)
    /// with no bucket or float work. A push into an empty queue lands
    /// here; a push that undercuts the stage swaps with it. Once taken
    /// it refills only from pushes, not from the buckets — a drain of
    /// bucketed events runs on the hint path instead.
    stage: Option<Entry<T>>,
    /// Scratch buffer for resize re-filing, retained across resizes so
    /// a steady-state resize performs no heap allocation.
    resize_scratch: Vec<Entry<T>>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty calendar (unit bucket width until the first resize).
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: MIN_BUCKETS - 1,
            width: 1.0,
            inv_width: 1.0,
            len: 0,
            cur_vb: 0,
            hint: None,
            stage: None,
            resize_scratch: Vec::new(),
        }
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len + self.stage.is_some() as usize
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.stage.is_none()
    }

    /// Calendar buckets currently in use (the logical count; physical
    /// storage may exceed this after a shrink). Exposed for telemetry:
    /// resizes under load show up as a growing bucket count.
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn vb_of(&self, time: f64) -> u64 {
        // Saturating cast: absurdly far-future events all land in one
        // virtual bucket, which is deterministic and merely slow.
        (time * self.inv_width) as u64
    }

    /// Queue `item` at key `(time, seq)`.
    ///
    /// # Panics
    /// Panics if `time` is negative or non-finite.
    pub fn push(&mut self, time: f64, seq: u64, item: T) {
        assert!(
            time.is_finite() && time >= 0.0,
            "calendar queue: time must be finite and nonnegative, got {time}"
        );
        let entry = Entry {
            vb: 0,
            time,
            seq,
            item,
        };
        match &self.stage {
            // Empty queue: the event is the minimum by default and
            // stays out of the buckets entirely. The ubiquitous
            // one-event-in-flight simulation shape (timer chains, slot
            // trains at quiet times) never pays for bucket or float
            // work.
            None if self.len == 0 => self.stage = Some(entry),
            // Undercuts the staged minimum: swap, and file the old
            // stage — still below every bucketed key, hence the bucket
            // minimum — into the calendar proper.
            Some(s) if (time, seq) < (s.time, s.seq) => {
                let old = self
                    .stage
                    .replace(entry)
                    .expect("stage vanished during swap");
                self.bucket_push(old);
            }
            _ => self.bucket_push(entry),
        }
    }

    /// File an entry into the bucket array (`entry.vb` is recomputed).
    fn bucket_push(&mut self, mut entry: Entry<T>) {
        let n = self.mask + 1;
        if self.len + 1 > 2 * n && n < MAX_BUCKETS {
            self.resize(n * 2);
        }
        let (time, seq) = (entry.time, entry.seq);
        let vb = self.vb_of(time);
        entry.vb = vb;
        let idx = vb as usize & self.mask;
        let bucket = &mut self.buckets[idx];
        let append = match bucket.back() {
            None => true,
            Some(b) => (b.time, b.seq) < (time, seq),
        };
        if append {
            bucket.push_back(entry);
        } else {
            let at = bucket.partition_point(|e| (e.time, e.seq) < (time, seq));
            bucket.insert(at, entry);
        }
        self.len += 1;
        if vb < self.cur_vb {
            self.cur_vb = vb;
        }
        // The hint may only name the *global* minimum. It survives a
        // push that lands at or above it (ties go to the hint: `seq`
        // is monotone, so an equal-time push sorts after). A push that
        // undercuts a known minimum — or fills an empty queue — is
        // itself the new minimum. With no cached minimum and other
        // events present, stay agnostic; the next pop scans from the
        // `cur_vb` floor.
        self.hint = match self.hint {
            Some(h) if h.time <= time => Some(h),
            None if self.len > 1 => None,
            _ => Some(Hint {
                bucket: idx,
                vb,
                time,
            }),
        };
    }

    /// Remove and return the minimum-keyed event, if any.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        self.pop_at_or_before(f64::INFINITY)
    }

    /// Remove and return the minimum-keyed event if its time is
    /// `<= horizon`; otherwise leave the queue untouched (and cache
    /// the found minimum so the next call is O(1)).
    pub fn pop_at_or_before(&mut self, horizon: f64) -> Option<(f64, u64, T)> {
        // The staged event, when present, is the global minimum.
        if let Some(s) = &self.stage {
            if s.time > horizon {
                return None;
            }
            let e = self.stage.take().expect("stage vanished during pop");
            return Some((e.time, e.seq, e.item));
        }
        if self.len == 0 {
            return None;
        }
        if let Some(h) = self.hint {
            if h.time > horizon {
                return None;
            }
            return Some(self.take_front(h.bucket, h.vb));
        }
        let mut vb = self.cur_vb;
        let mut scanned = 0usize;
        loop {
            let idx = vb as usize & self.mask;
            if let Some(front) = self.buckets[idx].front() {
                // The bucket front is its minimum; if it belongs to
                // the virtual bucket under the cursor it is the global
                // minimum (earlier events would have a smaller vb).
                if front.vb == vb {
                    if front.time > horizon {
                        self.cur_vb = vb;
                        self.hint = Some(Hint {
                            bucket: idx,
                            vb,
                            time: front.time,
                        });
                        return None;
                    }
                    return Some(self.take_front(idx, vb));
                }
            }
            vb = vb.wrapping_add(1);
            scanned += 1;
            if scanned > self.mask {
                // A whole calendar year without a hit: the remaining
                // events are sparse and far out. Find the minimum by
                // direct scan of the bucket heads.
                return self.direct_pop(horizon);
            }
        }
    }

    /// Time of the minimum-keyed event without removing it.
    pub fn min_time(&mut self) -> Option<f64> {
        if let Some(s) = &self.stage {
            return Some(s.time);
        }
        if self.len == 0 {
            return None;
        }
        // A bounded pop below every valid time never removes anything
        // but always leaves the minimum cached in the hint.
        let _ = self.pop_at_or_before(f64::NEG_INFINITY);
        self.hint.map(|h| h.time)
    }

    fn take_front(&mut self, idx: usize, vb: u64) -> (f64, u64, T) {
        let e = self.buckets[idx]
            .pop_front()
            .expect("hinted bucket is empty");
        self.len -= 1;
        self.cur_vb = vb;
        // If the next event shares the popped event's virtual bucket
        // it is the new global minimum: same-time batches drain O(1).
        self.hint = match self.buckets[idx].front() {
            Some(n) if n.vb == vb => Some(Hint {
                bucket: idx,
                vb,
                time: n.time,
            }),
            _ => None,
        };
        // Shrink only below one event per four buckets: with growth at
        // two per bucket this leaves a 8x hysteresis band, so an event
        // population that oscillates around a power-of-two boundary
        // (e.g. a fabric slot's delivery batch draining each slot time)
        // does not thrash grow/shrink resizes — and their allocations —
        // at a steady rate.
        let n = self.mask + 1;
        if self.len < n / 4 && n > MIN_BUCKETS {
            self.resize(n / 2);
        }
        (e.time, e.seq, e.item)
    }

    fn direct_pop(&mut self, horizon: f64) -> Option<(f64, u64, T)> {
        let mut best: Option<(usize, f64, u64, u64)> = None;
        for (idx, b) in self.buckets.iter().enumerate() {
            if let Some(f) = b.front() {
                let better = match best {
                    None => true,
                    Some((_, t, s, _)) => (f.time, f.seq) < (t, s),
                };
                if better {
                    best = Some((idx, f.time, f.seq, f.vb));
                }
            }
        }
        let (idx, time, _seq, vb) = best.expect("non-empty queue with empty buckets");
        self.cur_vb = vb;
        if time > horizon {
            self.hint = Some(Hint {
                bucket: idx,
                vb,
                time,
            });
            return None;
        }
        Some(self.take_front(idx, vb))
    }

    /// Rebuild with `new_n` logical buckets, re-estimating the bucket
    /// width from the current event population.
    ///
    /// Allocation-free in steady state: entries drain into a retained
    /// scratch buffer, the physical bucket vector only ever grows (a
    /// shrink leaves the tail buckets allocated-but-empty for the next
    /// grow to reuse), and the width estimate samples onto the stack.
    /// Resizing can never change pop order — that is a pure function
    /// of the `(time, seq)` keys — so this is byte-identity-safe.
    fn resize(&mut self, new_n: usize) {
        let mut all = std::mem::take(&mut self.resize_scratch);
        all.clear();
        all.reserve(self.len);
        for b in &mut self.buckets {
            all.extend(b.drain(..));
        }
        if let Some(w) = estimate_width(&all) {
            self.width = w;
            self.inv_width = 1.0 / w;
        }
        if self.buckets.len() < new_n {
            self.buckets.resize_with(new_n, VecDeque::new);
        }
        self.mask = new_n - 1;
        let mut min: Option<(f64, u64)> = None;
        for e in &all {
            let key = (e.time, e.seq);
            if min.is_none_or(|m| key < m) {
                min = Some(key);
            }
        }
        for mut e in all.drain(..) {
            e.vb = self.vb_of(e.time);
            let idx = e.vb as usize & self.mask;
            let bucket = &mut self.buckets[idx];
            let append = match bucket.back() {
                None => true,
                Some(b) => (b.time, b.seq) < (e.time, e.seq),
            };
            if append {
                bucket.push_back(e);
            } else {
                let at = bucket.partition_point(|x| (x.time, x.seq) < (e.time, e.seq));
                bucket.insert(at, e);
            }
        }
        self.hint = min.map(|(time, _)| {
            let vb = self.vb_of(time);
            Hint {
                bucket: vb as usize & self.mask,
                vb,
                time,
            }
        });
        self.cur_vb = self.hint.map_or(0, |h| h.vb);
        self.resize_scratch = all;
    }
}

/// Bucket width from the mean inter-event gap of a sample, or `None`
/// when the population gives no signal (fewer than two events, or
/// every sampled gap zero). The sample is the first `WIDTH_SAMPLE`
/// entries in bucket-drain order — an arbitrary but representative
/// slice of the population, chosen over a smallest-k selection so the
/// estimate fits in a stack buffer and resize stays allocation-free.
fn estimate_width<T>(all: &[Entry<T>]) -> Option<f64> {
    if all.len() < 2 {
        return None;
    }
    let sample = WIDTH_SAMPLE.min(all.len());
    let mut buf = [0.0f64; WIDTH_SAMPLE];
    for (slot, e) in buf.iter_mut().zip(all.iter()) {
        *slot = e.time;
    }
    let times = &mut buf[..sample];
    times.sort_unstable_by(f64::total_cmp);
    let mut sum = 0.0;
    let mut n = 0u32;
    for w in times.windows(2) {
        let gap = w[1] - w[0];
        if gap > 0.0 {
            sum += gap;
            n += 1;
        }
    }
    if n == 0 {
        return None;
    }
    // Twice the mean head gap targets ~2 events per bucket.
    Some((2.0 * sum / n as f64).max(f64::MIN_POSITIVE))
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
        // A dense cluster plus events years of bucket-widths away.
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
    fn interleaved_push_pop_with_resizes() {
        // Push enough to force growth, drain to force shrink, refill.
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
    fn oscillating_population_does_not_thrash_resizes() {
        // A population that swings across the grow threshold (like a
        // fabric slot's delivery batch draining every slot time) must
        // settle at one bucket count, not bounce grow/shrink forever.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut t = 0.0;
        for _ in 0..4 {
            while q.len() < 16 {
                t += 1e-6;
                q.push(t, seq, ());
                seq += 1;
            }
        }
        let settled = q.bucket_count();
        for _ in 0..200 {
            while q.len() > 7 {
                q.pop().unwrap();
            }
            while q.len() < 16 {
                t += 1e-6;
                q.push(t, seq, ());
                seq += 1;
            }
            assert_eq!(q.bucket_count(), settled, "resize thrash at seq {seq}");
        }
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
    fn push_below_cursor_is_found_first() {
        let mut q = CalendarQueue::new();
        for s in 0..64u64 {
            q.push(100.0 + s as f64, s, s);
        }
        // Advance the cursor past t=50, then push below it.
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
