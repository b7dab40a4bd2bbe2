//! The determinism contract of the event queue, checked by property:
//! over arbitrary interleavings of schedules and steps, the queue must
//! deliver exactly the `(time, seq)` sequence of an independent model —
//! a `Vec` kept in stable-sorted time order — including equal-time ties
//! (signed zeros among them), bounded pops against a horizon, pushes
//! below the last popped time, and far-future stragglers.

use dra_des::calendar::CalendarQueue;
use proptest::prelude::*;

/// Reference min-queue: pending `(time, seq)` pairs, stable-sorted by
/// time alone after every push. Pushes arrive in ascending `seq`, so
/// the sort's stability is what breaks time ties by `seq`, and `-0.0`
/// ties with `+0.0` because `partial_cmp` calls them equal.
#[derive(Default)]
struct SortedModel {
    pending: Vec<(f64, u64)>,
}

impl SortedModel {
    fn push(&mut self, time: f64, seq: u64) {
        self.pending.push((time, seq));
        self.pending
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    }
    fn min_time(&self) -> Option<f64> {
        self.pending.first().map(|&(t, _)| t)
    }
    fn pop(&mut self) -> Option<(f64, u64)> {
        (!self.pending.is_empty()).then(|| self.pending.remove(0))
    }
    fn pop_at_or_before(&mut self, horizon: f64) -> Option<(f64, u64)> {
        match self.min_time() {
            Some(t) if t <= horizon => self.pop(),
            _ => None,
        }
    }
}

/// Decode a generated `(regime, raw)` pair into an event time. The
/// regimes cover coarse grids full of exact ties (with both signed
/// zeros), dense clusters, far-future stragglers, and arbitrary
/// fractions.
fn time_of(regime: u32, raw: u32) -> f64 {
    match regime % 4 {
        0 => match raw % 9 {
            8 => -0.0,
            r => r as f64 * 0.5, // tie-heavy coarse grid, 0.0 included
        },
        1 => raw as f64 * 1e-6,            // dense cluster
        2 => 1e7 + (raw % 1000) as f64,    // far-future stragglers
        _ => raw as f64 / u32::MAX as f64, // arbitrary fractions
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical `(time, seq)` delivery for every interleaving of
    /// schedule/step/bounded-step, then a full drain.
    #[test]
    fn queue_delivers_sorted_model_order(
        ops in proptest::collection::vec((0u8..10, 0u32..4, any::<u32>()), 1..400),
    ) {
        let mut q = CalendarQueue::new();
        let mut model = SortedModel::default();
        let mut seq = 0u64;

        for (kind, regime, raw) in ops {
            match kind {
                // Weighted toward pushes so the queue actually grows.
                0..=5 => {
                    let t = time_of(regime, raw);
                    q.push(t, seq, seq);
                    model.push(t, seq);
                    seq += 1;
                }
                6..=8 => {
                    let got = q.pop().map(|(t, s, _)| (t, s));
                    prop_assert_eq!(got, model.pop());
                }
                _ => {
                    let horizon = time_of(regime, raw);
                    let got = q.pop_at_or_before(horizon).map(|(t, s, _)| (t, s));
                    prop_assert_eq!(got, model.pop_at_or_before(horizon));
                    prop_assert_eq!(q.min_time(), model.min_time());
                }
            }
            prop_assert_eq!(q.len(), model.pending.len());
        }
        // Full drain must agree to the last event.
        loop {
            let got = q.pop().map(|(t, s, _)| (t, s));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
        prop_assert!(q.is_empty());
    }
}

/// A `-0.0`/`+0.0` tie is one key: the events leave in `seq` order
/// whichever zero each was pushed with.
#[test]
fn signed_zero_tie_pops_in_seq_order() {
    let mut q = CalendarQueue::new();
    let mut model = SortedModel::default();
    for (seq, t) in [0.0, -0.0, 0.0, -0.0, 1.0, -0.0].into_iter().enumerate() {
        q.push(t, seq as u64, ());
        model.push(t, seq as u64);
    }
    let mut got = Vec::new();
    while let Some((t, s, ())) = q.pop() {
        assert_eq!(Some((t, s)), model.pop());
        got.push(s);
    }
    assert_eq!(got, [0, 1, 2, 3, 5, 4]);
}
