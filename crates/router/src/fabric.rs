//! The switching fabric: a cell-slotted crossbar with virtual output
//! queues (VOQs), an iSLIP-style iterative matching scheduler, and
//! redundant switching planes.
//!
//! The paper assumes the fabric is made fault-tolerant by plane
//! redundancy (Cisco 12000-style 1:4 — its Case 1), so the Markov
//! analysis treats it as always functional. The simulator still models
//! plane failures so that assumption can be stressed: losing more
//! planes than the spare pool degrades slot capacity proportionally;
//! losing all planes stops the fabric.
//!
//! # The bitmask arbiter
//!
//! Request state is kept as per-output occupancy bitmaps over inputs
//! (one bit per non-empty VOQ, maintained incrementally on
//! enqueue/dequeue), and the grant/accept phases select each
//! round-robin winner with a rotate + `trailing_zeros` scan over u64
//! words instead of an O(n) pointer walk — O(n·⌈n/64⌉) per iteration
//! with branch-free inner loops, which is what lets 128- and 256-port
//! faceoffs stay simulation-bound rather than arbitration-bound.
//! Cells live in a [`CellArena`]; the VOQs, the matcher, and
//! [`Crossbar::schedule_slot_handles`] shuffle 4-byte [`CellHandle`]s,
//! and a cell is only copied again when it leaves the fabric through
//! [`Crossbar::take_cell`].
//!
//! **Determinism contract**: the bitmask arbiter produces the
//! identical (time, seq) match order to the retained scalar reference
//! ([`crate::fabric_ref::ScalarCrossbar`]) at every port count —
//! including non-multiples of 64 — and leaves identical round-robin
//! pointer state. `tests/fabric_equivalence.rs` proves it by proptest
//! over random request matrices and pointer states.

pub use crate::arena::{CellArena, CellHandle};
use dra_net::sar::Cell;
use dra_telemetry as tm;
use std::collections::VecDeque;

#[inline]
fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1u64 << (i & 63);
}

#[inline]
fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] &= !(1u64 << (i & 63));
}

/// Set the low `n` bits (the valid port positions), clear the rest.
fn fill_ports(bits: &mut [u64], n: usize) {
    for w in bits.iter_mut() {
        *w = !0;
    }
    let tail = n & 63;
    if tail != 0 {
        *bits.last_mut().expect("n > 0 implies at least one word") = !0u64 >> (64 - tail);
    }
}

/// First set bit of `row & mask` in circular order from `start`
/// (positions `start, start+1, …, wrapping to start-1`). All set bits
/// must lie below the port count; `start` must too.
///
/// Single-word fast path: rotating the word right by `start` maps
/// position `p` to `(p - start) mod 64`, whose `trailing_zeros` is
/// exactly the circular distance — bit positions at and above the
/// port count are never set, so the rotation cannot surface a phantom
/// winner.
#[inline]
fn first_set_circular_masked(row: &[u64], mask: &[u64], start: usize) -> Option<usize> {
    if row.len() == 1 {
        let x = row[0] & mask[0];
        if x == 0 {
            return None;
        }
        let k = x.rotate_right(start as u32).trailing_zeros() as usize;
        return Some((start + k) & 63);
    }
    let w = row.len();
    let sw = start >> 6;
    let sb = start & 63;
    let head = row[sw] & mask[sw] & (!0u64 << sb);
    if head != 0 {
        return Some((sw << 6) + head.trailing_zeros() as usize);
    }
    let mut idx = sw;
    for _ in 1..=w {
        idx += 1;
        if idx == w {
            idx = 0;
        }
        let mut x = row[idx] & mask[idx];
        if idx == sw {
            // Wrapped all the way around: only the bits below `start`
            // in the starting word remain unexamined.
            x &= !(!0u64 << sb);
        }
        if x != 0 {
            return Some((idx << 6) + x.trailing_zeros() as usize);
        }
    }
    None
}

/// [`first_set_circular_masked`] without a mask (accept phase: a
/// grant row already contains only unmatched outputs).
#[inline]
fn first_set_circular(row: &[u64], start: usize) -> Option<usize> {
    if row.len() == 1 {
        let x = row[0];
        if x == 0 {
            return None;
        }
        let k = x.rotate_right(start as u32).trailing_zeros() as usize;
        return Some((start + k) & 63);
    }
    let w = row.len();
    let sw = start >> 6;
    let sb = start & 63;
    let head = row[sw] & (!0u64 << sb);
    if head != 0 {
        return Some((sw << 6) + head.trailing_zeros() as usize);
    }
    let mut idx = sw;
    for _ in 1..=w {
        idx += 1;
        if idx == w {
            idx = 0;
        }
        let mut x = row[idx];
        if idx == sw {
            x &= !(!0u64 << sb);
        }
        if x != 0 {
            return Some((idx << 6) + x.trailing_zeros() as usize);
        }
    }
    None
}

/// A crossbar fabric with per-(input, output) virtual output queues.
#[derive(Debug)]
pub struct Crossbar {
    n_ports: usize,
    /// u64 words per port bitmap: ⌈n_ports/64⌉.
    words: usize,
    arena: CellArena,
    /// Handle queues, input-major: `voq[input * n + output]`.
    voq: Vec<VecDeque<CellHandle>>,
    voq_capacity: usize,
    /// Per-output request bitmaps over inputs, output-major rows of
    /// `words` u64s: bit `i` of row `o` ⟺ VOQ (i, o) is non-empty.
    requests: Vec<u64>,
    /// Per-output grant pointer (iSLIP round-robin state).
    grant_ptr: Vec<usize>,
    /// Per-input accept pointer.
    accept_ptr: Vec<usize>,
    iterations: usize,
    planes_total: usize,
    planes_required: usize,
    planes_failed: usize,
    queued_cells: usize,
    /// Matching scratch, owned so a slot allocates nothing.
    /// Unmatched-input / unmatched-output bitmaps.
    avail_in: Vec<u64>,
    avail_out: Vec<u64>,
    /// Per-input bitmaps of outputs granting to it this iteration,
    /// input-major rows; zeroed as each row is consumed by accept.
    granted: Vec<u64>,
    /// Inputs holding at least one grant this iteration.
    granted_any: Vec<u64>,
    /// input -> output of the final matching.
    input_matched: Vec<usize>,
    /// Cells moved in the most recent [`Crossbar::schedule_slot`];
    /// that method returns a view into this buffer.
    transferred: Vec<Cell>,
}

impl Crossbar {
    /// Build a fabric for `n_ports` linecards.
    ///
    /// * `voq_capacity` — max cells per (input, output) VOQ.
    /// * `iterations` — iSLIP request/grant/accept rounds per slot.
    /// * `planes_total` / `planes_required` — e.g. (5, 4) models the
    ///   Cisco 12000's 1:4 plane redundancy.
    pub fn new(
        n_ports: usize,
        voq_capacity: usize,
        iterations: usize,
        planes_total: usize,
        planes_required: usize,
    ) -> Self {
        assert!(n_ports > 0 && voq_capacity > 0 && iterations > 0);
        assert!(planes_total >= planes_required && planes_required > 0);
        let words = words_for(n_ports);
        // Nothing is reserved up front: the arena and each VOQ grow
        // amortized to the occupancy the traffic actually reaches, and
        // steady state reuses that storage without allocating.
        Crossbar {
            n_ports,
            words,
            arena: CellArena::default(),
            voq: (0..n_ports * n_ports).map(|_| VecDeque::new()).collect(),
            voq_capacity,
            requests: vec![0; n_ports * words],
            grant_ptr: vec![0; n_ports],
            accept_ptr: vec![0; n_ports],
            iterations,
            planes_total,
            planes_required,
            planes_failed: 0,
            queued_cells: 0,
            avail_in: vec![0; words],
            avail_out: vec![0; words],
            granted: vec![0; n_ports * words],
            granted_any: vec![0; words],
            input_matched: vec![usize::MAX; n_ports],
            transferred: Vec::with_capacity(n_ports),
        }
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.n_ports
    }

    #[inline]
    fn voq_idx(&self, input: usize, output: usize) -> usize {
        input * self.n_ports + output
    }

    /// Cells currently queued across all VOQs.
    pub fn queued_cells(&self) -> usize {
        self.queued_cells
    }

    /// True when no cell is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.queued_cells == 0
    }

    /// Occupancy of one VOQ.
    pub fn voq_len(&self, input: usize, output: usize) -> usize {
        self.voq[self.voq_idx(input, output)].len()
    }

    /// The round-robin pointer state, `(grant, accept)`.
    pub fn pointers(&self) -> (&[usize], &[usize]) {
        (&self.grant_ptr, &self.accept_ptr)
    }

    /// Overwrite the round-robin pointer state (equivalence testing).
    pub fn set_pointers(&mut self, grant: &[usize], accept: &[usize]) {
        assert_eq!(grant.len(), self.n_ports);
        assert_eq!(accept.len(), self.n_ports);
        assert!(grant.iter().chain(accept).all(|&p| p < self.n_ports));
        self.grant_ptr.copy_from_slice(grant);
        self.accept_ptr.copy_from_slice(accept);
    }

    /// Fail one switching plane.
    pub fn fail_plane(&mut self) {
        if self.planes_failed < self.planes_total {
            self.planes_failed += 1;
        }
    }

    /// Repair one switching plane.
    pub fn repair_plane(&mut self) {
        self.planes_failed = self.planes_failed.saturating_sub(1);
    }

    /// Planes currently failed.
    pub fn planes_failed(&self) -> usize {
        self.planes_failed
    }

    /// Fraction of nominal slot capacity available:
    /// 1.0 while failures stay within the spare pool, then degrading
    /// proportionally, then 0.0 when no plane remains.
    pub fn capacity_fraction(&self) -> f64 {
        let active = self.planes_total - self.planes_failed;
        if active >= self.planes_required {
            1.0
        } else {
            active as f64 / self.planes_required as f64
        }
    }

    /// Is the fabric able to move any cells at all?
    pub fn operational(&self) -> bool {
        self.planes_failed < self.planes_total
    }

    /// Enqueue a cell into its VOQ.
    ///
    /// The cell is handed back as `Err` when it cannot be accepted —
    /// either its VOQ is full or it is addressed outside the fabric
    /// (`src_lc`/`dst_lc` ≥ [`Crossbar::n_ports`]). Misaddressed cells
    /// follow the overflow contract rather than panicking so a corrupt
    /// header injected by a fault scenario degrades into a countable
    /// drop instead of tearing down the whole simulation.
    pub fn enqueue(&mut self, cell: Cell) -> Result<(), Cell> {
        let (src, dst) = (cell.src_lc as usize, cell.dst_lc as usize);
        if src >= self.n_ports || dst >= self.n_ports {
            return Err(cell);
        }
        let idx = src * self.n_ports + dst;
        if self.voq[idx].len() >= self.voq_capacity {
            return Err(cell);
        }
        if self.voq[idx].is_empty() {
            let row = dst * self.words;
            set_bit(&mut self.requests[row..row + self.words], src);
        }
        let h = self.arena.alloc(cell);
        self.voq[idx].push_back(h);
        self.queued_cells += 1;
        Ok(())
    }

    /// Read a resident cell by handle (valid until
    /// [`Crossbar::take_cell`]).
    #[inline]
    pub fn cell(&self, h: CellHandle) -> &Cell {
        self.arena.get(h)
    }

    /// Move a transferred cell out of the fabric, releasing its arena
    /// slot. Every handle produced by
    /// [`Crossbar::schedule_slot_handles`] must be taken exactly once;
    /// a handle left untaken keeps its slot resident.
    #[inline]
    pub fn take_cell(&mut self, h: CellHandle) -> Cell {
        self.arena.take(h)
    }

    /// iSLIP matching for n ≤ 64: every bitmap is one machine word, so
    /// the whole phase state (unmatched inputs/outputs, who-granted-
    /// whom) lives in registers and both round-robin selections are a
    /// single rotate + `trailing_zeros` each.
    fn compute_matching_word(&mut self) {
        let n = self.n_ports;
        let ports = !0u64 >> (64 - n);
        let mut avail_in = ports;
        let mut avail_out = ports;
        self.input_matched.fill(usize::MAX);

        for iter in 0..self.iterations {
            let mut granted_any = 0u64;
            let mut outs = avail_out;
            while outs != 0 {
                let o = outs.trailing_zeros() as usize;
                outs &= outs - 1;
                let x = self.requests[o] & avail_in;
                if x != 0 {
                    let start = self.grant_ptr[o];
                    let k = x.rotate_right(start as u32).trailing_zeros() as usize;
                    let i = (start + k) & 63;
                    self.granted[i] |= 1u64 << o;
                    granted_any |= 1u64 << i;
                }
            }
            if granted_any == 0 {
                break;
            }
            let mut ins = granted_any;
            while ins != 0 {
                let i = ins.trailing_zeros() as usize;
                ins &= ins - 1;
                let row = self.granted[i];
                let start = self.accept_ptr[i];
                let k = row.rotate_right(start as u32).trailing_zeros() as usize;
                let o = (start + k) & 63;
                self.granted[i] = 0;
                self.input_matched[i] = o;
                avail_in &= !(1u64 << i);
                avail_out &= !(1u64 << o);
                if iter == 0 {
                    self.grant_ptr[o] = if i + 1 == n { 0 } else { i + 1 };
                    self.accept_ptr[i] = if o + 1 == n { 0 } else { o + 1 };
                }
            }
        }
    }

    /// iSLIP matching for n > 64: multi-word bitmaps with circular
    /// word-scans that stitch the wrap across word boundaries.
    fn compute_matching_wide(&mut self) {
        let n = self.n_ports;
        let w = self.words;
        fill_ports(&mut self.avail_in, n);
        fill_ports(&mut self.avail_out, n);
        self.input_matched.fill(usize::MAX);

        for iter in 0..self.iterations {
            // Grant phase: each unmatched output picks, round-robin
            // from its pointer, the first unmatched input with a cell
            // for it — one masked circular word-scan per output.
            self.granted_any.fill(0);
            let mut any_grant = false;
            for ow in 0..w {
                let mut outs = self.avail_out[ow];
                while outs != 0 {
                    let o = (ow << 6) + outs.trailing_zeros() as usize;
                    outs &= outs - 1;
                    let row = o * w;
                    if let Some(i) = first_set_circular_masked(
                        &self.requests[row..row + w],
                        &self.avail_in,
                        self.grant_ptr[o],
                    ) {
                        let grow = i * w;
                        set_bit(&mut self.granted[grow..grow + w], o);
                        set_bit(&mut self.granted_any, i);
                        any_grant = true;
                    }
                }
            }
            // Every grant goes to an unmatched input and each output
            // grants at most once, so per-input grant sets are disjoint
            // and every granted input will match below: no grants means
            // the matching cannot grow, exactly the scalar `any_match`
            // stop condition.
            if !any_grant {
                break;
            }
            // Accept phase: each granted input picks, round-robin from
            // its pointer, among the outputs that granted to it.
            for iw in 0..w {
                let mut ins = self.granted_any[iw];
                while ins != 0 {
                    let i = (iw << 6) + ins.trailing_zeros() as usize;
                    ins &= ins - 1;
                    let grow = i * w;
                    let o = first_set_circular(&self.granted[grow..grow + w], self.accept_ptr[i])
                        .expect("granted_any bit implies a grant");
                    self.granted[grow..grow + w].fill(0);
                    self.input_matched[i] = o;
                    clear_bit(&mut self.avail_in, i);
                    clear_bit(&mut self.avail_out, o);
                    if iter == 0 {
                        self.grant_ptr[o] = if i + 1 == n { 0 } else { i + 1 };
                        self.accept_ptr[i] = if o + 1 == n { 0 } else { o + 1 };
                    }
                }
            }
        }
    }

    /// Run the request/grant/accept iterations, leaving the result in
    /// `input_matched` (both variants share the determinism contract).
    #[inline]
    fn compute_matching(&mut self) {
        if self.words == 1 {
            self.compute_matching_word();
        } else {
            self.compute_matching_wide();
        }
    }

    /// Pop one matched VOQ head, keeping the request bitmap in sync
    /// with emptied queues.
    #[inline]
    fn pop_matched(&mut self, input: usize, output: usize) -> CellHandle {
        let q = &mut self.voq[input * self.n_ports + output];
        let h = q.pop_front().expect("matched VOQ is non-empty");
        if q.is_empty() {
            let row = output * self.words;
            clear_bit(&mut self.requests[row..row + self.words], input);
        }
        self.queued_cells -= 1;
        h
    }

    /// Run one slot of iSLIP matching and dequeue the matched cells,
    /// appending their handles to `out` (at most one per input and one
    /// per output, in ascending input order). The caller reads each
    /// winner through [`Crossbar::cell`] or claims it with
    /// [`Crossbar::take_cell`].
    ///
    /// Pointer updates follow the iSLIP rule: only first-iteration
    /// matches advance the round-robin pointers, which is what
    /// desynchronizes them under uniform load. The match order is
    /// bit-identical to [`crate::fabric_ref::ScalarCrossbar`] (see the
    /// module docs).
    pub fn schedule_slot_handles(&mut self, out: &mut Vec<CellHandle>) {
        if !self.operational() || self.queued_cells == 0 {
            return;
        }
        self.compute_matching();
        for input in 0..self.n_ports {
            let o = self.input_matched[input];
            if o != usize::MAX {
                let h = self.pop_matched(input, o);
                if tm::armed() {
                    tm::counter_add(tm::ids::ISLIP_GRANTS, 1);
                    tm::event(
                        tm::EventKind::IslipGrant,
                        self.arena.get(h).packet.0,
                        input as u32,
                        o as u32,
                    );
                }
                out.push(h);
            }
        }
    }

    /// Run one slot of iSLIP matching and dequeue the matched cells.
    ///
    /// By-value convenience over
    /// [`Crossbar::schedule_slot_handles`]: returns the cells
    /// transferred this slot as a borrow of a buffer the crossbar owns
    /// and reuses, so a slot allocates nothing. The view is valid
    /// until the next `schedule_slot` call; callers that need the
    /// cells across further `&mut` use copy them out first.
    pub fn schedule_slot(&mut self) -> &[Cell] {
        self.transferred.clear();
        if !self.operational() || self.queued_cells == 0 {
            return &self.transferred;
        }
        self.compute_matching();
        for input in 0..self.n_ports {
            let o = self.input_matched[input];
            if o != usize::MAX {
                let h = self.pop_matched(input, o);
                let cell = self.arena.take(h);
                self.transferred.push(cell);
            }
        }
        &self.transferred
    }
}

/// An idealized output-queued fabric, for comparison with the
/// iSLIP-scheduled [`Crossbar`].
///
/// Classic result: output queueing is the throughput/delay optimum but
/// needs N× internal speedup to move every arriving cell to its output
/// queue instantly; VOQ+iSLIP approximates it at speedup ~1–2. This
/// implementation grants the ideal (cells land in their output queue
/// on enqueue; each output drains one cell per slot), so benches can
/// show how close the crossbar gets. It shares the crossbar's arena +
/// occupancy-bitmap storage: a slot scans the non-empty-output bitmap
/// instead of every queue, and drains into a reused buffer.
#[derive(Debug)]
pub struct OutputQueuedFabric {
    n_ports: usize,
    arena: CellArena,
    queues: Vec<VecDeque<CellHandle>>,
    /// Bitmap of outputs with at least one queued cell.
    occupied: Vec<u64>,
    capacity: usize,
    queued: usize,
    /// Cells drained in the most recent slot; `schedule_slot` returns
    /// a view into this buffer.
    transferred: Vec<Cell>,
}

impl OutputQueuedFabric {
    /// A fabric for `n_ports` with per-output queue `capacity`.
    pub fn new(n_ports: usize, capacity: usize) -> Self {
        assert!(n_ports > 0 && capacity > 0);
        OutputQueuedFabric {
            n_ports,
            arena: CellArena::default(),
            queues: (0..n_ports).map(|_| VecDeque::new()).collect(),
            occupied: vec![0; words_for(n_ports)],
            capacity,
            queued: 0,
            transferred: Vec::with_capacity(n_ports),
        }
    }

    /// Number of ports.
    pub fn n_ports(&self) -> usize {
        self.n_ports
    }

    /// Cells queued across all outputs.
    pub fn queued_cells(&self) -> usize {
        self.queued
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Occupancy of one output queue.
    pub fn queue_len(&self, output: usize) -> usize {
        self.queues[output].len()
    }

    /// Enqueue straight into the destination's output queue; returns
    /// the cell on overflow.
    pub fn enqueue(&mut self, cell: Cell) -> Result<(), Cell> {
        let dst = cell.dst_lc as usize;
        if dst >= self.n_ports {
            return Err(cell);
        }
        if self.queues[dst].len() >= self.capacity {
            return Err(cell);
        }
        let h = self.arena.alloc(cell);
        self.queues[dst].push_back(h);
        set_bit(&mut self.occupied, dst);
        self.queued += 1;
        Ok(())
    }

    /// One slot: every non-empty output transmits its head-of-line
    /// cell. Returns a view into a reused buffer, valid until the next
    /// `schedule_slot` call.
    pub fn schedule_slot(&mut self) -> &[Cell] {
        self.transferred.clear();
        for wi in 0..self.occupied.len() {
            let mut bits = self.occupied[wi];
            while bits != 0 {
                let o = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let q = &mut self.queues[o];
                let h = q.pop_front().expect("occupied bit implies a cell");
                if q.is_empty() {
                    self.occupied[wi] &= !(1u64 << (o & 63));
                }
                self.queued -= 1;
                self.transferred.push(self.arena.take(h));
            }
        }
        &self.transferred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_net::packet::PacketId;

    fn cell(src: u16, dst: u16, id: u64, seq: u16, total: u16) -> Cell {
        Cell {
            src_lc: src,
            dst_lc: dst,
            packet: PacketId(id),
            seq,
            total,
            payload_bytes: 48,
        }
    }

    #[test]
    fn single_flow_fifo_order() {
        let mut xb = Crossbar::new(4, 64, 2, 5, 4);
        for s in 0..5 {
            xb.enqueue(cell(0, 1, 1, s, 5)).unwrap();
        }
        let mut seqs = Vec::new();
        while !xb.is_empty() {
            for c in xb.schedule_slot() {
                seqs.push(c.seq);
            }
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn one_match_per_input_and_output_per_slot() {
        let mut xb = Crossbar::new(4, 64, 3, 5, 4);
        // Every input has traffic for every output.
        for i in 0..4u16 {
            for o in 0..4u16 {
                for k in 0..4 {
                    xb.enqueue(cell(i, o, (i as u64) << 32 | o as u64, k, 4))
                        .unwrap();
                }
            }
        }
        let matched = xb.schedule_slot();
        assert!(matched.len() <= 4);
        let mut ins: Vec<u16> = matched.iter().map(|c| c.src_lc).collect();
        let mut outs: Vec<u16> = matched.iter().map(|c| c.dst_lc).collect();
        ins.sort_unstable();
        ins.dedup();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(ins.len(), matched.len(), "input matched twice");
        assert_eq!(outs.len(), matched.len(), "output matched twice");
    }

    #[test]
    fn uniform_backlog_reaches_full_throughput() {
        // With saturated uniform VOQs, iSLIP desynchronizes and should
        // sustain ~100% throughput (n matches per slot) after warmup.
        let n = 8;
        let mut xb = Crossbar::new(n, 10_000, 1, 1, 1);
        for i in 0..n as u16 {
            for o in 0..n as u16 {
                for k in 0..200 {
                    xb.enqueue(cell(
                        i,
                        o,
                        ((i as u64) << 40) | ((o as u64) << 20) | k,
                        0,
                        1,
                    ))
                    .unwrap();
                }
            }
        }
        // Warmup.
        for _ in 0..n {
            xb.schedule_slot();
        }
        let mut total = 0;
        let slots = 100;
        for _ in 0..slots {
            total += xb.schedule_slot().len();
        }
        assert!(
            total >= slots * n * 95 / 100,
            "throughput {total}/{} too low",
            slots * n
        );
    }

    #[test]
    fn head_of_line_contention_is_shared_fairly() {
        // Inputs 0 and 1 both send only to output 0: each should get
        // ~half the slots.
        let mut xb = Crossbar::new(2, 10_000, 1, 1, 1);
        for k in 0..100 {
            xb.enqueue(cell(0, 0, k, 0, 1)).unwrap();
            xb.enqueue(cell(1, 0, 1000 + k, 0, 1)).unwrap();
        }
        let mut from0 = 0;
        let mut from1 = 0;
        for _ in 0..100 {
            for c in xb.schedule_slot() {
                match c.src_lc {
                    0 => from0 += 1,
                    1 => from1 += 1,
                    _ => unreachable!(),
                }
            }
        }
        assert_eq!(from0 + from1, 100);
        assert!((45..=55).contains(&from0), "unfair split: {from0}/{from1}");
    }

    #[test]
    fn voq_overflow_returns_cell() {
        let mut xb = Crossbar::new(2, 2, 1, 1, 1);
        xb.enqueue(cell(0, 1, 1, 0, 3)).unwrap();
        xb.enqueue(cell(0, 1, 1, 1, 3)).unwrap();
        let rejected = xb.enqueue(cell(0, 1, 1, 2, 3));
        assert!(rejected.is_err());
        assert_eq!(xb.voq_len(0, 1), 2);
        assert_eq!(xb.queued_cells(), 2);
    }

    #[test]
    fn misaddressed_cell_is_rejected_not_panicked() {
        // A corrupt header pointing outside the fabric follows the
        // overflow contract: handed back as Err, state untouched.
        let mut xb = Crossbar::new(4, 16, 2, 5, 4);
        assert!(xb.enqueue(cell(4, 1, 1, 0, 1)).is_err(), "src out of range");
        assert!(xb.enqueue(cell(0, 9, 2, 0, 1)).is_err(), "dst out of range");
        assert_eq!(xb.queued_cells(), 0);
        // In-range traffic still flows.
        xb.enqueue(cell(3, 0, 3, 0, 1)).unwrap();
        assert_eq!(xb.queued_cells(), 1);
    }

    #[test]
    fn slot_buffer_is_reused_across_slots() {
        // The returned view is valid until the next slot; each call
        // reflects only that slot's transfers.
        let mut xb = Crossbar::new(2, 16, 1, 1, 1);
        xb.enqueue(cell(0, 1, 1, 0, 2)).unwrap();
        xb.enqueue(cell(0, 1, 1, 1, 2)).unwrap();
        assert_eq!(xb.schedule_slot().len(), 1);
        assert_eq!(xb.schedule_slot().len(), 1);
        assert!(
            xb.schedule_slot().is_empty(),
            "drained fabric moves nothing"
        );
    }

    #[test]
    fn handle_api_reads_then_takes() {
        // The handle API exposes each winner for inspection before the
        // caller claims it, and claims release arena slots.
        let mut xb = Crossbar::new(2, 16, 1, 1, 1);
        xb.enqueue(cell(0, 1, 7, 0, 1)).unwrap();
        xb.enqueue(cell(1, 0, 8, 0, 1)).unwrap();
        let mut handles = Vec::new();
        xb.schedule_slot_handles(&mut handles);
        assert_eq!(handles.len(), 2);
        let ids: Vec<u64> = handles.iter().map(|&h| xb.cell(h).packet.0).collect();
        assert_eq!(ids, vec![7, 8], "ascending input order");
        for h in handles.drain(..) {
            let c = xb.take_cell(h);
            assert!(c.packet.0 == 7 || c.packet.0 == 8);
        }
        assert!(xb.is_empty());
        xb.schedule_slot_handles(&mut handles);
        assert!(handles.is_empty(), "drained fabric matches nothing");
    }

    #[test]
    fn request_bitmaps_track_voq_occupancy() {
        // Enqueue/dequeue keep the request rows exactly in sync: after
        // draining, a fresh enqueue still schedules (a stale cleared
        // bit would starve the VOQ; a stale set bit would panic the
        // transfer pop).
        let mut xb = Crossbar::new(3, 8, 1, 1, 1);
        for round in 0..3 {
            xb.enqueue(cell(2, 1, 100 + round, 0, 1)).unwrap();
            let moved = xb.schedule_slot();
            assert_eq!(moved.len(), 1);
            assert_eq!(moved[0].packet.0, 100 + round);
            assert!(xb.is_empty());
        }
    }

    #[test]
    fn plane_redundancy_capacity_model() {
        let mut xb = Crossbar::new(4, 16, 1, 5, 4);
        assert_eq!(xb.capacity_fraction(), 1.0);
        xb.fail_plane(); // spare absorbs it
        assert_eq!(xb.capacity_fraction(), 1.0);
        assert!(xb.operational());
        xb.fail_plane(); // now 3 of 4 required
        assert_eq!(xb.capacity_fraction(), 0.75);
        xb.fail_plane();
        xb.fail_plane();
        xb.fail_plane(); // all 5 down
        assert!(!xb.operational());
        assert_eq!(xb.capacity_fraction(), 0.0);
        assert!(xb.schedule_slot().is_empty());
        xb.repair_plane();
        assert!(xb.operational());
        assert_eq!(xb.planes_failed(), 4);
    }

    #[test]
    fn empty_fabric_schedules_nothing() {
        let mut xb = Crossbar::new(4, 16, 2, 5, 4);
        assert!(xb.schedule_slot().is_empty());
        assert!(xb.is_empty());
    }

    #[test]
    fn non_word_multiple_port_count_wraps_correctly() {
        // 65 ports exercises the two-word circular scan: input 64
        // (word 1) and input 0 (word 0) contend for output 0, with the
        // grant pointer past both so the scan must wrap.
        let n = 65;
        let mut xb = Crossbar::new(n, 16, 1, 1, 1);
        xb.enqueue(cell(64, 0, 1, 0, 1)).unwrap();
        xb.enqueue(cell(0, 0, 2, 0, 1)).unwrap();
        let grant = vec![10; n]; // from 10: 64 comes before 0 (wrap)
        let accept = vec![0; n];
        xb.set_pointers(&grant, &accept);
        let first = xb.schedule_slot().to_vec();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].src_lc, 64, "circular order from 10 hits 64 first");
        let second = xb.schedule_slot().to_vec();
        assert_eq!(second[0].src_lc, 0);
        assert!(xb.is_empty());
    }

    // ---- output-queued comparison fabric ------------------------------

    #[test]
    fn oq_every_output_drains_each_slot() {
        let mut oq = OutputQueuedFabric::new(4, 64);
        // Three inputs all target output 0; one targets output 1.
        oq.enqueue(cell(0, 0, 1, 0, 1)).unwrap();
        oq.enqueue(cell(1, 0, 2, 0, 1)).unwrap();
        oq.enqueue(cell(2, 0, 3, 0, 1)).unwrap();
        oq.enqueue(cell(3, 1, 4, 0, 1)).unwrap();
        let s1_len = oq.schedule_slot().len();
        // One from output 0 plus one from output 1.
        assert_eq!(s1_len, 2);
        assert_eq!(oq.queued_cells(), 2);
        assert_eq!(oq.queue_len(0), 2);
    }

    #[test]
    fn oq_has_no_head_of_line_blocking() {
        // Permutation traffic: with one cell per distinct output, a
        // single slot clears everything (the crossbar would too here;
        // the difference shows under conflicting bursts, see bench).
        let mut oq = OutputQueuedFabric::new(8, 64);
        for i in 0..8u16 {
            oq.enqueue(cell(i, (i + 3) % 8, i as u64, 0, 1)).unwrap();
        }
        assert_eq!(oq.schedule_slot().len(), 8);
        assert!(oq.is_empty());
    }

    #[test]
    fn oq_overflow_returns_cell() {
        let mut oq = OutputQueuedFabric::new(2, 1);
        oq.enqueue(cell(0, 1, 1, 0, 1)).unwrap();
        assert!(oq.enqueue(cell(1, 1, 2, 0, 1)).is_err());
        assert_eq!(oq.queued_cells(), 1);
    }

    #[test]
    fn oq_fifo_per_output() {
        let mut oq = OutputQueuedFabric::new(2, 16);
        for k in 0..4 {
            oq.enqueue(cell(0, 1, k, 0, 1)).unwrap();
        }
        let mut seen = Vec::new();
        while !oq.is_empty() {
            for c in oq.schedule_slot() {
                seen.push(c.packet.0);
            }
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }
}
