//! Segmentation and reassembly (the SRU's data path).
//!
//! The crossbar fabric moves fixed-size cells, so the ingress SRU
//! segments each packet and the egress SRU reassembles it — exactly the
//! BDR/DRA structure in the paper (the EIB, by contrast, carries whole
//! packets, which the paper lists as one of the bus's advantages).
//!
//! Cells are ATM-like: 48 payload bytes under a 5-byte header, plus a
//! small internal tag. Only metadata travels in the simulator; the cell
//! count and byte overheads are what the fabric timing needs.
//!
//! The reassembler is allocation-free on the per-packet path: partial
//! packets live in a slot arena recycled through a LIFO freelist, and
//! the `(ingress, PacketId)` key maps to a slot through an
//! open-addressed, power-of-two index table with tombstone deletion.
//! Received-cell bitmaps are inline (`2 × u64`, enough for any packet
//! the traffic models emit) with a heap spill only for totals > 128.

use crate::packet::{Packet, PacketId};
use dra_telemetry as tm;

/// Payload bytes per fabric cell.
pub const CELL_PAYLOAD: u32 = 48;
/// Header bytes per fabric cell.
pub const CELL_HEADER: u32 = 5;
/// Total cell size on the fabric.
pub const CELL_BYTES: u32 = CELL_PAYLOAD + CELL_HEADER;

/// One fabric cell carrying a slice of a packet.
///
/// `Copy`: a cell is 16 bytes of plain metadata, and the fabric's
/// arena relies on moving cells out of slab slots by copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Source linecard index.
    pub src_lc: u16,
    /// Destination linecard index.
    pub dst_lc: u16,
    /// The packet this cell belongs to.
    pub packet: PacketId,
    /// Cell sequence number within the packet, from 0.
    pub seq: u16,
    /// Total number of cells in the packet.
    pub total: u16,
    /// Payload bytes actually used (< CELL_PAYLOAD only in the last cell).
    pub payload_bytes: u32,
}

impl Cell {
    /// Is this the last cell of its packet?
    #[inline]
    pub fn is_last(&self) -> bool {
        self.seq + 1 == self.total
    }
}

/// Number of cells needed for a packet of `ip_bytes`.
#[inline]
pub fn cells_for(ip_bytes: u32) -> u16 {
    ip_bytes.div_ceil(CELL_PAYLOAD).max(1) as u16
}

/// Iterator over the fabric cells of one packet, in sequence order.
///
/// Produced by [`segment_cells`]; lets the fabric enqueue a packet's
/// cell train without materializing a `Vec<Cell>` per packet.
#[derive(Debug, Clone)]
pub struct SegmentIter {
    src_lc: u16,
    dst_lc: u16,
    packet: PacketId,
    total: u16,
    seq: u16,
    remaining: u32,
}

impl Iterator for SegmentIter {
    type Item = Cell;

    #[inline]
    fn next(&mut self) -> Option<Cell> {
        if self.seq >= self.total {
            return None;
        }
        let payload = self.remaining.min(CELL_PAYLOAD);
        self.remaining -= payload;
        let cell = Cell {
            src_lc: self.src_lc,
            dst_lc: self.dst_lc,
            packet: self.packet,
            seq: self.seq,
            total: self.total,
            payload_bytes: payload,
        };
        self.seq += 1;
        Some(cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.total - self.seq) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SegmentIter {}

/// Segment a packet into fabric cells addressed `src_lc -> dst_lc`,
/// yielding the cells lazily (no allocation).
#[inline]
pub fn segment_cells(packet: &Packet, src_lc: u16, dst_lc: u16) -> SegmentIter {
    SegmentIter {
        src_lc,
        dst_lc,
        packet: packet.id,
        total: cells_for(packet.ip_bytes),
        seq: 0,
        remaining: packet.ip_bytes,
    }
}

/// Segment a packet into fabric cells addressed `src_lc -> dst_lc`.
pub fn segment(packet: &Packet, src_lc: u16, dst_lc: u16) -> Vec<Cell> {
    segment_cells(packet, src_lc, dst_lc).collect()
}

/// Reassembly error causes, counted by the egress metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassemblyError {
    /// A cell arrived for a packet whose earlier cells disagree on the
    /// total count (corruption or mis-routing).
    InconsistentTotal,
    /// The same (packet, seq) arrived twice.
    DuplicateCell,
    /// A cell's sequence number exceeds the advertised total.
    SeqOutOfRange,
}

/// Inline received-bitmap words per slot (128 cells; a 1500-byte
/// packet segments into 32).
const INLINE_WORDS: usize = 2;
const INLINE_CELLS: u16 = (INLINE_WORDS * 64) as u16;

/// Index-table sentinel: bucket never used.
const EMPTY: u32 = u32::MAX;
/// Index-table sentinel: bucket vacated by a deletion (probing must
/// continue past it, but inserts may reuse it).
const TOMBSTONE: u32 = u32::MAX - 1;

/// Per-packet reassembly state, recycled through the slot freelist.
#[derive(Debug)]
struct Slot {
    src_lc: u16,
    packet: PacketId,
    total: u16,
    count: u16,
    bytes: u32,
    first_seen_at: f64,
    /// Received-cell bitmap for `total <= INLINE_CELLS` (the common
    /// case; no heap traffic on the per-packet path).
    received: [u64; INLINE_WORDS],
    /// Spill bitmap, used instead of `received` when `total` needs
    /// more than `INLINE_CELLS` bits.
    overflow: Vec<u64>,
}

impl Slot {
    /// Test-and-set the bit for `seq`; returns whether it was already set.
    #[inline]
    fn mark(&mut self, seq: u16) -> bool {
        let words: &mut [u64] = if self.overflow.is_empty() {
            &mut self.received
        } else {
            &mut self.overflow
        };
        let w = (seq / 64) as usize;
        let bit = 1u64 << (seq % 64);
        let dup = words[w] & bit != 0;
        words[w] |= bit;
        dup
    }
}

/// Egress-side reassembler keyed by (source linecard, packet id).
///
/// Tolerates arbitrary interleaving across packets and out-of-order
/// cells within a packet. Stale partial packets (whose remaining cells
/// were dropped upstream, e.g. by a failed linecard) are reclaimed by
/// [`Reassembler::purge_older_than`].
///
/// Internally an open-addressed slot table: steady-state `push` does
/// no allocation (slots recycle through a freelist, the bitmap is
/// inline) and completion/poison removal is O(1) via tombstones.
#[derive(Debug)]
pub struct Reassembler {
    /// Open-addressed bucket array of slot ids (power-of-two length).
    index: Vec<u32>,
    slots: Vec<Slot>,
    /// LIFO freelist of vacated `slots` entries.
    free: Vec<u32>,
    /// Partial packets currently resident.
    live: usize,
    /// TOMBSTONE buckets in `index` (cleared on rehash).
    tombstones: usize,
}

impl Default for Reassembler {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 finalizer over the (src_lc, packet) key.
#[inline]
fn slot_hash(src_lc: u16, packet: PacketId) -> u64 {
    let mut z = packet
        .0
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(src_lc as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Reassembler {
    const INITIAL_BUCKETS: usize = 16;

    /// Empty reassembler.
    pub fn new() -> Self {
        Self {
            index: vec![EMPTY; Self::INITIAL_BUCKETS],
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            tombstones: 0,
        }
    }

    /// Number of packets currently partially assembled.
    pub fn in_flight(&self) -> usize {
        self.live
    }

    /// Locate the bucket holding `(src_lc, packet)`, if resident.
    #[inline]
    fn find(&self, src_lc: u16, packet: PacketId) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut pos = slot_hash(src_lc, packet) as usize & mask;
        loop {
            match self.index[pos] {
                EMPTY => return None,
                TOMBSTONE => {}
                id => {
                    let s = &self.slots[id as usize];
                    if s.src_lc == src_lc && s.packet == packet {
                        return Some(pos);
                    }
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Vacate `bucket`, returning its slot to the freelist.
    #[inline]
    fn release(&mut self, bucket: usize) {
        let id = self.index[bucket];
        debug_assert!(id != EMPTY && id != TOMBSTONE);
        self.index[bucket] = TOMBSTONE;
        self.tombstones += 1;
        self.free.push(id);
        self.live -= 1;
    }

    /// Grow (or just de-tombstone) the index and reinsert live slots.
    fn rehash(&mut self, min_buckets: usize) {
        let buckets = min_buckets.next_power_of_two().max(Self::INITIAL_BUCKETS);
        let old = std::mem::replace(&mut self.index, vec![EMPTY; buckets]);
        self.tombstones = 0;
        let mask = buckets - 1;
        for id in old {
            if id == EMPTY || id == TOMBSTONE {
                continue;
            }
            let s = &self.slots[id as usize];
            let mut pos = slot_hash(s.src_lc, s.packet) as usize & mask;
            while self.index[pos] != EMPTY {
                pos = (pos + 1) & mask;
            }
            self.index[pos] = id;
        }
    }

    /// Insert a fresh slot for `(src_lc, packet)`; returns its bucket.
    fn insert_slot(&mut self, src_lc: u16, packet: PacketId, total: u16, now: f64) -> usize {
        // Keep load factor (live + tombstones) under 3/4.
        if (self.live + self.tombstones + 1) * 4 > self.index.len() * 3 {
            self.rehash(self.index.len() * 2);
        }
        let overflow = if total > INLINE_CELLS {
            vec![0u64; total.div_ceil(64) as usize]
        } else {
            Vec::new()
        };
        let id = match self.free.pop() {
            Some(id) => {
                let s = &mut self.slots[id as usize];
                s.src_lc = src_lc;
                s.packet = packet;
                s.total = total;
                s.count = 0;
                s.bytes = 0;
                s.first_seen_at = now;
                s.received = [0; INLINE_WORDS];
                s.overflow = overflow;
                id
            }
            None => {
                self.slots.push(Slot {
                    src_lc,
                    packet,
                    total,
                    count: 0,
                    bytes: 0,
                    first_seen_at: now,
                    received: [0; INLINE_WORDS],
                    overflow,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let mask = self.index.len() - 1;
        let mut pos = slot_hash(src_lc, packet) as usize & mask;
        loop {
            match self.index[pos] {
                EMPTY => break,
                TOMBSTONE => {
                    self.tombstones -= 1;
                    break;
                }
                _ => pos = (pos + 1) & mask,
            }
        }
        self.index[pos] = id;
        self.live += 1;
        pos
    }

    /// Accept one cell at simulation time `now`.
    ///
    /// Returns `Ok(Some((packet_id, bytes)))` when this cell completes
    /// its packet, `Ok(None)` when more cells are pending.
    pub fn push(
        &mut self,
        cell: &Cell,
        now: f64,
    ) -> Result<Option<(PacketId, u32)>, ReassemblyError> {
        if cell.seq >= cell.total {
            return Err(ReassemblyError::SeqOutOfRange);
        }
        let bucket = match self.find(cell.src_lc, cell.packet) {
            Some(b) => b,
            None => self.insert_slot(cell.src_lc, cell.packet, cell.total, now),
        };
        let slot = &mut self.slots[self.index[bucket] as usize];
        if slot.total != cell.total {
            // Totals disagree: drop the whole partial, it is poisoned.
            self.release(bucket);
            return Err(ReassemblyError::InconsistentTotal);
        }
        if slot.mark(cell.seq) {
            return Err(ReassemblyError::DuplicateCell);
        }
        slot.count += 1;
        slot.bytes += cell.payload_bytes;
        if slot.count == cell.total {
            let bytes = slot.bytes;
            self.release(bucket);
            if tm::armed() {
                tm::counter_add(tm::ids::PACKETS_REASSEMBLED, 1);
                tm::event(
                    tm::EventKind::Reassembly,
                    cell.packet.0,
                    cell.src_lc as u32,
                    bytes,
                );
            }
            Ok(Some((cell.packet, bytes)))
        } else {
            Ok(None)
        }
    }

    /// Drop partial packets first seen before `cutoff`; returns how many
    /// were reclaimed (counted as reassembly-timeout losses).
    pub fn purge_older_than(&mut self, cutoff: f64) -> usize {
        let mut purged = 0;
        for bucket in 0..self.index.len() {
            let id = self.index[bucket];
            if id == EMPTY || id == TOMBSTONE {
                continue;
            }
            if self.slots[id as usize].first_seen_at < cutoff {
                self.release(bucket);
                purged += 1;
            }
        }
        purged
    }

    /// Like [`Reassembler::purge_older_than`] but returns the purged
    /// `(src_lc, packet_id)` keys so the caller can reconcile its own
    /// in-flight bookkeeping.
    pub fn purge_collect(&mut self, cutoff: f64) -> Vec<(u16, PacketId)> {
        let mut stale = Vec::new();
        for bucket in 0..self.index.len() {
            let id = self.index[bucket];
            if id == EMPTY || id == TOMBSTONE {
                continue;
            }
            let s = &self.slots[id as usize];
            if s.first_seen_at < cutoff {
                stale.push((s.src_lc, s.packet));
                self.release(bucket);
            }
        }
        stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;
    use crate::protocol::ProtocolKind;
    use proptest::prelude::*;

    fn packet(id: u64, bytes: u32) -> Packet {
        Packet::new(
            PacketId(id),
            Ipv4Addr(1),
            Ipv4Addr(2),
            bytes,
            ProtocolKind::Ethernet,
            0.0,
        )
    }

    #[test]
    fn cell_count_boundaries() {
        assert_eq!(cells_for(1), 1);
        assert_eq!(cells_for(48), 1);
        assert_eq!(cells_for(49), 2);
        assert_eq!(cells_for(96), 2);
        assert_eq!(cells_for(1500), 32);
    }

    #[test]
    fn segment_preserves_bytes_and_order() {
        let p = packet(7, 100);
        let cells = segment(&p, 0, 3);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells.iter().map(|c| c.payload_bytes).sum::<u32>(), 100);
        assert_eq!(cells[0].payload_bytes, 48);
        assert_eq!(cells[2].payload_bytes, 4);
        assert!(cells[2].is_last());
        assert!(!cells[0].is_last());
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.seq as usize, i);
            assert_eq!(c.total, 3);
            assert_eq!((c.src_lc, c.dst_lc), (0, 3));
        }
    }

    #[test]
    fn segment_cells_iterator_matches_segment() {
        for bytes in [1u32, 47, 48, 49, 100, 1500] {
            let p = packet(11, bytes);
            let eager = segment(&p, 2, 5);
            let iter = segment_cells(&p, 2, 5);
            assert_eq!(iter.len(), eager.len());
            let lazy: Vec<Cell> = iter.collect();
            assert_eq!(lazy, eager, "bytes={bytes}");
        }
    }

    #[test]
    fn reassembly_in_order() {
        let p = packet(1, 120);
        let cells = segment(&p, 0, 1);
        let mut r = Reassembler::new();
        for (i, c) in cells.iter().enumerate() {
            let out = r.push(c, 0.0).unwrap();
            if i + 1 == cells.len() {
                assert_eq!(out, Some((PacketId(1), 120)));
            } else {
                assert_eq!(out, None);
            }
        }
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn reassembly_out_of_order_and_interleaved() {
        let pa = packet(1, 100);
        let pb = packet(2, 100);
        let ca = segment(&pa, 0, 1);
        let cb = segment(&pb, 3, 1);
        let mut r = Reassembler::new();
        // Interleave, reversed within each packet.
        assert_eq!(r.push(&ca[2], 0.0).unwrap(), None);
        assert_eq!(r.push(&cb[2], 0.0).unwrap(), None);
        assert_eq!(r.push(&ca[1], 0.0).unwrap(), None);
        assert_eq!(r.push(&cb[1], 0.0).unwrap(), None);
        assert_eq!(r.in_flight(), 2);
        assert_eq!(r.push(&ca[0], 0.0).unwrap(), Some((PacketId(1), 100)));
        assert_eq!(r.push(&cb[0], 0.0).unwrap(), Some((PacketId(2), 100)));
    }

    #[test]
    fn same_packet_id_from_different_sources_kept_apart() {
        let p = packet(9, 60);
        let from0 = segment(&p, 0, 1);
        let from1 = segment(&p, 1, 1);
        let mut r = Reassembler::new();
        assert_eq!(r.push(&from0[0], 0.0).unwrap(), None);
        assert_eq!(r.push(&from1[0], 0.0).unwrap(), None);
        assert_eq!(r.in_flight(), 2);
    }

    #[test]
    fn duplicate_cell_rejected() {
        let p = packet(1, 100);
        let cells = segment(&p, 0, 1);
        let mut r = Reassembler::new();
        r.push(&cells[0], 0.0).unwrap();
        assert_eq!(r.push(&cells[0], 0.0), Err(ReassemblyError::DuplicateCell));
    }

    #[test]
    fn inconsistent_total_poisons_partial() {
        let p = packet(1, 100);
        let cells = segment(&p, 0, 1);
        let mut r = Reassembler::new();
        r.push(&cells[0], 0.0).unwrap();
        let mut bad = cells[1];
        bad.total = 9;
        assert_eq!(r.push(&bad, 0.0), Err(ReassemblyError::InconsistentTotal));
        assert_eq!(r.in_flight(), 0, "poisoned partial must be dropped");
    }

    #[test]
    fn seq_out_of_range_rejected() {
        let p = packet(1, 100);
        let mut bad = segment(&p, 0, 1)[0];
        bad.seq = bad.total;
        let mut r = Reassembler::new();
        assert_eq!(r.push(&bad, 0.0), Err(ReassemblyError::SeqOutOfRange));
    }

    #[test]
    fn purge_reclaims_stale_partials() {
        let pa = packet(1, 100);
        let pb = packet(2, 100);
        let mut r = Reassembler::new();
        r.push(&segment(&pa, 0, 1)[0], 1.0).unwrap();
        r.push(&segment(&pb, 0, 1)[0], 5.0).unwrap();
        assert_eq!(r.purge_older_than(2.0), 1);
        assert_eq!(r.in_flight(), 1);
    }

    #[test]
    fn purge_collect_returns_stale_keys() {
        let mut r = Reassembler::new();
        for id in 0..6u64 {
            let p = packet(id, 100);
            r.push(&segment(&p, (id % 3) as u16, 1)[0], id as f64)
                .unwrap();
        }
        let mut stale = r.purge_collect(3.0);
        stale.sort();
        let expect: Vec<(u16, PacketId)> = (0..3u64)
            .map(|id| ((id % 3) as u16, PacketId(id)))
            .collect();
        assert_eq!(stale, expect);
        assert_eq!(r.in_flight(), 3);
        assert_eq!(r.purge_collect(0.0), vec![]);
    }

    #[test]
    fn slots_recycle_through_freelist() {
        let mut r = Reassembler::new();
        // Complete many single-cell packets; the arena should stay at
        // one slot rather than growing per packet.
        for id in 0..1000u64 {
            let p = packet(id, 40);
            let c = segment(&p, 0, 1);
            assert_eq!(r.push(&c[0], 0.0).unwrap(), Some((PacketId(id), 40)));
        }
        assert_eq!(r.in_flight(), 0);
        assert_eq!(r.slots.len(), 1, "completed slots must be reused");
    }

    #[test]
    fn index_survives_growth_and_heavy_churn() {
        let mut r = Reassembler::new();
        // Open 200 two-cell partials, then finish them in reverse.
        let packets: Vec<Packet> = (0..200u64).map(|id| packet(id, 96)).collect();
        for p in &packets {
            assert_eq!(r.push(&segment(p, 0, 1)[0], 0.0).unwrap(), None);
        }
        assert_eq!(r.in_flight(), 200);
        for p in packets.iter().rev() {
            let done = r.push(&segment(p, 0, 1)[1], 0.0).unwrap();
            assert_eq!(done, Some((p.id, 96)));
        }
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn oversized_total_uses_overflow_bitmap() {
        // total = 200 > 128 inline bits: exercise the spill path.
        let mut r = Reassembler::new();
        let total = 200u16;
        for seq in (0..total).rev() {
            let c = Cell {
                src_lc: 0,
                dst_lc: 1,
                packet: PacketId(42),
                seq,
                total,
                payload_bytes: 48,
            };
            let out = r.push(&c, 0.0).unwrap();
            if seq == 0 {
                assert_eq!(out, Some((PacketId(42), 48 * total as u32)));
            } else {
                assert_eq!(out, None);
            }
        }
        assert_eq!(r.in_flight(), 0);
    }

    proptest! {
        #[test]
        fn any_permutation_reassembles(bytes in 20u32..1500, seed in 0u64..1000) {
            let p = packet(1, bytes);
            let mut cells = segment(&p, 0, 1);
            // Deterministic shuffle.
            let mut s = seed | 1;
            for i in (1..cells.len()).rev() {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                cells.swap(i, (s as usize) % (i + 1));
            }
            let mut r = Reassembler::new();
            let mut done = None;
            for c in &cells {
                if let Some(d) = r.push(c, 0.0).unwrap() {
                    done = Some(d);
                }
            }
            prop_assert_eq!(done, Some((PacketId(1), bytes.clamp(20, 1500))));
            prop_assert_eq!(r.in_flight(), 0);
        }

        #[test]
        fn segmentation_byte_conservation(bytes in 20u32..1500) {
            let p = packet(1, bytes);
            let cells = segment(&p, 2, 4);
            let total: u32 = cells.iter().map(|c| c.payload_bytes).sum();
            prop_assert_eq!(total, p.ip_bytes);
            prop_assert_eq!(cells.len(), cells_for(p.ip_bytes) as usize);
            // All but the last cell are full.
            for c in &cells[..cells.len() - 1] {
                prop_assert_eq!(c.payload_bytes, CELL_PAYLOAD);
            }
        }
    }
}
