//! A slab allocator for fabric cells.
//!
//! The crossbar's hot path moves the same [`Cell`] several times per
//! slot when cells live inline in the VOQ deques: enqueue copies it
//! in, the matched dequeue copies it out, and the caller copies it
//! again to release the fabric borrow. The arena stores each admitted
//! cell exactly once and hands out 4-byte [`CellHandle`]s; the
//! grant/accept/transfer machinery then shuffles handles, and the cell
//! itself is read back only when it actually leaves the fabric.
//!
//! Handles are plain indices into the slab, so they stay valid for the
//! cell's whole residency — the slab may reserve more memory as the
//! high-water mark rises (amortized, never in steady state), but a
//! slot index never changes once assigned. Freed slots are recycled
//! LIFO through an indexed freelist.

use dra_net::sar::Cell;

/// An opaque 4-byte ticket for a cell resident in a [`CellArena`].
///
/// Valid from [`CellArena::alloc`] until the matching
/// [`CellArena::take`]; using a handle after `take` (or a handle from
/// a different arena) yields an unrelated cell. The fabric is the only
/// issuer, and its slot contract (every returned handle is taken
/// exactly once) keeps that from arising.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellHandle(u32);

impl CellHandle {
    /// The slab index this handle refers to.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Fixed-slab cell storage with an indexed freelist.
///
/// `alloc` pops the freelist (or extends the slab while warming up to
/// the high-water mark), `take` copies the cell out and pushes the
/// slot back. Both are O(1); steady state performs no allocation.
#[derive(Debug, Default)]
pub struct CellArena {
    slots: Vec<Cell>,
    free: Vec<u32>,
}

impl CellArena {
    /// Cells currently resident.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no cell is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slab slots existing right now (resident + free).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Admit a cell; returns its handle.
    #[inline]
    pub fn alloc(&mut self, cell: Cell) -> CellHandle {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = cell;
                CellHandle(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("arena exceeds u32 handles");
                self.slots.push(cell);
                CellHandle(i)
            }
        }
    }

    /// Read a resident cell.
    #[inline]
    pub fn get(&self, h: CellHandle) -> &Cell {
        &self.slots[h.index()]
    }

    /// Remove a cell, recycling its slot.
    #[inline]
    pub fn take(&mut self, h: CellHandle) -> Cell {
        let cell = self.slots[h.index()];
        self.free.push(h.0);
        cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_net::packet::PacketId;

    fn cell(id: u64) -> Cell {
        Cell {
            src_lc: 0,
            dst_lc: 1,
            packet: PacketId(id),
            seq: 0,
            total: 1,
            payload_bytes: 48,
        }
    }

    #[test]
    fn alloc_take_roundtrip() {
        let mut a = CellArena::default();
        let h = a.alloc(cell(7));
        assert_eq!(a.len(), 1);
        assert_eq!(a.get(h).packet, PacketId(7));
        assert_eq!(a.take(h).packet, PacketId(7));
        assert!(a.is_empty());
    }

    #[test]
    fn freelist_exhaustion_grows_then_recycles() {
        // Grow the slab to a high-water mark, then free everything and
        // verify the freelist recycles slots instead of growing the
        // slab further.
        let mut a = CellArena::default();
        let handles: Vec<CellHandle> = (0..10).map(|k| a.alloc(cell(k))).collect();
        assert_eq!(a.len(), 10);
        assert_eq!(a.slot_count(), 10, "slab grew to the high-water mark");
        for (k, &h) in handles.iter().enumerate() {
            assert_eq!(a.take(h).packet, PacketId(k as u64));
        }
        assert!(a.is_empty());
        let reused: Vec<CellHandle> = (100..110).map(|k| a.alloc(cell(k))).collect();
        assert_eq!(a.slot_count(), 10, "recycled slots, no slab growth");
        // LIFO freelist: the last-freed slot is handed out first.
        assert_eq!(reused[0], *handles.last().unwrap());
        for (k, &h) in reused.iter().enumerate() {
            assert_eq!(a.get(h).packet, PacketId(100 + k as u64));
        }
    }

    #[test]
    fn interleaved_alloc_free_keeps_cells_apart() {
        let mut a = CellArena::default();
        let h1 = a.alloc(cell(1));
        let h2 = a.alloc(cell(2));
        a.take(h1);
        let h3 = a.alloc(cell(3));
        assert_eq!(h3.index(), h1.index(), "freed slot reused");
        assert_eq!(a.get(h2).packet, PacketId(2), "resident cell untouched");
        assert_eq!(a.get(h3).packet, PacketId(3));
    }
}
