//! Longest-prefix-match forwarding tables (the LFE's core data
//! structure).
//!
//! Three implementations behind the [`Fib`] trait:
//!
//! * [`LinearFib`] — the obviously-correct reference: a flat list
//!   scanned for the longest covering prefix. Used as the oracle in
//!   property tests and for tiny tables.
//! * [`TrieFib`] — a binary trie, one bit per level. Updates are O(32);
//!   retained as an executable spec of LPM semantics.
//! * [`Dir248Fib`] — a DIR-24-8-style compiled table: a flat array
//!   indexed by the top 24 address bits, sized to the window of /24s
//!   its routes touch, plus 256-entry spill blocks for /25–/32 routes.
//!   One or two loads per lookup, a batched
//!   [`Dir248Fib::lookup_batch`] API for the ingress hot path, and
//!   *incremental* updates. This is what the simulators' linecards
//!   run.
//!
//! Next hops are `u16` egress linecard indices — all the router
//! simulator needs.

use crate::addr::{Ipv4Addr, Ipv4Prefix};
use std::collections::HashMap;

/// A longest-prefix-match table mapping prefixes to next hops.
///
/// ```
/// use dra_net::fib::{Fib, TrieFib};
///
/// let mut fib = TrieFib::new();
/// fib.insert("10.0.0.0/8".parse().unwrap(), 1);
/// fib.insert("10.1.0.0/16".parse().unwrap(), 2);
///
/// // The longest matching prefix wins.
/// assert_eq!(fib.lookup("10.1.2.3".parse().unwrap()), Some(2));
/// assert_eq!(fib.lookup("10.9.9.9".parse().unwrap()), Some(1));
/// assert_eq!(fib.lookup("11.0.0.1".parse().unwrap()), None);
/// ```
pub trait Fib {
    /// Insert (or replace) a route; returns the previous next hop.
    fn insert(&mut self, prefix: Ipv4Prefix, next_hop: u16) -> Option<u16>;

    /// Remove a route; returns its next hop if present.
    fn remove(&mut self, prefix: Ipv4Prefix) -> Option<u16>;

    /// Longest-prefix-match lookup.
    fn lookup(&self, addr: Ipv4Addr) -> Option<u16>;

    /// Number of routes installed.
    fn len(&self) -> usize;

    /// True when no routes are installed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// LinearFib
// ---------------------------------------------------------------------------

/// Reference implementation: linear scan for the longest covering prefix.
#[derive(Debug, Default, Clone)]
pub struct LinearFib {
    routes: Vec<(Ipv4Prefix, u16)>,
}

impl LinearFib {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Fib for LinearFib {
    fn insert(&mut self, prefix: Ipv4Prefix, next_hop: u16) -> Option<u16> {
        for (p, nh) in &mut self.routes {
            if *p == prefix {
                return Some(std::mem::replace(nh, next_hop));
            }
        }
        self.routes.push((prefix, next_hop));
        None
    }

    fn remove(&mut self, prefix: Ipv4Prefix) -> Option<u16> {
        let pos = self.routes.iter().position(|(p, _)| *p == prefix)?;
        Some(self.routes.swap_remove(pos).1)
    }

    fn lookup(&self, addr: Ipv4Addr) -> Option<u16> {
        self.routes
            .iter()
            .filter(|(p, _)| p.contains(addr))
            .max_by_key(|(p, _)| p.len())
            .map(|&(_, nh)| nh)
    }

    fn len(&self) -> usize {
        self.routes.len()
    }
}

// ---------------------------------------------------------------------------
// TrieFib
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct TrieNode {
    children: [Option<Box<TrieNode>>; 2],
    next_hop: Option<u16>,
}

impl TrieNode {
    fn is_leafless(&self) -> bool {
        self.next_hop.is_none() && self.children[0].is_none() && self.children[1].is_none()
    }
}

/// Binary (unibit) trie FIB.
#[derive(Debug, Default)]
pub struct TrieFib {
    root: TrieNode,
    len: usize,
}

impl TrieFib {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Remove along the bit path, pruning empty branches on the way out.
    fn remove_rec(node: &mut TrieNode, prefix: Ipv4Prefix, depth: u8) -> Option<u16> {
        if depth == prefix.len() {
            return node.next_hop.take();
        }
        let bit = prefix.addr().bit(depth) as usize;
        let child = node.children[bit].as_mut()?;
        let removed = Self::remove_rec(child, prefix, depth + 1);
        if removed.is_some() && child.is_leafless() {
            node.children[bit] = None;
        }
        removed
    }
}

impl Fib for TrieFib {
    fn insert(&mut self, prefix: Ipv4Prefix, next_hop: u16) -> Option<u16> {
        let mut node = &mut self.root;
        for depth in 0..prefix.len() {
            let bit = prefix.addr().bit(depth) as usize;
            node = node.children[bit].get_or_insert_with(Default::default);
        }
        let old = node.next_hop.replace(next_hop);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn remove(&mut self, prefix: Ipv4Prefix) -> Option<u16> {
        let removed = Self::remove_rec(&mut self.root, prefix, 0);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn lookup(&self, addr: Ipv4Addr) -> Option<u16> {
        let mut best = self.root.next_hop;
        let mut node = &self.root;
        for depth in 0..32 {
            let bit = addr.bit(depth) as usize;
            match &node.children[bit] {
                Some(child) => {
                    node = child;
                    if node.next_hop.is_some() {
                        best = node.next_hop;
                    }
                }
                None => break,
            }
        }
        best
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// Dir248Fib
// ---------------------------------------------------------------------------

/// Entry flag: the entry holds a valid `(next_hop, prefix_len)` route.
const DIR_VALID: u32 = 1 << 31;
/// Base-entry flag: the entry is a pointer into the spill-block arena.
const DIR_SPILL: u32 = 1 << 30;
/// Low bits carrying a spill-block index (or the route payload).
const DIR_PAYLOAD: u32 = (1 << 24) - 1;
/// Bit offset of the prefix length inside a valid entry.
const DIR_PLEN_SHIFT: u32 = 16;
/// Routes this long or shorter live in the 256-entry `/8` table.
const SHORT_MAX_LEN: u8 = 8;
/// Routes up to this length live in the base array.
const BASE_MAX_LEN: u8 = 24;
/// Size of the /24 index space the base window lives in.
const BASE_SPACE: usize = 1 << BASE_MAX_LEN;

/// Spill-block budget. 2^16 blocks (one per /24 that holds a route
/// longer than /24) caps spill memory at 64 MiB — far beyond any table
/// the simulators or benches build, and hit only by a hostile
/// workload, which should fail loudly rather than grow without bound.
const DIR248_SPILL_BUDGET_BLOCKS: usize = 1 << 16;

#[inline]
fn dir_encode(next_hop: u16, plen: u8) -> u32 {
    DIR_VALID | ((plen as u32) << DIR_PLEN_SHIFT) | next_hop as u32
}

#[inline]
fn dir_plen(entry: u32) -> u8 {
    ((entry >> DIR_PLEN_SHIFT) & 0x3F) as u8
}

/// One 256-entry spill block: the low-byte expansion of a `/24` that
/// contains at least one route longer than /24.
#[derive(Debug, Clone)]
struct SpillBlock {
    /// Best route per low-byte value, same encoding as base entries
    /// (never a spill pointer). An empty entry falls through to the
    /// short-route table, exactly like an empty base entry.
    entries: [u32; 256],
    /// Number of installed routes with length ≥ 25 expanded into this
    /// block; when it returns to zero the block collapses back into a
    /// single base entry and is recycled through the freelist.
    long_routes: u32,
}

/// DIR-24-8-style compiled LPM table.
///
/// Layout (the classic hardware split, scaled to this simulator's /32
/// IPv4 space):
///
/// * `base` — `u32` entries indexed by the top 24 address bits, held
///   as a contiguous window `[base_lo, base_lo + base.len())` of the
///   2^24 /24 indices. An entry is either empty, a packed
///   `(next_hop, prefix_len)` for the best route of length 9–24
///   covering that /24, or a pointer to a spill block. The window
///   starts empty and grows (at least doubling, clamped to the index
///   space) when an insert lands outside it; a /24 outside the window
///   reads as an empty entry. A table that spans the whole space ends
///   up with the full 2^24-entry array.
/// * spill blocks — 256 entries indexed by the low byte, for /24s that
///   contain at least one route longer than /24. Blocks come from an
///   indexed arena with a LIFO freelist (the fabric's cell-arena
///   idiom) and collapse back to a direct entry when their last long
///   route is withdrawn.
/// * `short8` — 256 entries indexed by the top byte for routes of
///   length 0–8, so a /0 or /1 route costs 256 writes instead of
///   millions of base-array writes. Base/spill entries always beat it
///   (their routes are strictly longer), so lookup consults it only on
///   a base/spill miss.
///
/// Updates are **incremental**: an insert expands the route over its
/// covered entries (longer-prefix-wins), a removal rewrites only the
/// entries the route owns, backfilling them with the longest surviving
/// ancestor found by probing the authoritative store at each shorter
/// length (≤ 32 hash probes). No rebuild, ever — route churn while
/// traffic flows is exactly the regime the faceoff campaigns simulate.
///
/// A lookup is one bounds compare plus one or two dependent loads
/// ([`Dir248Fib::lookup_batch`] overlaps them across independent
/// addresses). Memory follows the routes: a table of N consecutive
/// /24s (the network layer's per-node tables) holds an N-entry window.
pub struct Dir248Fib {
    base: Vec<u32>,
    /// /24 index of `base[0]`.
    base_lo: u32,
    short8: Box<[u32; 256]>,
    spill: Vec<SpillBlock>,
    spill_free: Vec<u32>,
    /// Authoritative route set: replacement detection, `len()`, and
    /// the ancestor probes that make removal incremental.
    store: HashMap<Ipv4Prefix, u16>,
    /// Bumped on every successful mutation; lets callers that cache
    /// batched lookup results detect route churn.
    generation: u64,
}

impl Default for Dir248Fib {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Dir248Fib {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dir248Fib")
            .field("routes", &self.store.len())
            .field("spill_blocks", &(self.spill.len() - self.spill_free.len()))
            .field("memory_bytes", &self.memory_bytes())
            .finish()
    }
}

impl Dir248Fib {
    /// Empty table. Nothing is reserved for the base array until a
    /// route of length 9–32 is inserted.
    pub fn new() -> Self {
        Dir248Fib {
            base: Vec::new(),
            base_lo: 0,
            short8: Box::new([0u32; 256]),
            spill: Vec::new(),
            spill_free: Vec::new(),
            store: HashMap::new(),
            generation: 0,
        }
    }

    /// Mutation counter: changes exactly when a lookup result could.
    /// Callers holding results from [`Dir248Fib::lookup_batch`] compare
    /// generations to decide whether a cached next hop is still valid.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bytes allocated for the compiled table: the base window, the
    /// spill arena (live + free-listed blocks), the short-route table,
    /// and an estimate of the store's footprint. Spill growth is
    /// capped by [`DIR248_SPILL_BUDGET_BLOCKS`].
    pub fn memory_bytes(&self) -> usize {
        self.base.capacity() * std::mem::size_of::<u32>()
            + self.spill.capacity() * std::mem::size_of::<SpillBlock>()
            + self.spill_free.capacity() * std::mem::size_of::<u32>()
            + std::mem::size_of::<[u32; 256]>()
            + self.store.capacity() * std::mem::size_of::<(Ipv4Prefix, u16)>()
    }

    /// Spill blocks currently expanded (live, not free-listed).
    pub fn spill_blocks(&self) -> usize {
        self.spill.len() - self.spill_free.len()
    }

    /// Longest proper ancestor of `prefix` with length in
    /// `[min_len, prefix.len())`, as an encoded entry (0 = none).
    /// Costs at most 24 hash probes of the authoritative store.
    fn ancestor_entry(&self, prefix: Ipv4Prefix, min_len: u8) -> u32 {
        for l in (min_len..prefix.len()).rev() {
            if let Some(&nh) = self.store.get(&Ipv4Prefix::new(prefix.addr(), l)) {
                return dir_encode(nh, l);
            }
        }
        0
    }

    /// Grow the base window to cover /24 indices `[first, end)`: at
    /// least doubling, clamped to the index space, extending toward the
    /// side that needs it. Entries are copied as-is — spill pointers
    /// index the spill arena, not the window, so they stay valid.
    fn cover(&mut self, first: usize, end: usize) {
        let lo = self.base_lo as usize;
        let hi = lo + self.base.len();
        if self.base.is_empty() {
            self.base = vec![0; end - first];
            self.base_lo = first as u32;
            return;
        }
        if first >= lo && end <= hi {
            return;
        }
        let (want_lo, want_hi) = (first.min(lo), end.max(hi));
        let len = (want_hi - want_lo).max(2 * self.base.len()).min(BASE_SPACE);
        let new_lo = if first < lo {
            want_hi.saturating_sub(len)
        } else {
            want_lo.min(BASE_SPACE - len)
        };
        let mut base = vec![0; len];
        base[lo - new_lo..hi - new_lo].copy_from_slice(&self.base);
        self.base = base;
        self.base_lo = new_lo as u32;
    }

    /// Base entry for /24 index `bi`; empty outside the window.
    #[inline]
    fn base_entry(&self, bi: u32) -> u32 {
        self.base
            .get(bi.wrapping_sub(self.base_lo) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Mutable base entry for a /24 index inside the window.
    #[inline]
    fn base_mut(&mut self, bi: usize) -> &mut u32 {
        &mut self.base[bi - self.base_lo as usize]
    }

    /// Overwrite `e` if the new route wins (empty entries lose to
    /// anything; equal lengths mean replacement of the same route).
    #[inline]
    fn expand_into(e: &mut u32, encoded: u32, plen: u8) {
        if *e & DIR_VALID == 0 || dir_plen(*e) <= plen {
            *e = encoded;
        }
    }

    /// Ensure the /24 at base index `bi` is backed by a spill block,
    /// seeding a fresh block with the current direct entry (every
    /// route of length ≤ 24 covers the whole /24 uniformly).
    fn ensure_spill(&mut self, bi: usize) -> usize {
        self.cover(bi, bi + 1);
        let e = *self.base_mut(bi);
        if e & DIR_SPILL != 0 {
            return (e & DIR_PAYLOAD) as usize;
        }
        let block = SpillBlock {
            entries: [e; 256],
            long_routes: 0,
        };
        let idx = match self.spill_free.pop() {
            Some(i) => {
                self.spill[i as usize] = block;
                i as usize
            }
            None => {
                assert!(
                    self.spill.len() < DIR248_SPILL_BUDGET_BLOCKS,
                    "Dir248Fib spill arena exceeded its {DIR248_SPILL_BUDGET_BLOCKS}-block budget"
                );
                self.spill.push(block);
                self.spill.len() - 1
            }
        };
        *self.base_mut(bi) = DIR_SPILL | idx as u32;
        idx
    }

    #[inline]
    fn lookup_entry(&self, addr: u32) -> u32 {
        let e = self.base_entry(addr >> 8);
        let e = if e & DIR_SPILL != 0 {
            self.spill[(e & DIR_PAYLOAD) as usize].entries[(addr & 0xFF) as usize]
        } else {
            e
        };
        if e & DIR_VALID != 0 {
            e
        } else {
            self.short8[(addr >> 24) as usize]
        }
    }

    /// Batched longest-prefix match: `out[i]` becomes the next hop for
    /// `addrs[i]`. Allocation-free; the loop is unrolled over small
    /// chunks so the base-array loads of independent addresses overlap
    /// instead of serializing behind each spill/short resolution.
    ///
    /// # Panics
    /// If `addrs` and `out` differ in length.
    pub fn lookup_batch(&self, addrs: &[Ipv4Addr], out: &mut [Option<u16>]) {
        assert_eq!(
            addrs.len(),
            out.len(),
            "lookup_batch slices must have equal lengths"
        );
        const LANES: usize = 8;
        let mut chunks = addrs.chunks_exact(LANES);
        let mut out_chunks = out.chunks_exact_mut(LANES);
        for (a, o) in (&mut chunks).zip(&mut out_chunks) {
            // First touch every base entry (independent loads the CPU
            // can issue together), then resolve spill/short fallbacks.
            let mut first = [0u32; LANES];
            for (f, addr) in first.iter_mut().zip(a) {
                *f = self.base_entry(addr.0 >> 8);
            }
            for ((&f, addr), slot) in first.iter().zip(a).zip(o.iter_mut()) {
                let e = if f & DIR_SPILL != 0 {
                    self.spill[(f & DIR_PAYLOAD) as usize].entries[(addr.0 & 0xFF) as usize]
                } else {
                    f
                };
                let e = if e & DIR_VALID != 0 {
                    e
                } else {
                    self.short8[(addr.0 >> 24) as usize]
                };
                *slot = (e & DIR_VALID != 0).then_some(e as u16);
            }
        }
        for (a, o) in chunks.remainder().iter().zip(out_chunks.into_remainder()) {
            let e = self.lookup_entry(a.0);
            *o = (e & DIR_VALID != 0).then_some(e as u16);
        }
    }
}

impl Fib for Dir248Fib {
    fn insert(&mut self, prefix: Ipv4Prefix, next_hop: u16) -> Option<u16> {
        let old = self.store.insert(prefix, next_hop);
        self.generation += 1;
        let len = prefix.len();
        let encoded = dir_encode(next_hop, len);
        if len <= SHORT_MAX_LEN {
            let start = (prefix.addr().0 >> 24) as usize;
            let span = 1usize << (SHORT_MAX_LEN - len);
            for e in &mut self.short8[start..start + span] {
                Self::expand_into(e, encoded, len);
            }
        } else if len <= BASE_MAX_LEN {
            let start = (prefix.addr().0 >> 8) as usize;
            let span = 1usize << (BASE_MAX_LEN - len);
            self.cover(start, start + span);
            let lo = self.base_lo as usize;
            for e in &mut self.base[start - lo..start - lo + span] {
                if *e & DIR_SPILL != 0 {
                    // The /24 is expanded: the route covers all of it,
                    // so it competes inside every spill entry.
                    let block = &mut self.spill[(*e & DIR_PAYLOAD) as usize];
                    for s in block.entries.iter_mut() {
                        Self::expand_into(s, encoded, len);
                    }
                } else {
                    Self::expand_into(e, encoded, len);
                }
            }
        } else {
            let bi = (prefix.addr().0 >> 8) as usize;
            let idx = self.ensure_spill(bi);
            let start = (prefix.addr().0 & 0xFF) as usize;
            let span = 1usize << (32 - len);
            let block = &mut self.spill[idx];
            for s in &mut block.entries[start..start + span] {
                Self::expand_into(s, encoded, len);
            }
            if old.is_none() {
                block.long_routes += 1;
            }
        }
        old
    }

    fn remove(&mut self, prefix: Ipv4Prefix) -> Option<u16> {
        let old = self.store.remove(&prefix)?;
        self.generation += 1;
        let len = prefix.len();
        if len <= SHORT_MAX_LEN {
            let repl = self.ancestor_entry(prefix, 0);
            let start = (prefix.addr().0 >> 24) as usize;
            let span = 1usize << (SHORT_MAX_LEN - len);
            for e in &mut self.short8[start..start + span] {
                if *e & DIR_VALID != 0 && dir_plen(*e) == len {
                    *e = repl;
                }
            }
        } else if len <= BASE_MAX_LEN {
            // Entries the route owns carry exactly its length (equal
            // lengths are disjoint prefixes; longer routes stored here
            // were backfilled with replacements of at least our length
            // when they went away). Ancestors shorter than 9 bits live
            // in the short table, so the backfill floor is 9.
            // The insert grew the window over the route's range, and
            // the window never shrinks.
            let repl = self.ancestor_entry(prefix, SHORT_MAX_LEN + 1);
            let start = (prefix.addr().0 >> 8) as usize - self.base_lo as usize;
            let span = 1usize << (BASE_MAX_LEN - len);
            for e in &mut self.base[start..start + span] {
                if *e & DIR_SPILL != 0 {
                    let block = &mut self.spill[(*e & DIR_PAYLOAD) as usize];
                    for s in block.entries.iter_mut() {
                        if *s & DIR_VALID != 0 && dir_plen(*s) == len {
                            *s = repl;
                        }
                    }
                } else if *e & DIR_VALID != 0 && dir_plen(*e) == len {
                    *e = repl;
                }
            }
        } else {
            let repl = self.ancestor_entry(prefix, SHORT_MAX_LEN + 1);
            let bi = (prefix.addr().0 >> 8) as usize;
            let e = *self.base_mut(bi);
            debug_assert!(e & DIR_SPILL != 0, "long route without a spill block");
            let idx = (e & DIR_PAYLOAD) as usize;
            let start = (prefix.addr().0 & 0xFF) as usize;
            let span = 1usize << (32 - len);
            let block = &mut self.spill[idx];
            for s in &mut block.entries[start..start + span] {
                if *s & DIR_VALID != 0 && dir_plen(*s) == len {
                    *s = repl;
                }
            }
            block.long_routes -= 1;
            if block.long_routes == 0 {
                // Last long route gone: every surviving route covering
                // this /24 covers it uniformly — collapse back to a
                // direct entry and recycle the block.
                let covering = Ipv4Prefix::new(prefix.addr(), BASE_MAX_LEN + 1);
                *self.base_mut(bi) = self.ancestor_entry(covering, SHORT_MAX_LEN + 1);
                self.spill_free.push(idx as u32);
            }
        }
        Some(old)
    }

    fn lookup(&self, addr: Ipv4Addr) -> Option<u16> {
        let e = self.lookup_entry(addr.0);
        (e & DIR_VALID != 0).then_some(e as u16)
    }

    fn len(&self) -> usize {
        self.store.len()
    }
}

// ---------------------------------------------------------------------------
// Synthetic route tables
// ---------------------------------------------------------------------------

/// Generate a deterministic synthetic route table of `n` prefixes with
/// an Internet-like length mix (most routes /16–/24), mapping to
/// `n_ports` next hops. Substitutes for a real BGP dump (none is
/// shipped with the paper); only the LPM code path matters here.
pub fn synthetic_routes(n: usize, n_ports: u16, seed: u64) -> Vec<(Ipv4Prefix, u16)> {
    assert!(n_ports > 0);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let r = next();
        // Length mix: 10% /8-/15, 60% /16-/23, 30% /24-/28.
        let len = match r % 10 {
            0 => 8 + (next() % 8) as u8,
            1..=6 => 16 + (next() % 8) as u8,
            _ => 24 + (next() % 5) as u8,
        };
        let addr = Ipv4Addr(next() as u32);
        let nh = (next() % n_ports as u64) as u16;
        out.push((Ipv4Prefix::new(addr, len), nh));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// Run one scripted scenario against any Fib implementation.
    fn scenario(fib: &mut dyn Fib) {
        assert!(fib.is_empty());
        assert_eq!(fib.lookup(ip("10.0.0.1")), None);

        fib.insert(pfx("10.0.0.0/8"), 1);
        fib.insert(pfx("10.1.0.0/16"), 2);
        fib.insert(pfx("10.1.2.0/24"), 3);
        assert_eq!(fib.len(), 3);

        // Longest match wins.
        assert_eq!(fib.lookup(ip("10.1.2.3")), Some(3));
        assert_eq!(fib.lookup(ip("10.1.9.9")), Some(2));
        assert_eq!(fib.lookup(ip("10.9.9.9")), Some(1));
        assert_eq!(fib.lookup(ip("11.0.0.1")), None);

        // Replacement returns the old hop and keeps len.
        assert_eq!(fib.insert(pfx("10.1.0.0/16"), 7), Some(2));
        assert_eq!(fib.len(), 3);
        assert_eq!(fib.lookup(ip("10.1.9.9")), Some(7));

        // Default route catches everything.
        fib.insert(Ipv4Prefix::default_route(), 9);
        assert_eq!(fib.lookup(ip("11.0.0.1")), Some(9));
        assert_eq!(fib.lookup(ip("10.1.2.3")), Some(3));

        // Removal re-exposes shorter prefixes.
        assert_eq!(fib.remove(pfx("10.1.2.0/24")), Some(3));
        assert_eq!(fib.lookup(ip("10.1.2.3")), Some(7));
        assert_eq!(fib.remove(pfx("10.1.2.0/24")), None);
        assert_eq!(fib.remove(Ipv4Prefix::default_route()), Some(9));
        assert_eq!(fib.lookup(ip("11.0.0.1")), None);
        assert_eq!(fib.len(), 2);
    }

    #[test]
    fn linear_scenario() {
        scenario(&mut LinearFib::new());
    }

    #[test]
    fn trie_scenario() {
        scenario(&mut TrieFib::new());
    }

    #[test]
    fn dir248_scenario() {
        scenario(&mut Dir248Fib::new());
    }

    #[test]
    fn host_routes_work() {
        for fib in [
            &mut TrieFib::new() as &mut dyn Fib,
            &mut LinearFib::new(),
            &mut Dir248Fib::new(),
        ] {
            fib.insert(pfx("1.2.3.4/32"), 5);
            assert_eq!(fib.lookup(ip("1.2.3.4")), Some(5));
            assert_eq!(fib.lookup(ip("1.2.3.5")), None);
        }
    }

    #[test]
    fn sibling_prefixes_do_not_interfere() {
        for fib in [
            &mut TrieFib::new() as &mut dyn Fib,
            &mut LinearFib::new(),
            &mut Dir248Fib::new(),
        ] {
            fib.insert(pfx("128.0.0.0/1"), 1);
            fib.insert(pfx("0.0.0.0/1"), 2);
            assert_eq!(fib.lookup(ip("200.0.0.1")), Some(1));
            assert_eq!(fib.lookup(ip("100.0.0.1")), Some(2));
        }
    }

    #[test]
    fn dir248_spill_blocks_expand_and_collapse() {
        let mut fib = Dir248Fib::new();
        fib.insert(pfx("10.20.30.0/24"), 1);
        assert_eq!(fib.spill_blocks(), 0, "no long route, no block");
        fib.insert(pfx("10.20.30.128/25"), 2);
        fib.insert(pfx("10.20.30.200/30"), 3);
        assert_eq!(fib.spill_blocks(), 1, "one /24 expanded");
        assert_eq!(fib.lookup(ip("10.20.30.1")), Some(1));
        assert_eq!(fib.lookup(ip("10.20.30.129")), Some(2));
        assert_eq!(fib.lookup(ip("10.20.30.201")), Some(3));
        // Withdrawing the /30 re-exposes the /25 underneath it.
        assert_eq!(fib.remove(pfx("10.20.30.200/30")), Some(3));
        assert_eq!(fib.lookup(ip("10.20.30.201")), Some(2));
        assert_eq!(fib.spill_blocks(), 1);
        // Withdrawing the last long route collapses the block back to
        // the covering /24.
        assert_eq!(fib.remove(pfx("10.20.30.128/25")), Some(2));
        assert_eq!(fib.spill_blocks(), 0);
        assert_eq!(fib.lookup(ip("10.20.30.129")), Some(1));
        // The recycled block is reused, not re-allocated.
        fib.insert(pfx("10.99.0.4/31"), 4);
        assert_eq!(fib.spill_blocks(), 1);
        assert_eq!(fib.lookup(ip("10.99.0.5")), Some(4));
    }

    #[test]
    fn dir248_generation_tracks_mutations() {
        let mut fib = Dir248Fib::new();
        let g0 = fib.generation();
        fib.insert(pfx("10.0.0.0/8"), 1);
        let g1 = fib.generation();
        assert_ne!(g0, g1);
        // A failed removal is not a mutation.
        assert_eq!(fib.remove(pfx("11.0.0.0/8")), None);
        assert_eq!(fib.generation(), g1);
        // Replacement is.
        fib.insert(pfx("10.0.0.0/8"), 2);
        assert_ne!(fib.generation(), g1);
    }

    #[test]
    fn dir248_memory_accounting_is_sane() {
        let mut fib = Dir248Fib::new();
        let empty = fib.memory_bytes();
        assert!(empty < 4 << 10, "empty table accounts {empty} B");
        fib.insert(pfx("10.20.30.40/32"), 1);
        assert!(fib.memory_bytes() > empty, "spill block must be accounted");

        // Five /16s: the outer two size the window exactly (growing it
        // downward), the inner three land inside it.
        let mut fib = Dir248Fib::new();
        for o in [4, 0, 1, 2, 3] {
            fib.insert(pfx(&format!("10.{o}.0.0/16")), o);
        }
        assert_eq!(fib.base.len(), 5 * 256, "five /16s span 1280 /24s");
        let bytes = fib.memory_bytes();
        assert!(
            (5 << 10..7 << 10).contains(&bytes),
            "five /16s account {bytes} B"
        );

        // A topo-style table: one /24 per node, 1024 nodes.
        let mut fib = Dir248Fib::new();
        for node in 0u32..1024 {
            let addr = Ipv4Addr((10 << 24) | (node << 8));
            fib.insert(Ipv4Prefix::new(addr, 24), (node % 7) as u16);
        }
        let bytes = fib.memory_bytes();
        assert!(bytes <= 64 << 10, "1024 /24s account {bytes} B");

        // A /9 spans 2^15 /24s.
        let mut fib = Dir248Fib::new();
        fib.insert(pfx("10.128.0.0/9"), 1);
        assert_eq!(fib.base.len(), 1 << 15);
    }

    #[test]
    fn dir248_window_grows_both_ways_and_keeps_spills() {
        let mut fib = Dir248Fib::new();
        fib.insert(pfx("10.20.30.128/25"), 1);
        assert_eq!((fib.base_lo, fib.base.len()), (0x0A141E, 1));
        // Outside the window: empty base, falls through to short8.
        assert_eq!(fib.lookup(ip("10.20.31.1")), None);
        fib.insert(pfx("10.0.0.0/8"), 9);
        assert_eq!(fib.lookup(ip("10.20.31.1")), Some(9));
        // Upward, then downward growth; the spill pointer survives both
        // copies.
        fib.insert(pfx("10.20.31.0/24"), 2);
        fib.insert(pfx("10.20.29.0/24"), 3);
        assert_eq!(fib.base.len(), 4, "doubling, not exact fit");
        assert_eq!(fib.lookup(ip("10.20.30.129")), Some(1));
        assert_eq!(fib.lookup(ip("10.20.30.1")), Some(9));
        assert_eq!(fib.lookup(ip("10.20.31.1")), Some(2));
        assert_eq!(fib.lookup(ip("10.20.29.1")), Some(3));
        // Both ends of the index space clamp the window.
        fib.insert(pfx("255.255.255.0/24"), 4);
        fib.insert(pfx("0.0.0.0/24"), 5);
        assert_eq!(fib.base.len(), BASE_SPACE);
        assert_eq!(fib.base_lo, 0);
        assert_eq!(fib.lookup(ip("255.255.255.255")), Some(4));
        assert_eq!(fib.lookup(ip("0.0.0.7")), Some(5));
        assert_eq!(fib.lookup(ip("10.20.30.129")), Some(1));
        assert_eq!(fib.remove(pfx("10.20.30.128/25")), Some(1));
        assert_eq!(fib.spill_blocks(), 0);
        assert_eq!(fib.lookup(ip("10.20.30.129")), Some(9));
    }

    #[test]
    fn lookup_batch_agrees_with_lookup() {
        let mut fib = Dir248Fib::new();
        for (p, nh) in synthetic_routes(5000, 16, 7) {
            fib.insert(p, nh);
        }
        fib.insert(Ipv4Prefix::default_route(), 15);
        // A mix of covered and uncovered addresses, length not a
        // multiple of the unrolled lane width.
        let mut state = 0x1234_5678_9abc_def0u64;
        let addrs: Vec<Ipv4Addr> = (0..1003)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Ipv4Addr(state as u32)
            })
            .collect();
        let mut out = vec![None; addrs.len()];
        fib.lookup_batch(&addrs, &mut out);
        for (a, got) in addrs.iter().zip(&out) {
            assert_eq!(*got, fib.lookup(*a), "batch mismatch at {a}");
        }
    }

    #[test]
    fn trie_prunes_on_remove() {
        let mut fib = TrieFib::new();
        fib.insert(pfx("10.20.30.0/24"), 1);
        fib.remove(pfx("10.20.30.0/24"));
        // Root must be leafless again (no dangling chain of nodes).
        assert!(fib.root.is_leafless());
    }

    #[test]
    fn synthetic_routes_shape() {
        let routes = synthetic_routes(1000, 16, 42);
        assert_eq!(routes.len(), 1000);
        assert!(routes.iter().all(|(p, nh)| p.len() >= 8 && *nh < 16));
        // Deterministic for a fixed seed.
        assert_eq!(routes, synthetic_routes(1000, 16, 42));
        assert_ne!(routes, synthetic_routes(1000, 16, 43));
    }

    /// Arbitrary prefix strategy for property tests.
    fn prefix_strategy() -> impl Strategy<Value = Ipv4Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(Ipv4Addr(addr), len))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tries_agree_with_linear_reference(
            routes in proptest::collection::vec((prefix_strategy(), 0u16..8), 1..80),
            probes in proptest::collection::vec(any::<u32>(), 32),
        ) {
            let mut lin = LinearFib::new();
            let mut trie = TrieFib::new();
            let mut dir = Dir248Fib::new();
            for &(p, nh) in &routes {
                lin.insert(p, nh);
                trie.insert(p, nh);
                dir.insert(p, nh);
            }
            prop_assert_eq!(lin.len(), trie.len());
            prop_assert_eq!(lin.len(), dir.len());
            for &a in &probes {
                let addr = Ipv4Addr(a);
                let expect = lin.lookup(addr);
                prop_assert_eq!(trie.lookup(addr), expect, "trie mismatch at {}", addr);
                prop_assert_eq!(dir.lookup(addr), expect, "dir248 mismatch at {}", addr);
            }
            // Probe the route addresses themselves (guaranteed hits).
            for &(p, _) in &routes {
                let expect = lin.lookup(p.addr());
                prop_assert_eq!(trie.lookup(p.addr()), expect);
                prop_assert_eq!(dir.lookup(p.addr()), expect);
            }
        }

        #[test]
        fn removal_keeps_implementations_in_agreement(
            routes in proptest::collection::vec((prefix_strategy(), 0u16..8), 1..40),
            remove_mask in proptest::collection::vec(any::<bool>(), 40),
            probes in proptest::collection::vec(any::<u32>(), 16),
        ) {
            let mut lin = LinearFib::new();
            let mut trie = TrieFib::new();
            let mut dir = Dir248Fib::new();
            for &(p, nh) in &routes {
                lin.insert(p, nh);
                trie.insert(p, nh);
                dir.insert(p, nh);
            }
            for (i, &(p, _)) in routes.iter().enumerate() {
                if remove_mask[i % remove_mask.len()] {
                    let a = lin.remove(p);
                    let b = trie.remove(p);
                    let c = dir.remove(p);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(a, c);
                }
            }
            prop_assert_eq!(lin.len(), trie.len());
            prop_assert_eq!(lin.len(), dir.len());
            for &a in &probes {
                let addr = Ipv4Addr(a);
                let expect = lin.lookup(addr);
                prop_assert_eq!(trie.lookup(addr), expect);
                prop_assert_eq!(dir.lookup(addr), expect);
            }
        }
    }
}
