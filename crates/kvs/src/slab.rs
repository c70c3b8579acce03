//! A Memcached-style slab allocator over one node's partition of the byte
//! array ("We port the SlabAllocator from Memcached to manage the byte
//! array", §5.2).
//!
//! Size classes grow geometrically; each class carves fixed-size items out
//! of slabs claimed from the node's byte range by a bump pointer, and
//! freed items go back to their class. All offsets are byte offsets into
//! the *global* byte array and are 8-byte aligned.
//!
//! Placement is chunk-affine. Other nodes cache the byte array a chunk at
//! a time, so the first write into a chunk they share costs an
//! invalidation round trip and knocks every pair in it out of their
//! caches. Each class therefore keeps its free items grouped by the chunk
//! they start in, allocates from the previous allocation's chunk while it
//! has a free item, and otherwise moves to the chunk with the most free
//! items (ties to the lowest), so one invalidation is spread over as many
//! writes as possible. A new slab is carved only when the class has no
//! free item at all.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use darray::DEFAULT_CHUNK_SIZE;

/// Growth factor between consecutive size classes (Memcached's default is
/// 1.25; we use 2⁰·²⁵ steps rounded to 8 bytes).
const GROWTH: f64 = 1.25;
/// Smallest item size in bytes.
const MIN_ITEM: usize = 64;
/// Slab size in bytes (Memcached uses 1 MiB; scaled down to suit the
/// simulation's smaller byte arrays).
const SLAB_BYTES: u64 = 64 * 1024;
/// Bytes in one chunk of the byte array, the unit other nodes cache (the
/// default chunk size, which `Kvs::new` also assumes).
const CHUNK_BYTES: u64 = DEFAULT_CHUNK_SIZE as u64 * 8;

/// An item handed out by [`SlabAllocator::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Global byte offset of the item.
    pub offset: u64,
    /// How many times the item has been handed out, this time included
    /// (wrapping). It is kept on the host, so it costs no array access.
    pub gen: u32,
}

struct SizeClass {
    item_size: usize,
    /// Free items by the chunk they start in; no list is empty.
    free: BTreeMap<u64, Vec<u64>>,
    /// The chunk of the class's previous allocation.
    current: Option<u64>,
}

impl SizeClass {
    /// The chunk to allocate from next: the previous allocation's while it
    /// has a free item, else the one with the most free items.
    fn next_chunk(&self) -> Option<u64> {
        match self.current {
            Some(c) if self.free.contains_key(&c) => Some(c),
            _ => self
                .free
                .iter()
                .max_by_key(|(&c, items)| (items.len(), Reverse(c)))
                .map(|(&c, _)| c),
        }
    }
}

/// A carved slab: its items' size and generations.
struct Slab {
    item_size: u64,
    gens: Vec<u32>,
}

/// Allocator state for one node's byte range `[start, end)`.
pub struct SlabAllocator {
    classes: Vec<SizeClass>,
    /// Carved slabs in address order; slab `i` starts at
    /// `start + i * SLAB_BYTES`.
    slabs: Vec<Slab>,
    start: u64,
    bump: u64,
    end: u64,
    allocated_items: u64,
    freed_items: u64,
}

impl SlabAllocator {
    /// Manage the byte range `[start, end)`; both must be 8-byte aligned.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end);
        assert_eq!(start % 8, 0);
        let mut classes = Vec::new();
        let mut sz = MIN_ITEM;
        while sz as u64 <= SLAB_BYTES {
            classes.push(SizeClass {
                item_size: sz,
                free: BTreeMap::new(),
                current: None,
            });
            let next = ((sz as f64 * GROWTH) as usize).div_ceil(8) * 8;
            sz = next.max(sz + 8);
        }
        Self {
            classes,
            slabs: Vec::new(),
            start,
            bump: start,
            end,
            allocated_items: 0,
            freed_items: 0,
        }
    }

    fn class_for(&self, size: usize) -> Option<usize> {
        self.classes.iter().position(|c| c.item_size >= size)
    }

    /// The item size an allocation of `size` bytes actually occupies.
    pub fn rounded_size(&self, size: usize) -> Option<usize> {
        self.class_for(size).map(|c| self.classes[c].item_size)
    }

    /// Allocate space for `size` bytes; `None` when the size exceeds the
    /// largest class or the range is exhausted.
    pub fn alloc(&mut self, size: usize) -> Option<Item> {
        let ci = self.class_for(size)?;
        if self.classes[ci].free.is_empty() {
            self.carve(ci)?;
        }
        let class = &mut self.classes[ci];
        let chunk = class.next_chunk().expect("the class has a free item");
        class.current = Some(chunk);
        let items = class.free.get_mut(&chunk).expect("chunk has free items");
        let offset = items.pop().expect("no free list is empty");
        if items.is_empty() {
            class.free.remove(&chunk);
        }
        self.allocated_items += 1;
        let gen = self.gen_mut(offset);
        *gen = gen.wrapping_add(1);
        Some(Item { offset, gen: *gen })
    }

    /// Carve a slab (or what is left of the range) into items of class
    /// `ci`; `None` if not even one item fits.
    fn carve(&mut self, ci: usize) -> Option<()> {
        let item = self.classes[ci].item_size as u64;
        let slab_start = self.bump;
        let slab_end = slab_start.saturating_add(SLAB_BYTES).min(self.end);
        let count = (slab_end - slab_start) / item;
        if count == 0 {
            return None;
        }
        self.bump = slab_end;
        let free = &mut self.classes[ci].free;
        // Highest first, so each chunk hands out its low offsets first.
        for at in (0..count).rev().map(|i| slab_start + i * item) {
            free.entry(at / CHUNK_BYTES).or_default().push(at);
        }
        self.slabs.push(Slab {
            item_size: item,
            gens: vec![0; count as usize],
        });
        Some(())
    }

    fn gen_mut(&mut self, offset: u64) -> &mut u32 {
        let rel = offset - self.start;
        let slab = &mut self.slabs[(rel / SLAB_BYTES) as usize];
        &mut slab.gens[((rel % SLAB_BYTES) / slab.item_size) as usize]
    }

    /// Return an allocation of `size` bytes at `offset` to its class.
    pub fn free(&mut self, offset: u64, size: usize) {
        let ci = self
            .class_for(size)
            .expect("freeing a size that was never allocatable");
        self.freed_items += 1;
        self.classes[ci]
            .free
            .entry(offset / CHUNK_BYTES)
            .or_default()
            .push(offset);
    }

    /// Live allocations (diagnostics).
    pub fn live(&self) -> u64 {
        self.allocated_items - self.freed_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn chunk(off: u64) -> u64 {
        off / CHUNK_BYTES
    }

    /// Allocate `size`-byte items until the allocator runs out; their
    /// offsets in allocation order.
    fn exhaust(s: &mut SlabAllocator, size: usize) -> Vec<u64> {
        std::iter::from_fn(|| s.alloc(size).map(|i| i.offset)).collect()
    }

    #[test]
    fn alloc_returns_aligned_disjoint_offsets() {
        let mut s = SlabAllocator::new(0, 1 << 20);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let off = s.alloc(100).unwrap().offset;
            assert_eq!(off % 8, 0);
            assert!(seen.insert(off), "duplicate offset {off}");
        }
        assert_eq!(s.live(), 1000);
    }

    #[test]
    fn different_sizes_use_different_classes() {
        let s = SlabAllocator::new(0, 1 << 20);
        let a = s.rounded_size(1).unwrap();
        let b = s.rounded_size(100).unwrap();
        let c = s.rounded_size(1000).unwrap();
        assert!(a >= 1 && b >= 100 && c >= 1000);
        assert!(a <= b && b <= c);
    }

    #[test]
    fn free_recycles() {
        let mut s = SlabAllocator::new(0, SLAB_BYTES);
        let a = s.alloc(64).unwrap();
        s.free(a.offset, 64);
        let b = s.alloc(64).unwrap();
        assert_eq!(a.offset, b.offset, "freed item should be reused");
        assert_eq!((a.gen, b.gen), (1, 2), "reuse bumps the generation");
        assert_eq!(s.live(), 1);
    }

    #[test]
    fn exhaustion_returns_none_and_frees_revive() {
        let mut s = SlabAllocator::new(0, 1024);
        let mut got = exhaust(&mut s, 64);
        assert_eq!(got.len(), 1024 / 64);
        assert!(s.alloc(64).is_none());
        s.free(got.pop().unwrap(), 64);
        assert!(s.alloc(64).is_some());
    }

    #[test]
    fn oversized_allocation_fails() {
        let mut s = SlabAllocator::new(0, 1 << 20);
        assert!(s.alloc(SLAB_BYTES as usize + 1).is_none());
    }

    #[test]
    fn allocations_stay_within_range() {
        let start = 4096u64;
        let end = start + 8192;
        let mut s = SlabAllocator::new(start, end);
        for off in exhaust(&mut s, 128) {
            assert!(off >= start && off + 128 <= end, "offset {off}");
        }
    }

    #[test]
    fn mixed_sizes_do_not_overlap() {
        let mut s = SlabAllocator::new(0, 1 << 20);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for (i, size) in [64usize, 100, 333, 1000, 64, 2048, 100]
            .iter()
            .cycle()
            .take(300)
            .enumerate()
        {
            let rounded = s.rounded_size(*size).unwrap() as u64;
            let off = s
                .alloc(*size)
                .unwrap_or_else(|| panic!("alloc {i} failed"))
                .offset;
            for &(a, b) in &ranges {
                assert!(off + rounded <= a || off >= b, "overlap at {off}");
            }
            ranges.push((off, off + rounded));
        }
    }

    #[test]
    fn allocations_stay_in_one_chunk_until_it_has_no_free_item() {
        // Two chunks of 64 items of 64 bytes.
        let mut s = SlabAllocator::new(0, 2 * CHUNK_BYTES);
        let got: Vec<u64> = (0..100).map(|_| s.alloc(64).unwrap().offset).collect();
        assert_eq!(chunk(got[99]), 1);
        // A free item in chunk 0 waits until chunk 1 runs dry, however
        // recently it was freed.
        s.free(got[0], 64);
        let next: Vec<u64> = (0..28).map(|_| s.alloc(64).unwrap().offset).collect();
        assert!(next.iter().all(|&o| chunk(o) == 1), "{next:?}");
        assert_eq!(s.alloc(64).unwrap().offset, got[0]);
    }

    #[test]
    fn next_chunk_is_the_one_with_the_most_free_items() {
        let mut s = SlabAllocator::new(0, SLAB_BYTES);
        let got = exhaust(&mut s, 64);
        let in_chunk = |c: u64| got.iter().copied().filter(move |&o| chunk(o) == c);
        // Chunk 9 frees last, but chunks 7 and 9 tie at five free items,
        // so chunk 7 (the lower) goes first; then 9, then 3, then 0.
        for (c, n) in [(0, 1), (7, 5), (3, 2), (9, 5)] {
            for off in in_chunk(c).take(n) {
                s.free(off, 64);
            }
        }
        let order: Vec<u64> = exhaust(&mut s, 64).into_iter().map(chunk).collect();
        assert_eq!(order, [7, 7, 7, 7, 7, 9, 9, 9, 9, 9, 3, 3, 0]);
    }

    #[test]
    fn no_slab_is_carved_while_the_class_has_a_free_item() {
        let mut s = SlabAllocator::new(0, 3 * SLAB_BYTES);
        let first: Vec<u64> = (0..SLAB_BYTES / 64)
            .map(|_| s.alloc(64).unwrap().offset)
            .collect();
        assert!(first.iter().all(|&o| o < SLAB_BYTES));
        // A larger class carves its own slab, and its free items do not
        // count for the 64-byte class.
        let big = s.alloc(4096).unwrap();
        assert!(big.offset >= SLAB_BYTES && big.offset < 2 * SLAB_BYTES);
        s.free(big.offset, 4096);
        s.free(first[5], 64);
        assert_eq!(s.alloc(64).unwrap().offset, first[5]);
        // Only now, with no free item, does the class carve the third slab.
        assert!(s.alloc(64).unwrap().offset >= 2 * SLAB_BYTES);
    }

    #[test]
    fn generations_count_handouts_per_item() {
        let mut s = SlabAllocator::new(0, SLAB_BYTES);
        let a = s.alloc(64).unwrap();
        let b = s.alloc(64).unwrap();
        assert_eq!((a.gen, b.gen), (1, 1));
        for round in 2..5 {
            s.free(a.offset, 64);
            let again = s.alloc(64).unwrap();
            assert_eq!((again.offset, again.gen), (a.offset, round));
        }
    }
}
