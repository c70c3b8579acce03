//! Per-runtime-thread cache regions (Figure 7).
//!
//! "Each runtime thread has its own independent cache region and a
//! corresponding scanning pointer, which allows DArray to avoid data races
//! and increase concurrency. The cache eviction policy is governed by two
//! parameters: low watermark and high watermark." (§4.2)

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::msg::{ArrayId, ChunkId};

/// A point-in-time snapshot of one runtime thread's cache pool, for
/// observability of placement skew (which pools fill up, which evict).
/// Obtained via [`crate::Cluster::pool_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// First absolute line index of the pool within the node's region.
    pub base: u32,
    /// Total lines in the pool.
    pub lines: u32,
    /// Lines currently occupied (lines - free).
    pub occupied: u32,
    /// High-water mark of `occupied` over the pool's lifetime.
    pub peak_occupied: u32,
    /// Total successful line allocations.
    pub allocs: u64,
    /// Watermark-scan evictions charged to this pool's runtime thread.
    pub evictions: u64,
}

/// A contiguous range of cachelines owned by one runtime thread, with the
/// free list, scanning pointer and watermark bookkeeping.
///
/// The *data* of the cachelines lives in the node's cache `MemoryRegion`
/// (at `CacheConfig::line_off`); this structure only manages allocation.
pub(crate) struct CacheRegion {
    /// First line index of this region (absolute within the node).
    base: u32,
    /// Number of lines in this region.
    lines: u32,
    /// Reclamation trigger: free-count strictly below this starts a scan.
    low: u32,
    /// Reclamation target: scanning stops once free-count reaches this.
    high: u32,
    /// Total successful allocations (relaxed; observability only).
    allocs: AtomicU64,
    /// Evictions charged to this pool by its runtime thread's watermark
    /// scan (relaxed; observability only).
    evictions: AtomicU64,
    /// High-water mark of occupied lines (relaxed; observability only).
    peak_occupied: AtomicU64,
    inner: Mutex<Inner>,
}

struct Inner {
    free: Vec<u32>,
    /// Scanning pointer: absolute line index of the next eviction candidate.
    scan: u32,
    /// Which (array, chunk) currently occupies each line of this region
    /// (indexed by `line - base`).
    owner: Vec<Option<(ArrayId, ChunkId)>>,
}

impl CacheRegion {
    pub(crate) fn new(base: u32, lines: u32, low_frac: f64, high_frac: f64) -> Self {
        assert!(lines > 0);
        let low = ((lines as f64 * low_frac).floor() as u32).min(lines);
        let high = ((lines as f64 * high_frac).ceil() as u32).clamp(low, lines);
        Self {
            base,
            lines,
            low,
            high,
            allocs: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            peak_occupied: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                free: (base..base + lines).rev().collect(),
                scan: base,
                owner: vec![None; lines as usize],
            }),
        }
    }

    /// Number of free lines.
    pub(crate) fn free_count(&self) -> u32 {
        self.inner.lock().free.len() as u32
    }

    /// True once allocation should trigger reclamation (free < low
    /// watermark).
    pub(crate) fn below_low(&self) -> bool {
        self.free_count() < self.low
    }

    /// True while reclamation should continue (free < high watermark).
    pub(crate) fn below_high(&self) -> bool {
        self.free_count() < self.high
    }

    /// Allocate a line for `(array, chunk)`. Returns `None` when empty (the
    /// caller reclaims and retries).
    pub(crate) fn alloc(&self, array: ArrayId, chunk: ChunkId) -> Option<u32> {
        let mut g = self.inner.lock();
        let line = g.free.pop()?;
        let slot = (line - self.base) as usize;
        debug_assert!(g.owner[slot].is_none());
        g.owner[slot] = Some((array, chunk));
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let occupied = (self.lines as usize - g.free.len()) as u64;
        self.peak_occupied.fetch_max(occupied, Ordering::Relaxed);
        Some(line)
    }

    /// Charge one watermark-scan eviction to this pool.
    pub(crate) fn note_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Observability snapshot of this pool.
    pub(crate) fn stats(&self) -> PoolStats {
        let free = self.free_count();
        PoolStats {
            base: self.base,
            lines: self.lines,
            occupied: self.lines - free,
            peak_occupied: self.peak_occupied.load(Ordering::Relaxed) as u32,
            allocs: self.allocs.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Return a line to the free list.
    pub(crate) fn free(&self, line: u32) {
        let mut g = self.inner.lock();
        let slot = (line - self.base) as usize;
        debug_assert!(g.owner[slot].is_some(), "double free of line {line}");
        g.owner[slot] = None;
        g.free.push(line);
    }

    /// Current occupant of `line`.
    pub(crate) fn owner(&self, line: u32) -> Option<(ArrayId, ChunkId)> {
        self.inner.lock().owner[(line - self.base) as usize]
    }

    /// Advance the scanning pointer (cyclic over this region) and return the
    /// line it passed over.
    pub(crate) fn scan_next(&self) -> u32 {
        let mut g = self.inner.lock();
        let line = g.scan;
        g.scan = if g.scan + 1 >= self.base + self.lines {
            self.base
        } else {
            g.scan + 1
        };
        line
    }

    /// Total lines in this region.
    pub(crate) fn capacity(&self) -> u32 {
        self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let c = CacheRegion::new(10, 4, 0.3, 0.5);
        assert_eq!(c.free_count(), 4);
        let a = c.alloc(0, 1).unwrap();
        assert!((10..14).contains(&a));
        assert_eq!(c.owner(a), Some((0, 1)));
        assert_eq!(c.free_count(), 3);
        c.free(a);
        assert_eq!(c.owner(a), None);
        assert_eq!(c.free_count(), 4);
    }

    #[test]
    fn exhaustion_returns_none() {
        let c = CacheRegion::new(0, 2, 0.3, 0.5);
        assert!(c.alloc(0, 0).is_some());
        assert!(c.alloc(0, 1).is_some());
        assert!(c.alloc(0, 2).is_none());
    }

    #[test]
    fn watermarks_follow_paper_defaults() {
        // 100 lines, low 30 %, high 50 %.
        let c = CacheRegion::new(0, 100, 0.3, 0.5);
        assert!(!c.below_low());
        let mut held = Vec::new();
        for i in 0..71 {
            held.push(c.alloc(0, i).unwrap());
        }
        // 29 free < 30 -> below low; also below high (29 < 50).
        assert!(c.below_low());
        assert!(c.below_high());
        c.free(held.pop().unwrap());
        // 30 free: not below low anymore, still below high.
        assert!(!c.below_low());
        assert!(c.below_high());
        for _ in 0..20 {
            c.free(held.pop().unwrap());
        }
        // 50 free: reclamation target reached.
        assert!(!c.below_high());
    }

    #[test]
    fn scan_pointer_cycles_within_region() {
        let c = CacheRegion::new(5, 3, 0.3, 0.5);
        let seq: Vec<u32> = (0..7).map(|_| c.scan_next()).collect();
        assert_eq!(seq, vec![5, 6, 7, 5, 6, 7, 5]);
    }

    #[test]
    fn scan_partition_covers_every_line_exactly_once() {
        // Simulate the per-node pool layout: pools tiling 0..capacity with
        // uneven sizes (as Placement produces for capacity % threads != 0).
        // One full scan cycle of every pool must visit each line of the
        // node's region exactly once — no line scanned by two threads,
        // none by zero.
        let capacity = 10u32;
        let pools = [
            CacheRegion::new(0, 4, 0.3, 0.5),
            CacheRegion::new(4, 3, 0.3, 0.5),
            CacheRegion::new(7, 3, 0.3, 0.5),
        ];
        let mut visits = vec![0u32; capacity as usize];
        for p in &pools {
            for _ in 0..p.capacity() {
                visits[p.scan_next() as usize] += 1;
            }
        }
        assert!(
            visits.iter().all(|&v| v == 1),
            "scan coverage must be a partition: {visits:?}"
        );
    }

    #[test]
    fn pool_stats_track_occupancy_allocs_and_evictions() {
        let c = CacheRegion::new(8, 4, 0.3, 0.5);
        assert_eq!(
            c.stats(),
            PoolStats {
                base: 8,
                lines: 4,
                ..Default::default()
            }
        );
        let a = c.alloc(0, 0).unwrap();
        let b = c.alloc(0, 1).unwrap();
        let s = c.stats();
        assert_eq!((s.occupied, s.peak_occupied, s.allocs), (2, 2, 2));
        c.free(a);
        c.note_eviction();
        c.free(b);
        c.note_eviction();
        let s = c.stats();
        // Peak is a high-water mark; occupancy drops, the peak does not.
        assert_eq!((s.occupied, s.peak_occupied, s.evictions), (0, 2, 2));
        c.alloc(1, 7).unwrap();
        assert_eq!(c.stats().allocs, 3);
    }

    #[test]
    fn tiny_region_watermarks_are_sane() {
        let c = CacheRegion::new(0, 1, 0.3, 0.5);
        assert_eq!(c.capacity(), 1);
        assert!(!c.below_low()); // low watermark floors to 0
        let l = c.alloc(0, 0).unwrap();
        assert!(c.below_high());
        c.free(l);
    }
}
