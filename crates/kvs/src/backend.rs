//! Array backends the KVS can run on: DArray and the GAM baseline expose
//! the same element-granularity operations the store needs.

use darray::{Ctx, DArray};
use gam::GamArray;

/// What the KVS needs from a distributed array of `u64`.
pub trait KvBackend: Clone + Send + Sync + 'static {
    /// Read one element.
    fn get(&self, ctx: &mut Ctx, i: usize) -> u64;
    /// Write one element.
    fn set(&self, ctx: &mut Ctx, i: usize, v: u64);
    /// Acquire the distributed writer lock of element `i`, which the
    /// caller takes to write `i`'s slot (a bucket's entries).
    fn wlock(&self, ctx: &mut Ctx, i: usize);
    /// Release the lock held on element `i`.
    fn unlock(&self, ctx: &mut Ctx, i: usize);
    /// Global length.
    fn len(&self) -> usize;
    /// True when the array has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// DArray-backed store (the paper's §5.2 design).
#[derive(Clone)]
pub struct DArrayBackend(pub DArray<u64>);

impl KvBackend for DArrayBackend {
    #[inline]
    fn get(&self, ctx: &mut Ctx, i: usize) -> u64 {
        self.0.get(ctx, i)
    }
    #[inline]
    fn set(&self, ctx: &mut Ctx, i: usize, v: u64) {
        self.0.set(ctx, i, v)
    }
    /// A write-intent lock: the grant brings the bucket's entry chunk
    /// along and the unlock writes it back home, so the put's probe and
    /// entry write are local.
    fn wlock(&self, ctx: &mut Ctx, i: usize) {
        self.0.wlock_for_write(ctx, i)
    }
    fn unlock(&self, ctx: &mut Ctx, i: usize) {
        self.0.unlock(ctx, i)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// GAM-backed store (the §6.5 comparison target).
#[derive(Clone)]
pub struct GamBackend(pub GamArray<u64>);

impl KvBackend for GamBackend {
    #[inline]
    fn get(&self, ctx: &mut Ctx, i: usize) -> u64 {
        self.0.read(ctx, i)
    }
    #[inline]
    fn set(&self, ctx: &mut Ctx, i: usize, v: u64) {
        self.0.write(ctx, i, v)
    }
    fn wlock(&self, ctx: &mut Ctx, i: usize) {
        self.0.wlock(ctx, i)
    }
    fn unlock(&self, ctx: &mut Ctx, i: usize) {
        self.0.unlock(ctx, i)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}
