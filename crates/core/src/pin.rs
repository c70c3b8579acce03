//! The Pin optimization hint (Figure 3 lines 10-11, §4.1).
//!
//! Pinning a chunk holds its reference explicitly (`refcnt` stays nonzero),
//! so the runtime can neither evict it nor degrade its permission; the
//! pinned accessors therefore skip the per-access atomics entirely — only
//! branches remain, "achieving data access performance comparable to native
//! arrays".

use dsim::Ctx;
use rdma_fabric::MemoryRegion;

use crate::array::DArray;
use crate::element::Element;
use crate::error::DArrayError;
use crate::op::OpId;
use crate::protocol::Kind;
use crate::shared::data_location;

/// What rights a pin holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinMode {
    /// Read-only (`Shared` or better).
    Read,
    /// Read/write (`Exclusive`).
    Write,
    /// Operate under this operator (`Operated` with a matching tag, or
    /// `Exclusive`).
    Operate(OpId),
}

impl PinMode {
    /// The access the pin holds the chunk's rights for.
    pub(crate) fn kind(self) -> Kind {
        match self {
            PinMode::Read => Kind::Read,
            PinMode::Write => Kind::Write,
            PinMode::Operate(op) => Kind::Operate(op.0),
        }
    }
}

/// A pinned chunk: holds a dentry reference until dropped or
/// [`Pinned::unpin`]. Accessors only bounds-check — no atomics.
pub struct Pinned<T: Element> {
    arr: DArray<T>,
    chunk: usize,
    /// First global element index of the chunk.
    first: usize,
    /// Valid elements in the chunk (the global tail chunk may be partial).
    valid: usize,
    region: MemoryRegion,
    base_word: usize,
    mode: PinMode,
    released: bool,
}

impl<T: Element> DArray<T> {
    /// Pin the chunk containing `index` with the given rights (the paper's
    /// `pindata`). Blocks (in virtual time) until the rights are granted.
    ///
    /// ```
    /// use darray::{ArrayOptions, Cluster, ClusterConfig, PinMode, Sim, SimConfig};
    /// Sim::new(SimConfig::default()).run(|ctx| {
    ///     let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
    ///     let arr = cluster.alloc_with::<u64>(1024, ArrayOptions::default(), |i| i as u64);
    ///     cluster.run(ctx, 1, move |ctx, env| {
    ///         let a = arr.on(env.node);
    ///         // Scan a (possibly remote) chunk without per-access atomics.
    ///         let pin = a.pin(ctx, 512, PinMode::Read);
    ///         let mut sum = 0;
    ///         for i in pin.range() {
    ///             sum += pin.get(ctx, i);
    ///         }
    ///         pin.unpin();
    ///         assert_eq!(sum, (512..1024).sum::<u64>());
    ///     });
    ///     cluster.shutdown(ctx);
    /// });
    /// ```
    pub fn pin(&self, ctx: &mut Ctx, index: usize, mode: PinMode) -> Pinned<T> {
        self.try_pin(ctx, index, mode)
            .unwrap_or_else(|e| panic!("pin({index}): {e}"))
    }

    /// Fallible [`DArray::pin`]: returns [`DArrayError::NodeUnavailable`]
    /// when the chunk's home node has been declared down and no local copy
    /// is cached (only possible when `ClusterConfig::fault` is set), and
    /// [`DArrayError::ProtocolInvariant`] once a protocol fault is latched
    /// and the chunk is not held. A pin pays the fast path's cost but never
    /// takes the §4.1 chunk lock.
    pub fn try_pin(
        &self,
        ctx: &mut Ctx,
        index: usize,
        mode: PinMode,
    ) -> Result<Pinned<T>, DArrayError> {
        assert!(index < self.len(), "index {index} out of bounds");
        let layout = &self.arr.layout;
        let chunk = layout.chunk_of(index);
        let path_cost = self.shared.cfg.cost.darray_fast_path();
        // Keep the reference: that is the pin.
        let line = self.acquire(ctx, chunk, mode.kind(), path_cost, false)?;
        let (region, base_word) = data_location(&self.shared, &self.arr, self.node, line, chunk, 0);
        Ok(Pinned {
            arr: self.clone(),
            chunk,
            first: layout.chunk_first_elem(chunk),
            valid: layout.chunk_len(chunk),
            region: region.clone(),
            base_word,
            mode,
            released: false,
        })
    }
}

impl<T: Element> Pinned<T> {
    /// Global index range this pin covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.valid
    }

    /// True if `index` falls inside the pinned chunk.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        index >= self.first && index < self.first + self.valid
    }

    /// The pin's mode.
    pub fn mode(&self) -> PinMode {
        self.mode
    }

    #[inline]
    fn word_of(&self, index: usize) -> usize {
        debug_assert!(self.contains(index), "index {index} outside pinned chunk");
        self.base_word + (index - self.first)
    }

    /// Read `index` without atomics (requires a Read or Write pin).
    #[inline]
    pub fn get(&self, ctx: &mut Ctx, index: usize) -> T {
        debug_assert!(
            matches!(self.mode, PinMode::Read | PinMode::Write),
            "get on an Operate pin"
        );
        ctx.charge(self.arr.shared.cfg.cost.darray_pinned_path());
        T::from_bits(self.region.load(self.word_of(index)))
    }

    /// Write `index` without atomics (requires a Write pin).
    #[inline]
    pub fn set(&self, ctx: &mut Ctx, index: usize, value: T) {
        debug_assert!(
            matches!(self.mode, PinMode::Write),
            "set on a non-Write pin"
        );
        ctx.charge(self.arr.shared.cfg.cost.darray_pinned_path());
        self.region.store(self.word_of(index), value.to_bits());
    }

    /// Apply the pinned operator to `index` (requires an Operate or Write
    /// pin; for an Operate pin `op` must match the pinned operator).
    #[inline]
    pub fn apply(&self, ctx: &mut Ctx, index: usize, op: OpId, operand: T) {
        debug_assert!(
            match self.mode {
                PinMode::Operate(p) => p == op,
                PinMode::Write => true,
                PinMode::Read => false,
            },
            "apply with mismatched pin mode"
        );
        let cost = &self.arr.shared.cfg.cost;
        ctx.charge(cost.darray_pinned_path() + cost.op_apply_ns);
        let word = self.word_of(index);
        let bits = operand.to_bits();
        let reg = &self.arr.shared.registry;
        loop {
            let cur = self.region.load(word);
            let new = reg.combine(op, cur, bits);
            if self.region.compare_exchange(word, cur, new).is_ok() {
                break;
            }
        }
    }

    /// Release the pin explicitly (the paper's `unpindata`). Dropping the
    /// guard does the same.
    pub fn unpin(mut self) {
        self.release();
    }

    fn release(&mut self) {
        if !self.released {
            self.released = true;
            self.arr.dentry(self.chunk).release();
        }
    }
}

impl<T: Element> Drop for Pinned<T> {
    fn drop(&mut self) {
        self.release();
    }
}
