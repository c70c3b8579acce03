//! The `DArray` public API (Figure 3): `get`/`set`, `apply` (Operate),
//! distributed `rlock`/`wlock`/`unlock` (plus `wlock_for_write`, a writer
//! lock that also moves the element's chunk), and `pin`.
//!
//! `get`/`set`/`apply` follow the lock-free data access path of Figure 4:
//! check `delay_flag`, take a reference, check rights, touch the data,
//! release. A miss submits a request to the runtime through the
//! local-request queue and blocks (in virtual time) until filled, then
//! retries. `prefetch` submits the same request without blocking.

use std::marker::PhantomData;
use std::sync::Arc;

use dsim::{Ctx, WaitCell};
use rdma_fabric::NodeId;

use crate::config::AccessPath;
use crate::dentry::{Acquire, Dentry};
use crate::element::Element;
use crate::error::DArrayError;
use crate::msg::{ChunkId, LocalKind, LocalReq, LockKind, RtMsg};
use crate::op::OpId;
use crate::pin::PinMode;
use crate::protocol::Kind;
use crate::shared::{data_location, ArrayShared, ClusterShared};
use crate::stats::NodeStats;

/// A node-local view of a distributed array of `T`. Cheap to clone; one per
/// application thread is typical.
pub struct DArray<T: Element> {
    pub(crate) shared: Arc<ClusterShared>,
    pub(crate) arr: Arc<ArrayShared>,
    pub(crate) node: NodeId,
    pub(crate) _pd: PhantomData<fn() -> T>,
}

impl<T: Element> Clone for DArray<T> {
    fn clone(&self) -> Self {
        Self {
            shared: self.shared.clone(),
            arr: self.arr.clone(),
            node: self.node,
            _pd: PhantomData,
        }
    }
}

impl<T: Element> DArray<T> {
    /// Number of elements in the global array.
    pub fn len(&self) -> usize {
        self.arr.layout.len()
    }

    /// True for an empty array.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements per chunk (directory granularity).
    pub fn chunk_size(&self) -> usize {
        self.arr.layout.chunk_size()
    }

    /// The node this view is bound to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes the array spans.
    pub fn nodes(&self) -> usize {
        self.arr.layout.nodes()
    }

    /// Home node of element `index` — as this node currently believes:
    /// elastic clusters answer from the local home map (which migration
    /// commits advance), static clusters from the layout.
    pub fn home_of(&self, index: usize) -> NodeId {
        self.arr.home_on(self.node, self.arr.layout.chunk_of(index))
    }

    /// Elements whose home is this node (useful for owner-computes loops).
    pub fn local_range(&self) -> std::ops::Range<usize> {
        self.arr.layout.node_elems(self.node)
    }

    /// Split `range` into chunk windows: the consecutive pieces of `range`
    /// that each lie in one chunk, so one [`DArray::pin`] covers each.
    /// Homes are chunk-granular, so no window spans two homes. Panics if
    /// `range` ends past [`DArray::len`].
    pub fn chunk_windows(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = std::ops::Range<usize>> {
        assert!(range.end <= self.len(), "range {range:?} out of bounds");
        let chunk = self.chunk_size();
        let mut at = range.start;
        std::iter::from_fn(move || {
            (at < range.end).then(|| {
                let window = at..(at - at % chunk + chunk).min(range.end);
                at = window.end;
                window
            })
        })
    }

    #[inline]
    pub(crate) fn dentry(&self, chunk: usize) -> &Dentry {
        &self.arr.per_node[self.node].dentries[chunk]
    }

    /// Submit a request on `chunk` to the runtime thread that owns it and
    /// wait for completion (the slow path of Figure 4, lines 10-12).
    pub(crate) fn slow_request(&self, ctx: &mut Ctx, chunk: usize, kind: LocalKind) {
        NodeStats::bump(&self.shared.stats[self.node].slow_misses);
        self.submit(ctx, chunk, kind).wait(ctx);
    }

    /// Submit a request on `chunk` to the runtime thread that owns it and
    /// return the cell the runtime notifies once the request completes.
    fn submit(&self, ctx: &mut Ctx, chunk: usize, kind: LocalKind) -> WaitCell {
        let waiter = WaitCell::new();
        let chunk = chunk as ChunkId;
        self.shared.rt_mailbox(self.node, self.arr.id, chunk).send(
            ctx,
            RtMsg::Local(LocalReq {
                array: self.arr.id,
                chunk,
                kind,
                waiter: waiter.clone(),
            }),
            0,
        );
        waiter
    }

    /// Hint that this node will soon access the chunk holding `index` in
    /// `mode` (an extension beyond Figure 3). Sends the runtime the request
    /// a miss on that chunk would send, then returns without waiting, so
    /// the fill, Operate grant or recall is in flight while the caller
    /// works elsewhere. A later access waits only for what is still
    /// outstanding: the runtime queues it behind the hinted request.
    ///
    /// Nothing is sent when the dentry already permits `mode`, a transition
    /// is in flight on the chunk, a protocol fault is latched, or the
    /// chunk's home is declared down; the later access reports any error.
    /// The hint charges its rights check (a dentry load and branches), and
    /// a request it sends counts in `prefetches`, not in `slow_misses`.
    ///
    /// ```
    /// use darray::{ArrayOptions, Cluster, ClusterConfig, PinMode, Sim, SimConfig};
    /// Sim::new(SimConfig::default()).run(|ctx| {
    ///     let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
    ///     let arr = cluster.alloc_with::<u64>(1024, ArrayOptions::default(), |i| i as u64);
    ///     cluster.run(ctx, 1, move |ctx, env| {
    ///         let a = arr.on(env.node);
    ///         // Request the other node's chunk, work, then read it.
    ///         let remote = if env.node == 0 { 512 } else { 0 };
    ///         a.prefetch(ctx, remote, PinMode::Read);
    ///         ctx.sleep(50_000);
    ///         assert_eq!(a.get(ctx, remote + 7), remote as u64 + 7);
    ///     });
    ///     // The fills arrived before the reads: neither read missed.
    ///     assert_eq!((0..2).map(|n| cluster.stats(n).slow_misses).sum::<u64>(), 0);
    ///     cluster.shutdown(ctx);
    /// });
    /// ```
    pub fn prefetch(&self, ctx: &mut Ctx, index: usize, mode: PinMode) {
        assert!(index < self.len(), "index {index} out of bounds");
        let chunk = self.arr.layout.chunk_of(index);
        let d = self.dentry(chunk);
        let cost = &self.shared.cfg.cost;
        ctx.charge(cost.atomic_load_ns + 2 * cost.branch_ns);
        let kind = mode.kind();
        let state = d.state();
        if d.delay_set() || state.in_flight() || state.permits(kind, || d.op_tag()) {
            return;
        }
        if self.shared.protocol_fault.get().is_some() {
            return;
        }
        let home = self.arr.home_on(self.node, chunk);
        if home != self.node && self.shared.is_peer_down(self.node, home) {
            return;
        }
        NodeStats::bump(&self.shared.stats[self.node].prefetches);
        self.submit(ctx, chunk, LocalKind::Access(kind));
    }

    /// Fast-path access skeleton: acquire rights for `kind`, run `body` on
    /// the data word, release. Retries through the slow path on a miss;
    /// fails with [`DArrayError::NodeUnavailable`] instead of retrying
    /// forever when the chunk's home node has been declared down.
    #[inline]
    fn try_access<R>(
        &self,
        ctx: &mut Ctx,
        index: usize,
        kind: Kind,
        body: impl Fn(&rdma_fabric::MemoryRegion, usize, &Self, &mut Ctx) -> R,
    ) -> Result<R, DArrayError> {
        assert!(index < self.len(), "index {index} out of bounds");
        let layout = &self.arr.layout;
        let chunk = layout.chunk_of(index);
        let off = layout.offset_in_chunk(index);
        let d = self.dentry(chunk);
        let cost = &self.shared.cfg.cost;
        let path_cost = self
            .shared
            .cfg
            .fast_path_cost_ns
            .unwrap_or_else(|| cost.darray_fast_path());
        let lock_based = self.shared.cfg.access_path == AccessPath::LockBased;
        loop {
            if lock_based {
                // §4.1 strawman: a per-chunk lock on every access. Large
                // overhead and chunk-serialized concurrency.
                d.chunk_lock.lock(ctx, cost.mutex_pair_ns);
            }
            ctx.charge(path_cost);
            match d.acquire(kind) {
                Acquire::Ok(line) => {
                    let (region, word) =
                        data_location(&self.shared, &self.arr, self.node, line, chunk, off);
                    let r = body(region, word, self, ctx);
                    d.release();
                    if lock_based {
                        d.chunk_lock.unlock(ctx);
                    }
                    NodeStats::bump(&self.shared.stats[self.node].fast_hits);
                    return Ok(r);
                }
                Acquire::Delayed => {
                    if lock_based {
                        d.chunk_lock.unlock(ctx);
                    }
                    ctx.spin_hint(20);
                }
                Acquire::NoRights(st) => {
                    if lock_based {
                        d.chunk_lock.unlock(ctx);
                    }
                    crate::trace::event(
                        self.arr.id,
                        chunk as u32,
                        self.node,
                        ctx.now(),
                        format_args!("APP-MISS want={:?} state={:?}", kind, st),
                    );
                    if let Some(message) = self.shared.protocol_fault.get() {
                        return Err(DArrayError::ProtocolInvariant { message });
                    }
                    let home = self.arr.home_on(self.node, chunk);
                    if home != self.node && self.shared.is_peer_down(self.node, home) {
                        return Err(self.shared.unavailable_error(self.node, home));
                    }
                    self.slow_request(ctx, chunk, LocalKind::Access(kind));
                }
            }
        }
    }

    /// Read element `index` (Figure 3 line 3). Panics if the element's home
    /// node has been declared down; see [`DArray::try_get`].
    pub fn get(&self, ctx: &mut Ctx, index: usize) -> T {
        self.try_get(ctx, index)
            .unwrap_or_else(|e| panic!("get({index}): {e}"))
    }

    /// Fallible [`DArray::get`]: returns [`DArrayError::NodeUnavailable`]
    /// when the element's home node has been declared down and no local copy
    /// is cached (only possible when `ClusterConfig::fault` is set).
    pub fn try_get(&self, ctx: &mut Ctx, index: usize) -> Result<T, DArrayError> {
        let bits = self.try_access(ctx, index, Kind::Read, |region, word, _, _| {
            region.load(word)
        })?;
        Ok(T::from_bits(bits))
    }

    /// Write element `index` (Figure 3 line 4). Panics if the element's home
    /// node has been declared down; see [`DArray::try_set`].
    pub fn set(&self, ctx: &mut Ctx, index: usize, value: T) {
        self.try_set(ctx, index, value)
            .unwrap_or_else(|e| panic!("set({index}): {e}"))
    }

    /// Fallible [`DArray::set`].
    pub fn try_set(&self, ctx: &mut Ctx, index: usize, value: T) -> Result<(), DArrayError> {
        let bits = value.to_bits();
        self.try_access(ctx, index, Kind::Write, move |region, word, _, _| {
            region.store(word, bits)
        })
    }

    /// Apply a registered operator to element `index` (Figure 3 line 9, the
    /// Operate interface). Under the Operated state the operand is combined
    /// into the local operand buffer; under Exclusive rights it is applied
    /// to the value directly — both are the same commutative combine.
    ///
    /// ```
    /// use darray::{ArrayOptions, Cluster, ClusterConfig, Sim, SimConfig};
    /// Sim::new(SimConfig::default()).run(|ctx| {
    ///     let cluster = Cluster::new(ctx, ClusterConfig::test_config(3));
    ///     let min = cluster.ops().register_min_u64();
    ///     let arr = cluster.alloc_with::<u64>(1024, ArrayOptions::default(), |_| u64::MAX);
    ///     cluster.run(ctx, 1, move |ctx, env| {
    ///         let a = arr.on(env.node);
    ///         // All three nodes concurrently propose a minimum.
    ///         a.apply(ctx, 42, min, 100 + env.node as u64);
    ///         env.barrier(ctx);
    ///         assert_eq!(a.get(ctx, 42), 100);
    ///     });
    ///     cluster.shutdown(ctx);
    /// });
    /// ```
    pub fn apply(&self, ctx: &mut Ctx, index: usize, op: OpId, operand: T) {
        self.try_apply(ctx, index, op, operand)
            .unwrap_or_else(|e| panic!("apply({index}): {e}"))
    }

    /// Fallible [`DArray::apply`].
    pub fn try_apply(
        &self,
        ctx: &mut Ctx,
        index: usize,
        op: OpId,
        operand: T,
    ) -> Result<(), DArrayError> {
        let bits = operand.to_bits();
        let op_cost = self.shared.cfg.cost.op_apply_ns;
        self.try_access(
            ctx,
            index,
            Kind::Operate(op.0),
            move |region, word, this, ctx| {
                loop {
                    let cur = region.load(word);
                    let new = this.shared.registry.combine(op, cur, bits);
                    if region.compare_exchange(word, cur, new).is_ok() {
                        break;
                    }
                }
                ctx.charge(op_cost);
                NodeStats::bump(&this.shared.stats[this.node].local_combines);
            },
        )
    }

    /// Atomic read-modify-write under exclusive (Write) ownership: acquires
    /// the chunk once and CAS-updates the element. This is how systems
    /// *without* the Operate interface (e.g. the GAM baseline's Atomic
    /// verbs) implement read-then-write — the chunk's ownership must
    /// migrate to the caller, serializing concurrent updaters.
    pub fn update(&self, ctx: &mut Ctx, index: usize, f: impl Fn(T) -> T) {
        self.try_update(ctx, index, f)
            .unwrap_or_else(|e| panic!("update({index}): {e}"))
    }

    /// Fallible [`DArray::update`].
    pub fn try_update(
        &self,
        ctx: &mut Ctx,
        index: usize,
        f: impl Fn(T) -> T,
    ) -> Result<(), DArrayError> {
        self.try_access(ctx, index, Kind::Write, move |region, word, _, _| loop {
            let cur = region.load(word);
            let new = f(T::from_bits(cur)).to_bits();
            if region.compare_exchange(word, cur, new).is_ok() {
                break;
            }
        })
    }

    // ------------------------------------------------------------------
    // Distributed locks (Figure 3 lines 5-7)
    // ------------------------------------------------------------------

    /// Acquire the distributed reader lock of element `index`.
    pub fn rlock(&self, ctx: &mut Ctx, index: usize) {
        self.try_rlock(ctx, index)
            .unwrap_or_else(|e| panic!("rlock({index}): {e}"))
    }

    /// Fallible [`DArray::rlock`]: errors when the lock's home node has been
    /// declared down rather than waiting for a grant that can never come.
    pub fn try_rlock(&self, ctx: &mut Ctx, index: usize) -> Result<(), DArrayError> {
        self.try_lock_acquire(ctx, index, LockKind::Read, false)
    }

    /// Shared implementation of the fallible lock acquires. The home is
    /// checked both before submitting (fast fail) and after waking: a wake
    /// may come from `PeerDown` recovery rather than a grant, in which case
    /// the lock was NOT acquired.
    fn try_lock_acquire(
        &self,
        ctx: &mut Ctx,
        index: usize,
        kind: LockKind,
        intent: bool,
    ) -> Result<(), DArrayError> {
        assert!(index < self.len());
        let home = self.arr.layout.home_of(index);
        if let Some(message) = self.shared.protocol_fault.get() {
            return Err(DArrayError::ProtocolInvariant { message });
        }
        if home != self.node && self.shared.is_peer_down(self.node, home) {
            return Err(self.shared.unavailable_error(self.node, home));
        }
        self.lock_request(
            ctx,
            index,
            LocalKind::LockAcquire {
                index: index as u64,
                kind,
                intent,
            },
        );
        if let Some(message) = self.shared.protocol_fault.get() {
            return Err(DArrayError::ProtocolInvariant { message });
        }
        if home != self.node && self.shared.is_peer_down(self.node, home) {
            return Err(self.shared.unavailable_error(self.node, home));
        }
        self.note_held(index, kind, intent);
        Ok(())
    }

    /// Acquire the distributed writer lock of element `index`.
    ///
    /// ```
    /// use darray::{ArrayOptions, Cluster, ClusterConfig, Sim, SimConfig};
    /// Sim::new(SimConfig::default()).run(|ctx| {
    ///     let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
    ///     let arr = cluster.alloc::<u64>(512, ArrayOptions::default());
    ///     cluster.run(ctx, 1, move |ctx, env| {
    ///         let a = arr.on(env.node);
    ///         for _ in 0..5 {
    ///             a.wlock(ctx, 7);
    ///             let v = a.get(ctx, 7);
    ///             a.set(ctx, 7, v + 1); // read-modify-write under the lock
    ///             a.unlock(ctx, 7);
    ///         }
    ///         env.barrier(ctx);
    ///         assert_eq!(a.get(ctx, 7), 10);
    ///     });
    ///     cluster.shutdown(ctx);
    /// });
    /// ```
    pub fn wlock(&self, ctx: &mut Ctx, index: usize) {
        self.try_wlock(ctx, index)
            .unwrap_or_else(|e| panic!("wlock({index}): {e}"))
    }

    /// Fallible [`DArray::wlock`]; see [`DArray::try_rlock`].
    pub fn try_wlock(&self, ctx: &mut Ctx, index: usize) -> Result<(), DArrayError> {
        self.try_lock_acquire(ctx, index, LockKind::Write, false)
    }

    /// Acquire the distributed writer lock of element `index` for a write
    /// to its chunk (a write-intent lock, DESIGN.md §4.5). The grant moves
    /// the chunk to this node: the lock's home pulls it from any other
    /// holder while the grant is in flight, and this node's write miss goes
    /// out before the caller wakes, so the first access after the lock
    /// waits on that fill and writes hit. [`DArray::unlock`] then writes
    /// the chunk back home if no thread here is using it. A lock homed on
    /// this node, or whose chunk has migrated away from the lock's layout
    /// home, is taken as a plain [`DArray::wlock`].
    pub fn wlock_for_write(&self, ctx: &mut Ctx, index: usize) {
        self.try_wlock_for_write(ctx, index)
            .unwrap_or_else(|e| panic!("wlock_for_write({index}): {e}"))
    }

    /// Fallible [`DArray::wlock_for_write`]; see [`DArray::try_rlock`].
    pub fn try_wlock_for_write(&self, ctx: &mut Ctx, index: usize) -> Result<(), DArrayError> {
        let home = self.arr.layout.home_of(index);
        let intent = home != self.node && self.home_of(index) == home;
        self.try_lock_acquire(ctx, index, LockKind::Write, intent)
    }

    /// Release the lock this node holds on element `index`.
    pub fn unlock(&self, ctx: &mut Ctx, index: usize) {
        let (kind, intent) = self.take_held(index);
        self.lock_request(
            ctx,
            index,
            LocalKind::LockRelease {
                index: index as u64,
                kind,
                intent,
            },
        );
    }

    /// Submit lock request `req` on element `index` and wait for it. A
    /// lock goes to the runtime thread that owns its element's chunk.
    fn lock_request(&self, ctx: &mut Ctx, index: usize, req: LocalKind) {
        self.slow_request(ctx, self.arr.layout.chunk_of(index), req);
    }

    fn note_held(&self, index: usize, kind: LockKind, intent: bool) {
        let mut held = self.arr.per_node[self.node].held.lock();
        let e = held.entry(index as u64).or_insert((kind, intent, 0));
        debug_assert_eq!(
            (e.0, e.1),
            (kind, intent),
            "mixed lock kinds held on index {index}"
        );
        e.2 += 1;
    }

    fn take_held(&self, index: usize) -> (LockKind, bool) {
        let mut held = self.arr.per_node[self.node].held.lock();
        let e = held
            .get_mut(&(index as u64))
            .unwrap_or_else(|| panic!("unlock({index}) without a held lock"));
        let taken = (e.0, e.1);
        e.2 -= 1;
        if e.2 == 0 {
            held.remove(&(index as u64));
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use crate::msg::{LocalKind, RtMsg};
    use crate::{
        ArrayOptions, Cluster, ClusterConfig, DArrayError, FaultConfig, FaultPlan, LockKind,
        NodeId, NodeStatsSnapshot, PinMode,
    };
    use dsim::{Sim, SimConfig};

    /// The chunk windows of `range` over a 3-node array of `len` elements
    /// (512-element chunks), each with the homes of its elements.
    fn windows(
        len: usize,
        opts: ArrayOptions,
        range: Range<usize>,
    ) -> Vec<(Range<usize>, Vec<NodeId>)> {
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(3));
            let a = cluster.alloc::<u64>(len, opts).on(0);
            let out = a
                .chunk_windows(range)
                .map(|w| (w.clone(), w.map(|i| a.home_of(i)).collect()))
                .collect();
            cluster.shutdown(ctx);
            out
        })
    }

    fn ranges(ws: &[(Range<usize>, Vec<NodeId>)]) -> Vec<Range<usize>> {
        ws.iter().map(|(w, _)| w.clone()).collect()
    }

    #[test]
    fn chunk_windows_start_unaligned_and_end_on_a_partial_tail_chunk() {
        let ws = windows(1100, ArrayOptions::default(), 300..1100);
        assert_eq!(ranges(&ws), [300..512, 512..1024, 1024..1100]);
    }

    #[test]
    fn chunk_windows_of_an_empty_range_is_empty() {
        assert!(windows(1100, ArrayOptions::default(), 700..700).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn chunk_windows_panics_past_the_end() {
        windows(1100, ArrayOptions::default(), 0..1101);
    }

    #[test]
    fn no_chunk_window_spans_two_homes_under_a_custom_partition() {
        // Offsets off chunk boundaries round up to 1024 and 2048.
        let opts = ArrayOptions {
            chunk_size: None,
            partition_offset: Some(vec![0, 700, 1600]),
        };
        let ws = windows(2500, opts, 100..2500);
        assert_eq!(
            ranges(&ws),
            [100..512, 512..1024, 1024..1536, 1536..2048, 2048..2500]
        );
        let homes: Vec<NodeId> = ws
            .iter()
            .map(|(w, h)| {
                assert!(h.iter().all(|&x| x == h[0]), "window {w:?} spans {h:?}");
                h[0]
            })
            .collect();
        assert_eq!(homes, [0, 0, 1, 1, 2]);
    }

    /// Longer than any request's round trip under `test_config`.
    const PAST_A_ROUND_TRIP: u64 = 50_000;

    /// Run `body` as node 0's application thread on a 2-node cluster with
    /// one 1,024-element array (chunk 0 homed on node 0, chunk 1 on node
    /// 1), then return both nodes' counters.
    fn on_node0(
        cfg: ClusterConfig,
        body: impl FnOnce(&mut dsim::Ctx, &Cluster, &crate::DArray<u64>) + Send + 'static,
    ) -> [NodeStatsSnapshot; 2] {
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, cfg);
            let a = cluster.alloc_with::<u64>(1024, ArrayOptions::default(), |i| i as u64);
            body(ctx, &cluster, &a.on(0));
            let stats = [cluster.stats(0), cluster.stats(1)];
            cluster.shutdown(ctx);
            stats
        })
    }

    #[test]
    fn a_hint_on_rights_already_held_sends_nothing() {
        on_node0(ClusterConfig::test_config(2), |ctx, cluster, a| {
            let add = cluster.ops().register_add_u64();
            a.get(ctx, 512); // chunk 1 is now Shared here
            let before = [cluster.stats(0), cluster.stats(1)];
            // The home chunk is Exclusive: every mode is held.
            for mode in [PinMode::Read, PinMode::Write, PinMode::Operate(add)] {
                a.prefetch(ctx, 0, mode);
            }
            a.prefetch(ctx, 1023, PinMode::Read);
            ctx.sleep(PAST_A_ROUND_TRIP);
            assert_eq!([cluster.stats(0), cluster.stats(1)], before);
            assert_eq!(before[0].prefetches, 0);
        });
    }

    /// A hint on a remote Invalid chunk, a round trip of other work, then
    /// the access: it hits, and the run makes exactly one fill (a read
    /// fill, or an Operate grant).
    #[test]
    fn a_hinted_access_does_not_miss() {
        for operate in [false, true] {
            let s = on_node0(ClusterConfig::test_config(2), move |ctx, cluster, a| {
                let add = cluster.ops().register_add_u64();
                let mode = if operate {
                    PinMode::Operate(add)
                } else {
                    PinMode::Read
                };
                a.prefetch(ctx, 600, mode);
                ctx.sleep(PAST_A_ROUND_TRIP);
                if operate {
                    a.apply(ctx, 600, add, 5);
                } else {
                    assert_eq!(a.get(ctx, 600), 600);
                }
            });
            let what = if operate { "apply" } else { "get" };
            assert_eq!(s[0].slow_misses, 0, "{what}");
            assert_eq!(s[0].prefetches, 1, "{what}");
            assert_eq!(s[0].fills + s[1].fills, 1, "{what}");
        }
    }

    /// Two hints in a row both reach the runtime before it has served
    /// either, so both count, but the second finds the first's fill in
    /// flight and queues behind it: the wire carries one request, exactly
    /// the traffic of a single hint.
    #[test]
    fn two_hints_in_a_row_send_one_request() {
        let [one, two] = [1, 2].map(|hints| {
            on_node0(ClusterConfig::test_config(2), move |ctx, _, a| {
                for _ in 0..hints {
                    a.prefetch(ctx, 600, PinMode::Read);
                }
                ctx.sleep(PAST_A_ROUND_TRIP);
                assert_eq!(a.get(ctx, 600), 600);
            })
        });
        assert_eq!((one[0].prefetches, two[0].prefetches), (1, 2));
        assert_eq!((one[0].local_handled, two[0].local_handled), (1, 2));
        for n in 0..2 {
            assert_eq!(two[n].fills, one[n].fills, "node {n}");
            assert_eq!(two[n].frames, one[n].frames, "node {n}");
            assert_eq!(two[n].rpcs_handled, one[n].rpcs_handled, "node {n}");
        }
        assert_eq!(two[0].fills, 1);
    }

    /// A hint on a chunk whose home is declared down sends nothing, and
    /// the access still reports the home unavailable.
    #[test]
    fn a_hint_to_a_dead_home_sends_nothing() {
        let mut plan = FaultPlan::new(7);
        plan.crash_at = vec![(1, 2_000_000)];
        let mut fc = FaultConfig::new(plan);
        fc.rpc_timeout_ns = 50_000;
        fc.max_retries = 3;
        let mut cfg = ClusterConfig::with_nodes(2);
        cfg.fault = Some(fc);
        on_node0(cfg, |ctx, cluster, a| {
            ctx.sleep(3_000_000);
            // The first access after the crash times out and the node is
            // declared down.
            assert!(matches!(
                a.try_get(ctx, 512),
                Err(DArrayError::NodeUnavailable { node: 1, .. })
            ));
            let before = cluster.stats(0);
            a.prefetch(ctx, 700, PinMode::Read);
            ctx.sleep(PAST_A_ROUND_TRIP);
            let after = cluster.stats(0);
            assert_eq!(after.prefetches, before.prefetches);
            assert_eq!(after.local_handled, before.local_handled);
            assert!(matches!(
                a.try_get(ctx, 700),
                Err(DArrayError::NodeUnavailable { node: 1, .. })
            ));
        });
    }

    /// A lock request goes with its element's chunk: a lock on element
    /// 1,000 of 512-element chunks reaches chunk 1's runtime thread. The
    /// runtime is shut down first, so the request stays in its mailbox.
    #[test]
    fn lock_requests_route_by_element_chunk() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
            let a = cluster.alloc::<u64>(2048, ArrayOptions::default()).on(0);
            cluster.shutdown(ctx);
            let app = a.clone();
            let h = ctx.spawn("app", move |c| app.wlock(c, 1_000));
            ctx.sleep(1);
            let mailbox = a.shared.rt_mailbox(0, a.arr.id, 1);
            let Some(RtMsg::Local(req)) = mailbox.try_recv(ctx) else {
                panic!("no lock request in chunk 1's mailbox");
            };
            assert_eq!(req.chunk, 1);
            assert!(matches!(
                req.kind,
                LocalKind::LockAcquire {
                    index: 1_000,
                    kind: LockKind::Write,
                    intent: false
                }
            ));
            req.waiter.notify(ctx);
            h.join(ctx);
        });
    }
}
