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
        let home = self.arr.home_on(self.node, chunk);
        if self.serviceable(home).is_err() {
            return;
        }
        NodeStats::bump(&self.shared.stats[self.node].prefetches);
        self.submit(ctx, chunk, LocalKind::Access(kind));
    }

    /// Can the runtime serve a request on a chunk or lock homed on `home`?
    /// Not once a protocol fault is latched, nor while `home` is declared
    /// down. Every entry that would wait on the runtime asks this first: a
    /// miss, a pin, a prefetch and a lock acquire.
    pub(crate) fn serviceable(&self, home: NodeId) -> Result<(), DArrayError> {
        if let Some(message) = self.shared.protocol_fault.get() {
            return Err(DArrayError::ProtocolInvariant { message });
        }
        if home != self.node && self.shared.is_peer_down(self.node, home) {
            return Err(self.shared.unavailable_error(self.node, home));
        }
        Ok(())
    }

    /// The acquire loop of Figure 4, shared by every access and
    /// [`DArray::pin`]: charge `path_cost`, take a reference on `chunk`
    /// with rights for `kind`, and on a miss wait for the runtime and
    /// retry. Returns the line the held reference points at; the caller
    /// releases the reference. With `chunk_lock` (the §4.1 strawman) each
    /// attempt takes the chunk's lock, and a hit returns with it held.
    /// Fails instead of waiting when the runtime cannot serve the miss.
    #[inline]
    pub(crate) fn acquire(
        &self,
        ctx: &mut Ctx,
        chunk: usize,
        kind: Kind,
        path_cost: u64,
        chunk_lock: bool,
    ) -> Result<u32, DArrayError> {
        let d = self.dentry(chunk);
        loop {
            if chunk_lock {
                d.chunk_lock.lock(ctx, self.shared.cfg.cost.mutex_pair_ns);
            }
            ctx.charge(path_cost);
            let missed = match d.acquire(kind) {
                Acquire::Ok(line) => return Ok(line),
                Acquire::Delayed => None,
                Acquire::NoRights(st) => Some(st),
            };
            if chunk_lock {
                d.chunk_lock.unlock(ctx);
            }
            let Some(st) = missed else {
                ctx.spin_hint(20);
                continue;
            };
            crate::trace::event(
                self.arr.id,
                chunk as u32,
                self.node,
                ctx.now(),
                format_args!("APP-MISS want={:?} state={:?}", kind, st),
            );
            self.serviceable(self.arr.home_on(self.node, chunk))?;
            self.slow_request(ctx, chunk, LocalKind::Access(kind));
        }
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
        let cfg = &self.shared.cfg;
        let path_cost = cfg
            .fast_path_cost_ns
            .unwrap_or_else(|| cfg.cost.darray_fast_path());
        let lock_based = cfg.access_path == AccessPath::LockBased;
        let line = self.acquire(ctx, chunk, kind, path_cost, lock_based)?;
        let off = layout.offset_in_chunk(index);
        let (region, word) = data_location(&self.shared, &self.arr, self.node, line, chunk, off);
        let r = body(region, word, self, ctx);
        let d = self.dentry(chunk);
        d.release();
        if lock_based {
            d.chunk_lock.unlock(ctx);
        }
        NodeStats::bump(&self.shared.stats[self.node].fast_hits);
        Ok(r)
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
    /// Evicting an Operated line sends its operands home but keeps the
    /// node's Operate rights (DESIGN.md §4.2): the chunk goes idle, and
    /// the next `apply` under the same operator rebuilds an identity
    /// buffer in a fresh line without a message or a wait on the home,
    /// counted in `operate_reacquires` rather than `fills`. The rights end
    /// when the home recalls them (an idle node answers at once with an
    /// empty flush) or when the node asks for other rights. The cost of
    /// keeping them: a Read or Write of an Operated chunk whose holders
    /// have all evicted recalls them, one empty flush each, where the home
    /// could otherwise promote the chunk at once.
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
        self.serviceable(home)?;
        self.lock_request(
            ctx,
            index,
            LocalKind::LockAcquire {
                index: index as u64,
                kind,
                intent,
            },
        );
        self.serviceable(home)?;
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
    /// waits on that fill and writes hit. The grant also carries how
    /// [`DArray::unlock`] releases the chunk: it keeps a Shared copy here
    /// when the pull revoked another node's Shared copy and no writer of
    /// another node holds or waits for a lock in the chunk, and otherwise
    /// hands the chunk back whole. A lock homed on this node, or whose
    /// chunk has migrated away from the lock's layout home, is taken as a
    /// plain [`DArray::wlock`].
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

    /// Release the lock this node holds on element `index`. Releasing a
    /// write-intent lock ([`DArray::wlock_for_write`]) also writes this
    /// node's Exclusive copy of the element's chunk home, if no thread
    /// here is using it: it keeps a Shared copy when the grant said so,
    /// and otherwise frees the line. Either way the next holder or reader
    /// is served by the home rather than by a recall.
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

    use crate::msg::{ChunkId, Envelope, Intent, LocalKind, Rpc, RtMsg};
    use crate::state::LocalState;
    use crate::{
        ArrayOptions, Cluster, ClusterConfig, DArrayError, FaultConfig, FaultPlan, LockKind,
        NodeId, NodeStatsSnapshot, OpId, PinMode,
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

    /// A 2-node cluster (`cfg`) with a 24-line cache and no prefetch: node
    /// 1's reads of node 0's 32 chunks make the eviction scan run, and one
    /// allocation just after a reclaim episode arms none (every pool keeps
    /// at least 6 lines, so a pool at its high watermark stays above its
    /// low one after one more line), at 1, 2 or 4 runtime threads.
    fn evicting(
        ctx: &mut dsim::Ctx,
        mut cfg: ClusterConfig,
    ) -> (Cluster, crate::DArray<u64>, crate::DArray<u64>) {
        cfg.cache.capacity_lines = 24;
        cfg.cache.prefetch_lines = 0;
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc_with::<u64>(64 * 512, ArrayOptions::default(), |i| i as u64);
        let (a0, a1) = (arr.on(0), arr.on(1));
        (cluster, a0, a1)
    }

    /// Node 1 applies `op` with `operand` to element 7 of chunk 0, which
    /// node 0 homes, then reads node 0's other chunks until the eviction
    /// scan has taken chunk 0's line: its operands went home in a keep
    /// flush and its Operate rights stayed.
    fn apply_then_evict(ctx: &mut dsim::Ctx, a1: &crate::DArray<u64>, op: OpId, operand: u64) {
        a1.apply(ctx, 7, op, operand);
        assert_eq!(a1.dentry(0).state(), LocalState::Operated);
        for c in 1..32 {
            if a1.dentry(0).state() == LocalState::OperatedIdle {
                break;
            }
            a1.get(ctx, c * 512);
        }
        // Let the reclaim episode finish before anything is measured.
        ctx.sleep(PAST_A_ROUND_TRIP);
        assert_eq!(a1.dentry(0).state(), LocalState::OperatedIdle);
        assert_eq!(a1.dentry(0).op_tag(), op.0);
    }

    /// An apply to an idle Operated chunk re-acquires it locally: no frame
    /// leaves either node and no fill is counted, one re-acquire is; the
    /// home then reads both applies.
    #[test]
    fn an_idle_operated_chunk_reapplies_with_no_message() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let (cluster, a0, a1) = evicting(ctx, ClusterConfig::test_config(2));
            let add = cluster.ops().register_add_u64();
            apply_then_evict(ctx, &a1, add, 1);
            let before = [cluster.stats(0), cluster.stats(1)];
            a1.apply(ctx, 7, add, 1);
            let after = [cluster.stats(0), cluster.stats(1)];
            for n in 0..2 {
                assert_eq!(after[n].frames, before[n].frames, "node {n} sent a frame");
                assert_eq!(after[n].fills, before[n].fills, "node {n} counted a fill");
            }
            assert_eq!(
                after[1].operate_reacquires,
                before[1].operate_reacquires + 1
            );
            assert_eq!(after[1].slow_misses, before[1].slow_misses + 1);
            assert_eq!(a1.dentry(0).state(), LocalState::Operated);
            assert_eq!(a0.get(ctx, 7), 7 + 2);
            cluster.shutdown(ctx);
        });
    }

    /// Each way out of the idle state keeps every operand: node 1 reading
    /// the chunk (its leaving flush goes first), node 0 reading it (the
    /// recall finds node 1 idle and takes an empty flush), and node 1
    /// applying under a second operator.
    #[test]
    fn every_exit_from_the_idle_state_keeps_the_sum() {
        for exit in ["node 1 reads", "node 0 recalls", "node 1 changes operator"] {
            Sim::new(SimConfig::default()).run(move |ctx| {
                let (cluster, a0, a1) = evicting(ctx, ClusterConfig::test_config(2));
                let add = cluster.ops().register_add_u64();
                let max = cluster.ops().register_max_u64();
                apply_then_evict(ctx, &a1, add, 5);
                let flushes = cluster.stats(1).operand_flushes;
                match exit {
                    "node 1 reads" => assert_eq!(a1.get(ctx, 7), 7 + 5, "{exit}"),
                    "node 0 recalls" => {
                        assert_eq!(a0.get(ctx, 7), 7 + 5, "{exit}");
                        assert_eq!(cluster.stats(1).recalls, 1, "{exit}");
                    }
                    _ => a1.apply(ctx, 7, max, 100),
                }
                // One empty flush left node 1 in each case.
                assert_eq!(cluster.stats(1).operand_flushes, flushes + 1, "{exit}");
                assert_ne!(a1.dentry(0).state(), LocalState::OperatedIdle, "{exit}");
                let want = if exit == "node 1 changes operator" {
                    100
                } else {
                    7 + 5
                };
                assert_eq!(a0.get(ctx, 7), want, "{exit}");
                assert_eq!(cluster.stats(1).operate_reacquires, 0, "{exit}");
                cluster.shutdown(ctx);
            });
        }
    }

    /// An idle chunk whose home is declared down keeps its rights, but an
    /// apply reports the home unavailable instead of re-acquiring.
    #[test]
    fn an_idle_chunk_of_a_dead_home_is_unavailable() {
        let mut plan = FaultPlan::new(7);
        plan.crash_at = vec![(0, 2_000_000)];
        let mut fc = FaultConfig::new(plan);
        fc.rpc_timeout_ns = 50_000;
        fc.max_retries = 3;
        let mut cfg = ClusterConfig::with_nodes(2);
        cfg.fault = Some(fc);
        Sim::new(SimConfig::default()).run(move |ctx| {
            let (cluster, _, a1) = evicting(ctx, cfg);
            let add = cluster.ops().register_add_u64();
            apply_then_evict(ctx, &a1, add, 1);
            ctx.sleep(3_000_000);
            // The first write after the crash (no copy node 1 holds allows
            // one) times out and the node is declared down.
            assert!(matches!(
                a1.try_set(ctx, 31 * 512, 0),
                Err(DArrayError::NodeUnavailable { node: 0, .. })
            ));
            let reacquires = cluster.stats(1).operate_reacquires;
            assert!(matches!(
                a1.try_apply(ctx, 7, add, 1),
                Err(DArrayError::NodeUnavailable { node: 0, .. })
            ));
            assert_eq!(a1.dentry(0).state(), LocalState::OperatedIdle);
            assert_eq!(cluster.stats(1).operate_reacquires, reacquires);
            cluster.shutdown(ctx);
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

    /// A `LockGrant` no thread waits for latches a protocol fault. From
    /// then on every entry that needs the runtime fails with
    /// `ProtocolInvariant` on a chunk node 0 holds no rights to, the pin
    /// included; a prefetch sends nothing; a chunk node 0 holds still hits.
    #[test]
    fn a_poisoned_cluster_fails_every_entry_that_needs_the_runtime() {
        const E: usize = 2 * 512 + 5; // chunk 2, homed on node 1
        Sim::new(SimConfig::default()).run(|ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
            let add = cluster.ops().register_add_u64();
            let arr = cluster.alloc_with::<u64>(4 * 512, ArrayOptions::default(), |i| i as u64);
            let a = arr.on(0);
            let chunk = a.arr.layout.chunk_of(E) as ChunkId;
            let grant = Rpc::LockGrant {
                id: E as u64,
                kind: LockKind::Write,
                intent: Intent::Plain,
            };
            let env = Envelope::new(a.arr.id, chunk, grant);
            let mb = a.shared.rt_mailbox(0, a.arr.id, chunk);
            mb.send(ctx, RtMsg::Net { src: 1, env }, 0);
            ctx.sleep(50_000);
            assert!(a.shared.protocol_fault.get().is_some());
            assert_eq!(a.dentry(chunk as usize).state(), LocalState::Invalid);
            let poisoned = |r: Result<(), DArrayError>, what: &str| {
                assert!(
                    matches!(r, Err(DArrayError::ProtocolInvariant { .. })),
                    "{what}: {r:?}"
                );
            };
            poisoned(a.try_get(ctx, E).map(drop), "try_get");
            poisoned(a.try_set(ctx, E + 1, 7), "try_set");
            poisoned(a.try_update(ctx, E + 2, |v| v + 1), "try_update");
            poisoned(a.try_apply(ctx, E + 3, add, 1), "try_apply");
            poisoned(a.try_rlock(ctx, E + 4), "try_rlock");
            poisoned(a.try_wlock(ctx, E + 5), "try_wlock");
            poisoned(a.try_wlock_for_write(ctx, E + 6), "try_wlock_for_write");
            poisoned(a.try_pin(ctx, E + 7, PinMode::Read).map(drop), "try_pin");
            let before = cluster.stats(0);
            a.prefetch(ctx, E, PinMode::Read);
            ctx.sleep(50_000);
            let after = cluster.stats(0);
            assert_eq!(
                (after.prefetches, after.frames),
                (before.prefetches, before.frames)
            );
            // Node 0's own chunk is held: its accesses still hit.
            assert_eq!(a.try_get(ctx, 5), Ok(5));
            cluster.shutdown(ctx);
        });
    }
}
