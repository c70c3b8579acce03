//! Distributed element-lock handling (§4.5), split out of the runtime event
//! loop. Locks are orthogonal to the coherence protocol: a lock's home node
//! arbitrates fairness in its `LockTable`; requesters park waiters in their
//! `lock_waiters` map until a `LockGrant` arrives. No cacheline or directory
//! state is involved.
//!
//! The table itself is sans-I/O (`crate::protocol::locks`); this file is the
//! executor glue that turns grants into `LockGrant` messages or wait-cell
//! notifications, and drives `forget_peer` when a peer is declared dead.
//!
//! A write-intent lock (DESIGN.md §4.5) also moves the element's chunk.
//! Where the grantee shares it, the home serves the grantee's write at the
//! grant: the other sharers ack the grantee, and the grant says how many
//! acks to expect. Otherwise the grant makes the home pull the chunk from
//! other holders and the grantee issue its write miss. The release writes
//! the grantee's copy back home, keeping a Shared copy when the grant said
//! so.

use std::collections::VecDeque;
use std::sync::Arc;

use dsim::{Ctx, WaitCell};
use rdma_fabric::NodeId;

use crate::msg::{ChunkId, Envelope, Intent, LockKind, Rpc};
use crate::protocol::locks::LockSource;
use crate::protocol::{CacheEvent, HomeEvent, Kind};
use crate::shared::ArrayShared;
use crate::state::LocalState;
use crate::stats::NodeStats;

use super::RuntimeThread;

impl RuntimeThread {
    fn deliver_grant(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        id: u64,
        kind: LockKind,
        src: LockSource<WaitCell>,
    ) {
        // A grant can cascade: if the grantee was declared dead after it
        // queued, the lock is released straight back and may wake further
        // waiters (FIFO order preserved).
        let mut pending = VecDeque::new();
        pending.push_back((id, kind, src));
        while let Some((id, kind, src)) = pending.pop_front() {
            match src {
                LockSource::Local(w) => {
                    NodeStats::bump(&self.stats().locks_granted);
                    w.notify(ctx);
                }
                LockSource::Remote { node: n, intent }
                    if !self.shared.is_peer_down(self.node, n) =>
                {
                    NodeStats::bump(&self.stats().locks_granted);
                    let chunk = arr.layout.chunk_of(id as usize) as ChunkId;
                    let intent = match intent {
                        false => Intent::Plain,
                        true if self.keeps(arr, id, chunk, n) => Intent::Keep,
                        true => Intent::HandBack,
                    };
                    if intent != Intent::Plain && self.directs(ctx, arr, chunk, n) {
                        let keep = intent == Intent::Keep;
                        self.grants.insert((arr.id, chunk), (id, kind, keep));
                        let grant = HomeEvent::IntentGrant { grantee: n };
                        self.home_event(ctx, arr.id, chunk, grant);
                        continue;
                    }
                    let rpc = Rpc::LockGrant { id, kind, intent };
                    self.comm.send(ctx, n, Envelope::new(arr.id, chunk, rpc));
                    if intent != Intent::Plain {
                        self.pull_for(ctx, arr, chunk, n);
                    }
                }
                LockSource::Remote { node: n, .. } => {
                    // Grantee died before the grant left this node: take the
                    // lock back so survivors are not blocked on a corpse.
                    NodeStats::bump(&self.stats().orphaned_locks_reclaimed);
                    let woken =
                        arr.per_node[self.node]
                            .lock_table
                            .lock()
                            .release(id, kind, Some(n));
                    pending.extend(woken.into_iter().map(|(s, k)| (id, k, s)));
                }
            }
        }
    }

    /// Does this runtime thread pull `chunk` for an intent grant? Only the
    /// chunk's current home pulls (a chunk migrated away from its lock's
    /// layout home is left to the grantee's miss), and only on the runtime
    /// thread that owns the chunk: a peer-down sweep delivers every
    /// element's grants from whichever thread runs it first.
    fn pulls(&self, arr: &ArrayShared, chunk: ChunkId) -> bool {
        arr.home_on(self.node, chunk as usize) == self.node
            && self.shared.rt_index(arr.id, chunk) == self.rt_idx
    }

    /// Does the home serve `grantee`'s write at this intent grant of an
    /// element of `chunk` (`HomeMachine::directs_grant`, DESIGN.md §4.5)?
    /// Only on the thread that pulls the chunk.
    fn directs(&self, ctx: &Ctx, arr: &ArrayShared, chunk: ChunkId, grantee: NodeId) -> bool {
        self.pulls(arr, chunk)
            && arr.per_node[self.node].home[chunk as usize]
                .lock()
                .directs_grant(ctx.now(), self.shared.cfg.grant_grace_ns, grantee)
    }

    /// The release rule of an intent grant of element `id` to `grantee`,
    /// decided before the grant changes the directory
    /// (`LockTable::intent_keeps`): keep a Shared copy at unlock when the
    /// grant displaces a reader and no other node's writer locks in the
    /// chunk. A chunk this thread does not pull is handed back.
    fn keeps(&self, arr: &ArrayShared, id: u64, chunk: ChunkId, grantee: NodeId) -> bool {
        if !self.pulls(arr, chunk) {
            return false;
        }
        let cs = arr.layout.chunk_size() as u64;
        let elems = chunk as u64 * cs..(chunk as u64 + 1) * cs;
        let dir = arr.per_node[self.node].home[chunk as usize].lock();
        arr.per_node[self.node]
            .lock_table
            .lock()
            .intent_keeps(id, elems, dir.state(), grantee)
    }

    /// The home half of an intent grant to `grantee`: unless it already
    /// holds `chunk` alone, run the home node's own write miss, so the
    /// revoke round (invalidations, or the recall of the last writer)
    /// overlaps the grant's flight.
    fn pull_for(&mut self, ctx: &mut Ctx, arr: &Arc<ArrayShared>, chunk: ChunkId, grantee: NodeId) {
        if !self.pulls(arr, chunk) {
            return;
        }
        let alone = arr.per_node[self.node].home[chunk as usize]
            .lock()
            .state()
            .held_alone_by(grantee);
        if !alone {
            self.local_data_req(ctx, arr, chunk, Kind::Write, WaitCell::new());
        }
    }

    pub(super) fn local_lock_acquire(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        index: u64,
        kind: LockKind,
        intent: bool,
        waiter: WaitCell,
    ) {
        let home = arr.layout.home_of(index as usize);
        if home == self.node {
            let granted = arr.per_node[self.node].lock_table.lock().acquire(
                index,
                kind,
                LockSource::Local(waiter),
            );
            if let Some(src) = granted {
                self.deliver_grant(ctx, arr, index, kind, src);
            }
        } else if self.shared.is_peer_down(self.node, home) {
            // The lock's home is dead: wake the waiter so the application
            // thread re-checks and observes `NodeUnavailable`.
            waiter.notify(ctx);
        } else {
            arr.per_node[self.node]
                .lock_waiters
                .lock()
                .entry((index, kind))
                .or_default()
                .push_back(waiter);
            let chunk = arr.layout.chunk_of(index as usize) as ChunkId;
            let rpc = Rpc::LockAcquire {
                id: index,
                kind,
                intent,
            };
            self.comm.send(ctx, home, Envelope::new(arr.id, chunk, rpc));
        }
    }

    pub(super) fn local_lock_release(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        index: u64,
        kind: LockKind,
        intent: bool,
        waiter: WaitCell,
    ) {
        let home = arr.layout.home_of(index as usize);
        let chunk = arr.layout.chunk_of(index as usize) as ChunkId;
        if home == self.node {
            let woken = arr.per_node[self.node]
                .lock_table
                .lock()
                .release(index, kind, None);
            for (src, k) in woken {
                self.deliver_grant(ctx, arr, index, k, src);
            }
        } else {
            let rpc = Rpc::LockRelease { id: index, kind };
            self.comm.send(ctx, home, Envelope::new(arr.id, chunk, rpc));
        }
        // Releases complete locally; the wire release is one-way.
        waiter.notify(ctx);
        // The release half of an intent lock: write this node's unused
        // Exclusive copy back home, so the next holder or reader is served
        // by the home rather than by a recall. It keeps a Shared copy (a
        // voluntary downgrade) when its grant said so, and otherwise hands
        // the chunk back whole (the ordinary eviction).
        let keep = self.keep_at_unlock.remove(&(arr.id, index));
        let d = &arr.per_node[self.node].dentries[chunk as usize];
        if intent
            && d.state() == LocalState::Exclusive
            && arr.home_on(self.node, chunk as usize) != self.node
        {
            let ev = if keep {
                CacheEvent::Downgrade
            } else {
                CacheEvent::Evict
            };
            if self.release_unused(ctx, arr, chunk, ev) && keep {
                NodeStats::bump(&self.stats().intent_keeps);
            }
        }
    }

    pub(super) fn rpc_lock_acquire(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        id: u64,
        kind: LockKind,
        intent: bool,
        src: NodeId,
    ) {
        let granted = arr.per_node[self.node].lock_table.lock().acquire(
            id,
            kind,
            LockSource::Remote { node: src, intent },
        );
        if let Some(s) = granted {
            self.deliver_grant(ctx, arr, id, kind, s);
        }
    }

    pub(super) fn rpc_lock_release(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        id: u64,
        kind: LockKind,
        src: NodeId,
    ) {
        let woken = arr.per_node[self.node]
            .lock_table
            .lock()
            .release(id, kind, Some(src));
        for (src, k) in woken {
            self.deliver_grant(ctx, arr, id, k, src);
        }
    }

    /// A grant arrived. For an intent grant, the unlock's release rule is
    /// remembered until the unlock. A directed grant (`acks`) counts toward
    /// the write the home served at the grant, and the grantee reads its
    /// Shared copy meanwhile; for any other intent grant, the ordinary
    /// write miss for the element's chunk goes out before the application
    /// thread wakes, so its first access waits on that fill.
    pub(super) fn rpc_lock_grant(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        id: u64,
        kind: LockKind,
        intent: Intent,
        acks: Option<u32>,
    ) {
        let popped = {
            let mut lw = arr.per_node[self.node].lock_waiters.lock();
            let popped = lw.get_mut(&(id, kind)).and_then(|q| q.pop_front());
            if lw.get(&(id, kind)).is_some_and(|q| q.is_empty()) {
                lw.remove(&(id, kind));
            }
            popped
        };
        let Some(w) = popped else {
            return self.lock_grant_invariant_violated(arr, id, kind);
        };
        if intent == Intent::Keep {
            self.keep_at_unlock.insert((arr.id, id));
        }
        let chunk = arr.layout.chunk_of(id as usize) as ChunkId;
        match acks {
            Some(acks) => {
                let data = !self.grant_words.is_empty();
                let grant = CacheEvent::DirectedGrant { acks, data };
                self.cache_event(ctx, arr, chunk, grant, None);
                self.grant_words.clear();
            }
            None if intent != Intent::Plain => {
                self.local_data_req(ctx, arr, chunk, Kind::Write, WaitCell::new());
            }
            None => {}
        }
        w.notify(ctx);
    }

    /// A peer was declared dead: reclaim every lock it held in this node's
    /// table, drop its queued requests, and deliver the grants that unblock
    /// surviving waiters. Idempotent, so it is safe for every runtime thread
    /// of the node to run the sweep (the first to arrive does the work).
    pub(super) fn reclaim_peer_locks(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        dead: NodeId,
    ) {
        let purge = arr.per_node[self.node].lock_table.lock().forget_peer(dead);
        for _ in 0..purge.reclaimed {
            NodeStats::bump(&self.stats().orphaned_locks_reclaimed);
        }
        for (id, src, k) in purge.granted {
            self.deliver_grant(ctx, arr, id, k, src);
        }
    }

    /// A `LockGrant` arrived for an element no local thread is waiting on.
    /// This is a protocol-invariant violation (grants are only ever sent in
    /// response to an acquire we registered a waiter for, on a FIFO link):
    /// capture everything a debugger would want and poison the cluster —
    /// `try_*` APIs surface it as `DArrayError::ProtocolInvariant` — instead
    /// of aborting the process from inside a runtime thread.
    #[cold]
    #[inline(never)]
    fn lock_grant_invariant_violated(&self, arr: &ArrayShared, id: u64, kind: LockKind) {
        let chunk = arr.layout.chunk_of(id as usize);
        let home = arr.layout.home_of(id as usize);
        let waiting: Vec<(u64, LockKind, usize)> = arr.per_node[self.node]
            .lock_waiters
            .lock()
            .iter()
            .map(|((i, k), q)| (*i, *k, q.len()))
            .collect();
        let (state, transient, pending) = {
            let hm = arr.per_node[home].home[chunk].lock();
            (
                format!("{:?}", hm.state()),
                hm.transient().name(),
                hm.pending_len(),
            )
        };
        self.shared.protocol_fault.record(format!(
            "node {} (rt {}) received LockGrant for element {id} kind {kind:?} of array {} with \
             no registered waiter; chunk {chunk} homed on node {home}; home directory state \
             {state} transient {transient} with {pending} pending request(s); local waiters \
             registered: {waiting:?}",
            self.node, self.rt_idx, arr.id,
        ));
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use dsim::{Sim, SimConfig};
    use parking_lot::Mutex;

    use crate::dentry::LINE_NONE;
    use crate::msg::{Envelope, LockKind, Rpc, RtMsg};
    use crate::state::{DirState, LocalState};
    use crate::{
        ArrayOptions, Cluster, ClusterConfig, NodeStatsSnapshot, PinMode, DEFAULT_CHUNK_SIZE,
    };

    /// 3 nodes × 2 application threads run read-modify-writes under
    /// write-intent locks, each thread cycling through `elems`. All of
    /// them lie in chunk 1, homed on node 1, so nodes 0 and 2 take intent
    /// locks and node 1 plain ones. Every increment must land.
    fn intent_rmw(elems: &'static [usize]) {
        const ROUNDS: usize = 12;
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::with_nodes(3));
            let arr = cluster.alloc::<u64>(3 * DEFAULT_CHUNK_SIZE, ArrayOptions::default());
            cluster.run(ctx, 2, move |ctx, env| {
                let a = arr.on(env.node);
                for r in 0..ROUNDS {
                    let e = elems[(env.thread + r) % elems.len()];
                    a.wlock_for_write(ctx, e);
                    let v = a.get(ctx, e);
                    a.set(ctx, e, v + 1);
                    a.unlock(ctx, e);
                }
                env.barrier(ctx);
                let each = (env.nodes * env.threads_per_node * ROUNDS / elems.len()) as u64;
                for &e in elems {
                    assert_eq!(a.home_of(e), 1);
                    assert_eq!(a.get(ctx, e), each, "element {e}");
                }
            });
            cluster.shutdown(ctx);
        });
    }

    #[test]
    fn intent_locks_on_one_element_complete_every_increment() {
        intent_rmw(&[600]);
    }

    /// Two locks in one chunk: while one thread holds a lock and its
    /// chunk, another thread's grant for the other element pulls the same
    /// chunk away. This is the shape that deadlocks a design which parks
    /// the grantee's write request at the lock home until the grant.
    #[test]
    fn intent_locks_on_two_elements_of_one_chunk_complete_every_increment() {
        intent_rmw(&[600, 700]);
    }

    /// Chunk 1's element 3, homed on node 1.
    const E: usize = DEFAULT_CHUNK_SIZE + 3;

    /// What node 0's write-intent unlock left behind: its dentry state,
    /// whether it kept a line, the home's directory state, and every
    /// node's counters once all three nodes have read `E` back.
    struct Unlocked {
        state: LocalState,
        line: bool,
        dir: DirState,
        stats: Vec<NodeStatsSnapshot>,
    }

    /// Node 0 takes a write-intent lock on `E`, reads it, writes 9 and
    /// unlocks. Before the grant, node 2 reads `E` when `reader` (a copy
    /// for the grant to pull), and takes a plain writer lock on another
    /// element of chunk 1 when `writer`, which it holds across the grant;
    /// node 0 reads `E` when `shares`, so the grant serves its write.
    fn intent_unlock(reader: bool, writer: bool, shares: bool) -> Unlocked {
        const F: usize = DEFAULT_CHUNK_SIZE + 200;
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::with_nodes(3));
            let arr = cluster.alloc::<u64>(3 * DEFAULT_CHUNK_SIZE, ArrayOptions::default());
            let seen = Arc::new(Mutex::new(None));
            let out = seen.clone();
            cluster.run(ctx, 1, move |ctx, env| {
                let a = arr.on(env.node);
                let chunk = E / DEFAULT_CHUNK_SIZE;
                if env.node == 2 {
                    if reader {
                        assert_eq!(a.get(ctx, E), 0);
                    }
                    if writer {
                        a.wlock(ctx, F);
                    }
                }
                if env.node == 0 && shares {
                    assert_eq!(a.get(ctx, E), 0);
                }
                env.barrier(ctx);
                if env.node == 0 {
                    a.wlock_for_write(ctx, E);
                    assert_eq!(a.get(ctx, E), 0);
                    a.set(ctx, E, 9);
                    assert_eq!(a.dentry(chunk).state(), LocalState::Exclusive);
                    a.unlock(ctx, E);
                    ctx.sleep(100_000);
                    let d = a.dentry(chunk);
                    let dir = a.arr.per_node[1].home[chunk].lock().state().clone();
                    *out.lock() = Some((d.state(), d.line() != LINE_NONE, dir));
                }
                env.barrier(ctx);
                if env.node == 2 && writer {
                    a.unlock(ctx, F);
                }
                assert_eq!(a.get(ctx, E), 9);
            });
            let stats = (0..3).map(|n| cluster.stats(n)).collect();
            cluster.shutdown(ctx);
            let (state, line, dir) = seen.lock().take().expect("node 0 unlocked");
            Unlocked {
                state,
                line,
                dir,
                stats,
            }
        })
    }

    /// The grant takes node 2's copy, so the unlock keeps a Shared copy:
    /// node 0 writes the data home and keeps its line, the home is Shared
    /// with node 0, and node 2's next read fills from the home with no
    /// recall while node 0's hits. Node 0 read nothing before, so its
    /// grant carries the chunk (DESIGN.md §4.5), which counts as the fill
    /// its write miss made before, and node 2's copy acks node 0.
    #[test]
    fn intent_unlock_keeps_a_shared_copy_when_its_grant_displaced_a_reader() {
        let u = intent_unlock(true, false, false);
        assert_eq!((u.state, u.line), (LocalState::Shared, true));
        assert_eq!(u.dir, DirState::Shared { sharers: vec![0] });
        let [n0, n1, n2] = [u.stats[0], u.stats[1], u.stats[2]];
        assert_eq!(n1.directed_grants, 1);
        assert_eq!((n0.intent_keeps, n0.evictions, n0.writebacks), (1, 0, 1));
        assert_eq!((n0.fills, n2.fills, n2.invalidations), (1, 2, 1));
        assert_eq!(n0.recalls + n1.recalls + n2.recalls, 0);
    }

    /// No reader to displace: the unlock hands the chunk back whole. The
    /// chunk is Unshared, so the grant takes the home's pull and node 0's
    /// write miss.
    #[test]
    fn intent_unlock_hands_the_chunk_back_when_no_reader_was_displaced() {
        let u = intent_unlock(false, false, false);
        assert_eq!((u.state, u.line), (LocalState::Invalid, false));
        assert_eq!(u.dir, DirState::Unshared);
        let [n0, n1, n2] = [u.stats[0], u.stats[1], u.stats[2]];
        assert_eq!(n1.directed_grants, 0);
        assert_eq!((n0.intent_keeps, n0.evictions, n0.writebacks), (0, 1, 1));
        assert_eq!((n0.fills, n2.fills, n2.invalidations), (2, 1, 0));
        assert_eq!(n0.recalls + n1.recalls + n2.recalls, 0);
    }

    /// Another node holds a writer lock in the chunk when the grant leaves,
    /// so a kept copy would be revoked again: the unlock hands the chunk
    /// back whole although the grant displaced node 2's copy.
    #[test]
    fn intent_unlock_hands_the_chunk_back_beside_another_writer() {
        let u = intent_unlock(true, true, false);
        assert_eq!((u.state, u.line), (LocalState::Invalid, false));
        assert_eq!(u.dir, DirState::Unshared);
        let [n0, n1, n2] = [u.stats[0], u.stats[1], u.stats[2]];
        assert_eq!((n0.intent_keeps, n0.evictions, n0.writebacks), (0, 1, 1));
        assert_eq!((n0.fills, n2.fills, n2.invalidations), (2, 2, 1));
        assert_eq!(n0.recalls + n1.recalls + n2.recalls, 0);
    }

    /// Node 0 shares the chunk with node 2, so its grant serves its write
    /// (DESIGN.md §4.5): node 0 keeps the copy it read, node 2's copy acks
    /// node 0, and no fill moves to node 0 (one fill, its first read,
    /// against two with the pull). The grant displaced node 2's copy, so
    /// the unlock keeps a Shared one.
    #[test]
    fn intent_unlock_keeps_a_shared_copy_after_a_directed_grant() {
        let u = intent_unlock(true, false, true);
        assert_eq!((u.state, u.line), (LocalState::Shared, true));
        assert_eq!(u.dir, DirState::Shared { sharers: vec![0] });
        let [n0, n1, n2] = [u.stats[0], u.stats[1], u.stats[2]];
        assert_eq!(n1.directed_grants, 1);
        assert_eq!((n0.intent_keeps, n0.evictions, n0.writebacks), (1, 0, 1));
        assert_eq!((n0.fills, n2.fills, n2.invalidations), (1, 2, 1));
        assert_eq!(n0.recalls + n1.recalls + n2.recalls, 0);
    }

    /// As the chunk's sole sharer, node 0 waits for no ack: its grant makes
    /// its copy Exclusive at once, and as no reader was displaced, the
    /// unlock hands the chunk back.
    #[test]
    fn intent_unlock_hands_the_chunk_back_after_a_sole_sharers_grant() {
        let u = intent_unlock(false, false, true);
        assert_eq!((u.state, u.line), (LocalState::Invalid, false));
        assert_eq!(u.dir, DirState::Unshared);
        let [n0, n1, n2] = [u.stats[0], u.stats[1], u.stats[2]];
        assert_eq!(n1.directed_grants, 1);
        assert_eq!((n0.intent_keeps, n0.evictions, n0.writebacks), (0, 1, 1));
        assert_eq!((n0.fills, n2.fills, n2.invalidations), (2, 1, 0));
        assert_eq!(n0.recalls + n1.recalls + n2.recalls, 0);
    }

    /// While a directed grant's ack is outstanding, the grantee's node
    /// reads its Shared copy: node 2 pins the chunk, so its ack waits for
    /// the unpin at 50 µs, and meanwhile node 0's second thread reads the
    /// chunk with no slow miss. Node 0's set waits for the ack.
    #[test]
    fn a_grantee_node_reads_its_copy_during_the_ack_wait() {
        const PIN_NS: u64 = 50_000;
        Sim::new(SimConfig::default()).run(|ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::with_nodes(3));
            let arr = cluster.alloc::<u64>(3 * DEFAULT_CHUNK_SIZE, ArrayOptions::default());
            let seen = Arc::new(Mutex::new(None));
            let out = seen.clone();
            cluster.run(ctx, 2, move |ctx, env| {
                let a = arr.on(env.node);
                let chunk = E / DEFAULT_CHUNK_SIZE;
                if env.thread == 0 && env.node != 1 {
                    assert_eq!(a.get(ctx, E), 0);
                }
                env.barrier(ctx);
                let t0 = ctx.now();
                match (env.node, env.thread) {
                    (2, 0) => {
                        let pin = a.pin(ctx, E, PinMode::Read);
                        ctx.sleep(PIN_NS);
                        pin.unpin();
                    }
                    (0, 0) => {
                        ctx.sleep(1_000);
                        a.wlock_for_write(ctx, E);
                        assert_eq!(a.get(ctx, E), 0);
                        ctx.sleep(20_000);
                        a.set(ctx, E, 9);
                        assert!(ctx.now() - t0 > PIN_NS, "the set waited for the ack");
                        a.unlock(ctx, E);
                    }
                    (0, 1) => {
                        ctx.sleep(10_000);
                        let state = a.dentry(chunk).state();
                        let misses = || a.shared.stats[0].slow_misses.get();
                        let before = misses();
                        for i in 0..8 {
                            assert_eq!(a.get(ctx, DEFAULT_CHUNK_SIZE + 64 * i), 0);
                        }
                        *out.lock() = Some((state, misses() - before));
                    }
                    _ => {}
                }
            });
            assert_eq!(*seen.lock(), Some((LocalState::Shared, 0)));
            assert_eq!(cluster.stats(1).directed_grants, 1);
            cluster.shutdown(ctx);
        });
    }

    /// An intent grant to a node the home has declared dead is released
    /// straight back: it pulls nothing, and the next waiter gets the lock.
    #[test]
    fn intent_grant_to_a_dead_node_pulls_nothing_and_passes_the_lock_on() {
        const X: usize = 5; // chunk 0, homed on node 0
        Sim::new(SimConfig::default()).run(|ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(3));
            let arr = cluster.alloc::<u64>(3 * DEFAULT_CHUNK_SIZE, ArrayOptions::default());
            cluster.run(ctx, 1, move |ctx, env| {
                let a = arr.on(env.node);
                match env.node {
                    1 => {
                        // Hold the lock with the chunk Dirty here.
                        a.wlock(ctx, X);
                        a.set(ctx, X, 1);
                        ctx.sleep(1_000_000);
                        a.unlock(ctx, X);
                    }
                    0 => {
                        ctx.sleep(200_000);
                        // Node 2 queues a write-intent acquire behind node
                        // 1, then node 0's view declares node 2 dead before
                        // its runtime has swept node 2's locks.
                        let env2 = Envelope::new(
                            a.arr.id,
                            0,
                            Rpc::LockAcquire {
                                id: X as u64,
                                kind: LockKind::Write,
                                intent: true,
                            },
                        );
                        let mb = a.shared.rt_mailbox(0, a.arr.id, 0);
                        mb.send(ctx, RtMsg::Net { src: 2, env: env2 }, 0);
                        ctx.sleep(50_000);
                        let view = &a.shared.membership[0];
                        assert!(view.suspect(2));
                        assert!(view.confirm_dead(2).is_some());
                        // Queued behind node 2: node 1's release grants
                        // node 2, which goes straight to this waiter.
                        a.wlock(ctx, X);
                        {
                            let home = a.arr.per_node[0].home[0].lock();
                            assert_eq!(*home.state(), DirState::Dirty { owner: 1 });
                            assert!(home.transient().is_none() && home.pending_len() == 0);
                        }
                        assert_eq!(a.get(ctx, X), 1);
                        a.unlock(ctx, X);
                    }
                    _ => {}
                }
            });
            let s0 = cluster.stats(0);
            assert_eq!(s0.orphaned_locks_reclaimed, 1);
            assert_eq!(s0.locks_granted, 2);
            assert_eq!(cluster.stats(1).recalls, 1);
            cluster.shutdown(ctx);
        });
    }
}
