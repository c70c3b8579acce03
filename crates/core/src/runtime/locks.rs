//! Distributed element-lock handling (§4.5), split out of the runtime event
//! loop. Locks are orthogonal to the coherence protocol: a lock's home node
//! arbitrates fairness in its `LockTable`; requesters park waiters in their
//! `lock_waiters` map until a `LockGrant` arrives. No cacheline or directory
//! state is involved.
//!
//! The table itself is sans-I/O (`crate::protocol::locks`); this file is the
//! executor glue that turns grants into `LockGrant` messages or wait-cell
//! notifications, and drives `forget_peer` when a peer is declared dead.

use std::collections::VecDeque;
use std::sync::Arc;

use dsim::{Ctx, WaitCell};
use rdma_fabric::NodeId;

use crate::msg::{ChunkId, Envelope, LockKind, Rpc};
use crate::protocol::locks::LockSource;
use crate::shared::ArrayShared;
use crate::stats::NodeStats;

use super::RuntimeThread;

impl RuntimeThread {
    fn deliver_grant(
        &mut self,
        ctx: &mut Ctx,
        arr: &ArrayShared,
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
                LockSource::Remote(n) if !self.shared.is_peer_down(self.node, n) => {
                    NodeStats::bump(&self.stats().locks_granted);
                    let chunk = (id as usize / arr.layout.chunk_size()) as ChunkId;
                    let rpc = Rpc::LockGrant { id, kind };
                    self.comm.send(ctx, n, Envelope::new(arr.id, chunk, rpc));
                }
                LockSource::Remote(n) => {
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

    pub(super) fn local_lock_acquire(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        index: u64,
        kind: LockKind,
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
            let chunk = (index as usize / arr.layout.chunk_size()) as ChunkId;
            let rpc = Rpc::LockAcquire { id: index, kind };
            self.comm.send(ctx, home, Envelope::new(arr.id, chunk, rpc));
        }
    }

    pub(super) fn local_lock_release(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        index: u64,
        kind: LockKind,
        waiter: WaitCell,
    ) {
        let home = arr.layout.home_of(index as usize);
        if home == self.node {
            let woken = arr.per_node[self.node]
                .lock_table
                .lock()
                .release(index, kind, None);
            for (src, k) in woken {
                self.deliver_grant(ctx, arr, index, k, src);
            }
        } else {
            let chunk = (index as usize / arr.layout.chunk_size()) as ChunkId;
            let rpc = Rpc::LockRelease { id: index, kind };
            self.comm.send(ctx, home, Envelope::new(arr.id, chunk, rpc));
        }
        // Releases complete locally; the wire release is one-way.
        waiter.notify(ctx);
    }

    pub(super) fn rpc_lock_acquire(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        id: u64,
        kind: LockKind,
        src: NodeId,
    ) {
        let granted =
            arr.per_node[self.node]
                .lock_table
                .lock()
                .acquire(id, kind, LockSource::Remote(src));
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

    pub(super) fn rpc_lock_grant(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        id: u64,
        kind: LockKind,
    ) {
        let popped = {
            let mut lw = arr.per_node[self.node].lock_waiters.lock();
            let popped = lw.get_mut(&(id, kind)).and_then(|q| q.pop_front());
            if lw.get(&(id, kind)).is_some_and(|q| q.is_empty()) {
                lw.remove(&(id, kind));
            }
            popped
        };
        match popped {
            Some(w) => w.notify(ctx),
            None => self.lock_grant_invariant_violated(arr, id, kind),
        }
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
        let chunk = id as usize / arr.layout.chunk_size();
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
