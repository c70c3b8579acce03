//! Sans-I/O distributed element-lock table (Figure 3's `RLock` / `WLock` /
//! `UnLock`).
//!
//! Each element's lock is managed by the home node of the element's chunk;
//! acquisitions and releases are routed there (one round trip for remote
//! callers), with FIFO queuing of conflicting requests. Like the directory
//! machines in this module, the table performs no I/O: it records who holds
//! and who waits, and returns the grants the executor must deliver.
//!
//! Crash-consistency: every holder and waiter is tagged with its origin, so
//! when a peer is declared dead ([`LockTable::forget_peer`]) the table can
//! reclaim the locks it held, purge the requests it queued, and hand the
//! caller the follow-on grants that unblock surviving waiters. Without this
//! a single crashed writer would block every future acquirer of that
//! element forever.

use std::collections::{BTreeMap, VecDeque};

use super::NodeId;

/// Reader/writer lock flavor (Figure 3: `RLock` / `WLock`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockKind {
    /// Shared reader lock.
    Read,
    /// Exclusive writer lock.
    Write,
}

/// Where a lock request came from. `W` is the opaque completion token the
/// executor wakes for home-local requesters (a wait-cell in the runtime,
/// a plain integer in tests).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LockSource<W> {
    /// An application thread on the home node.
    Local(W),
    /// A remote requester node, granted by a `LockGrant` message.
    Remote {
        /// The requesting node.
        node: NodeId,
        /// A writer lock taken for a write to the element's chunk (write
        /// intent): its grant also moves the chunk to the grantee. The
        /// table treats it as any writer lock.
        intent: bool,
    },
}

impl<W> LockSource<W> {
    /// The remote node behind this source, if any.
    fn node(&self) -> Option<NodeId> {
        match self {
            LockSource::Local(_) => None,
            LockSource::Remote { node, .. } => Some(*node),
        }
    }
}

/// State of one element's distributed lock. Holders are tagged with their
/// origin (`None` = a home-local thread, `Some(n)` = remote node `n`) so
/// orphaned locks can be reclaimed when their holder dies.
#[derive(Debug, Clone, Hash)]
struct ElemLock<W> {
    /// Current reader holders.
    readers: Vec<Option<NodeId>>,
    /// Current writer holder, if any.
    writer: Option<Option<NodeId>>,
    queue: VecDeque<(LockSource<W>, LockKind)>,
}

impl<W> Default for ElemLock<W> {
    fn default() -> Self {
        Self {
            readers: Vec::new(),
            writer: None,
            queue: VecDeque::new(),
        }
    }
}

impl<W> ElemLock<W> {
    fn grantable(&self, kind: LockKind) -> bool {
        match kind {
            // FIFO fairness: a new reader must also wait behind any queued
            // (writer) request.
            LockKind::Read => self.writer.is_none() && self.queue.is_empty(),
            LockKind::Write => {
                self.writer.is_none() && self.readers.is_empty() && self.queue.is_empty()
            }
        }
    }

    fn grant(&mut self, kind: LockKind, holder: Option<NodeId>) {
        match kind {
            LockKind::Read => self.readers.push(holder),
            LockKind::Write => {
                debug_assert!(self.writer.is_none());
                self.writer = Some(holder);
            }
        }
    }

    /// Pop the FIFO prefix that is now grantable (one writer, or a batch of
    /// readers) and mark each popped entry as holding.
    fn pump(&mut self) -> Vec<(LockSource<W>, LockKind)> {
        let mut granted = Vec::new();
        while let Some(&(_, k)) = self.queue.front() {
            let can = match k {
                LockKind::Read => self.writer.is_none(),
                LockKind::Write => self.writer.is_none() && self.readers.is_empty(),
            };
            if !can {
                break;
            }
            let (src, k) = self.queue.pop_front().unwrap();
            self.grant(k, src.node());
            granted.push((src, k));
            if k == LockKind::Write {
                break;
            }
        }
        granted
    }

    fn is_idle(&self) -> bool {
        self.readers.is_empty() && self.writer.is_none() && self.queue.is_empty()
    }
}

/// What [`LockTable::forget_peer`] did for one dead node: counters for the
/// stats layer plus the follow-on grants the executor must deliver.
#[derive(Debug)]
pub struct PeerPurge<W> {
    /// Held locks (reader slots + writer slots) reclaimed from the dead
    /// node.
    pub reclaimed: usize,
    /// Queued (not yet granted) requests from the dead node that were
    /// dropped.
    pub dropped_waiters: usize,
    /// Requests that became grantable once the dead node's locks were
    /// reclaimed; already marked granted in the table — the caller delivers
    /// them.
    pub granted: Vec<(u64, LockSource<W>, LockKind)>,
}

/// The home node's table of element locks. Only elements with lock activity
/// occupy table space. Keyed by a `BTreeMap` so recovery sweeps
/// ([`Self::forget_peer`]) wake survivors in a deterministic order — a
/// requirement for bit-identical replay of runs that include a crash.
/// `Clone` (for `W: Clone`) lets the model checker branch a world state.
#[derive(Debug, Clone, Hash)]
pub struct LockTable<W> {
    locks: BTreeMap<u64, ElemLock<W>>,
}

impl<W> Default for LockTable<W> {
    fn default() -> Self {
        Self {
            locks: BTreeMap::new(),
        }
    }
}

impl<W> LockTable<W> {
    /// Try to acquire; on success the grant must be delivered to `source` by
    /// the caller (returned as `Some(source)`), otherwise the request is
    /// queued.
    pub fn acquire(
        &mut self,
        id: u64,
        kind: LockKind,
        source: LockSource<W>,
    ) -> Option<LockSource<W>> {
        let e = self.locks.entry(id).or_default();
        if e.grantable(kind) {
            e.grant(kind, source.node());
            Some(source)
        } else {
            e.queue.push_back((source, kind));
            None
        }
    }

    /// Release a lock held by `from` (`None` = a home-local thread); returns
    /// the queued requests that become grantable (already granted in the
    /// table — the caller delivers them).
    ///
    /// A release that does not match a current holder is ignored: after
    /// [`Self::forget_peer`] reclaims a dead node's lock and re-grants it, a
    /// straggler release from the dead node must not release the *new*
    /// holder's lock.
    pub fn release(
        &mut self,
        id: u64,
        kind: LockKind,
        from: Option<NodeId>,
    ) -> Vec<(LockSource<W>, LockKind)> {
        let Some(e) = self.locks.get_mut(&id) else {
            debug_assert!(from.is_some(), "local release of unheld lock {id}");
            return Vec::new();
        };
        match kind {
            LockKind::Read => {
                let Some(pos) = e.readers.iter().position(|h| *h == from) else {
                    debug_assert!(from.is_some(), "local release of unheld rlock {id}");
                    return Vec::new();
                };
                e.readers.remove(pos);
            }
            LockKind::Write => {
                if e.writer != Some(from) {
                    debug_assert!(from.is_some(), "local release of unheld wlock {id}");
                    return Vec::new();
                }
                e.writer = None;
            }
        }
        let granted = e.pump();
        if e.is_idle() {
            self.locks.remove(&id);
        }
        granted
    }

    /// Reclaim every lock held by `dead`, drop its queued requests, and
    /// re-grant to surviving waiters. Idempotent: a second sweep for the
    /// same node finds nothing. Elements are visited in ascending id order
    /// (deterministic wake order).
    pub fn forget_peer(&mut self, dead: NodeId) -> PeerPurge<W> {
        let mut purge = PeerPurge {
            reclaimed: 0,
            dropped_waiters: 0,
            granted: Vec::new(),
        };
        let mut idle = Vec::new();
        for (&id, e) in self.locks.iter_mut() {
            let qlen = e.queue.len();
            e.queue.retain(|(s, _)| s.node() != Some(dead));
            purge.dropped_waiters += qlen - e.queue.len();
            let readers = e.readers.len();
            e.readers.retain(|h| *h != Some(dead));
            purge.reclaimed += readers - e.readers.len();
            if e.writer == Some(Some(dead)) {
                e.writer = None;
                purge.reclaimed += 1;
            }
            purge
                .granted
                .extend(e.pump().into_iter().map(|(s, k)| (id, s, k)));
            if e.is_idle() {
                idle.push(id);
            }
        }
        for id in idle {
            self.locks.remove(&id);
        }
        purge
    }

    /// Number of elements with active lock state (diagnostics).
    pub fn active(&self) -> usize {
        self.locks.len()
    }

    /// Are all holders of all elements live according to `alive`? Used by
    /// the model checker to assert that recovery never leaves an orphaned
    /// holder behind.
    pub fn holders_all_satisfy(&self, alive: impl Fn(NodeId) -> bool) -> bool {
        self.locks.values().all(|e| {
            e.readers
                .iter()
                .chain(e.writer.iter())
                .all(|h| h.is_none_or(&alive))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local(w: u32) -> LockSource<u32> {
        LockSource::Local(w)
    }

    fn remote(node: NodeId) -> LockSource<u32> {
        LockSource::Remote {
            node,
            intent: false,
        }
    }

    #[test]
    fn uncontended_read_and_write_grant_immediately() {
        let mut t = LockTable::default();
        assert!(t.acquire(1, LockKind::Read, local(0)).is_some());
        assert!(t.acquire(2, LockKind::Write, local(1)).is_some());
        assert_eq!(t.active(), 2);
        t.release(1, LockKind::Read, None);
        t.release(2, LockKind::Write, None);
        assert_eq!(t.active(), 0);
    }

    #[test]
    fn readers_share_writers_exclude() {
        let mut t = LockTable::default();
        assert!(t.acquire(7, LockKind::Read, local(0)).is_some());
        assert!(t.acquire(7, LockKind::Read, local(1)).is_some());
        assert!(t.acquire(7, LockKind::Write, local(2)).is_none()); // queued
                                                                    // A reader arriving behind the queued writer waits (fairness).
        assert!(t.acquire(7, LockKind::Read, local(3)).is_none());
        t.release(7, LockKind::Read, None);
        let g = t.release(7, LockKind::Read, None);
        // Writer granted first.
        assert_eq!(g.len(), 1);
        assert!(matches!(g[0].1, LockKind::Write));
        let g = t.release(7, LockKind::Write, None);
        // Then the queued reader.
        assert_eq!(g.len(), 1);
        assert!(matches!(g[0].1, LockKind::Read));
        t.release(7, LockKind::Read, None);
        assert_eq!(t.active(), 0);
    }

    #[test]
    fn reader_batch_granted_together() {
        let mut t = LockTable::default();
        assert!(t.acquire(3, LockKind::Write, local(0)).is_some());
        assert!(t.acquire(3, LockKind::Read, local(1)).is_none());
        assert!(t.acquire(3, LockKind::Read, local(2)).is_none());
        assert!(t.acquire(3, LockKind::Write, local(3)).is_none());
        let g = t.release(3, LockKind::Write, None);
        // Both readers wake; the writer behind them does not.
        assert_eq!(g.len(), 2);
        assert!(g.iter().all(|(_, k)| *k == LockKind::Read));
        t.release(3, LockKind::Read, None);
        let g = t.release(3, LockKind::Read, None);
        assert_eq!(g.len(), 1);
        assert!(matches!(g[0].1, LockKind::Write));
        t.release(3, LockKind::Write, None);
    }

    #[test]
    fn writer_chain_is_fifo() {
        let mut t: LockTable<u32> = LockTable::default();
        assert!(t.acquire(9, LockKind::Write, remote(1)).is_some());
        assert!(t.acquire(9, LockKind::Write, remote(2)).is_none());
        assert!(t.acquire(9, LockKind::Write, remote(3)).is_none());
        let g = t.release(9, LockKind::Write, Some(1));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].0, remote(2));
        let g = t.release(9, LockKind::Write, Some(2));
        assert_eq!(g[0].0, remote(3));
        t.release(9, LockKind::Write, Some(3));
        assert_eq!(t.active(), 0);
    }

    #[test]
    fn dead_writer_is_reclaimed_and_waiters_granted() {
        let mut t: LockTable<u32> = LockTable::default();
        assert!(t.acquire(5, LockKind::Write, remote(1)).is_some());
        assert!(t.acquire(5, LockKind::Read, local(7)).is_none());
        assert!(t.acquire(5, LockKind::Read, remote(2)).is_none());
        let p = t.forget_peer(1);
        assert_eq!(p.reclaimed, 1);
        assert_eq!(p.dropped_waiters, 0);
        // Both surviving readers wake together.
        assert_eq!(p.granted.len(), 2);
        assert!(t.holders_all_satisfy(|n| n != 1));
        t.release(5, LockKind::Read, None);
        t.release(5, LockKind::Read, Some(2));
        assert_eq!(t.active(), 0);
    }

    #[test]
    fn dead_readers_and_queued_requests_are_purged() {
        let mut t: LockTable<u32> = LockTable::default();
        assert!(t.acquire(4, LockKind::Read, remote(1)).is_some());
        assert!(t.acquire(4, LockKind::Read, remote(2)).is_some());
        assert!(t.acquire(4, LockKind::Write, remote(1)).is_none());
        assert!(t.acquire(4, LockKind::Write, remote(3)).is_none());
        let p = t.forget_peer(1);
        // Reader slot reclaimed, queued write dropped; node 3's write still
        // blocked by node 2's live reader.
        assert_eq!(p.reclaimed, 1);
        assert_eq!(p.dropped_waiters, 1);
        assert!(p.granted.is_empty());
        let g = t.release(4, LockKind::Read, Some(2));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].0, remote(3));
        t.release(4, LockKind::Write, Some(3));
        assert_eq!(t.active(), 0);
    }

    #[test]
    fn forget_peer_is_idempotent() {
        let mut t: LockTable<u32> = LockTable::default();
        assert!(t.acquire(8, LockKind::Write, remote(2)).is_some());
        assert!(t.acquire(8, LockKind::Write, local(1)).is_none());
        let p = t.forget_peer(2);
        assert_eq!(p.reclaimed, 1);
        assert_eq!(p.granted.len(), 1);
        let p2 = t.forget_peer(2);
        assert_eq!(p2.reclaimed, 0);
        assert_eq!(p2.dropped_waiters, 0);
        assert!(p2.granted.is_empty());
    }

    #[test]
    fn stale_release_from_reclaimed_holder_is_ignored() {
        let mut t: LockTable<u32> = LockTable::default();
        assert!(t.acquire(6, LockKind::Write, remote(1)).is_some());
        assert!(t.acquire(6, LockKind::Write, remote(2)).is_none());
        let p = t.forget_peer(1);
        // Node 2 now holds the lock.
        assert_eq!(p.granted.len(), 1);
        // A straggler release from dead node 1 must not free node 2's lock.
        let g = t.release(6, LockKind::Write, Some(1));
        assert!(g.is_empty());
        assert_eq!(t.active(), 1);
        t.release(6, LockKind::Write, Some(2));
        assert_eq!(t.active(), 0);
    }

    #[test]
    fn cascaded_grant_to_another_dead_node_is_reclaimed_by_its_sweep() {
        let mut t: LockTable<u32> = LockTable::default();
        assert!(t.acquire(2, LockKind::Write, remote(1)).is_some());
        assert!(t.acquire(2, LockKind::Write, remote(2)).is_none());
        assert!(t.acquire(2, LockKind::Write, local(9)).is_none());
        // Node 1 dies: the table grants to node 2 (the executor's send will
        // go nowhere if 2 is also dead)...
        let p = t.forget_peer(1);
        assert_eq!(p.granted.len(), 1);
        // ...and node 2's own sweep passes the lock on to the local waiter.
        let p2 = t.forget_peer(2);
        assert_eq!(p2.reclaimed, 1);
        assert_eq!(p2.granted.len(), 1);
        assert!(matches!(p2.granted[0].1, LockSource::Local(9)));
        t.release(2, LockKind::Write, None);
        assert_eq!(t.active(), 0);
    }
}
