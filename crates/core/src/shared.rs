//! Shared state of a running cluster: the array registry, memory regions,
//! runtime mailboxes and per-node bookkeeping that the interface layer,
//! runtime layer and communication layer all reference.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dsim::{Mailbox, WaitCell};
use parking_lot::{Mutex, RwLock};
use rdma_fabric::{MemoryRegion, NicStatsSnapshot, NodeId, Transport, TransportStats};

use crate::cache::CacheRegion;
use crate::comm::RelMsg;
use crate::config::ClusterConfig;
use crate::dentry::{Dentry, LINE_HOME, LINE_NONE};
use crate::error::{DArrayError, UnavailableKind};
use crate::layout::Layout;
use crate::membership::{MembershipView, PeerHealth};
use crate::msg::{ArrayId, ChunkId, Envelope, LockKind, NetMsg, RtMsg};
use crate::op::OpRegistry;
use crate::placement::Placement;
use crate::protocol::locks::LockTable;
use crate::protocol::HomeMachine;
use crate::state::LocalState;
use crate::stats::NodeStats;
use crate::store::LogChunkStore;

/// Per-(array, node) protocol state.
pub(crate) struct ArrayNode {
    /// One dentry per global chunk: the node's local rights + refcount.
    pub dentries: Vec<Dentry>,
    /// One home-side directory machine per global chunk (only the home
    /// node's machine for a chunk is ever driven). Each chunk is serviced
    /// by exactly one runtime thread, so the mutex is uncontended; it
    /// exists for interior mutability.
    pub home: Vec<Mutex<HomeMachine<WaitCell>>>,
    /// Home lock table for elements this node owns.
    pub lock_table: Mutex<LockTable<WaitCell>>,
    /// Local waiters for grants from remote lock tables, FIFO per (id, kind).
    pub lock_waiters: Mutex<HashMap<(u64, LockKind), VecDeque<WaitCell>>>,
    /// Locks held by application threads of this node, for `unlock(index)`
    /// (kind, write intent, and a count for multiple local readers).
    pub held: Mutex<HashMap<u64, (LockKind, bool, u32)>>,
}

/// Cluster-global state of one distributed array.
pub(crate) struct ArrayShared {
    pub id: ArrayId,
    pub layout: Layout,
    /// Each node's registered subarray region (its partition, chunk-padded;
    /// in elastic mode every node materializes a full-size region so any
    /// chunk can be re-homed anywhere).
    pub subarrays: Vec<MemoryRegion>,
    pub per_node: Vec<ArrayNode>,
    /// Elastic mode: chunk homes may move at runtime (DESIGN.md §15).
    pub elastic: bool,
    /// `home_map[node][chunk]`: node's current belief about the chunk's
    /// home, packed `(mig_epoch << 32) | home` and advanced monotonically
    /// with `fetch_max` so duplicate / reordered `HomeMoved` notices are
    /// harmless. Empty unless `elastic`.
    home_map: Vec<Vec<AtomicU64>>,
}

impl ArrayShared {
    /// `durable` makes every home machine gate dirty-data acknowledgements
    /// on a durable-store persist (DESIGN.md §14); false keeps the protocol
    /// bit-identical to the persistence-free build. `elastic` sizes every
    /// subarray to hold the whole array and activates the per-node home
    /// maps so chunks can be re-homed live. `fault` says that peers can
    /// die. A cluster with none of the three recalls a Dirty chunk for a
    /// remote read or write in three legs (DESIGN.md §4.2).
    pub(crate) fn new(
        id: ArrayId,
        layout: Layout,
        durable: bool,
        elastic: bool,
        fault: bool,
    ) -> Self {
        let nodes = layout.nodes();
        let chunks = layout.num_chunks();
        let subarrays: Vec<MemoryRegion> = (0..nodes)
            .map(|n| {
                MemoryRegion::new(if elastic {
                    chunks * layout.chunk_size()
                } else {
                    layout.subarray_words(n)
                })
            })
            .collect();
        let per_node = (0..nodes)
            .map(|n| {
                let dentries = (0..chunks)
                    .map(|c| {
                        if layout.home_of_chunk(c) == n {
                            Dentry::new(LocalState::Exclusive, LINE_HOME)
                        } else {
                            Dentry::new(LocalState::Invalid, LINE_NONE)
                        }
                    })
                    .collect();
                let home = (0..chunks)
                    .map(|_| {
                        let mut m = HomeMachine::new();
                        m.set_durable(durable);
                        m.set_direct_fill(!(durable || elastic || fault));
                        Mutex::new(m)
                    })
                    .collect();
                ArrayNode {
                    dentries,
                    home,
                    lock_table: Mutex::new(LockTable::default()),
                    lock_waiters: Mutex::new(HashMap::new()),
                    held: Mutex::new(HashMap::new()),
                }
            })
            .collect();
        let home_map = if elastic {
            (0..nodes)
                .map(|_| {
                    (0..chunks)
                        .map(|c| AtomicU64::new(layout.home_of_chunk(c) as u64))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            id,
            layout,
            subarrays,
            per_node,
            elastic,
            home_map,
        }
    }

    /// The chunk's authoritative home as `node` currently believes it.
    /// Static clusters answer straight from the layout.
    #[inline]
    pub(crate) fn home_on(&self, node: NodeId, chunk: usize) -> NodeId {
        if self.elastic {
            (self.home_map[node][chunk].load(Ordering::Acquire) & 0xFFFF_FFFF) as NodeId
        } else {
            self.layout.home_of_chunk(chunk)
        }
    }

    /// Record on `node`'s map that the chunk's home moved to `new_home`
    /// under migration fence `epoch`. Monotone: stale or duplicate notices
    /// lose the `fetch_max`. Returns true iff the map actually advanced.
    pub(crate) fn note_home(
        &self,
        node: NodeId,
        chunk: usize,
        new_home: NodeId,
        epoch: u64,
    ) -> bool {
        debug_assert!(self.elastic);
        debug_assert!(epoch < (1 << 32) && new_home < (1 << 32));
        let packed = (epoch << 32) | new_home as u64;
        self.home_map[node][chunk].fetch_max(packed, Ordering::AcqRel) < packed
    }

    /// Word offset of `chunk`'s slot in a subarray region. Elastic regions
    /// are full-size, so the slot is the same on every node — which is what
    /// lets the image move without re-registering memory.
    #[inline]
    pub(crate) fn chunk_off(&self, chunk: usize) -> usize {
        if self.elastic {
            chunk * self.layout.chunk_size()
        } else {
            self.layout.chunk_home_offset(chunk)
        }
    }
}

/// Receiver-side state of one reliable link (`me <- src`): the in-order
/// delivery cursor and the out-of-order buffer. Owned by `me`'s Rx thread
/// in steady state (the mutex is uncontended); kept in shared state so
/// [`crate::Cluster::restart_peer`] can reset a link when a restarted peer
/// is re-admitted — the death dropped unacked frames, and without a reset
/// the receiver would wait forever on the resulting sequence gap.
#[derive(Default)]
pub(crate) struct RxLink {
    /// Next sequence number to deliver from this source.
    pub next_expected: u64,
    /// Frames that arrived ahead of the cursor, keyed by sequence.
    pub reorder: BTreeMap<u64, Envelope>,
}

impl RxLink {
    /// Forget the old incarnation's stream: the link restarts from seq 0.
    pub fn reset(&mut self) {
        self.next_expected = 0;
        self.reorder.clear();
    }
}

/// Everything shared across the cluster.
pub(crate) struct ClusterShared {
    pub cfg: ClusterConfig,
    /// The cluster-wide chunk→runtime-thread mapping, shared by the
    /// runtime executor, the comm Rx dispatch and bring-up pool sizing.
    pub placement: Placement,
    pub registry: OpRegistry,
    /// Per-node network endpoint, behind the backend-agnostic transport
    /// trait (simulated NIC or real sockets — DESIGN.md §13).
    pub transports: Vec<Arc<dyn Transport<NetMsg>>>,
    pub arrays: RwLock<Vec<Arc<ArrayShared>>>,
    /// Per-node cache data region (all runtime threads' lines).
    pub cache_regions: Vec<MemoryRegion>,
    /// Per-node, per-runtime-thread cacheline pools.
    pub cache_pools: Vec<Vec<Arc<CacheRegion>>>,
    /// Per-node, per-runtime-thread request mailboxes.
    pub rt_mailboxes: Vec<Vec<Mailbox<RtMsg>>>,
    pub stats: Vec<Arc<NodeStats>>,
    /// Per-node reliability-agent mailbox (`Some` iff `cfg.fault` is set).
    pub rel_mailboxes: Vec<Option<Mailbox<RelMsg>>>,
    /// `rx_links[me][src]`: receiver-side reliable-channel state of the
    /// link `me <- src`. Only populated (non-trivially) in fault mode.
    pub rx_links: Vec<Vec<Mutex<RxLink>>>,
    /// Per-node durable chunk store (`Some` iff `cfg.durability.policy` is
    /// not `None`). Home machines with `durable` set emit `PersistChunk`
    /// actions that the runtime resolves against this store.
    pub stores: Vec<Option<Arc<LogChunkStore>>>,
    /// `membership[me]`: node `me`'s epoch-numbered lease membership view
    /// of every peer (Alive / Suspected / Dead). Each node holds its own
    /// independent view — failure *observation* is local, exactly as on
    /// real hardware — but promotion to Dead requires a quorum poll run by
    /// the node's reliability agent (DESIGN.md §12).
    pub membership: Vec<MembershipView>,
    /// First protocol-invariant violation observed by any runtime thread.
    /// Poisons the cluster: `try_*` APIs surface it as
    /// [`crate::DArrayError::ProtocolInvariant`] instead of aborting the
    /// process.
    pub protocol_fault: ProtocolFault,
}

/// Sticky record of the first protocol-invariant violation. The flag is a
/// cheap relaxed atomic so the application fast path can check it without
/// touching the mutex.
#[derive(Default)]
pub(crate) struct ProtocolFault {
    set: AtomicBool,
    msg: Mutex<Option<String>>,
}

impl ProtocolFault {
    /// Record a violation (first writer wins; later ones are dropped).
    pub(crate) fn record(&self, diagnostic: String) {
        let mut g = self.msg.lock();
        if g.is_none() {
            *g = Some(diagnostic);
        }
        self.set.store(true, Ordering::Release);
    }

    /// The recorded diagnostic, if any. One atomic load when healthy.
    pub(crate) fn get(&self) -> Option<String> {
        if !self.set.load(Ordering::Relaxed) {
            return None;
        }
        self.msg.lock().clone()
    }
}

impl ClusterShared {
    pub(crate) fn array(&self, id: ArrayId) -> Arc<ArrayShared> {
        self.arrays.read()[id as usize].clone()
    }

    /// Runtime thread responsible for `chunk` of `array` (same index on
    /// every node). Rotated round-robin — see [`crate::placement`].
    #[inline]
    pub(crate) fn rt_index(&self, array: ArrayId, chunk: ChunkId) -> usize {
        self.placement.rt_index(array, chunk)
    }

    /// Mailbox of the runtime thread owning `chunk` of `array` on `node`.
    pub(crate) fn rt_mailbox(
        &self,
        node: NodeId,
        array: ArrayId,
        chunk: ChunkId,
    ) -> &Mailbox<RtMsg> {
        &self.rt_mailboxes[node][self.rt_index(array, chunk)]
    }

    /// Raw simulated-NIC statistics of a node (re-exported for benchmarks).
    /// All-zero when the node's transport is not backed by the simulated
    /// NIC; use [`ClusterShared::transport_stats`] for backend-agnostic
    /// counters.
    pub(crate) fn nic_stats(&self, node: NodeId) -> NicStatsSnapshot {
        self.transports[node].nic_stats().unwrap_or_default()
    }

    /// Backend-agnostic transport counters of a node.
    pub(crate) fn transport_stats(&self, node: NodeId) -> TransportStats {
        self.transports[node].stats()
    }

    /// Has `me`'s membership view confirmed `peer` dead? Suspected peers
    /// are *not* down: suspicion is revocable and must stay invisible to
    /// the protocol layers.
    #[inline]
    pub(crate) fn is_peer_down(&self, me: NodeId, peer: NodeId) -> bool {
        self.membership[me].is_dead(peer)
    }

    /// Build the [`DArrayError::NodeUnavailable`] that `me` should surface
    /// for an operation targeting `peer`, stamped with the current
    /// membership epoch and the suspected-vs-confirmed distinction.
    pub(crate) fn unavailable_error(&self, me: NodeId, peer: NodeId) -> DArrayError {
        let view = &self.membership[me];
        let kind = match view.health(peer) {
            PeerHealth::Dead => UnavailableKind::ConfirmedDead,
            _ => UnavailableKind::Suspected,
        };
        DArrayError::NodeUnavailable {
            node: peer,
            epoch: view.epoch(),
            kind,
        }
    }
}

/// Resolve the (region, word offset) where element data lives.
#[inline]
pub(crate) fn data_location<'a>(
    shared: &'a ClusterShared,
    arr: &'a ArrayShared,
    node: NodeId,
    line: u32,
    chunk: usize,
    offset_in_chunk: usize,
) -> (&'a MemoryRegion, usize) {
    if line == LINE_HOME {
        (&arr.subarrays[node], arr.chunk_off(chunk) + offset_in_chunk)
    } else {
        debug_assert_ne!(line, LINE_NONE);
        (
            &shared.cache_regions[node],
            shared.cfg.cache.line_off(line) + offset_in_chunk,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_shared_initializes_home_rights() {
        let layout = Layout::even(2048, 2, 512);
        let a = ArrayShared::new(0, layout, false, false, false);
        // Node 0 owns chunks 0,1; node 1 owns 2,3.
        assert_eq!(a.per_node[0].dentries[0].state(), LocalState::Exclusive);
        assert_eq!(a.per_node[0].dentries[0].line(), LINE_HOME);
        assert_eq!(a.per_node[0].dentries[2].state(), LocalState::Invalid);
        assert_eq!(a.per_node[1].dentries[2].state(), LocalState::Exclusive);
        assert_eq!(a.per_node[1].dentries[0].state(), LocalState::Invalid);
        assert_eq!(a.subarrays[0].len(), 1024);
    }

    #[test]
    fn elastic_home_map_is_monotone_under_epochs() {
        let layout = Layout::even_prefix(2048, 3, 2, 512);
        let a = ArrayShared::new(0, layout, false, true, false);
        // Full-size subarrays on every node, shared slot offsets.
        assert_eq!(a.subarrays[2].len(), 4 * 512);
        assert_eq!(a.chunk_off(3), 3 * 512);
        assert_eq!(a.home_on(0, 3), 1);
        // A move under epoch 5 wins; a stale notice under epoch 2 loses.
        assert!(a.note_home(0, 3, 2, 5));
        assert_eq!(a.home_on(0, 3), 2);
        assert!(!a.note_home(0, 3, 1, 2));
        assert_eq!(a.home_on(0, 3), 2);
        // A duplicate of the same notice is a no-op, not an error.
        assert!(!a.note_home(0, 3, 2, 5));
    }

    #[test]
    fn protocol_fault_is_sticky_and_first_writer_wins() {
        let f = ProtocolFault::default();
        assert_eq!(f.get(), None);
        f.record("first violation".to_string());
        f.record("second violation".to_string());
        assert_eq!(f.get().as_deref(), Some("first violation"));
    }
}
