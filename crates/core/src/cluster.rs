//! Cluster bootstrap: spawn runtime/Rx/Tx threads per node, allocate
//! distributed arrays, run application code on every node, and tear down.

use std::marker::PhantomData;
use std::sync::Arc;

use dsim::{Ctx, JoinHandle, Mailbox, SimBarrier, VTime};
use parking_lot::RwLock;
use rdma_fabric::{Fabric, NicStatsSnapshot, NodeId, SimTransport, Transport};

use crate::array::DArray;
use crate::cache::{CacheRegion, PoolStats};
use crate::comm::{rel_thread_main, rx_thread_main, tx_thread_main, CommHandle, RelMsg, TxReq};
use crate::config::{ArrayOptions, ClusterConfig, TransportKind, DEFAULT_CHUNK_SIZE};
use crate::element::Element;
use crate::error::DArrayError;
use crate::layout::Layout;
use crate::membership::{MembershipView, PeerHealth};
use crate::msg::{NetMsg, RtMsg};
use crate::op::{OpId, OpRegistry};
use crate::placement::Placement;
use crate::runtime::RuntimeThread;
use crate::shared::{ArrayShared, ClusterShared};
use crate::stats::NodeStatsSnapshot;
use crate::store::LogChunkStore;

/// Environment handed to each application thread by [`Cluster::run`].
pub struct NodeEnv {
    /// This thread's node.
    pub node: NodeId,
    /// Thread index within the node.
    pub thread: usize,
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Application threads per node in this `run`.
    pub threads_per_node: usize,
    barrier: SimBarrier,
}

impl NodeEnv {
    /// Global barrier over every application thread of this `run`.
    pub fn barrier(&self, ctx: &mut Ctx) {
        self.barrier.wait(ctx);
    }
}

/// A handle to a distributed array that is not yet bound to a node; hand it
/// to application threads and call [`GlobalArray::on`].
pub struct GlobalArray<T: Element> {
    shared: Arc<ClusterShared>,
    arr: Arc<ArrayShared>,
    _pd: PhantomData<fn() -> T>,
}

impl<T: Element> Clone for GlobalArray<T> {
    fn clone(&self) -> Self {
        Self {
            shared: self.shared.clone(),
            arr: self.arr.clone(),
            _pd: PhantomData,
        }
    }
}

impl<T: Element> GlobalArray<T> {
    /// The node-local view for `node`.
    pub fn on(&self, node: NodeId) -> DArray<T> {
        assert!(node < self.shared.cfg.nodes);
        DArray {
            shared: self.shared.clone(),
            arr: self.arr.clone(),
            node,
            _pd: PhantomData,
        }
    }

    /// Global length.
    pub fn len(&self) -> usize {
        self.arr.layout.len()
    }

    /// True for an empty array.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A running DArray cluster inside a `dsim` simulation.
pub struct Cluster {
    pub(crate) shared: Arc<ClusterShared>,
    tx_queues: Vec<Option<Mailbox<TxReq>>>,
    service_handles: Vec<JoinHandle>,
}

/// Build the per-node transport endpoints selected by `cfg.transport`
/// (already validated). The simulated backend wraps one dsim NIC per node;
/// the TCP backend brings up a real socket mesh and can fail at the OS
/// level, surfaced as [`crate::ConfigError::TransportBringUp`].
fn build_transports(cfg: &ClusterConfig) -> Result<Vec<Arc<dyn Transport<NetMsg>>>, DArrayError> {
    match cfg.transport {
        TransportKind::Sim => {
            let fabric: Fabric<NetMsg> = match &cfg.fault {
                Some(f) => Fabric::with_faults(cfg.nodes, cfg.net.clone(), f.plan.clone()),
                None => Fabric::new(cfg.nodes, cfg.net.clone()),
            };
            Ok((0..cfg.nodes)
                .map(|i| {
                    Arc::new(SimTransport::with_send_batch_max(
                        fabric.nic(i),
                        cfg.batch.send_batch_max,
                    )) as Arc<dyn Transport<NetMsg>>
                })
                .collect())
        }
        TransportKind::Tcp => build_tcp_transports(cfg),
    }
}

#[cfg(feature = "tcp-transport")]
fn build_tcp_transports(
    cfg: &ClusterConfig,
) -> Result<Vec<Arc<dyn Transport<NetMsg>>>, DArrayError> {
    let addrs = cfg.tcp.addrs.as_ref().map(|a| {
        a.iter()
            .map(|s| s.parse().expect("addresses checked by try_validate"))
            .collect()
    });
    let opts = rdma_fabric::TcpOptions {
        max_frame_words: cfg.tcp.max_frame_words,
        poll_ns: cfg.tcp.poll_ns,
        addrs,
        pump_threads: cfg.tcp.pump_threads,
        send_batch_max: cfg.batch.send_batch_max,
        signal_interval: cfg.net.signal_interval,
    };
    let mesh = rdma_fabric::TcpFabric::new(cfg.nodes, opts).map_err(|e| {
        crate::ConfigError::TransportBringUp {
            message: e.to_string(),
        }
    })?;
    Ok((0..cfg.nodes)
        .map(|i| mesh.transport(i) as Arc<dyn Transport<NetMsg>>)
        .collect())
}

#[cfg(not(feature = "tcp-transport"))]
fn build_tcp_transports(
    _cfg: &ClusterConfig,
) -> Result<Vec<Arc<dyn Transport<NetMsg>>>, DArrayError> {
    // `try_validate` rejects `TransportKind::Tcp` without the feature, so
    // this arm is unreachable through `Cluster::try_new`.
    Err(crate::ConfigError::TcpFeatureDisabled.into())
}

impl Cluster {
    /// Boot a cluster: builds the transport mesh and spawns, per node, one
    /// Rx thread, the configured runtime threads, and (optionally) a Tx
    /// thread. Panics on an invalid configuration; [`Cluster::try_new`] is
    /// the fallible form.
    pub fn new(ctx: &mut Ctx, cfg: ClusterConfig) -> Self {
        match Self::try_new(ctx, cfg) {
            Ok(cluster) => cluster,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible bring-up: structured [`DArrayError::Config`] diagnostics
    /// for rejected configurations or failed transport bring-up, instead
    /// of a panic.
    pub fn try_new(ctx: &mut Ctx, cfg: ClusterConfig) -> Result<Self, DArrayError> {
        cfg.try_validate()?;
        let nodes = cfg.nodes;
        let rts = cfg.runtime_threads;
        let transports = build_transports(&cfg)?;
        let placement = Placement::new(rts);
        // Per-thread pools tile the node's cache region exactly: the
        // remainder of `capacity_lines / rts` is spread one line each over
        // the low-index pools instead of being silently dropped, and the
        // region is sized to `capacity_lines` — no over-allocation.
        let pool_ranges = placement.pool_ranges(cfg.cache.capacity_lines);
        let cache_regions = (0..nodes)
            .map(|_| {
                rdma_fabric::MemoryRegion::new(cfg.cache.capacity_lines * cfg.cache.line_words)
            })
            .collect::<Vec<_>>();
        // Cache regions receive one-sided WRITEs (fills from remote homes):
        // make them addressable on every backend.
        for (transport, region) in transports.iter().zip(&cache_regions) {
            transport.register_region(region);
        }
        let cache_pools = (0..nodes)
            .map(|_| {
                pool_ranges
                    .iter()
                    .map(|&(base, lines)| {
                        Arc::new(CacheRegion::new(
                            base,
                            lines,
                            cfg.cache.low_watermark,
                            cfg.cache.high_watermark,
                        ))
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>();
        let rt_mailboxes = (0..nodes)
            .map(|n| {
                (0..rts)
                    .map(|r| Mailbox::new(&format!("rt-{n}-{r}")))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>();
        let stats: Vec<Arc<crate::stats::NodeStats>> = (0..nodes)
            .map(|_| Arc::new(crate::stats::NodeStats::default()))
            .collect();
        // Durable chunk stores: one append-only log per node, replayed
        // crash-safely on open (DESIGN.md §14). Recovered images are
        // overlaid onto home subarrays in `alloc_with`.
        let stores: Vec<Option<Arc<LogChunkStore>>> = if cfg.durability.enabled() {
            let dir = cfg
                .durability
                .dir
                .as_ref()
                .expect("checked by try_validate");
            let bring_up = |e: std::io::Error| crate::ConfigError::DurabilityBringUp {
                message: e.to_string(),
            };
            let (policy, ckpt) = (cfg.durability.policy, cfg.durability.checkpoint_config());
            let stores = (0..nodes)
                .map(|n| {
                    let log = dir.join(format!("node{n}.log"));
                    let store = LogChunkStore::open_with(&log, policy, ckpt).map_err(bring_up)?;
                    Ok(Some(Arc::new(store)))
                })
                .collect::<Result<_, crate::ConfigError>>()?;
            // First incarnation binds the directory to this cluster shape;
            // `try_validate` already rejected any mismatch with an earlier
            // record (ConfigError::RuntimeThreadsChanged /
            // ClusterNodesChanged).
            crate::config::write_incarnation_meta(dir, cfg.runtime_threads, cfg.nodes)
                .map_err(bring_up)?;
            stores
        } else {
            (0..nodes).map(|_| None).collect()
        };
        // Elastic bring-up with spares: every view starts the suffix
        // `initial_nodes..nodes` in `Joining` — running the full service
        // stack, homing no chunks, holding no votes — until
        // [`Cluster::join_peer`] admits them under a burned epoch.
        let membership = (0..nodes)
            .map(|_| match cfg.initial_nodes {
                Some(active) if active < nodes => MembershipView::new_with_joining(nodes, active),
                _ => MembershipView::new(nodes),
            })
            .collect();
        let shared = Arc::new(ClusterShared {
            cfg: cfg.clone(),
            placement,
            registry: OpRegistry::new(),
            transports,
            arrays: RwLock::new(Vec::new()),
            cache_regions,
            cache_pools,
            rt_mailboxes,
            stats,
            // One reliability-agent mailbox per node in fault mode.
            rel_mailboxes: (0..nodes)
                .map(|n| {
                    cfg.fault
                        .as_ref()
                        .map(|_| Mailbox::new(&format!("rel-{n}")))
                })
                .collect(),
            rx_links: (0..nodes)
                .map(|_| (0..nodes).map(|_| Default::default()).collect())
                .collect(),
            stores,
            membership,
            protocol_fault: Default::default(),
        });

        let mut service_handles = Vec::new();
        let mut tx_queues = Vec::new();
        for (node, rel_q) in shared.rel_mailboxes.iter().enumerate() {
            // Rx thread (always present; §3.1 communication layer).
            let sh = shared.clone();
            service_handles.push(ctx.spawn(&format!("rx-{node}"), move |c| {
                rx_thread_main(c, sh, node);
            }));
            // Reliability agent (fault mode only).
            if let Some(q) = rel_q {
                let sh = shared.clone();
                let q2 = q.clone();
                service_handles.push(ctx.spawn(&format!("rel-{node}"), move |c| {
                    rel_thread_main(c, sh, node, q2);
                }));
            }
            // Optional Tx thread.
            let tx_q = if cfg.tx_threads {
                let q: Mailbox<TxReq> = Mailbox::new(&format!("tx-{node}"));
                let transport = shared.transports[node].clone();
                let q2 = q.clone();
                service_handles.push(ctx.spawn(&format!("tx-{node}"), move |c| {
                    tx_thread_main(c, transport, q2);
                }));
                Some(q)
            } else {
                None
            };
            // Runtime threads.
            for r in 0..rts {
                let comm = CommHandle {
                    transport: shared.transports[node].clone(),
                    tx: tx_q.clone(),
                    rel: rel_q.clone(),
                    node,
                };
                let rt = RuntimeThread::new(
                    node,
                    r,
                    shared.clone(),
                    comm,
                    shared.cache_pools[node][r].clone(),
                    shared.rt_mailboxes[node][r].clone(),
                );
                service_handles.push(ctx.spawn(&format!("rt-{node}-{r}"), move |c| rt.run(c)));
            }
            tx_queues.push(tx_q);
        }
        Ok(Self {
            shared,
            tx_queues,
            service_handles,
        })
    }

    /// The cluster-wide operator registry (the paper's `registerOp` lives
    /// here).
    pub fn ops(&self) -> &OpRegistry {
        &self.shared.registry
    }

    /// Register an associative+commutative operator (Figure 3 line 8).
    pub fn register_op<T, F>(&self, name: &str, identity: T, combine: F) -> OpId
    where
        T: Element,
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        self.shared.registry.register(name, identity, combine)
    }

    /// Allocate a zero-initialized distributed array of `len` elements
    /// (Figure 3 line 2's constructor).
    pub fn alloc<T: Element>(&self, len: usize, opts: ArrayOptions) -> GlobalArray<T> {
        self.alloc_with(len, opts, |_| T::from_bits(0))
    }

    /// Allocate and initialize a distributed array; `init(i)` produces the
    /// initial value of element `i`, written directly into each home
    /// node's subarray (no network traffic).
    pub fn alloc_with<T: Element>(
        &self,
        len: usize,
        opts: ArrayOptions,
        init: impl Fn(usize) -> T,
    ) -> GlobalArray<T> {
        let chunk_size = opts.chunk_size.unwrap_or(DEFAULT_CHUNK_SIZE);
        if let Err(e) = self.shared.cfg.try_validate_array(chunk_size) {
            panic!("{e}");
        }
        let nodes = self.shared.cfg.nodes;
        let elastic = self.shared.cfg.elastic;
        let layout = match &opts.partition_offset {
            Some(offs) => Layout::custom(len, nodes, chunk_size, offs),
            None if elastic => {
                // Spares (still Joining) home nothing: partition over the
                // active prefix only. Joins admit in index order, so the
                // active set is the longest non-joining prefix.
                let active = (0..nodes)
                    .take_while(|&n| !self.shared.membership[0].is_joining(n))
                    .count();
                Layout::even_prefix(len, nodes, active, chunk_size)
            }
            None => Layout::even(len, nodes, chunk_size),
        };
        let mut arrays = self.shared.arrays.write();
        let id = arrays.len() as u32;
        let arr = Arc::new(ArrayShared::new(
            id,
            layout,
            self.shared.cfg.durability.enabled(),
            elastic,
            self.shared.cfg.fault.is_some(),
        ));
        // In elastic mode one chunk's image can exist in more than one log
        // (the old home persisted it before a migration, the new home
        // after). The record with the highest persist epoch is the
        // authoritative one — the migration fence epoch is burned at the
        // transfer, after every persist the old home made and before the
        // new home's first, so the new home's records outrank the old
        // home's. On a tie the higher node id wins.
        let mut best: std::collections::HashMap<usize, (u64, usize)> =
            std::collections::HashMap::new();
        if elastic {
            for (n, store) in self.shared.stores.iter().enumerate() {
                let Some(store) = store else { continue };
                for rec in store.recovered() {
                    let c = rec.chunk as usize;
                    if rec.array != id
                        || c >= arr.layout.num_chunks()
                        || rec.data.len() != chunk_size
                    {
                        continue;
                    }
                    let e = best.entry(c).or_insert((rec.epoch, n));
                    if rec.epoch >= e.0 {
                        *e = (rec.epoch, n);
                    }
                }
            }
        }
        // Chunks overlaid from a recovered image, with their authoritative
        // (post-recovery) home — the input to the cold-cache warmup below.
        let mut warm: Vec<(usize, usize)> = Vec::new();
        for n in 0..nodes {
            let elems = arr.layout.node_elems(n);
            for i in elems {
                let c = arr.layout.chunk_of(i);
                let w = arr.chunk_off(c) + arr.layout.offset_in_chunk(i);
                arr.subarrays[n].store(w, init(i).to_bits());
            }
            // Restart recovery: overlay chunk images replayed from this
            // node's durable log over the freshly initialized subarray —
            // the persisted state of a previous incarnation wins over
            // `init` (DESIGN.md §14). Records from other arrays or from an
            // incompatible layout are left for their own allocation.
            if let Some(store) = &self.shared.stores[n] {
                for rec in store.recovered() {
                    let c = rec.chunk as usize;
                    if rec.array != id
                        || c >= arr.layout.num_chunks()
                        || rec.data.len() != chunk_size
                    {
                        continue;
                    }
                    if elastic {
                        // Best-epoch-wins across all logs: node n only
                        // overlays (and re-homes) chunks whose newest
                        // persisted image lives in its own log.
                        if best.get(&c) != Some(&(rec.epoch, n)) {
                            continue;
                        }
                        let h = arr.layout.home_of_chunk(c);
                        if h != n {
                            // The chunk had migrated here before the crash:
                            // restore n as its home on every view, under
                            // the persist epoch (future migration epochs
                            // resume past it, keeping the map monotone).
                            for m in 0..nodes {
                                arr.note_home(m, c, n, rec.epoch);
                            }
                            // Dentries were seeded from the static layout;
                            // hand the line to the recovered home so the
                            // layout home's fast path cannot serve its
                            // freshly re-initialized (stale) image.
                            let old = &arr.per_node[h].dentries[c];
                            old.promote_to(
                                crate::state::LocalState::Invalid,
                                crate::protocol::NOTAG,
                            );
                            old.set_line(crate::protocol::LINE_NONE);
                            let new = &arr.per_node[n].dentries[c];
                            new.set_line(crate::protocol::LINE_HOME);
                            new.promote_to(
                                crate::state::LocalState::Exclusive,
                                crate::protocol::NOTAG,
                            );
                        }
                    } else if arr.layout.home_of_chunk(c) != n {
                        continue;
                    }
                    let off = arr.chunk_off(c);
                    for (i, &word) in rec.data.iter().enumerate() {
                        arr.subarrays[n].store(off + i, word);
                    }
                    // Resume the chunk's persist sequence past the recovered
                    // record so post-restart persists stamp *newer* epochs —
                    // otherwise a second crash's latest-epoch-wins replay
                    // would resurrect this pre-restart image.
                    arr.per_node[n].home[c].lock().resume_persist_seq(rec.epoch);
                    warm.push((c, n));
                }
            }
        }
        // Cold-cache warmup (DESIGN.md §14): a recovered checkpoint/log
        // image is the one copy of the chunk guaranteed fresh at bring-up;
        // seed read-only Shared copies of it into the other nodes' caches
        // so the first post-restart reads hit locally instead of paying one
        // cold fill per line. Strictly an optimization — warming stops the
        // moment it would push a pool into its eviction band, and
        // still-joining spares are skipped. Each warmed node is registered
        // in the home machine's sharer set, so later writes invalidate the
        // seeded copies through the ordinary protocol.
        for &(c, h) in &warm {
            let img = arr.subarrays[h].read_vec(arr.chunk_off(c), chunk_size);
            let r = self.shared.placement.rt_index(id, c as u32);
            for m in 0..nodes {
                if m == h || self.shared.membership[m].is_joining(m) {
                    continue;
                }
                let pool = &self.shared.cache_pools[m][r];
                let Some(line) = pool.alloc(id, c as u32) else {
                    continue;
                };
                if pool.below_high() {
                    pool.free(line);
                    continue;
                }
                let dst = self.shared.cfg.cache.line_off(line);
                for (i, &word) in img.iter().enumerate() {
                    self.shared.cache_regions[m].store(dst + i, word);
                }
                let d = &arr.per_node[m].dentries[c];
                d.set_line(line);
                d.promote_to(crate::state::LocalState::Shared, crate::protocol::NOTAG);
                arr.per_node[h].home[c].lock().seed_sharer(m);
            }
        }
        // Subarrays are WRITE targets for evictions/writebacks: register
        // each home partition with its owner's transport.
        for (n, transport) in self.shared.transports.iter().enumerate() {
            transport.register_region(&arr.subarrays[n]);
        }
        arrays.push(arr.clone());
        drop(arrays);
        GlobalArray {
            shared: self.shared.clone(),
            arr,
            _pd: PhantomData,
        }
    }

    /// Run `f` once per (node, thread) as simulated application threads and
    /// join them all. May be called repeatedly (e.g. warm-up then measured
    /// phase).
    pub fn run<F>(&self, ctx: &mut Ctx, threads_per_node: usize, f: F)
    where
        F: Fn(&mut Ctx, NodeEnv) + Send + Sync + 'static,
    {
        assert!(threads_per_node > 0);
        let nodes = self.shared.cfg.nodes;
        let f = Arc::new(f);
        let barrier = SimBarrier::new(nodes * threads_per_node);
        let mut handles = Vec::new();
        for node in 0..nodes {
            for t in 0..threads_per_node {
                let env = NodeEnv {
                    node,
                    thread: t,
                    nodes,
                    threads_per_node,
                    barrier: barrier.clone(),
                };
                let f2 = f.clone();
                handles.push(ctx.spawn(&format!("app-{node}-{t}"), move |c| f2(c, env)));
            }
        }
        for h in handles {
            h.join(ctx);
        }
    }

    /// Every counter of one node: its runtime counters plus the rows owned
    /// by its transport (backend-agnostic; see
    /// [`rdma_fabric::TransportStats`]) and its durable chunk store (zero
    /// without durability).
    pub fn stats(&self, node: NodeId) -> NodeStatsSnapshot {
        let store = self.shared.stores[node]
            .as_ref()
            .map(|s| s.stats())
            .unwrap_or_default();
        let transport = self.shared.transport_stats(node);
        self.shared.stats[node].snapshot(&transport, &store, &self.shared.membership[node])
    }

    /// Checkpoint barrier: snapshot every node's durable chunk store into
    /// its checkpoint sidecar and (when `durability.compact` is on) drop
    /// the covered log prefix — the explicit checkpoint/restore point for
    /// an operator-driven backup, independent of the periodic
    /// `checkpoint_every_persists` trigger. Call between [`Cluster::run`]
    /// phases, when no application request is in flight: each store's
    /// buffered records are flushed and synced before its image is
    /// captured, so the sidecars jointly hold every write acknowledged
    /// before the call. No-op (returns `Ok`) without durability.
    pub fn checkpoint_all(&self) -> std::io::Result<()> {
        for store in self.shared.stores.iter().flatten() {
            store.checkpoint()?;
        }
        Ok(())
    }

    /// Per-runtime-thread cache-pool snapshots of `node`, in thread order.
    /// Surfaces placement skew: how full each pool runs and how often its
    /// watermark scan evicts.
    pub fn pool_stats(&self, node: NodeId) -> Vec<PoolStats> {
        self.shared.cache_pools[node]
            .iter()
            .map(|p| p.stats())
            .collect()
    }

    /// Verb counters of one node's NIC. All-zero when the node's transport
    /// is not backed by the simulated NIC.
    pub fn nic_stats(&self, node: NodeId) -> NicStatsSnapshot {
        self.shared.nic_stats(node)
    }

    /// Node `me`'s current membership opinion of `peer` (Alive / Suspected
    /// / Dead). Observational only; the reliability agent owns transitions.
    pub fn peer_health(&self, me: NodeId, peer: NodeId) -> PeerHealth {
        self.shared.membership[me].health(peer)
    }

    /// Node `me`'s current membership-view epoch (count of deaths it has
    /// confirmed so far).
    pub fn membership_epoch(&self, me: NodeId) -> u64 {
        self.shared.membership[me].epoch()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.shared.cfg
    }

    /// Re-admit `node` as a *restarted* identity on every view that had
    /// confirmed it dead (DESIGN.md §14): the protocol-level rejoin after a
    /// kill. Each such view burns a fresh membership epoch (fencing
    /// straggler death declarations of the old incarnation) and fans
    /// `PeerRestarted` out to its runtime threads, which release every
    /// cached line homed on the restarted node (rights granted by the old
    /// incarnation are void) and un-fence it in their home directories.
    ///
    /// This re-opens the *protocol* to the new incarnation; recovering the
    /// node's durable chunk images is the chunk store's job and happens
    /// when its log is reopened (`LogChunkStore::open` + the allocation
    /// replay overlay). Views on which `node` was never confirmed dead are
    /// left untouched. Returns how many views re-admitted it.
    ///
    /// Contract: call on a *settled* death — after every survivor has
    /// processed the declaration and no application request is outstanding
    /// against the corpse. Calling between [`Cluster::run`] phases
    /// guarantees this (an app thread still parked on the dead node would
    /// have kept the previous phase from joining). Re-admitting while the
    /// death is still being settled is unspecified: a survivor could
    /// address the new incarnation before processing the stale declaration
    /// of the old one and tear down a fill the new home already granted.
    pub fn restart_peer(&self, ctx: &mut Ctx, node: NodeId) -> usize {
        let mut readmitted = 0;
        for m in 0..self.shared.cfg.nodes {
            let Some(epoch) = self.shared.membership[m].restart(node) else {
                continue;
            };
            readmitted += 1;
            self.admit_peer(ctx, m, node);
            for rt in &self.shared.rt_mailboxes[m] {
                rt.send(ctx, RtMsg::PeerRestarted { node, epoch }, 0);
            }
        }
        readmitted
    }

    /// First-contact bring-up of the `m` <-> `node` link after view `m`
    /// admitted `node` — shared by [`Cluster::restart_peer`]
    /// (re-admission of a restarted identity) and [`Cluster::join_peer`]
    /// (admission of a spare). Bring the reliable link up like a cold
    /// boot: any earlier incarnation's unacked frames carry sequence
    /// numbers that are gone for good, so continuing the old streams would
    /// leave the receivers waiting forever on the gap. Both directions
    /// restart from seq 0 (the link is idle — see the settled-death /
    /// between-phases contracts), resets enqueued before any new traffic
    /// can be.
    fn admit_peer(&self, ctx: &mut Ctx, m: NodeId, node: NodeId) {
        self.shared.rx_links[m][node].lock().reset();
        self.shared.rx_links[node][m].lock().reset();
        if let Some(rel) = &self.shared.rel_mailboxes[m] {
            rel.send(ctx, RelMsg::ResetLink { peer: node }, 0);
        }
        if let Some(rel) = &self.shared.rel_mailboxes[node] {
            rel.send(ctx, RelMsg::ResetLink { peer: m }, 0);
        }
    }

    /// Admit spare `node` (configured via `ClusterConfig::initial_nodes`,
    /// health `Joining`) into the live cluster (DESIGN.md §15).
    ///
    /// In fault mode this drives the join *protocol*: the joiner's
    /// reliability agent announces `JoinReq` to every peer it views alive;
    /// each survivor admits the joiner on its own view (burning a fresh
    /// membership epoch and performing the first-contact link bring-up)
    /// and votes `JoinVote{admit}`; the joiner self-admits once a quorum
    /// of votes is in. This call then blocks (in virtual time) until every
    /// view the joiner can reach has admitted it. Without a `fault`
    /// config there are no reliability agents, so the views are admitted
    /// synchronously here — same postcondition, no wire traffic.
    ///
    /// The joined node homes no chunks until [`Cluster::migrate_chunk`]
    /// re-homes some onto it; arrays allocated *after* the join include it
    /// in their even partition. Returns how many views admitted the node.
    /// No-op (returns 0) if `node` is not in `Joining` state everywhere.
    pub fn join_peer(&self, ctx: &mut Ctx, node: NodeId) -> usize {
        assert!(
            self.shared.cfg.elastic,
            "join_peer requires ClusterConfig::elastic"
        );
        let nodes = self.shared.cfg.nodes;
        assert!(node < nodes);
        if let Some(rel) = &self.shared.rel_mailboxes[node] {
            let jv = &self.shared.membership[node];
            if !jv.is_joining(node) {
                return 0;
            }
            rel.send(ctx, RelMsg::AnnounceJoin, 0);
            // Wait until the join settles: the joiner has self-admitted on
            // quorum and every peer it views alive has admitted it too.
            while jv.is_joining(node)
                || (0..nodes).any(|m| {
                    m != node
                        && jv.health(m) == PeerHealth::Alive
                        && self.shared.membership[m].health(node) != PeerHealth::Alive
                })
            {
                ctx.sleep(self.settle_poll_ns());
            }
            // Count the views that now hold the joiner Alive.
            (0..nodes)
                .filter(|&m| self.shared.membership[m].health(node) == PeerHealth::Alive)
                .count()
        } else {
            // Fault-free path: no reliability agents exist, so admit the
            // joiner on every view directly (links have no sequence state
            // to reset, but the bring-up is shared for uniformity).
            let mut admitted = 0;
            for m in 0..nodes {
                if self.shared.membership[m].admit(node).is_some() {
                    admitted += 1;
                    self.admit_peer(ctx, m, node);
                }
            }
            admitted
        }
    }

    /// How often `join_peer` and `migrate_chunk` check whether their change
    /// has settled: every quorum-poll interval in fault mode, else 1 µs.
    fn settle_poll_ns(&self) -> VTime {
        self.shared
            .cfg
            .fault
            .as_ref()
            .map_or(1_000, |f| f.suspect_poll_ns)
    }

    /// Re-home `chunk` of `arr` onto `to` while the cluster serves traffic
    /// (DESIGN.md §15): sends `RtMsg::Migrate` to the runtime thread that
    /// owns the chunk at its current home, which fences the chunk
    /// (recalling outstanding copies, parking new arrivals), transfers the
    /// directory state and data image, and commits the move under a burned
    /// epoch. Blocks (in virtual time) until every node's home map shows
    /// `to` as the chunk's home — after which parked traffic has been
    /// forwarded and the old home is no longer authoritative — or until
    /// the move settles as aborted because `to` died mid-migration, in
    /// which case the source re-assumed the chunk. Returns `true` iff the
    /// chunk is homed on `to` when the call returns (including the no-op
    /// case where it already was).
    pub fn migrate_chunk<T: Element>(
        &self,
        ctx: &mut Ctx,
        arr: &GlobalArray<T>,
        chunk: usize,
        to: NodeId,
    ) -> bool {
        assert!(
            self.shared.cfg.elastic,
            "migrate_chunk requires ClusterConfig::elastic"
        );
        let nodes = self.shared.cfg.nodes;
        assert!(to < nodes);
        let a = &arr.arr;
        assert!(chunk < a.layout.num_chunks());
        assert!(
            self.shared.membership[to].health(to) == PeerHealth::Alive,
            "migration target must be an admitted, live node"
        );
        // The current home by its own account (every settled view agrees;
        // mid-migration the call below is rejected by the machine and the
        // wait observes the in-flight move instead).
        let home = (0..nodes)
            .find(|&n| a.home_on(n, chunk) == n)
            .unwrap_or_else(|| a.home_on(to, chunk));
        if home == to {
            return true;
        }
        let r = self.shared.placement.rt_index(a.id, chunk as u32);
        self.shared.rt_mailboxes[home][r].send(
            ctx,
            RtMsg::Migrate {
                array: a.id,
                chunk: chunk as u32,
                to,
            },
            0,
        );
        // Observe convergence through the target's view: every node it
        // holds alive (itself included) must have flipped its map. Dead or
        // still-joining nodes learn the new home on re-admission instead.
        // If the target itself is confirmed dead mid-move, its view is
        // frozen and can never converge; the source machine settles the
        // migration on its PeerDown (abort and re-assume, or — when the
        // ack had already landed — commit to the corpse), so the source's
        // own map is the final answer.
        loop {
            if self.shared.membership[home].health(to) == PeerHealth::Dead {
                return a.home_on(home, chunk) == to;
            }
            let converged = (0..nodes).all(|m| {
                self.shared.membership[to].health(m) != PeerHealth::Alive
                    || a.home_on(m, chunk) == to
            });
            if converged {
                return true;
            }
            ctx.sleep(self.settle_poll_ns());
        }
    }

    /// Stop all service threads and join them. Call after application work
    /// has quiesced (outstanding protocol traffic is drained first because
    /// mailbox sends are FIFO per sender and the runtime processes its
    /// backlog before the shutdown message).
    pub fn shutdown(self, ctx: &mut Ctx) {
        let nodes = self.shared.cfg.nodes;
        for node in 0..nodes {
            for rt in &self.shared.rt_mailboxes[node] {
                rt.send(ctx, RtMsg::Shutdown, 0);
            }
            if let Some(tx) = &self.tx_queues[node] {
                tx.send(ctx, TxReq::Shutdown, 0);
            }
            if let Some(rel) = &self.shared.rel_mailboxes[node] {
                rel.send(ctx, RelMsg::Shutdown, 0);
            }
            // Rx threads stop on a Halt self-send through the transport.
            self.shared.transports[node].send(ctx, node, NetMsg::Halt);
        }
        for h in self.service_handles {
            h.join(ctx);
        }
        // Final durability batch point: under the Writeback policy this is
        // what pushes buffered log records to disk (Writethrough synced
        // each record as it was persisted).
        for store in self.shared.stores.iter().flatten() {
            store.sync().expect("durable chunk store final sync failed");
        }
        // Release backend resources (sockets, pump threads); a no-op for
        // the simulated backend.
        for transport in &self.shared.transports {
            transport.shutdown();
        }
    }
}
