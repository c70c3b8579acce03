//! The runtime layer (§3.1): one event loop per runtime thread.
//!
//! Since the protocol extraction, this file is a thin **executor** for the
//! sans-I/O machines in [`crate::protocol`]: it delivers each received
//! coherence message through [`Msg::deliver`] to the per-chunk
//! [`HomeMachine`](crate::protocol::HomeMachine) or the pure
//! [`CacheMachine`], and executes the returned actions against the real
//! world — the fabric, the cache region, the dentries, the simulator
//! clock.
//! All protocol *decisions* (who to invalidate, when to recall, which
//! crossing messages to ignore) live in the machines; everything here is
//! mechanical translation plus the executor-only concerns the machines
//! cannot own:
//!
//! * **cache allocation & watermark eviction** (Figure 7) — which line to
//!   hand out, when to reclaim (one line per idle mailbox slot once the
//!   low watermark is crossed);
//! * **sequential prefetch policy** — the machines emit a `PrefetchHint`,
//!   the executor decides whether the miss pattern warrants acting on it;
//! * **deferred drains** — every rights-removing transition follows
//!   Figure 5 (set `delay_flag`, install the state, wait for references to
//!   drain). A naive runtime would block its message loop while waiting;
//!   instead, drains whose reference count is still nonzero are *deferred* —
//!   the runtime keeps serving messages and polls the refcount between
//!   them, feeding the machine a `Drained` event when it hits zero;
//! * **distributed locks** — the element-lock tables are orthogonal to the
//!   coherence protocol and stay here.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dsim::{Ctx, Mailbox, WaitCell};
use rdma_fabric::{MemoryRegion, NodeId};

use crate::cache::CacheRegion;
use crate::comm::CommHandle;
use crate::dentry::{LINE_HOME, LINE_NONE};
use crate::msg::{ArrayId, ChunkId, Envelope, Intent, LocalKind, LocalReq, LockKind, Rpc, RtMsg};
use crate::op::OpId;
use crate::protocol::{
    AfterDrain, CacheAction, CacheEvent, CacheMachine, CacheView, Counter, Delivery, HomeAction,
    HomeEvent, Kind, Msg, Request, Requester, Transition,
};
use crate::shared::{ArrayShared, ClusterShared};
use crate::state::LocalState;
use crate::stats::NodeStats;

mod locks;

/// Continuation run after a deferred drain completes: feed the matching
/// machine its completion event.
enum Cont {
    /// The home dentry's drain (gating a directory transition) finished:
    /// deliver [`HomeEvent::Drained`].
    Home,
    /// A requester-side drain finished: deliver [`CacheEvent::Drained`]
    /// carrying the follow-up the cache machine recorded at drain start.
    Cache(AfterDrain),
    /// A message waits for a drain under way
    /// ([`CacheAction::SendAfterDrain`]): send it.
    Send(NodeId, Msg),
}

struct Deferred {
    array: ArrayId,
    chunk: ChunkId,
    cont: Cont,
}

/// One runtime thread: owns a cache region and the protocol state of every
/// chunk the cluster-wide [`crate::placement::Placement`] maps to `rt_idx`.
pub(crate) struct RuntimeThread {
    pub node: NodeId,
    pub rt_idx: usize,
    pub shared: Arc<ClusterShared>,
    pub comm: CommHandle,
    pub cache: Arc<CacheRegion>,
    pub mailbox: Mailbox<RtMsg>,
    deferred: Vec<Deferred>,
    ready: Vec<(ArrayId, ChunkId, Cont)>,
    /// Last read-miss chunk, for sequential-pattern prefetch detection.
    last_miss: Option<(ArrayId, ChunkId)>,
    /// A reclaim episode is armed: an allocation left the pool below the
    /// low watermark, and the event loop evicts one line per idle mailbox
    /// slot until the free count reaches the high watermark.
    reclaiming: bool,
    /// Write-intent locks this node holds whose grant said to keep a
    /// Shared copy at unlock (DESIGN.md §4.5), by array and element. A
    /// lock's grant and release both run on the thread owning its chunk.
    keep_at_unlock: HashSet<(ArrayId, u64)>,
    /// The ack count of each directed write or grant this node waits for
    /// ([`CacheView::acks`] and [`CacheView::granted`], DESIGN.md §4.2 and
    /// §4.5), by array and chunk; absent means 0. Every message about a
    /// chunk runs on the thread owning it.
    acks: HashMap<(ArrayId, ChunkId), (i64, bool)>,
    /// The lock grant a directed grant sends once its home dentry drained
    /// (`HomeAction::SendGrant`, DESIGN.md §4.5): the element, the lock
    /// kind and the release rule, by array and chunk. The chunk's machine
    /// serves one directed grant at a time.
    grants: HashMap<(ArrayId, ChunkId), (u64, LockKind, bool)>,
    /// The chunk words of the directed grant being delivered, which
    /// `CacheAction::InstallGrant` writes into a fresh line.
    grant_words: Vec<u64>,
}

impl RuntimeThread {
    pub(crate) fn new(
        node: NodeId,
        rt_idx: usize,
        shared: Arc<ClusterShared>,
        comm: CommHandle,
        cache: Arc<CacheRegion>,
        mailbox: Mailbox<RtMsg>,
    ) -> Self {
        Self {
            node,
            rt_idx,
            shared,
            comm,
            cache,
            mailbox,
            deferred: Vec::new(),
            ready: Vec::new(),
            last_miss: None,
            reclaiming: false,
            keep_at_unlock: HashSet::new(),
            acks: HashMap::new(),
            grants: HashMap::new(),
            grant_words: Vec::new(),
        }
    }

    fn stats(&self) -> &NodeStats {
        &self.shared.stats[self.node]
    }

    /// Bump the `NodeStats` field a machine-emitted [`Counter`] names.
    fn count(&self, c: Counter) {
        if matches!(c, Counter::Evictions) {
            // Evictions are also charged per-pool: `self.cache` is this
            // thread's own pool, the only one its watermark scan touches.
            self.cache.note_eviction();
        }
        let s = self.stats();
        NodeStats::bump(match c {
            Counter::Fills => &s.fills,
            Counter::OperateReacquires => &s.operate_reacquires,
            Counter::Invalidations => &s.invalidations,
            Counter::Writebacks => &s.writebacks,
            Counter::OperandFlushes => &s.operand_flushes,
            Counter::Recalls => &s.recalls,
            Counter::DirectFills => &s.direct_fills,
            Counter::DirectWrites => &s.direct_writes,
            Counter::DirectedGrants => &s.directed_grants,
            Counter::QueuedBehindDirect => &s.queued_behind_direct,
            Counter::OperatedReductions => &s.operated_reductions,
            Counter::Evictions => &s.evictions,
            Counter::SharersPruned => &s.sharers_pruned,
            Counter::EpochsAborted => &s.epochs_aborted,
            Counter::FlushPersists => &s.flush_persists,
            Counter::MigrationsOut => &s.migrations_out,
            Counter::MigrationsIn => &s.migrations_in,
            Counter::ParkedReplays => &s.parked_replays,
        });
    }

    /// Record a machine-emitted structured transition: counted always,
    /// printed when chunk tracing is active.
    fn transition(&self, ctx: &Ctx, aid: ArrayId, chunk: ChunkId, t: &Transition) {
        NodeStats::bump(&self.stats().transitions);
        crate::trace::transition(aid, chunk, self.node, ctx.now(), t);
    }

    /// The event loop (runs until `RtMsg::Shutdown`).
    pub(crate) fn run(mut self, ctx: &mut Ctx) {
        loop {
            let msg = if self.deferred.is_empty() && !self.reclaiming {
                self.mailbox.recv(ctx)
            } else {
                match self.mailbox.try_recv(ctx) {
                    Some(m) => m,
                    None => {
                        if self.reclaiming {
                            self.reclaim_idle(ctx);
                        } else {
                            ctx.spin_hint(50);
                        }
                        self.poll_deferred();
                        self.drain_ready(ctx);
                        continue;
                    }
                }
            };
            match msg {
                RtMsg::Shutdown => break,
                RtMsg::Local(req) => {
                    ctx.charge(self.shared.cfg.cost.local_req_handle_ns);
                    NodeStats::bump(&self.stats().local_handled);
                    self.handle_local(ctx, req);
                }
                RtMsg::Net { src, env } => {
                    ctx.charge(self.shared.cfg.cost.rpc_handle_ns);
                    NodeStats::bump(&self.stats().rpcs_handled);
                    self.handle_rpc(ctx, src, env);
                }
                RtMsg::Retry { array, chunk } => {
                    self.home_event(ctx, array, chunk, HomeEvent::RetryExpired);
                }
                RtMsg::PeerDown { node, epoch } => self.handle_peer_down(ctx, node, epoch),
                RtMsg::PeerRestarted { node, epoch } => self.handle_peer_restart(ctx, node, epoch),
                RtMsg::Migrate { array, chunk, to } => {
                    // Only the chunk's current home may start a migration;
                    // anything else (stale request racing a previous move)
                    // is dropped here and the machine rejects the rest.
                    let arr = self.shared.array(array);
                    if arr.elastic
                        && to != self.node
                        && arr.home_on(self.node, chunk as usize) == self.node
                        && !self.shared.is_peer_down(self.node, to)
                    {
                        self.home_event(ctx, array, chunk, HomeEvent::BeginMigration { to });
                    }
                }
            }
            self.poll_deferred();
            self.drain_ready(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Drain machinery
    // ------------------------------------------------------------------

    /// Begin a Figure-5 drain towards `new_state`; `cont` runs once all
    /// references are gone (immediately, in the common case).
    fn start_drain(
        &mut self,
        arr: &ArrayShared,
        chunk: ChunkId,
        new_state: LocalState,
        tag: u32,
        cont: Cont,
    ) {
        let d = &arr.per_node[self.node].dentries[chunk as usize];
        d.begin_drain(new_state, tag);
        if d.drained() {
            d.end_drain();
            self.ready.push((arr.id, chunk, cont));
        } else {
            self.deferred.push(Deferred {
                array: arr.id,
                chunk,
                cont,
            });
        }
    }

    fn poll_deferred(&mut self) {
        let mut i = 0;
        while i < self.deferred.len() {
            let (aid, chunk) = (self.deferred[i].array, self.deferred[i].chunk);
            let arr = self.shared.array(aid);
            let d = &arr.per_node[self.node].dentries[chunk as usize];
            if d.drained() {
                d.end_drain();
                let df = self.deferred.swap_remove(i);
                self.ready.push((df.array, df.chunk, df.cont));
            } else {
                i += 1;
            }
        }
    }

    fn drain_ready(&mut self, ctx: &mut Ctx) {
        while let Some((aid, chunk, cont)) = self.ready.pop() {
            self.run_cont(ctx, aid, chunk, cont);
        }
    }

    fn run_cont(&mut self, ctx: &mut Ctx, aid: ArrayId, chunk: ChunkId, cont: Cont) {
        match cont {
            Cont::Home => {
                crate::trace::event(
                    aid,
                    chunk,
                    self.node,
                    ctx.now(),
                    format_args!("HOME-DRAINED"),
                );
                self.home_event(ctx, aid, chunk, HomeEvent::Drained);
            }
            Cont::Cache(after) => {
                crate::trace::event(
                    aid,
                    chunk,
                    self.node,
                    ctx.now(),
                    format_args!("DRAINED {after:?}"),
                );
                let arr = self.shared.array(aid);
                let home = arr.home_on(self.node, chunk as usize);
                let home_down = self.shared.is_peer_down(self.node, home);
                self.cache_event(
                    ctx,
                    &arr,
                    chunk,
                    CacheEvent::Drained { after, home_down },
                    None,
                );
            }
            Cont::Send(to, msg) => {
                self.comm.send(ctx, to, Envelope::new(aid, chunk, msg));
            }
        }
    }

    // ------------------------------------------------------------------
    // Home-machine executor
    // ------------------------------------------------------------------

    /// Feed `ev` to the chunk's home machine and execute its actions.
    fn home_event(&mut self, ctx: &mut Ctx, aid: ArrayId, chunk: ChunkId, ev: HomeEvent<WaitCell>) {
        let arr = self.shared.array(aid);
        // The machine mutex is released before any action executes: actions
        // may charge time, yield, or re-enter `home_event` via a drain that
        // completes immediately.
        let actions = {
            let mut hm = arr.per_node[self.node].home[chunk as usize].lock();
            hm.on_event(ctx.now(), self.shared.cfg.grant_grace_ns, ev)
        };
        for act in actions {
            self.run_home_action(ctx, &arr, chunk, act);
        }
    }

    fn run_home_action(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        chunk: ChunkId,
        act: HomeAction<WaitCell>,
    ) {
        match act {
            HomeAction::ChargeDirUpdate => ctx.charge(self.shared.cfg.cost.dir_update_ns),
            HomeAction::Wake(w) => w.notify(ctx),
            HomeAction::Send { to, msg } => {
                self.comm.send(ctx, to, Envelope::new(arr.id, chunk, msg));
            }
            HomeAction::SendFill {
                to,
                dst_off,
                exclusive,
                acks,
            } => {
                let msg = Msg::home_fill(exclusive, acks);
                self.send_fill(ctx, arr, chunk, to, dst_off, msg);
            }
            HomeAction::SendGrant { to, acks, data } => {
                let (id, kind, keep) = self
                    .grants
                    .remove(&(arr.id, chunk))
                    .expect("a directed grant waits for its send");
                let data = if data {
                    let words = arr.layout.chunk_size();
                    ctx.charge(self.shared.cfg.cost.memcpy(words));
                    arr.subarrays[self.node].read_vec(arr.chunk_off(chunk as usize), words)
                } else {
                    Vec::new()
                };
                let rpc = Rpc::DirectedGrant {
                    id,
                    kind,
                    keep,
                    acks,
                    data,
                };
                self.comm.send(ctx, to, Envelope::new(arr.id, chunk, rpc));
            }
            HomeAction::ApplyFlushData { op, data } => {
                self.apply_flush_data(ctx, arr, chunk, op, &data);
            }
            HomeAction::SetHomeLocal { state, tag } => {
                arr.per_node[self.node].dentries[chunk as usize].promote_to(state, tag);
            }
            HomeAction::StartHomeDrain { target, tag } => {
                self.start_drain(arr, chunk, target, tag, Cont::Home);
            }
            HomeAction::ScheduleRetry { at } => {
                let mb = self.shared.rt_mailbox(self.node, arr.id, chunk).clone();
                mb.send_at(
                    ctx,
                    RtMsg::Retry {
                        array: arr.id,
                        chunk,
                    },
                    at,
                );
            }
            HomeAction::Trace(t) => self.transition(ctx, arr.id, chunk, &t),
            HomeAction::Count(c) => self.count(c),
            HomeAction::PersistChunk { seq } => {
                // Persist-before-ack (DESIGN.md §14): append the chunk's
                // freshly updated home image to the durable log, then feed
                // the completion straight back — the machine is parked in
                // AwaitPersist and resumes the acknowledgement only now.
                // Under the Writethrough policy the record is also fsynced
                // here; under Writeback it reaches disk at the next batch
                // point (end of a reclaim episode, or shutdown).
                let store = self.shared.stores[self.node]
                    .as_ref()
                    .expect("durable home machine without a chunk store");
                let words = arr.layout.chunk_size();
                let off = arr.chunk_off(chunk as usize);
                let data = arr.subarrays[self.node].read_vec(off, words);
                ctx.charge(self.shared.cfg.cost.memcpy(words));
                store
                    .persist(arr.id, chunk, seq, &data)
                    .expect("durable chunk store persist failed");
                // Epoch-close compaction trigger (DESIGN.md §14): the
                // persist counter just advanced, so poll the cheap
                // threshold check. Home-heavy nodes may never run a
                // reclaim episode, so this is the trigger that actually
                // fires for them; `maybe_checkpoint` is a no-op unless
                // `checkpoint_every_persists` is due.
                store
                    .maybe_checkpoint()
                    .expect("durable chunk store checkpoint failed");
                self.home_event(ctx, arr.id, chunk, HomeEvent::PersistDone { seq });
            }
            HomeAction::TransferChunk { to, mig_epoch } => {
                // The image travels exactly like a fill: one-sided WRITE
                // into the target's (full-size, elastic) subarray slot,
                // then the MigrateData notification.
                let words = arr.layout.chunk_size();
                let off = arr.chunk_off(chunk as usize);
                let data = arr.subarrays[self.node].read_vec(off, words);
                ctx.charge(self.shared.cfg.cost.memcpy(words));
                self.comm.write_send(
                    ctx,
                    to,
                    &arr.subarrays[to],
                    off,
                    data,
                    Envelope::new(arr.id, chunk, Msg::MigrateData { mig_epoch }),
                );
            }
            HomeAction::DepartChunk { to, mig_epoch } => {
                arr.note_home(self.node, chunk as usize, to, mig_epoch);
                let d = &arr.per_node[self.node].dentries[chunk as usize];
                d.promote_to(LocalState::Invalid, crate::protocol::NOTAG);
                d.set_line(LINE_NONE);
                self.broadcast_home_moved(ctx, arr, chunk, to, mig_epoch);
            }
            HomeAction::AdoptChunk { mig_epoch } => {
                arr.note_home(self.node, chunk as usize, self.node, mig_epoch);
                let d = &arr.per_node[self.node].dentries[chunk as usize];
                d.set_line(LINE_HOME);
                d.promote_to(LocalState::Exclusive, crate::protocol::NOTAG);
                // Re-broadcast even though the source already did: if the
                // source died right after committing, its redirects died
                // with it; the map flip is a fetch_max, so duplicates are
                // no-ops.
                self.broadcast_home_moved(ctx, arr, chunk, self.node, mig_epoch);
            }
        }
    }

    /// Tell every live peer the chunk's home moved (stale-home redirect).
    fn broadcast_home_moved(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        chunk: ChunkId,
        new_home: NodeId,
        epoch: u64,
    ) {
        for peer in 0..self.shared.cfg.nodes {
            if peer == self.node || self.shared.is_peer_down(self.node, peer) {
                continue;
            }
            let msg = Msg::HomeMoved { new_home, epoch };
            self.comm.send(ctx, peer, Envelope::new(arr.id, chunk, msg));
        }
    }

    /// Reduce a remote node's combined operands into the home subarray.
    /// Concurrent local applies CAS into the same words, so the reduction
    /// CASes too.
    fn apply_flush_data(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        chunk: ChunkId,
        op: u32,
        data: &[u64],
    ) {
        let words = arr.layout.chunk_size();
        debug_assert_eq!(data.len(), words);
        let off = arr.chunk_off(chunk as usize);
        let sub = &arr.subarrays[self.node];
        let reg = &self.shared.registry;
        let opid = OpId(op);
        let identity = reg.identity(opid);
        let cost = &self.shared.cfg.cost;
        let mut applied = 0u64;
        for (i, &operand) in data.iter().enumerate() {
            if operand == identity {
                continue; // common case: untouched element
            }
            applied += 1;
            loop {
                let cur = sub.load(off + i);
                let new = reg.combine(opid, cur, operand);
                if sub.compare_exchange(off + i, cur, new).is_ok() {
                    break;
                }
            }
        }
        ctx.charge(cost.memcpy(words) + applied * cost.op_apply_ns);
    }

    /// RDMA-write the chunk's data into the requester's cacheline and send
    /// the fill notice `msg` behind it.
    fn send_fill(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        chunk: ChunkId,
        node: NodeId,
        dst_off: u64,
        msg: Msg,
    ) {
        let words = arr.layout.chunk_size();
        let off = arr.chunk_off(chunk as usize);
        let data = arr.subarrays[self.node].read_vec(off, words);
        self.comm.write_send(
            ctx,
            node,
            &self.shared.cache_regions[node],
            dst_off as usize,
            data,
            Envelope::new(arr.id, chunk, msg),
        );
    }

    // ------------------------------------------------------------------
    // Cache-machine executor
    // ------------------------------------------------------------------

    /// Snapshot a chunk's dentry for the cache machine.
    fn cache_view(&self, arr: &ArrayShared, chunk: ChunkId) -> CacheView {
        let d = &arr.per_node[self.node].dentries[chunk as usize];
        let (acks, granted) = self.acks.get(&(arr.id, chunk)).copied().unwrap_or_default();
        CacheView {
            state: d.state(),
            op_tag: d.op_tag(),
            line: d.line(),
            draining: d.delay_set(),
            home: arr.home_on(self.node, chunk as usize),
            acks,
            granted,
        }
    }

    /// Feed `ev` to the cache machine over a fresh dentry snapshot and
    /// execute its actions. `requester` carries the wait-cell of the local
    /// requester for [`CacheEvent::Request`] events (`None` otherwise).
    fn cache_event(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        chunk: ChunkId,
        ev: CacheEvent,
        requester: Option<WaitCell>,
    ) {
        let view = self.cache_view(arr, chunk);
        let actions = CacheMachine::on_event(&view, ev);
        self.run_cache_actions(ctx, arr, chunk, actions, requester);
    }

    fn run_cache_actions(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        chunk: ChunkId,
        actions: Vec<CacheAction>,
        mut requester: Option<WaitCell>,
    ) {
        let home = arr.home_on(self.node, chunk as usize);
        for act in actions {
            let d = &arr.per_node[self.node].dentries[chunk as usize];
            match act {
                CacheAction::QueueWaiter => {
                    d.push_waiter(requester.take().expect("no requester to queue"));
                }
                CacheAction::WakeRequester => {
                    requester.take().expect("no requester to wake").notify(ctx);
                }
                CacheAction::WakeAllWaiters => d.wake_waiters(ctx),
                CacheAction::BeginDrain { target, tag, after } => {
                    self.start_drain(arr, chunk, target, tag, Cont::Cache(after));
                }
                CacheAction::AllocLine { kind } => {
                    let line = self.alloc_line(ctx, arr, chunk);
                    let view = self.cache_view(arr, chunk);
                    let acts =
                        CacheMachine::on_event(&view, CacheEvent::LineAllocated { line, kind });
                    self.run_cache_actions(ctx, arr, chunk, acts, None);
                }
                CacheAction::SetLine { line } => d.set_line(line),
                CacheAction::InstallGrant => {
                    let words = std::mem::take(&mut self.grant_words);
                    let line = self.alloc_line(ctx, arr, chunk);
                    let off = self.shared.cfg.cache.line_off(line);
                    self.shared.cache_regions[self.node].write_slice(off, &words);
                    ctx.charge(self.shared.cfg.cost.memcpy(words.len()));
                    let d = &arr.per_node[self.node].dentries[chunk as usize];
                    d.set_line(line);
                    d.promote_to(LocalState::Shared, crate::protocol::NOTAG);
                }
                CacheAction::ReleaseLine { line } => {
                    d.set_line(LINE_NONE);
                    if line != LINE_NONE && line != LINE_HOME {
                        self.cache.free(line);
                    }
                }
                CacheAction::SetTransient { state } => d.set_transient(state),
                CacheAction::Promote { state, tag } => d.promote_to(state, tag),
                CacheAction::InitOperandBuffer { line, op } => {
                    let words = arr.layout.chunk_size();
                    let identity = self.shared.registry.identity(OpId(op));
                    self.shared.cache_regions[self.node].fill(
                        self.shared.cfg.cache.line_off(line),
                        words,
                        identity,
                    );
                    ctx.charge(self.shared.cfg.cost.memcpy(words));
                }
                CacheAction::Send { to, msg } => {
                    self.comm.send(ctx, to, Envelope::new(arr.id, chunk, msg));
                }
                CacheAction::SendAfterDrain { to, msg } => self.deferred.push(Deferred {
                    array: arr.id,
                    chunk,
                    cont: Cont::Send(to, msg),
                }),
                CacheAction::SetAcks { acks, granted } => {
                    if acks == 0 {
                        self.acks.remove(&(arr.id, chunk));
                    } else {
                        self.acks.insert((arr.id, chunk), (acks, granted));
                    }
                }
                CacheAction::SendWriteback {
                    line,
                    downgrade,
                    release,
                    direct,
                } => {
                    let dst = (home, &arr.subarrays[home], arr.chunk_off(chunk as usize));
                    let env =
                        Envelope::new(arr.id, chunk, Msg::WritebackNotice { downgrade, direct });
                    self.send_line(ctx, arr, line, release, dst, env);
                }
                CacheAction::SendFill {
                    line,
                    to,
                    dst_off,
                    exclusive,
                    release,
                } => {
                    let dst = (to, &self.shared.cache_regions[to], dst_off as usize);
                    let env = Envelope::new(arr.id, chunk, Msg::fill(exclusive, true));
                    self.send_line(ctx, arr, line, release, dst, env);
                }
                CacheAction::SendFlush {
                    line,
                    op,
                    release,
                    keep,
                } => {
                    let words = arr.layout.chunk_size();
                    let data = self.read_line(ctx, line, words);
                    if release {
                        d.set_line(LINE_NONE);
                        self.cache.free(line);
                    }
                    let msg = Msg::OperandFlush { op, data, keep };
                    self.comm.send(ctx, home, Envelope::new(arr.id, chunk, msg));
                }
                CacheAction::SendUpgrade { line, kind } => {
                    let msg = Msg::request(kind, self.shared.cfg.cache.line_off(line) as u64);
                    self.comm.send(ctx, home, Envelope::new(arr.id, chunk, msg));
                }
                CacheAction::PrefetchHint => {
                    // Prefetch only when the miss continues a sequential
                    // pattern — random access (e.g. hash probing) would only
                    // churn the cache with doomed Shared copies. A globally
                    // sequential scan reaches each runtime thread as a
                    // stride: this thread owns every `runtime_threads`-th
                    // chunk, so the previous miss it saw is that far back.
                    let stride = self.shared.cfg.runtime_threads as ChunkId;
                    let sequential = self.last_miss == Some((arr.id, chunk.wrapping_sub(stride)))
                        || self.last_miss == Some((arr.id, chunk));
                    self.last_miss = Some((arr.id, chunk));
                    if sequential {
                        self.prefetch(ctx, arr, chunk);
                    }
                }
                CacheAction::Trace(t) => self.transition(ctx, arr.id, chunk, &t),
                CacheAction::Count(c) => self.count(c),
            }
        }
        debug_assert!(requester.is_none(), "machine left a requester unhandled");
    }

    /// RDMA-write cacheline `line` of `env`'s chunk to `off` in node `to`'s
    /// `region`, with `env` behind it; `release` detaches and frees the
    /// line first.
    fn send_line(
        &self,
        ctx: &mut Ctx,
        arr: &ArrayShared,
        line: u32,
        release: bool,
        (to, region, off): (NodeId, &MemoryRegion, usize),
        env: Envelope,
    ) {
        let data = self.read_line(ctx, line, arr.layout.chunk_size());
        if release {
            arr.per_node[self.node].dentries[env.chunk as usize].set_line(LINE_NONE);
            self.cache.free(line);
        }
        self.comm.write_send(ctx, to, region, off, data, env);
    }

    fn read_line(&self, ctx: &mut Ctx, line: u32, words: usize) -> Vec<u64> {
        let off = self.shared.cfg.cache.line_off(line);
        ctx.charge(self.shared.cfg.cost.memcpy(words));
        self.shared.cache_regions[self.node].read_vec(off, words)
    }

    // ------------------------------------------------------------------
    // Local requests (interface layer -> runtime, Figure 2)
    // ------------------------------------------------------------------

    fn handle_local(&mut self, ctx: &mut Ctx, req: LocalReq) {
        let arr = self.shared.array(req.array);
        match req.kind {
            LocalKind::Access(kind) => self.local_data_req(ctx, &arr, req.chunk, kind, req.waiter),
            LocalKind::LockAcquire {
                index,
                kind,
                intent,
            } => self.local_lock_acquire(ctx, &arr, index, kind, intent, req.waiter),
            LocalKind::LockRelease {
                index,
                kind,
                intent,
            } => self.local_lock_release(ctx, &arr, index, kind, intent, req.waiter),
        }
    }

    fn local_data_req(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        chunk: ChunkId,
        kind: Kind,
        waiter: WaitCell,
    ) {
        let d = &arr.per_node[self.node].dentries[chunk as usize];
        // Re-check: the state may have changed between the app thread's miss
        // and us dequeuing the request.
        if !d.delay_set() && d.state().permits(kind, || d.op_tag()) {
            waiter.notify(ctx);
            return;
        }
        let home = arr.home_on(self.node, chunk as usize);
        if home == self.node {
            self.home_event(
                ctx,
                arr.id,
                chunk,
                HomeEvent::Request(Request {
                    source: Requester::Local(waiter),
                    kind,
                }),
            );
        } else {
            crate::trace::event(
                arr.id,
                chunk,
                self.node,
                ctx.now(),
                format_args!("CACHE_REQ state={:?} kind={:?}", d.state(), kind),
            );
            let drain_pending = self
                .deferred
                .iter()
                .any(|df| df.array == arr.id && df.chunk == chunk);
            let home_down = self.shared.is_peer_down(self.node, home);
            self.cache_event(
                ctx,
                arr,
                chunk,
                CacheEvent::Request {
                    kind,
                    home_down,
                    drain_pending,
                },
                Some(waiter),
            );
        }
    }

    /// Issue read prefetches for sequentially-next chunks (slow path only,
    /// §4.2 "Cache prefetch").
    fn prefetch(&mut self, ctx: &mut Ctx, arr: &Arc<ArrayShared>, chunk: ChunkId) {
        let k = self.shared.cfg.cache.prefetch_lines;
        if k == 0 {
            return;
        }
        let num_chunks = arr.layout.num_chunks() as ChunkId;
        for nc in chunk + 1..=(chunk + k as ChunkId) {
            if nc >= num_chunks {
                break;
            }
            if arr.home_on(self.node, nc as usize) == self.node {
                continue;
            }
            if self.shared.rt_index(arr.id, nc) != self.rt_idx {
                continue;
            }
            if self.cache.below_low() {
                break; // never force evictions on behalf of a prefetch
            }
            let d = &arr.per_node[self.node].dentries[nc as usize];
            if d.state() != LocalState::Invalid || d.delay_set() {
                continue;
            }
            let Some(line) = self.cache.alloc(arr.id, nc) else {
                break;
            };
            d.set_line(line);
            d.set_transient(LocalState::FillingShared);
            let msg = Msg::ReadReq {
                dst_off: self.shared.cfg.cache.line_off(line) as u64,
            };
            let home = arr.home_on(self.node, nc as usize);
            self.comm.send(ctx, home, Envelope::new(arr.id, nc, msg));
            NodeStats::bump(&self.stats().prefetches);
        }
    }

    // ------------------------------------------------------------------
    // Cache allocation & eviction (Figure 7)
    // ------------------------------------------------------------------

    /// Hand out a free line. Crossing the low watermark only *arms* a
    /// reclaim episode, which the event loop runs one eviction per idle
    /// mailbox slot, so the miss that crossed it pays nothing extra. Only
    /// an empty pool reclaims synchronously, looping the same step.
    fn alloc_line(&mut self, ctx: &mut Ctx, arr: &Arc<ArrayShared>, chunk: ChunkId) -> u32 {
        let mut spins: u64 = 0;
        loop {
            if let Some(line) = self.cache.alloc(arr.id, chunk) {
                ctx.charge(self.shared.cfg.cost.cacheline_alloc_ns);
                self.reclaiming |= self.cache.below_low();
                return line;
            }
            while self.cache.below_high() && self.reclaim_step(ctx) {}
            self.end_reclaim_episode();
            if self.cache.free_count() == 0 {
                // Everything is pinned or in flight; wait for references to
                // drop (bounded, to turn misuse into a diagnostic).
                ctx.spin_hint(200);
                self.poll_deferred();
                self.drain_ready(ctx);
                spins += 1;
                assert!(
                    spins < 5_000_000,
                    "cache exhausted on node {}: all {} lines pinned or in flight",
                    self.node,
                    self.cache.capacity()
                );
            }
        }
    }

    /// One idle mailbox slot of an armed reclaim episode: evict one line,
    /// then yield so that deliveries due by now become visible to the next
    /// `try_recv` (the lax-synchronization caveat of `Mailbox::try_recv`).
    /// The episode ends once the free count reaches the high watermark, or
    /// when a full scan finds nothing evictable.
    fn reclaim_idle(&mut self, ctx: &mut Ctx) {
        if self.cache.below_high() && self.reclaim_step(ctx) && self.cache.below_high() {
            ctx.yield_now();
        } else {
            self.end_reclaim_episode();
        }
    }

    /// Advance this pool's scanning pointer to the next evictable line and
    /// evict it, so the free count moves with every eviction. Returns false
    /// when a full cycle found nothing evictable.
    fn reclaim_step(&mut self, ctx: &mut Ctx) -> bool {
        for _ in 0..self.cache.capacity() {
            ctx.charge(self.shared.cfg.cost.evict_scan_ns);
            let line = self.cache.scan_next();
            let Some((aid, c)) = self.cache.owner(line) else {
                continue;
            };
            if self.release_unused(ctx, &self.shared.array(aid), c, CacheEvent::Evict) {
                return true;
            }
        }
        false
    }

    /// Feed this node's unused copy of `chunk` an eviction, or an intent
    /// unlock's downgrade (`ev`), and run its drain continuation at once;
    /// false when the copy is not evictable. The *selection* (skip
    /// referenced, mid-transition and in-flight lines) is executor policy;
    /// the per-state protocol is the cache machine's.
    fn release_unused(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        chunk: ChunkId,
        ev: CacheEvent,
    ) -> bool {
        let d = &arr.per_node[self.node].dentries[chunk as usize];
        if d.delay_set() || d.refcnt() > 0 {
            return false; // accessed or mid-transition: not evictable
        }
        let actions = CacheMachine::on_event(&self.cache_view(arr, chunk), ev);
        if actions.is_empty() {
            return false; // fill in flight: not evictable
        }
        self.run_cache_actions(ctx, arr, chunk, actions, None);
        self.drain_ready(ctx);
        true
    }

    /// Close a reclaim episode. This is the Writeback durability batch
    /// point (DESIGN.md §14): the episode pushed a burst of dirty images
    /// through the home machines (and thus into the buffered log); flush
    /// them to disk in one syscall instead of one per record. Writethrough
    /// syncs per record in `persist`, so this is a no-op there; for `None`
    /// there is no store at all.
    fn end_reclaim_episode(&mut self) {
        self.reclaiming = false;
        if let Some(store) = &self.shared.stores[self.node] {
            if matches!(
                self.shared.cfg.durability.policy,
                crate::store::DurabilityPolicy::Writeback
            ) {
                store.sync().expect("durable chunk store batch sync failed");
            }
            // Episode-end compaction boundary: the log is now synced (or
            // syncs per record under Writethrough), which is the cheapest
            // moment to fold it into a checkpoint and drop the covered
            // prefix. No-op unless the persist threshold is due.
            store
                .maybe_checkpoint()
                .expect("durable chunk store checkpoint failed");
        }
    }

    // ------------------------------------------------------------------
    // Remote protocol messages
    // ------------------------------------------------------------------

    fn handle_rpc(&mut self, ctx: &mut Ctx, src: NodeId, env: Envelope) {
        // Fail-stop: once a peer is declared down its bookkeeping has been
        // settled by `handle_peer_down`; straggler messages from it (already
        // queued when the declaration landed) must not resurrect it.
        if src != self.node && self.shared.is_peer_down(self.node, src) {
            return;
        }
        let arr = self.shared.array(env.array);
        let chunk = env.chunk;
        let msg = match env.rpc {
            Rpc::Coherence(msg) => msg,
            // Distributed locks (orthogonal to the coherence protocol).
            Rpc::LockAcquire { id, kind, intent } => {
                return self.rpc_lock_acquire(ctx, &arr, id, kind, intent, src)
            }
            Rpc::LockGrant { id, kind, intent } => {
                return self.rpc_lock_grant(ctx, &arr, id, kind, intent, None)
            }
            Rpc::DirectedGrant {
                id,
                kind,
                keep,
                acks,
                data,
            } => {
                let intent = if keep { Intent::Keep } else { Intent::HandBack };
                self.grant_words = data;
                return self.rpc_lock_grant(ctx, &arr, id, kind, intent, Some(acks));
            }
            Rpc::LockRelease { id, kind } => {
                return self.rpc_lock_release(ctx, &arr, id, kind, src)
            }
        };
        if let Msg::HomeMoved { new_home, epoch } = msg {
            // Advance this node's home map. Only a move that changed it to
            // another node leaves stale grants from the departed home,
            // which are unsound against the new (cold) directory.
            let changed = arr.elastic && arr.note_home(self.node, chunk as usize, new_home, epoch);
            if !changed || new_home == self.node {
                return;
            }
        }
        let at_home = arr.home_on(self.node, chunk as usize) == self.node;
        match msg.deliver(src, at_home) {
            Delivery::Home(ev) => self.home_event(ctx, arr.id, chunk, ev),
            Delivery::Cache(ev) => self.cache_event(ctx, &arr, chunk, ev, None),
        }
    }

    // ------------------------------------------------------------------
    // Peer failure (fail-stop recovery)
    // ------------------------------------------------------------------

    /// The node's membership view confirmed `dead` unreachable (quorum-
    /// backed, DESIGN.md §12). Settle every piece of protocol state this
    /// runtime thread owns that involves the dead peer so nothing waits on
    /// it forever:
    ///
    /// * requester side (chunks homed on `dead`): the cache machine aborts
    ///   in-flight fills and wakes their waiters — the application observes
    ///   `NodeUnavailable`. Valid cached copies are *kept*: they remain
    ///   readable/writable locally (graceful degradation; writebacks to the
    ///   dead home are silently dropped).
    /// * home side (chunks homed here): the home machine removes `dead` from
    ///   sharer sets and transient wait-sets, reclaims Dirty ownership it
    ///   held (its un-written-back data is lost — fail-stop), drops its
    ///   queued requests, and resumes the directory engine.
    /// * locks: this node's own `LockTable` reclaims every lock the dead
    ///   node held, drops its queued requests and re-grants to surviving
    ///   waiters (`reclaim_peer_locks`); local waiters for locks homed *on*
    ///   `dead` are woken so they re-check and error out.
    fn handle_peer_down(&mut self, ctx: &mut Ctx, dead: NodeId, epoch: u64) {
        // Epoch fence: recovery runs only for the declaration the membership
        // view actually stamped. A mismatch means the event is stale — the
        // view has moved on (or never confirmed this death) — and replaying
        // recovery for it could clobber state a re-admitted peer still owns.
        if self.shared.membership[self.node].death_epoch(dead) != Some(epoch) {
            return;
        }
        let arrays: Vec<Arc<ArrayShared>> = self.shared.arrays.read().clone();
        for arr in &arrays {
            let home = HomeEvent::PeerDown {
                dead,
                view_epoch: epoch,
            };
            self.sweep_owned(ctx, arr, dead, CacheEvent::HomeDown, home);
            // Break the locks the dead node held in our table and hand them
            // to the next waiters in line.
            self.reclaim_peer_locks(ctx, arr, dead);
            // Wake local waiters for locks homed on the dead node. Drained
            // under the mutex, notified after releasing it — in sorted key
            // order, so recovery wake order is deterministic and a crash
            // run replays bit-identically.
            let woken: Vec<WaitCell> = {
                let mut lw = arr.per_node[self.node].lock_waiters.lock();
                let mut keys: Vec<(u64, LockKind)> = lw
                    .keys()
                    .filter(|(id, _)| arr.layout.home_of(*id as usize) == dead)
                    .copied()
                    .collect();
                keys.sort_unstable();
                keys.into_iter()
                    .flat_map(|k| lw.remove(&k).unwrap_or_default())
                    .collect()
            };
            for w in woken {
                w.notify(ctx);
            }
        }
    }

    /// The membership view re-admitted `node` as a *restarted* identity
    /// (`MembershipView::restart`, DESIGN.md §14): the peer crashed, was
    /// confirmed dead, recovered whatever its durable chunk store held, and
    /// is rejoining cold. Settle the protocol state this runtime thread
    /// owns so the new incarnation starts from a clean slate:
    ///
    /// * requester side (chunks homed on the restarted node): the cache
    ///   machine releases every cached line and resets to Invalid
    ///   (`CacheEvent::HomeRestarted`) — rights granted by the *old*
    ///   incarnation are void, the restarted home's directory has no record
    ///   of them. Subsequent accesses re-fill from the recovered image.
    /// * home side (chunks homed here): the home machine un-fences the
    ///   identity (`HomeEvent::PeerRestarted`) so the new incarnation's
    ///   requests are served again; the epoch fence rejects stale replays.
    fn handle_peer_restart(&mut self, ctx: &mut Ctx, node: NodeId, epoch: u64) {
        // Fence: only act if the local view actually shows the peer alive
        // again. A stale restart message racing a *newer* death declaration
        // must not resurrect protocol state for a corpse.
        if self.shared.membership[self.node].is_dead(node) {
            return;
        }
        let arrays: Vec<Arc<ArrayShared>> = self.shared.arrays.read().clone();
        for arr in &arrays {
            let home = HomeEvent::PeerRestarted {
                node,
                view_epoch: epoch,
            };
            self.sweep_owned(ctx, arr, node, CacheEvent::HomeRestarted, home);
        }
    }

    /// The owned-chunk sweep of a peer's death or restart: feed `cache` to
    /// every chunk of `arr` this thread serves that is homed on `peer`, and
    /// `home` to every one homed here.
    fn sweep_owned(
        &mut self,
        ctx: &mut Ctx,
        arr: &Arc<ArrayShared>,
        peer: NodeId,
        cache: CacheEvent,
        home: HomeEvent<WaitCell>,
    ) {
        for c in 0..arr.layout.num_chunks() as ChunkId {
            if self.shared.rt_index(arr.id, c) != self.rt_idx {
                continue;
            }
            let h = arr.home_on(self.node, c as usize);
            if h == peer {
                self.cache_event(ctx, arr, c, cache, None);
            } else if h == self.node {
                self.home_event(ctx, arr.id, c, home.clone());
            }
        }
    }
}
