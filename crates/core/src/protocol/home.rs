//! The home-side **directory machine** of one chunk (Figure 9, home rows).
//!
//! [`HomeMachine`] owns the chunk's global protocol state — the four stable
//! [`DirState`]s, the [`Transient`] phase of a multi-message transition, the
//! grace-window timestamp of the most recent grant, and the queue of
//! requests waiting for the chunk to stabilize. It consumes [`HomeEvent`]s
//! and returns [`HomeAction`]s; it never touches the network, the home
//! dentry, memory regions, or the clock (time is an argument).

use std::collections::VecDeque;

use crate::op::OpId;
use crate::state::{DirState, LocalState};

use super::{Counter, Kind, Msg, NodeId, Request, Requester, Transition, NOTAG};

/// Node ids the home machine tracks one by one for the three-leg recall
/// (the bits of a `u32`); a requester with a higher id is filled from the
/// home.
const UNSETTLED_IDS: NodeId = u32::BITS as NodeId;

/// The fill offset of a directed grant's request (DESIGN.md §4.5): the home
/// serves it with the lock grant, not a fill. [`GRANT_DATA`] marks a grant
/// to a node the directory does not list, which carries the chunk's words.
const GRANT: u64 = u64::MAX;
const GRANT_DATA: u64 = u64::MAX - 1;

/// Transient phase of a home-side transition that is waiting for remote
/// replies or a local reference drain. While a transient is pending, new
/// requests queue.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Transient {
    /// The chunk is stable; requests are serviced immediately.
    None,
    /// Waiting for `InvalidateAck`s (or crossing `EvictNotice`s) from these
    /// nodes.
    AwaitInvAcks {
        /// Nodes that have not acknowledged yet.
        waiting: Vec<NodeId>,
    },
    /// Waiting for a Dirty writeback from `from`.
    AwaitWriteback {
        /// The Dirty owner being recalled or downgraded.
        from: NodeId,
    },
    /// A three-leg recall (DESIGN.md §4.2): the Dirty `owner` was asked to
    /// fill `requester` itself. Waiting for the requester's
    /// [`HomeEvent::FillAck`], and for a read also the owner's direct
    /// writeback. A writeback from the owner that is not the direct one
    /// crossed the recall, which the owner then ignores: it ends the wait,
    /// and the home serves the request from its fresh image. Once a read's
    /// writeback landed, other reads are served during the wait. A
    /// directed write waits here too, for its requester's ack alone: the
    /// requester acks once its sharers' acks and the home's fill are in.
    /// So does a directed grant (DESIGN.md §4.5), whose grantee acks once
    /// its sharers' acks and the lock grant are in.
    AwaitDirectFill {
        /// The Dirty owner being recalled; `None` for a directed write,
        /// which recalls nobody.
        owner: Option<NodeId>,
        /// The node it fills.
        requester: NodeId,
        /// The requester's ack is still awaited.
        ack: bool,
        /// The owner's direct writeback is still awaited (reads only).
        writeback: bool,
    },
    /// Waiting for operand flushes (of operator `op`) from these nodes.
    AwaitFlushes {
        /// The operator whose epoch is being closed.
        op: u32,
        /// Id of the Operated epoch being closed (see
        /// [`HomeMachine::epoch`]). Distinguishes successive epochs of the
        /// same operator in traces and recovery diagnostics.
        epoch: u64,
        /// Nodes that have not flushed yet.
        waiting: Vec<NodeId>,
    },
    /// Waiting for the home dentry's references to drain.
    HomeDrain,
    /// Waiting out the minimum-hold grace window of a fresh grant; a
    /// [`HomeEvent::RetryExpired`] clears it.
    GraceWait,
    /// Waiting for the durable chunk store to confirm the persist requested
    /// by [`HomeAction::PersistChunk`] (persist-before-ack, DESIGN.md §14).
    /// Only entered when the machine is durable; a
    /// [`HomeEvent::PersistDone`] carrying `seq` (or a later one) clears it.
    AwaitPersist {
        /// The persist sequence number being awaited.
        seq: u64,
    },
    /// This home transferred the chunk's image to a new home `to`
    /// ([`HomeAction::TransferChunk`]) and waits for its
    /// [`HomeEvent::MigrateAck`] (DESIGN.md §15). The revoke and the home
    /// drain before the transfer are the ordinary transients, serving the
    /// migration as an exclusive request. Arriving requests park in the
    /// pending queue and are forwarded once the migration commits. The
    /// source stays authoritative until then: if the target dies here, the
    /// source re-assumes the chunk.
    MigratingOut {
        /// The new home the chunk is moving to.
        to: NodeId,
        /// The migration fence epoch (a burned persist sequence number,
        /// monotone per chunk). Stamped on every migration message so
        /// stragglers of an aborted or older migration are rejected.
        mig_epoch: u64,
    },
    /// This node is adopting the chunk from its old home `from`
    /// (DESIGN.md §15). The image already landed via a one-sided WRITE;
    /// the node persists it (when durable), acknowledges, and waits for
    /// the source's commit before serving anyone. Requests that arrive
    /// early park in the pending queue and replay at adoption.
    MigratingIn {
        /// The old home the chunk is moving from.
        from: NodeId,
        /// The migration fence epoch stamped by the source.
        mig_epoch: u64,
        /// Current inbound phase.
        phase: MigInPhase,
    },
}

/// Phase of an inbound chunk migration ([`Transient::MigratingIn`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MigInPhase {
    /// Persisting the received image to the durable log before
    /// acknowledging (persist-before-ack extends to migration: the ack
    /// promises the image survives a crash of the new home). Skipped on
    /// non-durable machines.
    Persist,
    /// Ack sent; waiting for the source's [`HomeEvent::MigrateCommit`].
    /// If the source dies here its death is quorum-confirmed, so the
    /// target self-promotes — at most one authoritative home survives.
    AwaitCommit,
}

impl Transient {
    /// Is the chunk stable (no transient pending)?
    pub fn is_none(&self) -> bool {
        matches!(self, Transient::None)
    }

    /// Short name for traces and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Transient::None => "None",
            Transient::AwaitInvAcks { .. } => "AwaitInvAcks",
            Transient::AwaitWriteback { .. } => "AwaitWriteback",
            Transient::AwaitDirectFill { .. } => "AwaitDirectFill",
            Transient::AwaitFlushes { .. } => "AwaitFlushes",
            Transient::HomeDrain => "HomeDrain",
            Transient::GraceWait => "GraceWait",
            Transient::AwaitPersist { .. } => "AwaitPersist",
            Transient::MigratingOut { .. } => "MigratingOut",
            Transient::MigratingIn { phase, .. } => match phase {
                MigInPhase::Persist => "MigratingIn:Persist",
                MigInPhase::AwaitCommit => "MigratingIn:AwaitCommit",
            },
        }
    }
}

/// Everything the home-side directory machine can react to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HomeEvent<W> {
    /// A new Read/Write/Operate request arrived (local or remote).
    Request(Request<W>),
    /// A remote node acknowledged an `InvalidateReq`.
    InvAck {
        /// The acknowledging node.
        from: NodeId,
    },
    /// A remote node silently dropped its Shared copy.
    EvictNotice {
        /// The evicting node.
        from: NodeId,
    },
    /// A remote node wrote its Dirty data back (RDMA write already landed).
    Writeback {
        /// The (former) Dirty owner.
        from: NodeId,
        /// True if the sender kept a Shared copy.
        downgrade: bool,
        /// True if this is a three-leg recall's writeback: the sender also
        /// filled the requester.
        direct: bool,
    },
    /// A requester's fill from a recalled owner landed (the last leg of a
    /// three-leg recall), or a directed write's or grant's last ack did.
    FillAck {
        /// The requester.
        from: NodeId,
        /// False for a directed grant's grantee that holds no copy
        /// (DESIGN.md §4.5): the chunk is back with the home.
        holds: bool,
    },
    /// A write-intent lock on an element of the chunk is granted to the
    /// remote `grantee`, and [`HomeMachine::directs_grant`] said the home
    /// serves the grantee's write at the grant (DESIGN.md §4.5).
    IntentGrant {
        /// The grantee.
        grantee: NodeId,
    },
    /// A remote node flushed its combined operands.
    Flush {
        /// The flushing node.
        from: NodeId,
        /// The operator the operands belong to.
        op: u32,
        /// The operands to reduce (empty = nothing to reduce).
        data: Vec<u64>,
        /// The sender evicted its line but keeps its Operate rights
        /// ([`LocalState::OperatedIdle`]).
        keep: bool,
    },
    /// The home dentry's reference drain (started by
    /// [`HomeAction::StartHomeDrain`]) completed.
    Drained,
    /// The grace-window retry scheduled by [`HomeAction::ScheduleRetry`]
    /// fired.
    RetryExpired,
    /// The node's membership view confirmed `dead` unreachable (quorum-
    /// backed — see DESIGN.md §12); erase it from all bookkeeping and
    /// resume anything that waited on it.
    PeerDown {
        /// The dead node.
        dead: NodeId,
        /// The membership-view epoch stamped on the death declaration.
        /// The machine fences monotonically: an event whose stamp does not
        /// exceed the highest epoch already applied is stale (a replayed or
        /// reordered declaration) and is ignored.
        view_epoch: u64,
    },
    /// The durable chunk store confirmed the persist requested by
    /// [`HomeAction::PersistChunk`] with sequence number `seq` (or a later
    /// one covering it — persists are cumulative: a log record at `seq`
    /// implies every earlier image reached the log too). Completes a
    /// [`Transient::AwaitPersist`]; stale confirmations are ignored.
    PersistDone {
        /// Highest persist sequence number now durable.
        seq: u64,
    },
    /// A previously-dead node restarted and rejoined at a bumped
    /// membership-view epoch (DESIGN.md §14). The node comes back *cold* —
    /// its caches are empty, its durable log holds only its own home
    /// chunks — so the directory needs no state surgery; the machine only
    /// stops treating the identity as dead so fresh requests from it are
    /// serviced again. Fenced by the same monotone `view_epoch` as
    /// [`HomeEvent::PeerDown`].
    PeerRestarted {
        /// The restarted node.
        node: NodeId,
        /// The membership-view epoch stamped on the restart admission;
        /// must exceed the highest epoch already applied.
        view_epoch: u64,
    },
    /// An administrative re-homing request (DESIGN.md §15): hand this chunk
    /// to node `to`. The migration queues as an exclusive request
    /// ([`Requester::Migration`]) at the front of the pending queue, so it
    /// is served next once the chunk stabilizes; requests queued behind it
    /// stay parked until the migration resolves.
    BeginMigration {
        /// The new home.
        to: NodeId,
    },
    /// (Target side.) The source's chunk image landed in our home slot via
    /// a one-sided WRITE and this notification followed it (RC FIFO). Begin
    /// adopting the chunk under the source's fence epoch.
    MigrateData {
        /// The old home the chunk is leaving.
        from: NodeId,
        /// The source's migration fence epoch.
        mig_epoch: u64,
    },
    /// (Source side.) The target persisted (when durable) and accepted the
    /// transferred image. The source commits: it stops being authoritative
    /// and redirects traffic to the new home.
    MigrateAck {
        /// The acknowledging target.
        from: NodeId,
        /// Echo of the fence epoch; a mismatch marks a straggler of an
        /// older (aborted) migration.
        mig_epoch: u64,
    },
    /// (Target side.) The source committed the hand-off; the target becomes
    /// the chunk's authoritative home and replays parked traffic.
    MigrateCommit {
        /// The committing source.
        from: NodeId,
        /// Echo of the fence epoch.
        mig_epoch: u64,
    },
}

/// Everything the home-side directory machine can ask its executor to do.
/// Actions must be executed in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HomeAction<W> {
    /// Charge the directory-update CPU cost (one per serviced request).
    ChargeDirUpdate,
    /// Wake a local requester: its rights are granted.
    Wake(W),
    /// Send `msg` to node `to`; the send is all the executor does.
    Send {
        /// The receiving node.
        to: NodeId,
        /// The coherence message.
        msg: Msg,
    },
    /// RDMA-write the chunk's home data into the requester's cacheline at
    /// `dst_off` and send the matching fill notification.
    SendFill {
        /// Requesting node.
        to: NodeId,
        /// Destination word offset in the requester's cache region.
        dst_off: u64,
        /// True for `FillExclusive`, false for `FillShared`.
        exclusive: bool,
        /// The sharers' acks a directed write's requester collects besides
        /// the fill ([`Msg::DirectedFill`], DESIGN.md §4.2); 0 for every
        /// other fill.
        acks: u32,
    },
    /// Send the write-intent lock grant of the last
    /// [`HomeEvent::IntentGrant`] to its grantee `to`, carrying the
    /// sharers' acks it collects before its write (DESIGN.md §4.5).
    SendGrant {
        /// The grantee.
        to: NodeId,
        /// The `InvalidateAck`s the grantee collects.
        acks: u32,
        /// The grant carries the home image's words: the directory did not
        /// list the grantee.
        data: bool,
    },
    /// Reduce a flush's operands into the home subarray under operator
    /// `op` (operand data must never be lost).
    ApplyFlushData {
        /// Operator to combine under.
        op: u32,
        /// The operands, one per chunk word.
        data: Vec<u64>,
    },
    /// Install new local rights on the *home* dentry (a Figure-6 promotion;
    /// no drain needed).
    SetHomeLocal {
        /// New local state.
        state: LocalState,
        /// New operator tag ([`NOTAG`] unless Operated).
        tag: u32,
    },
    /// Begin a Figure-5 drain of the home dentry towards `target`; the
    /// executor feeds [`HomeEvent::Drained`] back once references are gone.
    StartHomeDrain {
        /// State installed at drain start.
        target: LocalState,
        /// Operator tag installed at drain start.
        tag: u32,
    },
    /// Re-deliver [`HomeEvent::RetryExpired`] at absolute time `at`.
    ScheduleRetry {
        /// Absolute (virtual) time to resume servicing.
        at: u64,
    },
    /// Persist the chunk's current home image to the durable chunk store
    /// (persist-before-ack, DESIGN.md §14). Emitted only by durable
    /// machines, always *after* the actions that update the home image
    /// (`ApplyFlushData` / the already-landed writeback RDMA). The executor
    /// feeds [`HomeEvent::PersistDone`] back once the record is on the log.
    PersistChunk {
        /// Monotone per-machine persist sequence number; echoed back in
        /// the completion event.
        seq: u64,
    },
    /// RDMA-write the chunk's home image into node `to`'s home slot for
    /// this chunk and send the `MigrateData` notification behind it (one
    /// one-sided WRITE + notification, exactly like a fill). Emitted once
    /// per migration attempt, after every right is revoked and the home
    /// dentry is drained.
    TransferChunk {
        /// The new home receiving the image.
        to: NodeId,
        /// The fence epoch stamped on the transfer.
        mig_epoch: u64,
    },
    /// (Source side.) The migration committed: flip this node's home map
    /// entry to `to` under `mig_epoch`, drop the home dentry to Invalid,
    /// broadcast the stale-home redirect (`HomeMoved`) to every peer, and
    /// count [`Counter::MigrationsOut`].
    DepartChunk {
        /// The new home.
        to: NodeId,
        /// The fence epoch (monotone per chunk; consumers apply the flip
        /// with a max so reordered redirects cannot roll it back).
        mig_epoch: u64,
    },
    /// (Target side.) The migration committed here: flip this node's home
    /// map entry to itself under `mig_epoch`, install Exclusive home
    /// rights on the dentry, broadcast `HomeMoved` to every peer (the
    /// source's broadcast may have died with it), and count
    /// [`Counter::MigrationsIn`].
    AdoptChunk {
        /// The fence epoch.
        mig_epoch: u64,
    },
    /// A state transition happened (structured trace; also counted).
    Trace(Transition),
    /// Bump a protocol counter.
    Count(Counter),
}

/// The home-side directory machine of one chunk. Generic over the opaque
/// local-waiter token `W` (a wait-cell in the runtime, a plain integer in
/// tests). `Clone` (for `W: Clone`) lets the model checker branch a world
/// state; the runtime never clones a machine.
#[derive(Debug, Clone, Hash)]
pub struct HomeMachine<W> {
    state: DirState,
    transient: Transient,
    /// Time of the most recent grant — the start of the grace window.
    granted_at: u64,
    /// The request being serviced by the pending transient.
    current: Option<Request<W>>,
    /// Requests waiting for the chunk to become stable.
    pending: VecDeque<Request<W>>,
    /// Number of Operated epochs opened so far; the id of the current
    /// epoch while `state` is Operated. Carried into
    /// [`Transient::AwaitFlushes`] so an epoch closed by abort is
    /// identifiable.
    epoch: u64,
    /// Nodes declared dead by [`HomeEvent::PeerDown`]. Monotone (fail-stop).
    /// Any later event claiming to come from one of them is stale — in
    /// particular an operand flush, whose data must NOT be reduced: the
    /// epoch it belonged to was already closed (aborted) when the peer was
    /// erased, and applying it now could corrupt a successor owner's data.
    dead: Vec<NodeId>,
    /// Highest membership-view epoch applied via [`HomeEvent::PeerDown`]
    /// or [`HomeEvent::PeerRestarted`]. Declarations stamped at or below
    /// this are fenced as stale.
    view_epoch: u64,
    /// True when a durable chunk store backs this machine: dirty-data
    /// arrivals (writebacks, operand-flush completions) persist before the
    /// protocol acknowledges them (DESIGN.md §14). False by default, which
    /// keeps every transition bit-identical to the non-durable protocol.
    durable: bool,
    /// Monotone persist sequence; the latest value is what
    /// [`Transient::AwaitPersist`] waits for.
    persist_seq: u64,
    /// True when a remote read or write of a Dirty chunk takes the
    /// three-leg recall ([`Transient::AwaitDirectFill`]). Only where no
    /// node can die, persist or move a home: the transient has no
    /// recovery. False by default, which keeps the four-leg recall.
    direct_fill: bool,
    /// Nodes a revoke may still be travelling to, tracked only with
    /// `direct_fill` on: a wait ended with something other than the node's
    /// own answer to it. An `Invalidate` answered by a crossing eviction
    /// is certainly still on its way; a recall answered by a writeback may
    /// be, since a crossing writeback looks like the answer. A three-leg
    /// fill, on another link, could overtake it, and the stale revoke would
    /// then drop the fresh copy, or have it fill a requester that asked for
    /// nothing. So such a node is filled from the home until a fill from
    /// the home, behind the revoke on the same link, has been sent to it:
    /// its next request then left after that fill, and after the revoke.
    /// One bit per node id below [`UNSETTLED_IDS`], which keeps the machine
    /// its size; a node with a higher id counts as unsettled always.
    unsettled: u32,
    /// The sharers' acks the current directed write's requester collects
    /// (DESIGN.md §4.2): counted when its `DirectedInvalidate`s leave, and
    /// sent with its fill once the home dentry drained; 0 otherwise. A
    /// `u16` fits in padding, which keeps the machine its size; a write to
    /// a chunk with more sharers collects its acks at the home. A directed
    /// grant's count waits here for the home drain too.
    directed_acks: u16,
    /// Set once a migration commits on the source side: the chunk's new
    /// home and the fence epoch it moved under. A machine with this set is
    /// a *former* home: it forwards arriving remote requests and bounces
    /// local ones back to the (updated) home map.
    migrated_to: Option<(NodeId, u64)>,
}

impl<W> Default for HomeMachine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> HomeMachine<W> {
    /// A fresh chunk: Unshared, stable, no queued requests.
    pub fn new() -> Self {
        Self {
            state: DirState::Unshared,
            transient: Transient::None,
            granted_at: 0,
            current: None,
            pending: VecDeque::new(),
            epoch: 0,
            dead: Vec::new(),
            view_epoch: 0,
            durable: false,
            persist_seq: 0,
            direct_fill: false,
            unsettled: 0,
            directed_acks: 0,
            migrated_to: None,
        }
    }

    /// Turn persist-before-ack on or off (off by default). Flip this only
    /// at bring-up, before the machine has seen events.
    pub fn set_durable(&mut self, durable: bool) {
        self.durable = durable;
    }

    /// Turn the three-leg recall and the directed write on or off (off by
    /// default). Flip this only at bring-up, and only for a cluster where
    /// no node can die, persist or move a home: a peer's death during
    /// either panics.
    pub fn set_direct_fill(&mut self, direct_fill: bool) {
        self.direct_fill = direct_fill;
    }

    /// Number of persists requested so far (the latest persist sequence).
    pub fn persist_seq(&self) -> u64 {
        self.persist_seq
    }

    /// Seed the persist sequence from a recovered log record (bring-up
    /// after a restart, before the machine has seen events). Without this a
    /// restarted node's fresh machines would stamp new records with *lower*
    /// epochs than the replayed ones, and the latest-epoch-wins replay of a
    /// second crash would resurrect the pre-restart image.
    pub fn resume_persist_seq(&mut self, epoch: u64) {
        self.persist_seq = self.persist_seq.max(epoch);
    }

    /// Register `node` as holding a warm read-only copy of this chunk
    /// (cold-cache warmup from a recovered checkpoint image). Legal only at
    /// bring-up, before the machine has seen events: Unshared becomes
    /// Shared and an existing Shared set grows; any other state is a
    /// bring-up bug.
    pub fn seed_sharer(&mut self, node: NodeId) {
        match &mut self.state {
            DirState::Unshared => {
                self.state = DirState::Shared {
                    sharers: vec![node],
                };
            }
            DirState::Shared { sharers } => {
                if !sharers.contains(&node) {
                    sharers.push(node);
                }
            }
            s => panic!("seed_sharer at bring-up in state {s:?}"),
        }
    }

    /// The current stable directory state.
    pub fn state(&self) -> &DirState {
        &self.state
    }

    /// The current transient phase.
    pub fn transient(&self) -> &Transient {
        &self.transient
    }

    /// Number of queued (not yet serviced) requests.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Is a request parked behind a pending transient?
    pub fn has_current(&self) -> bool {
        self.current.is_some()
    }

    /// Number of Operated epochs opened so far; while the state is
    /// Operated, the id of the current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Has `node` been declared dead by a [`HomeEvent::PeerDown`]?
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead.contains(&node)
    }

    /// Highest membership-view epoch this machine has applied (0 before
    /// any [`HomeEvent::PeerDown`]).
    pub fn view_epoch(&self) -> u64 {
        self.view_epoch
    }

    /// If this machine handed its chunk to a new home, the `(new_home,
    /// fence_epoch)` it committed under; `None` while (still)
    /// authoritative.
    pub fn migrated_to(&self) -> Option<(NodeId, u64)> {
        self.migrated_to
    }

    /// The new home of the migration this machine is serving — revoking
    /// and draining for it, or awaiting its ack — if any.
    pub fn migrating_to(&self) -> Option<NodeId> {
        match (&self.transient, self.current.as_ref().map(|r| &r.source)) {
            (Transient::MigratingOut { to, .. }, _)
            | (_, Some(Requester::Migration { to, .. })) => Some(*to),
            _ => None,
        }
    }

    /// Does the home serve the write of `grantee`, to which a write-intent
    /// lock on an element of the chunk is about to be granted, at the
    /// grant (DESIGN.md §4.5)? Where the three-leg switch is on, when the
    /// chunk is stable and Shared, and invalidating the sharers other than
    /// `grantee` would not cut a fresh grant's grace window short. The executor feeds [`HomeEvent::IntentGrant`] only then;
    /// otherwise it sends the plain grant and runs the home's own write
    /// miss for the grantee.
    pub fn directs_grant(&self, now: u64, grace_ns: u64, grantee: NodeId) -> bool {
        self.grant_sharers(now, grace_ns, grantee).is_some()
    }

    /// Feed one event; returns the actions the executor must perform, in
    /// order. `now` is the current (virtual) time and `grace_ns` the
    /// minimum-hold grace window of fresh grants (0 disables it).
    pub fn on_event(&mut self, now: u64, grace_ns: u64, ev: HomeEvent<W>) -> Vec<HomeAction<W>> {
        let mut out = Vec::new();
        // Stale-sender rejection: an event from a node already declared dead
        // can only be a straggler that was in flight when the declaration
        // landed *and* slipped past the executor's own source check. Its
        // bookkeeping was settled by `forget_peer`; honoring it now — most
        // dangerously reducing a stale operand flush of an aborted epoch —
        // would corrupt state a successor may already own.
        if let Some(from) = Self::event_source(&ev) {
            if self.dead.contains(&from) {
                self.trace("stale-event-from-dead-peer", &mut out);
                return out;
            }
        }
        let evicted = matches!(ev, HomeEvent::EvictNotice { .. });
        match ev {
            HomeEvent::Request(req) => {
                if self.migrated_to.is_some() {
                    // This node is a former home: it holds no authority and
                    // no data.
                    let remote = matches!(req.source, Requester::Remote { .. });
                    self.redirect(req, &mut out);
                    if remote {
                        self.trace("forward-after-migration", &mut out);
                    }
                } else {
                    let queued = matches!(self.transient, Transient::AwaitDirectFill { .. })
                        && !(self.pending.is_empty() && self.ready(&req));
                    if queued {
                        out.push(HomeAction::Count(Counter::QueuedBehindDirect));
                    }
                    self.pending.push_back(req);
                    self.progress(now, grace_ns, &mut out);
                }
            }
            HomeEvent::IntentGrant { grantee } => {
                let (others, data) = self
                    .grant_sharers(now, grace_ns, grantee)
                    .expect("the executor asks `directs_grant` first");
                let req = Request {
                    source: Requester::Remote {
                        node: grantee,
                        dst_off: if data { GRANT_DATA } else { GRANT },
                    },
                    kind: Kind::Write,
                };
                out.push(HomeAction::ChargeDirUpdate);
                self.direct_write(grantee, others, req, &mut out);
            }
            // An ack, or a crossing eviction, satisfies the ack set. Only a
            // live invalidation epoch may count the ack; a stale ack (an
            // EvictNotice already accounted for it) is ignored. A crossing
            // eviction leaves the Invalidate it crossed on its way.
            HomeEvent::InvAck { from } | HomeEvent::EvictNotice { from }
                if matches!(self.transient, Transient::AwaitInvAcks { .. }) =>
            {
                if evicted && self.in_wait_set(from) {
                    self.unsettle(from);
                }
                if self.leave(from) {
                    self.finish_transient(now, grace_ns, &mut out);
                }
            }
            HomeEvent::InvAck { .. } => {}
            HomeEvent::EvictNotice { from } => {
                if matches!(self.state, DirState::Shared { .. }) && self.remove_sharer(from) {
                    // Last sharer gone: home regains exclusivity (Figure 6
                    // promotion).
                    self.settle(DirState::Unshared, "last-sharer-evicted", &mut out);
                }
            }
            HomeEvent::Writeback {
                from,
                downgrade: _,
                direct: true,
            } => self.direct_fill_arrived(now, grace_ns, from, false, &mut out),
            HomeEvent::FillAck { from, holds } => {
                if !holds
                    && matches!(self.transient,
                        Transient::AwaitDirectFill { owner: None, requester, .. } if requester == from)
                {
                    self.set_state(DirState::Unshared, "grantee-empty", &mut out);
                }
                self.direct_fill_arrived(now, grace_ns, from, true, &mut out)
            }
            HomeEvent::Writeback {
                from,
                downgrade,
                direct: false,
            } => {
                // The owner a recall waits for. A three-leg recall's owner
                // that wrote back first crossed the recall and ignores it.
                let expected = match &self.transient {
                    Transient::AwaitWriteback { from: f } => *f == from,
                    Transient::AwaitDirectFill { owner, .. } => *owner == Some(from),
                    _ => false,
                };
                // Unsolicited, from the Dirty owner: a voluntary eviction, or
                // an intent unlock that keeps a Shared copy (a downgrade,
                // DESIGN.md §4.5).
                let voluntary =
                    !expected && matches!(self.state, DirState::Dirty { owner } if owner == from);
                if expected {
                    // This writeback may have crossed the recall, which is
                    // then still on its way to the owner.
                    self.unsettle(from);
                }
                if expected || voluntary {
                    let state = if downgrade {
                        DirState::Shared {
                            sharers: vec![from],
                        }
                    } else {
                        DirState::Unshared
                    };
                    let trigger = match (downgrade, expected) {
                        (true, true) => "writeback-downgrade",
                        (true, false) => "voluntary-downgrade",
                        (false, true) => "writeback",
                        (false, false) => "voluntary-writeback",
                    };
                    self.settle(state, trigger, &mut out);
                }
                if expected {
                    // Persist-before-ack: the recalled dirty image must be
                    // on the log before the parked requester resumes.
                    self.persist_then_finish(now, grace_ns, &mut out);
                } else if voluntary
                    && matches!(self.transient, Transient::None | Transient::GraceWait)
                {
                    // The home image just changed; durable machines persist
                    // it before servicing anything further, so no later
                    // grant can expose data newer than the log. (Only the
                    // stable/grace phases can be interrupted here — a
                    // voluntary writeback requires the sender to *be* the
                    // Dirty owner, which rules out every other transient.)
                    self.begin_persist(&mut out);
                }
                // else: stale notice (the transient already completed via a
                // different path); the data write is idempotent.
            }
            HomeEvent::Flush {
                from,
                op,
                data,
                keep,
            } => {
                // Reduce first — operand data must never be lost, whatever
                // the bookkeeping below decides.
                let has_data = !data.is_empty();
                if has_data {
                    out.push(HomeAction::ApplyFlushData { op, data });
                    out.push(HomeAction::Count(Counter::OperatedReductions));
                }
                match &self.transient {
                    // Epoch check: only a flush of the operator being
                    // recalled may shrink the waiting set — a crossing flush
                    // of an older operator must not be miscounted against
                    // the current epoch. Nor may a keep flush: its sender
                    // kept its rights, may apply again, and answers the
                    // recall with a flush of its own.
                    Transient::AwaitFlushes { op: top, .. } if *top == op && !keep => {
                        if self.leave(from) {
                            self.settle(DirState::Unshared, "flushes-complete", &mut out);
                            // Persist-before-ack: the fully-reduced epoch
                            // image must be on the log before the request
                            // that closed the epoch resumes.
                            self.persist_then_finish(now, grace_ns, &mut out);
                        }
                    }
                    _ => {
                        if matches!(&self.state, DirState::Operated { op: cur, .. } if cur.0 == op)
                        {
                            // Voluntary flush of the current epoch: a sharer
                            // leaving it for other rights, or evicting its
                            // line and keeping them (`keep`, so it stays a
                            // sharer). The home keeps the Operated state (it
                            // may still be combining locally); the next
                            // Read/Write promotes lazily.
                            if !keep {
                                self.remove_sharer(from);
                            }
                            // Operand data was just reduced into the home
                            // image; persist it while the chunk is idle so
                            // an "operated-promotion" (which has no flush of
                            // its own) never strands reduced operands in
                            // volatile memory.
                            if has_data
                                && matches!(self.transient, Transient::None | Transient::GraceWait)
                            {
                                self.begin_persist(&mut out);
                            }
                        }
                        // Flushes of other epochs were already reduced
                        // above; their bookkeeping was settled when their
                        // epoch closed.
                    }
                }
            }
            HomeEvent::Drained => {
                debug_assert_eq!(self.transient, Transient::HomeDrain);
                if let Some(Request {
                    source:
                        Requester::Remote {
                            node,
                            dst_off: dst_off @ (GRANT | GRANT_DATA),
                        },
                    ..
                }) = self.current
                {
                    self.hand_over(now, node, dst_off, &mut out);
                } else {
                    self.finish_transient(now, grace_ns, &mut out);
                }
            }
            HomeEvent::RetryExpired => {
                if self.transient == Transient::GraceWait {
                    self.transient = Transient::None;
                }
                self.progress(now, grace_ns, &mut out);
            }
            HomeEvent::PeerDown { dead, view_epoch } => {
                // Monotone epoch fence: a declaration stamped at or below
                // the highest epoch already applied is a replay or
                // reordering of a death this machine has settled; re-running
                // recovery for it could double-prune a successor's state.
                if view_epoch <= self.view_epoch {
                    self.trace("stale-peer-down-epoch", &mut out);
                    return out;
                }
                self.view_epoch = view_epoch;
                self.forget_peer(now, grace_ns, dead, &mut out);
            }
            HomeEvent::PersistDone { seq } => {
                if let Transient::MigratingIn {
                    from,
                    mig_epoch,
                    phase: MigInPhase::Persist,
                } = self.transient
                {
                    if seq >= mig_epoch {
                        out.push(HomeAction::Count(Counter::FlushPersists));
                        if self.dead.contains(&from) {
                            // The source died while we persisted; its death
                            // is quorum-confirmed, so adopting now cannot
                            // create a second authoritative home.
                            self.adopt(
                                now,
                                grace_ns,
                                mig_epoch,
                                "migrate-adopt-source-dead",
                                &mut out,
                            );
                        } else {
                            self.transient = Transient::MigratingIn {
                                from,
                                mig_epoch,
                                phase: MigInPhase::AwaitCommit,
                            };
                            out.push(HomeAction::Send {
                                to: from,
                                msg: Msg::MigrateAck { mig_epoch },
                            });
                            self.trace("migrate-in-persisted", &mut out);
                        }
                    } else {
                        self.trace("stale-persist-done", &mut out);
                    }
                    return out;
                }
                // Persists are cumulative (the log is append-only and
                // sequenced), so a confirmation at or past the awaited
                // sequence completes the wait. Anything else is a stale
                // confirmation of a persist whose wait already ended (e.g.
                // superseded by a later one) and is ignored.
                if matches!(self.transient, Transient::AwaitPersist { seq: s } if seq >= s) {
                    out.push(HomeAction::Count(Counter::FlushPersists));
                    self.trace("persist-done", &mut out);
                    self.finish_transient(now, grace_ns, &mut out);
                } else {
                    self.trace("stale-persist-done", &mut out);
                }
            }
            HomeEvent::PeerRestarted { node, view_epoch } => {
                // Same monotone fence as PeerDown: a restart admission
                // must carry a strictly newer membership epoch than
                // anything this machine has applied, else it is a replay.
                if view_epoch <= self.view_epoch {
                    self.trace("stale-peer-restart-epoch", &mut out);
                    return out;
                }
                self.view_epoch = view_epoch;
                if let Some(pos) = self.dead.iter().position(|&n| n == node) {
                    self.dead.remove(pos);
                    self.trace("peer-restarted", &mut out);
                }
                // The restarted identity rejoins cold (empty caches), so
                // no directory state mentions it — `forget_peer` erased it
                // when the death was declared. Un-deadening it is all that
                // is needed for its fresh requests to be serviced.
            }
            HomeEvent::BeginMigration { to } => {
                let queued = self
                    .current
                    .iter()
                    .chain(&self.pending)
                    .any(|r| matches!(r.source, Requester::Migration { .. }));
                if queued
                    || self.migrated_to.is_some()
                    || matches!(
                        self.transient,
                        Transient::MigratingOut { .. } | Transient::MigratingIn { .. }
                    )
                {
                    self.trace("stale-begin-migration", &mut out);
                } else if self.dead.contains(&to) {
                    self.trace("migration-target-dead", &mut out);
                } else {
                    self.trace("migrate-begin", &mut out);
                    self.pending.push_front(Request {
                        source: Requester::Migration { to, drained: false },
                        kind: Kind::Write,
                    });
                    if self.transient == Transient::GraceWait {
                        // The fence outweighs the minimum-hold grace window.
                        self.transient = Transient::None;
                    }
                    self.progress(now, grace_ns, &mut out);
                }
            }
            HomeEvent::MigrateData { from, mig_epoch } => {
                let stale_epoch = matches!(self.migrated_to, Some((_, e)) if mig_epoch <= e);
                if stale_epoch
                    || !self.transient.is_none()
                    || !matches!(self.state, DirState::Unshared)
                {
                    // A straggler of an aborted migration, or a transfer
                    // colliding with live directory state this node somehow
                    // holds — either way the fence epoch or the machine
                    // state disqualifies it.
                    self.trace("stale-migrate-data", &mut out);
                } else {
                    // (Re-)adopting: this node stops being a former home of
                    // the chunk, if it ever was one (ping-pong migration).
                    self.migrated_to = None;
                    self.persist_seq = self.persist_seq.max(mig_epoch);
                    if self.durable {
                        self.transient = Transient::MigratingIn {
                            from,
                            mig_epoch,
                            phase: MigInPhase::Persist,
                        };
                        out.push(HomeAction::PersistChunk {
                            seq: self.persist_seq,
                        });
                        self.trace("migrate-in-begin", &mut out);
                    } else {
                        self.transient = Transient::MigratingIn {
                            from,
                            mig_epoch,
                            phase: MigInPhase::AwaitCommit,
                        };
                        out.push(HomeAction::Send {
                            to: from,
                            msg: Msg::MigrateAck { mig_epoch },
                        });
                        self.trace("migrate-in-begin", &mut out);
                    }
                }
            }
            HomeEvent::MigrateAck { from, mig_epoch } => {
                let expected = matches!(
                    &self.transient,
                    Transient::MigratingOut { to, mig_epoch: e } if *to == from && *e == mig_epoch
                );
                if expected {
                    // Commit: the target holds (and, when durable, has
                    // logged) the image. From here on the source is a
                    // former home.
                    self.transient = Transient::None;
                    self.migrated_to = Some((from, mig_epoch));
                    out.push(HomeAction::Send {
                        to: from,
                        msg: Msg::MigrateCommit { mig_epoch },
                    });
                    out.push(HomeAction::DepartChunk {
                        to: from,
                        mig_epoch,
                    });
                    out.push(HomeAction::Count(Counter::MigrationsOut));
                    self.trace("migrate-commit", &mut out);
                    // Replay the fence-parked traffic at the new home.
                    while let Some(req) = self.pending.pop_front() {
                        out.push(HomeAction::Count(Counter::ParkedReplays));
                        self.redirect(req, &mut out);
                    }
                } else {
                    self.trace("stale-migrate-ack", &mut out);
                }
            }
            HomeEvent::MigrateCommit { from, mig_epoch } => {
                let expected = matches!(
                    &self.transient,
                    Transient::MigratingIn {
                        from: f,
                        mig_epoch: e,
                        phase: MigInPhase::AwaitCommit,
                    } if *f == from && *e == mig_epoch
                );
                if expected {
                    self.adopt(now, grace_ns, mig_epoch, "migrate-adopt", &mut out);
                } else {
                    // Duplicate of a commit already applied, or a commit
                    // arriving after a source-death self-promotion.
                    self.trace("stale-migrate-commit", &mut out);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The remote node an event claims to originate from, if any.
    fn event_source(ev: &HomeEvent<W>) -> Option<NodeId> {
        match ev {
            HomeEvent::Request(Request {
                source: Requester::Remote { node, .. },
                ..
            }) => Some(*node),
            HomeEvent::InvAck { from }
            | HomeEvent::EvictNotice { from }
            | HomeEvent::Writeback { from, .. }
            | HomeEvent::FillAck { from, .. }
            | HomeEvent::Flush { from, .. }
            | HomeEvent::MigrateData { from, .. }
            | HomeEvent::MigrateAck { from, .. }
            | HomeEvent::MigrateCommit { from, .. } => Some(*from),
            _ => None,
        }
    }

    /// Send a request this former home cannot serve to the chunk's new
    /// home: forward a remote one, and redirect its requester with the new
    /// home and fence epoch this machine committed to, so its next miss
    /// goes straight there; wake a local one so the application thread
    /// re-routes via the updated home map.
    fn redirect(&self, req: Request<W>, out: &mut Vec<HomeAction<W>>) {
        let (to, epoch) = self.migrated_to.expect("only a former home redirects");
        match req.source {
            Requester::Remote { node, dst_off } => {
                out.push(HomeAction::Send {
                    to,
                    msg: Msg::MigrateForward {
                        requester: node,
                        dst_off,
                        kind: req.kind,
                    },
                });
                out.push(HomeAction::Send {
                    to: node,
                    msg: Msg::HomeMoved {
                        new_home: to,
                        epoch,
                    },
                });
            }
            Requester::Local(w) => out.push(HomeAction::Wake(w)),
            Requester::Migration { .. } => unreachable!("a migration is never redirected"),
        }
    }

    /// Emit the structured trace of an event that leaves the stable state
    /// as it is.
    fn trace(&self, trigger: &'static str, out: &mut Vec<HomeAction<W>>) {
        out.push(HomeAction::Trace(Transition {
            from: self.state.name(),
            to: self.state.name(),
            trigger,
        }));
    }

    /// Record a stable-state change and emit its structured trace.
    fn set_state(&mut self, new: DirState, trigger: &'static str, out: &mut Vec<HomeAction<W>>) {
        out.push(HomeAction::Trace(Transition {
            from: self.state.name(),
            to: new.name(),
            trigger,
        }));
        self.state = new;
    }

    /// Record a stable-state change that needs no drain and give the home
    /// dentry the rights the new state leaves it (a Figure-6 promotion,
    /// [`DirState::home_local`]).
    fn settle(&mut self, new: DirState, trigger: &'static str, out: &mut Vec<HomeAction<W>>) {
        let state = new.home_local();
        self.set_state(new, trigger, out);
        out.push(HomeAction::SetHomeLocal { state, tag: NOTAG });
    }

    /// Durable mode: ask the executor to persist the chunk's (just
    /// updated) home image and park the machine in
    /// [`Transient::AwaitPersist`] until [`HomeEvent::PersistDone`]
    /// confirms it. Returns false on non-durable machines, which leaves
    /// every action stream bit-identical to the pre-durability protocol.
    fn begin_persist(&mut self, out: &mut Vec<HomeAction<W>>) -> bool {
        if !self.durable {
            return false;
        }
        self.persist_seq += 1;
        self.transient = Transient::AwaitPersist {
            seq: self.persist_seq,
        };
        out.push(HomeAction::PersistChunk {
            seq: self.persist_seq,
        });
        true
    }

    /// Persist the home image if durable, else complete the pending
    /// transient at once.
    fn persist_then_finish(&mut self, now: u64, grace_ns: u64, out: &mut Vec<HomeAction<W>>) {
        if !self.begin_persist(out) {
            self.finish_transient(now, grace_ns, out);
        }
    }

    /// Complete the pending transient: requeue the parked request and keep
    /// servicing the queue.
    ///
    /// The parked `current` request is serviced directly rather than
    /// re-queued: the directory already committed to it (the grant paths
    /// record the new owner/sharer *before* draining home references), so
    /// it must complete ahead of a migration queued meanwhile. Letting the
    /// migration cut in line would recall rights from a grantee whose fill
    /// never left — the grantee ignores the recall as a crossing message
    /// and the migration hangs forever.
    fn finish_transient(&mut self, now: u64, grace_ns: u64, out: &mut Vec<HomeAction<W>>) {
        self.transient = Transient::None;
        if let Some(req) = self.current.take() {
            if !self.service(now, grace_ns, req, out) {
                return;
            }
        }
        self.progress(now, grace_ns, out);
    }

    /// Service queued requests until one starts a transient, or the next
    /// one must wait.
    fn progress(&mut self, now: u64, grace_ns: u64, out: &mut Vec<HomeAction<W>>) {
        while self.pending.front().is_some_and(|req| self.ready(req)) {
            let req = self.pending.pop_front().expect("a ready request");
            if !self.service(now, grace_ns, req, out) {
                return;
            }
        }
    }

    /// May `req` be served now? Any request while the chunk is stable. A
    /// read also while a three-leg read recall waits only for its
    /// requester's ack: the owner's writeback has landed, so the home
    /// image is fresh, and a read sends that requester nothing that could
    /// overtake its fill.
    fn ready(&self, req: &Request<W>) -> bool {
        match self.transient {
            Transient::None => true,
            Transient::AwaitDirectFill {
                writeback: false, ..
            } => req.kind == Kind::Read && matches!(self.state, DirState::Shared { .. }),
            _ => false,
        }
    }

    /// Abort a transferred migration (the target died before its ack): the
    /// source re-assumes the chunk. Safe because the target never serves a
    /// request before [`HomeEvent::MigrateCommit`] (or a quorum-confirmed
    /// source death) promotes it. Durable machines re-log the re-assumed
    /// image past the fence epoch, so it outranks whatever the dead target
    /// logged under that epoch.
    fn abort_migration(&mut self, now: u64, grace_ns: u64, out: &mut Vec<HomeAction<W>>) {
        self.transient = Transient::None;
        self.trace("migration-aborted-target-dead", out);
        out.push(HomeAction::SetHomeLocal {
            state: LocalState::Exclusive,
            tag: NOTAG,
        });
        if !self.begin_persist(out) {
            self.progress(now, grace_ns, out);
        }
    }

    /// Commit an inbound migration: this node becomes the chunk's
    /// authoritative home and replays every fence-parked request.
    fn adopt(
        &mut self,
        now: u64,
        grace_ns: u64,
        mig_epoch: u64,
        trigger: &'static str,
        out: &mut Vec<HomeAction<W>>,
    ) {
        self.transient = Transient::None;
        self.migrated_to = None;
        out.push(HomeAction::AdoptChunk { mig_epoch });
        out.push(HomeAction::Count(Counter::MigrationsIn));
        self.trace(trigger, out);
        for _ in 0..self.pending.len() {
            out.push(HomeAction::Count(Counter::ParkedReplays));
        }
        self.progress(now, grace_ns, out);
    }

    /// Service one directory request. Returns true if the chunk is still
    /// stable (keep servicing the queue), false if a transient began.
    fn service(
        &mut self,
        now: u64,
        grace_ns: u64,
        req: Request<W>,
        out: &mut Vec<HomeAction<W>>,
    ) -> bool {
        out.push(HomeAction::ChargeDirUpdate);
        if let Requester::Migration { to, drained } = req.source {
            if self.dead.contains(&to) {
                // The target died before the transfer: drop the migration
                // and keep serving the chunk here.
                self.trace("migration-aborted-target-dead", out);
                if drained {
                    out.push(HomeAction::SetHomeLocal {
                        state: LocalState::Exclusive,
                        tag: NOTAG,
                    });
                }
                return true;
            }
        }
        // Minimum-hold grace: if servicing this request would revoke rights
        // granted moments ago, let the grantee use them first. Without
        // this, a contended chunk's recall can arrive at the grantee before
        // its application thread performs a single access (observed as a
        // write livelock on a falsely-shared flag chunk). A migration does
        // not wait: the fence outweighs the window.
        let revokes = match (&self.state, req.kind) {
            (DirState::Unshared, _) => false,
            (DirState::Shared { .. }, Kind::Read) => false,
            (DirState::Shared { sharers }, _) => !sharers.is_empty(),
            // The recorded owner resuming its own drain-deferred write
            // grant revokes nothing — the state was pre-committed to it.
            (DirState::Dirty { owner }, Kind::Write) if matches!(req.source, Requester::Remote { node, .. } if node == *owner) => {
                false
            }
            (DirState::Dirty { .. }, _) => true,
            (DirState::Operated { op, .. }, Kind::Operate(o2)) if op.0 == o2 => false,
            (DirState::Operated { sharers, .. }, _) => !sharers.is_empty(),
        };
        let migration = matches!(req.source, Requester::Migration { .. });
        if revokes && !migration && grace_ns > 0 && now < self.granted_at + grace_ns {
            let resume_at = self.granted_at + grace_ns;
            self.pending.push_front(req);
            self.transient = Transient::GraceWait;
            out.push(HomeAction::ScheduleRetry { at: resume_at });
            return false;
        }
        if let Some((node, sharers)) = self.directed(&req) {
            return self.direct_write(node, sharers, req, out);
        }
        match (&self.state, req.kind) {
            // ---------------- Read ----------------
            (DirState::Unshared, Kind::Read) => match req.source {
                Requester::Local(w) => {
                    out.push(HomeAction::Wake(w));
                    true
                }
                Requester::Remote { node, .. } => {
                    self.set_state(
                        DirState::Shared {
                            sharers: vec![node],
                        },
                        "remote-read",
                        out,
                    );
                    self.drain_home(req, LocalState::Shared, NOTAG, out)
                }
                Requester::Migration { .. } => unreachable!("a migration requests Write"),
            },
            (DirState::Shared { .. }, Kind::Read) => match req.source {
                Requester::Local(w) => {
                    out.push(HomeAction::Wake(w));
                    true
                }
                Requester::Remote { node, dst_off } => {
                    self.add_sharer(node);
                    self.fill(now, node, dst_off, false, 0, out);
                    true
                }
                Requester::Migration { .. } => unreachable!("a migration requests Write"),
            },
            (DirState::Dirty { owner }, Kind::Read) => {
                let owner = *owner;
                self.recall(now, owner, req, out)
            }

            // ---------------- Write ----------------
            (DirState::Unshared, Kind::Write) => match req.source {
                Requester::Local(w) => {
                    self.granted_at = now;
                    out.push(HomeAction::Wake(w));
                    true
                }
                Requester::Remote { node, .. } => {
                    self.set_state(DirState::Dirty { owner: node }, "remote-write", out);
                    self.drain_home(req, LocalState::Invalid, NOTAG, out)
                }
                Requester::Migration { to, drained } => self.hand_off(to, drained, out),
            },
            (DirState::Shared { sharers }, Kind::Write) if sharers.is_empty() => match req.source {
                Requester::Local(w) => {
                    // Figure 6: R -> R/W/O at home is a pure promotion.
                    self.settle(DirState::Unshared, "local-write-promotion", out);
                    self.granted_at = now;
                    out.push(HomeAction::Wake(w));
                    true
                }
                Requester::Remote { node, .. } => {
                    self.set_state(DirState::Dirty { owner: node }, "remote-write", out);
                    self.drain_home(req, LocalState::Invalid, NOTAG, out)
                }
                Requester::Migration { to, drained } => self.hand_off(to, drained, out),
            },

            // ---------------- Operate ----------------
            (DirState::Operated { op, .. }, Kind::Operate(op2)) if op.0 == op2 => {
                match req.source {
                    Requester::Local(w) => {
                        out.push(HomeAction::Wake(w));
                        true
                    }
                    Requester::Remote { node, .. } => {
                        self.add_sharer(node);
                        self.granted_at = now;
                        out.push(HomeAction::Send {
                            to: node,
                            msg: Msg::GrantOperated { op: op2 },
                        });
                        true
                    }
                    Requester::Migration { .. } => unreachable!("a migration requests Write"),
                }
            }
            (DirState::Unshared, Kind::Operate(op)) => match req.source {
                Requester::Local(w) => {
                    // Exclusive subsumes Operate at home.
                    out.push(HomeAction::Wake(w));
                    true
                }
                Requester::Remote { node, .. } => {
                    self.epoch += 1;
                    self.set_state(
                        DirState::Operated {
                            op: OpId(op),
                            sharers: vec![node],
                        },
                        "remote-operate",
                        out,
                    );
                    self.drain_home(req, LocalState::Operated, op, out)
                }
                Requester::Migration { .. } => unreachable!("a migration requests Write"),
            },
            (DirState::Shared { sharers }, Kind::Operate(op)) if sharers.is_empty() => {
                let init_sharers = match req.source {
                    Requester::Remote { node, .. } => vec![node],
                    _ => vec![],
                };
                self.epoch += 1;
                self.set_state(
                    DirState::Operated {
                        op: OpId(op),
                        sharers: init_sharers,
                    },
                    "operate-from-shared",
                    out,
                );
                self.drain_home(req, LocalState::Operated, op, out)
            }

            // ---------------- Revoke ----------------
            // Write or Operate on a chunk remote nodes hold: take their
            // rights away, then serve the request again.
            (DirState::Shared { sharers }, _) => {
                let targets = sharers.clone();
                self.transient = Transient::AwaitInvAcks {
                    waiting: targets.clone(),
                };
                self.current = Some(req);
                for n in targets {
                    out.push(HomeAction::Send {
                        to: n,
                        msg: Msg::Invalidate,
                    });
                }
                false
            }
            (DirState::Dirty { owner }, kind) => {
                let owner = *owner;
                // The recorded owner resuming its write grant after our own
                // HomeDrain gets its fill; anything else recalls the owner.
                // A migration never resumes, so migrating to the owner
                // still recalls it. A directed write's fill carries its
                // ack count, and the home holds the chunk until the
                // requester acks it.
                if let Requester::Remote { node, dst_off } = req.source {
                    if node == owner && kind == Kind::Write {
                        let served = self.hand_over(now, node, dst_off, out);
                        if !served {
                            self.current = Some(req);
                        }
                        return served;
                    }
                }
                self.recall(now, owner, req, out)
            }
            // Operated chunk asked for Read/Write/different op: recall all
            // operand caches and reduce, then retry from Unshared.
            (DirState::Operated { op, sharers }, _) => {
                let op0 = op.0;
                let targets = sharers.clone();
                if targets.is_empty() {
                    // Only the home node was operating: Figure 6 promotion.
                    self.settle(DirState::Unshared, "operated-promotion", out);
                    self.pending.push_front(req);
                    true
                } else {
                    self.transient = Transient::AwaitFlushes {
                        op: op0,
                        epoch: self.epoch,
                        waiting: targets.clone(),
                    };
                    self.current = Some(req);
                    for n in targets {
                        out.push(HomeAction::Send {
                            to: n,
                            msg: Msg::RecallOperated { op: op0 },
                        });
                    }
                    false
                }
            }
        }
    }

    /// Where the three-leg switch is on and the chunk is Shared: the sharers
    /// other than `node`, few enough for `directed_acks`, and whether the
    /// directory lists `node` too.
    fn other_sharers(&self, node: NodeId) -> Option<(Vec<NodeId>, bool)> {
        let DirState::Shared { sharers } = &self.state else {
            return None;
        };
        let others: Vec<NodeId> = sharers.iter().copied().filter(|&n| n != node).collect();
        let listed = others.len() < sharers.len();
        (self.direct_fill && others.len() <= usize::from(u16::MAX)).then_some((others, listed))
    }

    /// The requester of `req` and the sharers it invalidates, if the home
    /// serves `req` as a directed write (DESIGN.md §4.2): a remote write to
    /// a chunk that other remotes share (see [`Self::other_sharers`]).
    fn directed(&self, req: &Request<W>) -> Option<(NodeId, Vec<NodeId>)> {
        let (Kind::Write, &Requester::Remote { node, .. }) = (req.kind, &req.source) else {
            return None;
        };
        let (others, _) = self.other_sharers(node)?;
        (!others.is_empty()).then_some((node, others))
    }

    /// Serve `node`'s write `req` directed: name `node` the owner at once,
    /// and have each of `sharers` ack it, not the home; once the home
    /// dentry drained, [`Self::hand_over`] tells `node` how many acks to
    /// collect. Returns false: a transient began.
    fn direct_write(
        &mut self,
        node: NodeId,
        sharers: Vec<NodeId>,
        req: Request<W>,
        out: &mut Vec<HomeAction<W>>,
    ) -> bool {
        let (trigger, counter) = match req.source {
            Requester::Remote {
                dst_off: GRANT | GRANT_DATA,
                ..
            } => ("directed-grant", Counter::DirectedGrants),
            _ => ("directed-write", Counter::DirectWrites),
        };
        self.directed_acks = u16::try_from(sharers.len()).expect("bounded by `other_sharers`");
        self.set_state(DirState::Dirty { owner: node }, trigger, out);
        for n in sharers {
            out.push(HomeAction::Send {
                to: n,
                msg: Msg::DirectedInvalidate { requester: node },
            });
        }
        out.push(HomeAction::Count(counter));
        self.drain_home(req, LocalState::Invalid, NOTAG, out)
    }

    /// The sharers other than `grantee` a directed grant invalidates, and
    /// whether the grant carries the chunk's words (the directory does not
    /// list `grantee`), if the home serves `grantee`'s write at its grant
    /// (see [`Self::directs_grant`]).
    fn grant_sharers(
        &self,
        now: u64,
        grace_ns: u64,
        grantee: NodeId,
    ) -> Option<(Vec<NodeId>, bool)> {
        let (others, listed) = self.other_sharers(grantee)?;
        let graced = !others.is_empty() && grace_ns > 0 && now < self.granted_at + grace_ns;
        (self.transient.is_none() && self.migrated_to.is_none() && !graced)
            .then_some((others, !listed))
    }

    /// The home dentry drained for `node`, the owner a directed write or
    /// grant named: its fill, or the lock grant of a request at [`GRANT`]
    /// or [`GRANT_DATA`] (a grant of rights, as a fill is), carries the
    /// sharers' acks it collects, and the home holds the chunk until `node`
    /// acks that they are in. A grantee acks even with no sharer to wait
    /// for, since its ack also says whether it holds the copy: its eviction
    /// may have crossed the grant. Returns true for a fill with no acks,
    /// which ends the write.
    fn hand_over(
        &mut self,
        now: u64,
        node: NodeId,
        dst_off: u64,
        out: &mut Vec<HomeAction<W>>,
    ) -> bool {
        let acks = u32::from(std::mem::take(&mut self.directed_acks));
        if matches!(dst_off, GRANT | GRANT_DATA) {
            self.grant_to(now, node);
            out.push(HomeAction::SendGrant {
                to: node,
                acks,
                data: dst_off == GRANT_DATA,
            });
        } else {
            self.fill(now, node, dst_off, true, acks, out);
            if acks == 0 {
                return true;
            }
        }
        self.transient = Transient::AwaitDirectFill {
            owner: None,
            requester: node,
            ack: true,
            writeback: false,
        };
        false
    }

    /// Grant `node` its fill from the home image, at `dst_off`; `acks` for
    /// a directed write's.
    fn fill(
        &mut self,
        now: u64,
        node: NodeId,
        dst_off: u64,
        exclusive: bool,
        acks: u32,
        out: &mut Vec<HomeAction<W>>,
    ) {
        self.grant_to(now, node);
        out.push(HomeAction::SendFill {
            to: node,
            dst_off,
            exclusive,
            acks,
        });
    }

    /// Rights leave for `node` now, by a fill or a directed grant: the
    /// grace window starts, and the message travels behind any revoke the
    /// home sent `node` earlier, so `node` is settled (see `unsettled`).
    fn grant_to(&mut self, now: u64, node: NodeId) {
        self.granted_at = now;
        if node < UNSETTLED_IDS {
            self.unsettled &= !(1 << node);
        }
    }

    /// A revoke the home sent `node` may still be on its way there (see
    /// `unsettled`).
    fn unsettle(&mut self, node: NodeId) {
        if self.direct_fill && node < UNSETTLED_IDS {
            self.unsettled |= 1 << node;
        }
    }

    /// May a revoke the home sent `node` still be on its way there?
    fn unsettled(&self, node: NodeId) -> bool {
        node >= UNSETTLED_IDS || self.unsettled & (1 << node) != 0
    }

    /// Take the Dirty `owner`'s copy back for `req`, which waits as the
    /// current request. A remote read or write of another node takes the
    /// three-leg recall where it is on: the owner fills the requester
    /// itself, which is the grant, so the grace window counts from here.
    /// Anything else has the owner write back (a read's keeps a Shared
    /// copy), and `req` is served again from the fresh home image.
    /// Returns false: a transient began.
    fn recall(
        &mut self,
        now: u64,
        owner: NodeId,
        req: Request<W>,
        out: &mut Vec<HomeAction<W>>,
    ) -> bool {
        let keep = req.kind == Kind::Read;
        let msg = match req.source {
            Requester::Remote { node, dst_off }
                if self.direct_fill
                    && node != owner
                    && !self.unsettled(node)
                    && (keep || req.kind == Kind::Write) =>
            {
                self.granted_at = now;
                self.transient = Transient::AwaitDirectFill {
                    owner: Some(owner),
                    requester: node,
                    ack: true,
                    writeback: keep,
                };
                Msg::RecallTo {
                    requester: node,
                    dst_off,
                    keep,
                }
            }
            _ => {
                self.transient = Transient::AwaitWriteback { from: owner };
                if keep {
                    Msg::DowngradeDirty
                } else {
                    Msg::RecallDirty
                }
            }
        };
        self.current = Some(req);
        out.push(HomeAction::Send { to: owner, msg });
        false
    }

    /// One of the things a three-leg recall waits for arrived from `from`:
    /// the requester's ack of its fill (`acked`), or the owner's direct
    /// writeback. The directory takes the new state at the first of them
    /// (a directed write named its requester at once); the home image is
    /// fresh, and the home dentry readable again, only once the writeback
    /// landed, and from then on reads are served. The last one ends the
    /// transient.
    fn direct_fill_arrived(
        &mut self,
        now: u64,
        grace_ns: u64,
        from: NodeId,
        acked: bool,
        out: &mut Vec<HomeAction<W>>,
    ) {
        let Transient::AwaitDirectFill {
            owner,
            requester,
            ack,
            writeback,
        } = &mut self.transient
        else {
            return;
        };
        let (owner, requester) = (*owner, *requester);
        let awaited = if acked {
            from == requester && std::mem::take(ack)
        } else {
            Some(from) == owner && std::mem::take(writeback)
        };
        if !awaited {
            return;
        }
        let done = !*ack && !*writeback;
        if let (DirState::Dirty { .. }, Some(owner)) = (&self.state, owner) {
            let read = self.current.as_ref().is_some_and(|r| r.kind == Kind::Read);
            let (state, trigger) = if read {
                let sharers = vec![owner, requester];
                (DirState::Shared { sharers }, "direct-read-fill")
            } else {
                (DirState::Dirty { owner: requester }, "direct-write-fill")
            };
            self.set_state(state, trigger, out);
        }
        if !acked || self.state == DirState::Unshared {
            // The owner's line landed in the home image, or a directed
            // grant ended whose grantee holds no copy: the other sharers'
            // copies are gone too, and the home holds the chunk.
            out.push(HomeAction::SetHomeLocal {
                state: self.state.home_local(),
                tag: NOTAG,
            });
        }
        if done {
            self.current = None;
            self.finish_transient(now, grace_ns, out);
        } else {
            self.progress(now, grace_ns, out);
        }
    }

    /// Serve a migration once no remote node holds rights to the chunk:
    /// drain the home dentry's references, then burn the fence epoch and
    /// transfer the home image to `to` — the migration's "fill". Burned
    /// here, after every persist the revoke made, the epoch outranks all of
    /// this home's log records for the chunk.
    fn hand_off(&mut self, to: NodeId, drained: bool, out: &mut Vec<HomeAction<W>>) -> bool {
        if !drained {
            if !matches!(self.state, DirState::Unshared) {
                self.set_state(DirState::Unshared, "migrate-recall-complete", out);
            }
            let req = Request {
                source: Requester::Migration { to, drained: true },
                kind: Kind::Write,
            };
            return self.drain_home(req, LocalState::Invalid, NOTAG, out);
        }
        self.persist_seq += 1;
        let mig_epoch = self.persist_seq;
        self.transient = Transient::MigratingOut { to, mig_epoch };
        out.push(HomeAction::TransferChunk { to, mig_epoch });
        self.trace("migrate-transfer", out);
        false
    }

    /// Park `req` while the home dentry drains towards `target`; the
    /// [`HomeEvent::Drained`] that ends the drain serves `req` again.
    /// Returns false: a transient began.
    fn drain_home(
        &mut self,
        req: Request<W>,
        target: LocalState,
        tag: u32,
        out: &mut Vec<HomeAction<W>>,
    ) -> bool {
        self.transient = Transient::HomeDrain;
        self.current = Some(req);
        out.push(HomeAction::StartHomeDrain { target, tag });
        false
    }

    /// Home-side peer-death cleanup: erase `dead` from this chunk's
    /// bookkeeping and resume the engine if it was waiting on the peer.
    /// Monotone and idempotent — a second `PeerDown` for the same node is
    /// a no-op, and the node is remembered in `self.dead` so straggler
    /// events from it are rejected forever after.
    fn forget_peer(&mut self, now: u64, grace_ns: u64, dead: NodeId, out: &mut Vec<HomeAction<W>>) {
        if self.dead.contains(&dead) {
            return;
        }
        self.dead.push(dead);
        // Requests the dead node queued must not be serviced: a fill sent
        // to it would be dropped, but granting would corrupt the sharer set
        // with a node that can never evict or acknowledge.
        self.pending
            .retain(|r| !matches!(r.source, Requester::Remote { node, .. } if node == dead));
        if self
            .current
            .as_ref()
            .is_some_and(|r| matches!(r.source, Requester::Remote { node, .. } if node == dead))
        {
            self.current = None;
        }
        // One prune counted per chunk the dead node actually occupied: a
        // sharer-set slot or a transient wait-set slot (they are pruned
        // together below).
        let occupied = self.has_sharer(dead) || self.in_wait_set(dead);
        if occupied {
            out.push(HomeAction::Count(Counter::SharersPruned));
        }
        match &self.transient {
            Transient::AwaitWriteback { from } if *from == dead => {
                // The dirty data died with the peer (fail-stop): the home
                // copy becomes authoritative again.
                self.settle(DirState::Unshared, "peer-down", out);
                self.finish_transient(now, grace_ns, out);
            }
            Transient::AwaitDirectFill { .. } => {
                unreachable!("the three-leg recall runs only where no peer can die")
            }
            Transient::AwaitInvAcks { .. } => {
                if self.leave(dead) {
                    self.finish_transient(now, grace_ns, out);
                }
            }
            Transient::AwaitFlushes { .. } => {
                if self.leave(dead) {
                    // Same completion as the last flush arriving — except
                    // the epoch closes by abort: the dead contributor's
                    // operands are lost (fail-stop), never reduced. Live
                    // contributors' flushes were already reduced into the
                    // home image, so they persist before the parked
                    // requester resumes.
                    out.push(HomeAction::Count(Counter::EpochsAborted));
                    self.settle(DirState::Unshared, "peer-down-epoch-abort", out);
                    self.persist_then_finish(now, grace_ns, out);
                }
            }
            Transient::MigratingOut { to, .. } if *to == dead => {
                // The target died before acking: it never served anyone, so
                // the source re-assumes the chunk. (A migration that has not
                // transferred yet notices the death when it is next served.)
                self.abort_migration(now, grace_ns, out);
            }
            Transient::MigratingIn {
                from,
                mig_epoch,
                phase,
            } => {
                let from = *from;
                let mig_epoch = *mig_epoch;
                let awaiting_commit = matches!(phase, MigInPhase::AwaitCommit);
                if from == dead && awaiting_commit {
                    // The source died after acking its hand-off; the
                    // quorum-confirmed death doubles as the commit (the
                    // source can never serve again).
                    self.adopt(now, grace_ns, mig_epoch, "migrate-adopt-source-dead", out);
                }
                // MigInPhase::Persist: keep persisting; the PersistDone
                // handler notices the death and self-promotes.
            }
            _ => {
                let home_becomes_sole = match &self.state {
                    DirState::Dirty { owner } => *owner == dead,
                    DirState::Shared { .. } => self.remove_sharer(dead),
                    DirState::Operated { .. } => {
                        // Its combined operands are lost (fail-stop); the
                        // home stays Operated and promotes lazily.
                        self.remove_sharer(dead);
                        false
                    }
                    _ => false,
                };
                if home_becomes_sole {
                    self.settle(DirState::Unshared, "peer-down", out);
                }
            }
        }
    }

    /// `node` acked, flushed, evicted across the wait, or died: remove it
    /// from the sharer set and the transient's wait set. Returns true if
    /// the wait set became empty (the transient completed).
    fn leave(&mut self, node: NodeId) -> bool {
        self.remove_sharer(node);
        let set = match &mut self.transient {
            Transient::AwaitInvAcks { waiting } | Transient::AwaitFlushes { waiting, .. } => {
                waiting
            }
            _ => return false,
        };
        if let Some(pos) = set.iter().position(|&n| n == node) {
            set.remove(pos);
        }
        set.is_empty()
    }

    /// Is `node` in the current sharer set?
    fn has_sharer(&self, node: NodeId) -> bool {
        match &self.state {
            DirState::Shared { sharers } | DirState::Operated { sharers, .. } => {
                sharers.contains(&node)
            }
            _ => false,
        }
    }

    /// Is `node` in the current transient wait set?
    fn in_wait_set(&self, node: NodeId) -> bool {
        match &self.transient {
            Transient::AwaitInvAcks { waiting } | Transient::AwaitFlushes { waiting, .. } => {
                waiting.contains(&node)
            }
            Transient::AwaitWriteback { from } => *from == node,
            _ => false,
        }
    }

    /// Add a remote sharer (idempotent).
    fn add_sharer(&mut self, node: NodeId) {
        match &mut self.state {
            DirState::Shared { sharers } | DirState::Operated { sharers, .. } => {
                if !sharers.contains(&node) {
                    sharers.push(node);
                }
            }
            s => panic!("add_sharer in state {s:?}"),
        }
    }

    /// Remove a remote sharer if present; returns true if it was the last.
    fn remove_sharer(&mut self, node: NodeId) -> bool {
        match &mut self.state {
            DirState::Shared { sharers } | DirState::Operated { sharers, .. } => {
                if let Some(pos) = sharers.iter().position(|&n| n == node) {
                    sharers.remove(pos);
                }
                sharers.is_empty()
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type M = HomeMachine<u32>;

    fn remote(node: NodeId, kind: Kind) -> HomeEvent<u32> {
        HomeEvent::Request(Request {
            source: Requester::Remote { node, dst_off: 0 },
            kind,
        })
    }

    fn local(w: u32, kind: Kind) -> HomeEvent<u32> {
        HomeEvent::Request(Request {
            source: Requester::Local(w),
            kind,
        })
    }

    /// A machine with the three-leg recall on and remote 1 the Dirty owner.
    fn dirty_direct() -> M {
        let mut m = M::new();
        m.set_direct_fill(true);
        m.on_event(0, 0, remote(1, Kind::Write));
        m.on_event(0, 0, HomeEvent::Drained);
        assert_eq!(m.state(), &DirState::Dirty { owner: 1 });
        m
    }

    fn ack(from: NodeId, holds: bool) -> HomeEvent<u32> {
        HomeEvent::FillAck { from, holds }
    }

    fn writeback(from: NodeId, downgrade: bool, direct: bool) -> HomeEvent<u32> {
        HomeEvent::Writeback {
            from,
            downgrade,
            direct,
        }
    }

    /// Remote 2 reads remote 1's Dirty chunk: the home names it in the
    /// recall, takes Shared{1, 2} at the first of the ack and the owner's
    /// writeback, makes its own dentry readable only at the writeback, and
    /// serves a read queued meanwhile once the writeback has landed.
    #[test]
    fn a_three_leg_read_recall_waits_for_the_ack_and_the_writeback() {
        for ack_first in [false, true] {
            let mut m = dirty_direct();
            let acts = m.on_event(1, 0, remote(2, Kind::Read));
            let recall = Msg::RecallTo {
                requester: 2,
                dst_off: 0,
                keep: true,
            };
            assert!(acts.contains(&HomeAction::Send { to: 1, msg: recall }));
            let ack = ack(2, true);
            let wb = writeback(1, true, true);
            let (first, second) = if ack_first { (ack, wb) } else { (wb, ack) };
            let acts = m.on_event(2, 0, first);
            let readable = HomeAction::SetHomeLocal {
                state: LocalState::Shared,
                tag: NOTAG,
            };
            assert_eq!(acts.contains(&readable), !ack_first, "{acts:?}");
            let sharers = vec![1, 2];
            assert_eq!(m.state(), &DirState::Shared { sharers });
            assert_eq!(m.transient().name(), "AwaitDirectFill");
            // A home read is served once the owner's data has landed.
            let acts = m.on_event(3, 0, local(7, Kind::Read));
            assert_eq!(acts.contains(&HomeAction::Wake(7)), !ack_first);
            let acts = m.on_event(4, 0, second);
            assert!(m.transient().is_none());
            assert_eq!(acts.contains(&HomeAction::Wake(7)), ack_first);
        }
    }

    /// A remote write to a chunk remote 1 shares, with the switch on: the
    /// home names remote 2 the owner at once and sends remote 1 an
    /// invalidation naming it; once its own dentry drained it fills remote
    /// 2 with the ack count, and holds the chunk until remote 2 acks.
    /// Remote 2's own copy, dropped by its upgrade, is no other sharer, and
    /// remote 1's crossing eviction counts for nothing.
    #[test]
    fn a_directed_write_holds_the_chunk_until_the_writer_acks() {
        let mut m = M::new();
        m.set_direct_fill(true);
        m.on_event(0, 0, remote(1, Kind::Read));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(0, 0, remote(2, Kind::Read));
        assert_eq!(
            m.state(),
            &DirState::Shared {
                sharers: vec![1, 2]
            }
        );
        m.on_event(1, 0, HomeEvent::EvictNotice { from: 2 });
        let acts = m.on_event(1, 0, remote(2, Kind::Write));
        assert_eq!(m.state(), &DirState::Dirty { owner: 2 });
        let invalidate = Msg::DirectedInvalidate { requester: 2 };
        assert!(acts.contains(&HomeAction::Send {
            to: 1,
            msg: invalidate
        }));
        assert!(acts.contains(&HomeAction::Count(Counter::DirectWrites)));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, HomeAction::SendFill { .. })));
        let acts = m.on_event(2, 0, HomeEvent::Drained);
        assert!(acts.contains(&HomeAction::SendFill {
            to: 2,
            dst_off: 0,
            exclusive: true,
            acks: 1,
        }));
        assert_eq!(m.transient().name(), "AwaitDirectFill");
        assert!(m
            .on_event(3, 0, HomeEvent::EvictNotice { from: 1 })
            .is_empty());
        m.on_event(3, 0, remote(1, Kind::Read));
        assert_eq!(m.pending_len(), 1);
        let acts = m.on_event(4, 0, ack(2, true));
        let recall = Msg::RecallTo {
            requester: 1,
            dst_off: 0,
            keep: true,
        };
        assert!(acts.contains(&HomeAction::Send { to: 2, msg: recall }));
    }

    /// A machine with the switch on whose chunk remotes `sharers` read.
    fn shared_by(sharers: &[NodeId]) -> M {
        let mut m = M::new();
        m.set_direct_fill(true);
        for &n in sharers {
            m.on_event(0, 0, remote(n, Kind::Read));
            if m.transient() == &Transient::HomeDrain {
                m.on_event(0, 0, HomeEvent::Drained);
            }
        }
        let sharers = sharers.to_vec();
        assert_eq!(m.state(), &DirState::Shared { sharers });
        m
    }

    /// An intent grant to a sharer serves its write (DESIGN.md §4.5): the
    /// home names remote 2 the owner, sends remote 1 an invalidation that
    /// names it and no fill to anyone, and once its own dentry drained
    /// sends the grant with one ack to collect. It holds the chunk until
    /// remote 2 acks, and a request arriving meanwhile queues, counted. A
    /// sole sharer's grant counts no ack.
    #[test]
    fn a_grant_to_a_sharer_sends_no_fill_and_counts_the_other_sharers() {
        let mut m = shared_by(&[1, 2]);
        assert!(m.directs_grant(1, 0, 2));
        let acts = m.on_event(1, 0, HomeEvent::IntentGrant { grantee: 2 });
        assert_eq!(m.state(), &DirState::Dirty { owner: 2 });
        let invalidate = Msg::DirectedInvalidate { requester: 2 };
        assert!(acts.contains(&HomeAction::Send {
            to: 1,
            msg: invalidate
        }));
        assert!(acts.contains(&HomeAction::Count(Counter::DirectedGrants)));
        let acts = m.on_event(2, 0, HomeEvent::Drained);
        assert_eq!(
            acts,
            [HomeAction::SendGrant {
                to: 2,
                acks: 1,
                data: false
            }]
        );
        assert_eq!(m.transient().name(), "AwaitDirectFill");
        let acts = m.on_event(3, 0, remote(1, Kind::Read));
        assert_eq!(acts, [HomeAction::Count(Counter::QueuedBehindDirect)]);
        let acts = m.on_event(4, 0, ack(2, true));
        let recall = Msg::RecallTo {
            requester: 1,
            dst_off: 0,
            keep: true,
        };
        assert!(acts.contains(&HomeAction::Send { to: 2, msg: recall }));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, HomeAction::SendFill { .. })));

        let mut m = shared_by(&[2]);
        m.on_event(1, 0, HomeEvent::IntentGrant { grantee: 2 });
        let acts = m.on_event(2, 0, HomeEvent::Drained);
        assert_eq!(
            acts,
            [HomeAction::SendGrant {
                to: 2,
                acks: 0,
                data: false
            }]
        );
        m.on_event(3, 0, ack(2, true));
        assert!(m.transient().is_none());
        assert_eq!(m.state(), &DirState::Dirty { owner: 2 });
    }

    /// A grant to a node the directory does not list carries the chunk's
    /// words, and the other sharer's copy acks the grantee.
    #[test]
    fn a_grant_to_a_non_sharer_carries_the_data() {
        let mut m = shared_by(&[1]);
        assert!(m.directs_grant(1, 0, 2));
        let acts = m.on_event(1, 0, HomeEvent::IntentGrant { grantee: 2 });
        assert_eq!(m.state(), &DirState::Dirty { owner: 2 });
        assert!(acts.contains(&HomeAction::Send {
            to: 1,
            msg: Msg::DirectedInvalidate { requester: 2 },
        }));
        let acts = m.on_event(2, 0, HomeEvent::Drained);
        let grant = HomeAction::SendGrant {
            to: 2,
            acks: 1,
            data: true,
        };
        assert_eq!(acts, [grant]);
        m.on_event(3, 0, ack(2, true));
        assert!(m.transient().is_none());
    }

    /// Only a grant for a stable Shared chunk is directed: not for an
    /// Unshared chunk, not for one Dirty at another node or mid-transition,
    /// not with the switch off, and not while invalidating would cut a
    /// fresh grant's grace window short. Those keep the home's pull and
    /// the grantee's write miss.
    #[test]
    fn a_grant_the_directory_cannot_serve_keeps_the_pull() {
        let mut unshared = M::new();
        unshared.set_direct_fill(true);
        assert!(!unshared.directs_grant(1, 0, 2));
        assert!(!dirty_direct().directs_grant(1, 0, 2));
        let mut m = shared_by(&[1, 2]);
        m.on_event(1, 0, local(7, Kind::Write));
        assert!(!m.directs_grant(1, 0, 2), "{:?}", m.transient());
        let mut off = M::new();
        off.on_event(0, 0, remote(2, Kind::Read));
        off.on_event(0, 0, HomeEvent::Drained);
        assert!(!off.directs_grant(1, 0, 2));
        let m = shared_by(&[1, 2]);
        assert!(!m.directs_grant(0, 10, 2));
        assert!(m.directs_grant(10, 10, 2));
        assert!(shared_by(&[2]).directs_grant(0, 10, 2));
    }

    /// A grantee that holds no copy when its acks are in, because its
    /// eviction crossed the grant, acks empty: the home takes the chunk
    /// back, with its dentry writable, once the other sharer dropped its
    /// copy. The crossing eviction notice changes nothing.
    #[test]
    fn a_grant_that_ends_empty_leaves_the_chunk_unshared() {
        for during_drain in [false, true] {
            let mut m = shared_by(&[1, 2]);
            m.on_event(1, 0, HomeEvent::IntentGrant { grantee: 2 });
            let evict = HomeEvent::EvictNotice { from: 2 };
            if during_drain {
                m.on_event(1, 0, evict.clone());
            }
            m.on_event(2, 0, HomeEvent::Drained);
            if !during_drain {
                m.on_event(2, 0, evict);
            }
            assert_eq!(m.state(), &DirState::Dirty { owner: 2 });
            assert_eq!(m.transient().name(), "AwaitDirectFill");
            let acts = m.on_event(3, 0, ack(2, false));
            assert_eq!(m.state(), &DirState::Unshared);
            assert!(acts.contains(&HomeAction::SetHomeLocal {
                state: LocalState::Exclusive,
                tag: NOTAG,
            }));
            assert!(m.transient().is_none());
        }
    }

    /// With the switch on, a home-local write and an Operate request of a
    /// chunk remotes share still collect the acks at the home.
    #[test]
    fn only_a_remote_write_is_directed() {
        for req in [local(7, Kind::Write), remote(2, Kind::Operate(3))] {
            let mut m = M::new();
            m.set_direct_fill(true);
            m.on_event(0, 0, remote(1, Kind::Read));
            m.on_event(0, 0, HomeEvent::Drained);
            let acts = m.on_event(1, 0, req);
            assert!(acts.contains(&HomeAction::Send {
                to: 1,
                msg: Msg::Invalidate
            }));
            assert_eq!(m.transient(), &Transient::AwaitInvAcks { waiting: vec![1] });
        }
    }

    /// A write recall ends at the requester's ack, with no data at the
    /// home; a writeback from the owner during the wait crossed the recall,
    /// and the home serves the request itself from its fresh image.
    #[test]
    fn a_three_leg_write_recall_ends_at_the_ack_or_a_crossing_writeback() {
        let mut m = dirty_direct();
        m.on_event(1, 0, remote(2, Kind::Write));
        assert_eq!(m.transient().name(), "AwaitDirectFill");
        let acts = m.on_event(2, 0, ack(2, true));
        assert_eq!(m.state(), &DirState::Dirty { owner: 2 });
        assert!(m.transient().is_none());
        assert!(acts.iter().all(|a| !matches!(
            a,
            HomeAction::SendFill { .. } | HomeAction::SetHomeLocal { .. }
        )));

        let mut m = dirty_direct();
        m.on_event(1, 0, remote(2, Kind::Write));
        m.on_event(2, 0, writeback(1, false, false));
        assert_eq!(m.state(), &DirState::Dirty { owner: 2 });
        let acts = m.on_event(3, 0, HomeEvent::Drained);
        assert!(acts.contains(&HomeAction::SendFill {
            to: 2,
            dst_off: 0,
            exclusive: true,
            acks: 0,
        }));
        // The recall the writeback crossed may still reach node 1, so its
        // next recall-served request is filled from the home.
        m.on_event(4, 0, remote(1, Kind::Read));
        assert_eq!(m.transient().name(), "AwaitWriteback");
    }

    #[test]
    fn new_machine_is_unshared_and_stable() {
        let m = M::new();
        assert_eq!(m.state(), &DirState::Unshared);
        assert!(m.transient().is_none());
        assert_eq!(m.pending_len(), 0);
        assert!(!m.has_current());
    }

    #[test]
    fn local_read_on_unshared_wakes_immediately() {
        let mut m = M::new();
        let acts = m.on_event(0, 0, local(7, Kind::Read));
        assert!(acts.contains(&HomeAction::Wake(7)));
        assert_eq!(m.state(), &DirState::Unshared);
    }

    #[test]
    fn remote_read_drains_then_fills() {
        let mut m = M::new();
        let acts = m.on_event(0, 0, remote(2, Kind::Read));
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::StartHomeDrain {
                target: LocalState::Shared,
                ..
            }
        )));
        assert_eq!(m.transient(), &Transient::HomeDrain);
        let acts = m.on_event(1, 0, HomeEvent::Drained);
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::SendFill {
                to: 2,
                exclusive: false,
                ..
            }
        )));
        assert_eq!(
            m.state(),
            &DirState::Shared { sharers: vec![2] },
            "requester recorded as sharer"
        );
        assert!(m.transient().is_none());
    }

    #[test]
    fn write_invalidates_all_sharers_then_grants() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Read));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(0, 0, remote(2, Kind::Read));
        assert_eq!(
            m.state(),
            &DirState::Shared {
                sharers: vec![1, 2]
            }
        );
        let acts = m.on_event(0, 0, remote(1, Kind::Write));
        let invs: Vec<_> = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    HomeAction::Send {
                        msg: Msg::Invalidate,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(invs.len(), 2, "both sharers invalidated: {acts:?}");
        // First ack shrinks the set; second completes and grants Dirty.
        let acts = m.on_event(1, 0, HomeEvent::InvAck { from: 1 });
        assert!(acts
            .iter()
            .all(|a| !matches!(a, HomeAction::SendFill { .. })));
        // Second ack completes the epoch; the writer is installed as Dirty
        // owner and the home drains its own readers before filling.
        let acts = m.on_event(1, 0, HomeEvent::InvAck { from: 2 });
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::StartHomeDrain {
                target: LocalState::Invalid,
                ..
            }
        )));
        assert_eq!(m.state(), &DirState::Dirty { owner: 1 });
        let acts = m.on_event(2, 0, HomeEvent::Drained);
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::SendFill {
                to: 1,
                exclusive: true,
                ..
            }
        )));
    }

    #[test]
    fn stale_inv_ack_is_ignored() {
        let mut m = M::new();
        let acts = m.on_event(0, 0, HomeEvent::InvAck { from: 1 });
        assert!(acts.is_empty());
        assert_eq!(m.state(), &DirState::Unshared);
    }

    #[test]
    fn flush_epoch_check_rejects_old_operator() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Operate(3)));
        m.on_event(0, 0, HomeEvent::Drained);
        assert!(matches!(m.state(), DirState::Operated { .. }));
        // A read arrives: recall the Operated set under op 3.
        let acts = m.on_event(0, 0, remote(2, Kind::Read));
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Send {
                to: 1,
                msg: Msg::RecallOperated { op: 3 }
            }
        )));
        // A crossing flush of a DIFFERENT operator must not close the epoch.
        m.on_event(
            1,
            0,
            HomeEvent::Flush {
                from: 1,
                op: 9,
                data: vec![1],
                keep: false,
            },
        );
        assert!(matches!(m.transient(), Transient::AwaitFlushes { .. }));
        // The real flush completes the recall and re-services the read.
        let acts = m.on_event(
            1,
            0,
            HomeEvent::Flush {
                from: 1,
                op: 3,
                data: vec![1],
                keep: false,
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::StartHomeDrain {
                target: LocalState::Shared,
                ..
            }
        )));
    }

    /// A keep flush is reduced (and persisted while the chunk is idle) but
    /// never shrinks the sharer set or an epoch's wait set: only the
    /// sender's later non-keep flush closes the epoch.
    #[test]
    fn a_keep_flush_neither_removes_its_sender_nor_closes_the_epoch() {
        let flush = |data: Vec<u64>, keep| HomeEvent::Flush {
            from: 1,
            op: 3,
            data,
            keep,
        };
        let mut m = M::new();
        m.set_durable(true);
        m.on_event(0, 0, remote(1, Kind::Operate(3)));
        m.on_event(0, 0, HomeEvent::Drained);
        let acts = m.on_event(0, 0, flush(vec![1], true));
        assert!(acts.contains(&HomeAction::ApplyFlushData {
            op: 3,
            data: vec![1]
        }));
        assert_eq!(acts.last(), Some(&HomeAction::PersistChunk { seq: 1 }));
        assert_eq!(
            m.state(),
            &DirState::Operated {
                op: OpId(3),
                sharers: vec![1]
            }
        );
        m.on_event(0, 0, HomeEvent::PersistDone { seq: 1 });
        // A read recalls the idle sharer; its keep flushes do not answer.
        m.on_event(0, 0, remote(2, Kind::Read));
        m.on_event(0, 0, flush(vec![1], true));
        assert!(
            matches!(m.transient(), Transient::AwaitFlushes { waiting, .. } if waiting[..] == [1])
        );
        // The idle sharer's empty answer does.
        let acts = m.on_event(0, 0, flush(Vec::new(), false));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, HomeAction::ApplyFlushData { .. })));
        assert_eq!(m.state(), &DirState::Unshared);
    }

    #[test]
    fn grace_window_defers_revocations() {
        let mut m = M::new();
        m.on_event(0, 1_000, remote(1, Kind::Write));
        // Drain completes past the initial grace window; the resumed write
        // grants the fill and stamps granted_at = 1000.
        let acts = m.on_event(1_000, 1_000, HomeEvent::Drained);
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::SendFill {
                to: 1,
                exclusive: true,
                ..
            }
        )));
        assert_eq!(m.state(), &DirState::Dirty { owner: 1 });
        // A competing read 10 ns later falls inside the grace window.
        let acts = m.on_event(1_010, 1_000, remote(2, Kind::Read));
        assert!(acts
            .iter()
            .any(|a| matches!(a, HomeAction::ScheduleRetry { at: 2_000 })));
        assert_eq!(m.transient(), &Transient::GraceWait);
        // After the window the retry downgrades the owner.
        let acts = m.on_event(2_000, 1_000, HomeEvent::RetryExpired);
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Send {
                to: 1,
                msg: Msg::DowngradeDirty
            }
        )));
    }

    /// A migration cuts a grace wait short, so the retry the wait scheduled
    /// fires during the migration's recall: it changes nothing and serves
    /// nothing.
    #[test]
    fn a_stale_retry_during_a_recall_changes_nothing() {
        let mut m = held_by(Kind::Operate(3), &[1]);
        m.on_event(10, 1_000, remote(2, Kind::Read));
        assert_eq!(m.transient(), &Transient::GraceWait);
        m.on_event(20, 1_000, HomeEvent::BeginMigration { to: 3 });
        let before = (m.state().clone(), m.transient().clone(), m.pending_len());
        assert_eq!(before.1.name(), "AwaitFlushes");
        assert!(m.on_event(1_000, 1_000, HomeEvent::RetryExpired).is_empty());
        assert_eq!(
            (m.state().clone(), m.transient().clone(), m.pending_len()),
            before
        );
    }

    /// A machine whose remotes `holders`, in order, asked for `kind`.
    fn held_by(kind: Kind, holders: &[NodeId]) -> M {
        let mut m = M::new();
        for &n in holders {
            m.on_event(0, 0, remote(n, kind));
            if m.transient() == &Transient::HomeDrain {
                m.on_event(0, 0, HomeEvent::Drained);
            }
        }
        m
    }

    /// A home request its dentry's rights cover wakes its waiter and
    /// changes nothing, whatever the remotes hold: every kind on an
    /// Unshared chunk, a read of a Shared one, and the operator of an
    /// Operated one. The executor answers these from the home dentry, so
    /// no model-checker world feeds them to the machine.
    #[test]
    fn a_home_request_its_dentry_covers_changes_nothing() {
        let op = Kind::Operate(3);
        let mut operated_alone = held_by(op, &[1]);
        let leave = HomeEvent::Flush {
            from: 1,
            op: 3,
            data: Vec::new(),
            keep: false,
        };
        operated_alone.on_event(0, 0, leave);
        let cells = [
            (M::new(), Kind::Read),
            (M::new(), Kind::Write),
            (M::new(), op),
            (held_by(Kind::Read, &[1]), Kind::Read),
            (held_by(Kind::Read, &[1, 2]), Kind::Read),
            (operated_alone, op),
            (held_by(op, &[1]), op),
            (held_by(op, &[1, 2]), op),
        ];
        for (mut m, kind) in cells {
            let state = m.state().clone();
            let acts = m.on_event(5, 0, local(7, kind));
            assert_eq!(acts, [HomeAction::ChargeDirUpdate, HomeAction::Wake(7)]);
            assert_eq!(m.state(), &state);
            assert!(m.transient().is_none());
        }
    }

    #[test]
    fn peer_down_reclaims_dirty_ownership() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Write));
        m.on_event(0, 0, HomeEvent::Drained);
        assert_eq!(m.state(), &DirState::Dirty { owner: 1 });
        let acts = m.on_event(
            5,
            0,
            HomeEvent::PeerDown {
                dead: 1,
                view_epoch: 1,
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::SetHomeLocal {
                state: LocalState::Exclusive,
                ..
            }
        )));
        assert_eq!(m.state(), &DirState::Unshared);
    }

    #[test]
    fn transient_sets_drain_to_completion() {
        let mut m = M::new();
        m.transient = Transient::AwaitFlushes {
            op: 0,
            epoch: 1,
            waiting: vec![1, 2, 3],
        };
        assert!(!m.leave(2));
        assert!(!m.leave(9)); // unknown node: no-op
        assert!(!m.leave(1));
        assert!(m.leave(3));
    }

    #[test]
    fn leave_ignores_wrong_kind() {
        let mut m = M::new();
        m.transient = Transient::AwaitWriteback { from: 1 };
        assert!(!m.leave(1));
    }

    #[test]
    fn peer_down_aborts_await_flushes_epoch() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Operate(5)));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(0, 0, remote(2, Kind::Operate(5)));
        assert_eq!(m.epoch(), 1);
        // A write forces the epoch closed: recall both contributors.
        m.on_event(0, 0, local(9, Kind::Write));
        assert!(matches!(
            m.transient(),
            Transient::AwaitFlushes {
                op: 5,
                epoch: 1,
                ..
            }
        ));
        // Node 1 flushes; node 2 dies before flushing.
        m.on_event(
            1,
            0,
            HomeEvent::Flush {
                from: 1,
                op: 5,
                data: vec![1],
                keep: false,
            },
        );
        let acts = m.on_event(
            2,
            0,
            HomeEvent::PeerDown {
                dead: 2,
                view_epoch: 1,
            },
        );
        assert!(acts.contains(&HomeAction::Count(Counter::EpochsAborted)));
        assert!(acts.contains(&HomeAction::Count(Counter::SharersPruned)));
        // The parked write was re-serviced: home is sole owner again and the
        // local writer woke.
        assert!(acts.contains(&HomeAction::Wake(9)));
        assert_eq!(m.state(), &DirState::Unshared);
        assert!(m.transient().is_none());
    }

    #[test]
    fn stale_flush_from_dead_peer_is_not_reduced() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Operate(5)));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(
            1,
            0,
            HomeEvent::PeerDown {
                dead: 1,
                view_epoch: 1,
            },
        );
        // Epoch 1's only contributor is gone; a successor takes exclusive
        // ownership.
        m.on_event(2, 0, remote(2, Kind::Write));
        m.on_event(2, 0, HomeEvent::Drained);
        assert_eq!(m.state(), &DirState::Dirty { owner: 2 });
        // A straggler flush from the dead node must not be applied over the
        // new owner's data.
        let acts = m.on_event(
            3,
            0,
            HomeEvent::Flush {
                from: 1,
                op: 5,
                data: vec![1],
                keep: false,
            },
        );
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, HomeAction::ApplyFlushData { .. })),
            "stale operand flush of an aborted epoch was reduced: {acts:?}"
        );
        assert_eq!(m.state(), &DirState::Dirty { owner: 2 });
    }

    #[test]
    fn dead_peer_requests_and_acks_are_rejected() {
        let mut m = M::new();
        m.on_event(
            0,
            0,
            HomeEvent::PeerDown {
                dead: 1,
                view_epoch: 1,
            },
        );
        assert!(m.is_dead(1));
        assert_eq!(m.view_epoch(), 1);
        let acts = m.on_event(1, 0, remote(1, Kind::Write));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, HomeAction::SendFill { .. })));
        assert_eq!(m.state(), &DirState::Unshared);
        assert_eq!(m.pending_len(), 0);
        // A replayed declaration carrying an already-applied epoch stamp is
        // fenced: nothing but the stale-event trace comes back.
        let acts = m.on_event(
            2,
            0,
            HomeEvent::PeerDown {
                dead: 1,
                view_epoch: 1,
            },
        );
        assert!(acts
            .iter()
            .all(|a| matches!(a, HomeAction::Trace(t) if t.trigger == "stale-peer-down-epoch")));
        assert!(!acts.is_empty());
        // A later epoch naming the same (already dead) node advances the
        // fence but changes no protocol state.
        let acts = m.on_event(
            3,
            0,
            HomeEvent::PeerDown {
                dead: 1,
                view_epoch: 2,
            },
        );
        assert!(acts.is_empty());
        assert_eq!(m.view_epoch(), 2);
    }

    #[test]
    fn peer_down_prunes_waiting_inv_ack() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Read));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(0, 0, remote(2, Kind::Read));
        // Local write: both sharers must be invalidated.
        m.on_event(0, 0, local(7, Kind::Write));
        assert!(matches!(m.transient(), Transient::AwaitInvAcks { .. }));
        m.on_event(1, 0, HomeEvent::InvAck { from: 1 });
        // Node 2 dies instead of acking: the epoch completes and the local
        // writer is granted.
        let acts = m.on_event(
            2,
            0,
            HomeEvent::PeerDown {
                dead: 2,
                view_epoch: 1,
            },
        );
        assert!(acts.contains(&HomeAction::Count(Counter::SharersPruned)));
        assert!(acts.contains(&HomeAction::Wake(7)));
        assert_eq!(m.state(), &DirState::Unshared);
    }

    #[test]
    fn epoch_ids_are_distinct_across_reopens() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Operate(5)));
        m.on_event(0, 0, HomeEvent::Drained);
        assert_eq!(m.epoch(), 1);
        // Close epoch 1 via recall + flush.
        m.on_event(0, 0, remote(2, Kind::Read));
        m.on_event(
            0,
            0,
            HomeEvent::Flush {
                from: 1,
                op: 5,
                data: vec![1],
                keep: false,
            },
        );
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(0, 0, HomeEvent::EvictNotice { from: 2 });
        // Reopen the same operator: a fresh epoch id.
        m.on_event(1, 0, remote(1, Kind::Operate(5)));
        m.on_event(1, 0, HomeEvent::Drained);
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn sharer_bookkeeping() {
        let mut m = M::new();
        m.state = DirState::Shared { sharers: vec![] };
        m.add_sharer(2);
        m.add_sharer(5);
        m.add_sharer(2); // idempotent
        assert_eq!(
            m.state,
            DirState::Shared {
                sharers: vec![2, 5]
            }
        );
        assert!(!m.remove_sharer(2));
        assert!(m.remove_sharer(5));
        assert!(m.remove_sharer(7), "removing from empty set reports empty");
    }

    /// Drive a durable machine to the recalled-writeback point: node 1 owns
    /// the chunk Dirty, node 2's read recalls it, the writeback arrives.
    fn durable_at_writeback() -> M {
        let mut m = M::new();
        m.set_durable(true);
        m.on_event(0, 0, remote(1, Kind::Write));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(0, 0, remote(2, Kind::Read));
        m.on_event(
            0,
            0,
            HomeEvent::Writeback {
                from: 1,
                downgrade: true,
                direct: false,
            },
        );
        m
    }

    #[test]
    fn durable_writeback_persists_before_ack() {
        let mut m = durable_at_writeback();
        // The writeback completed the wait, but the machine must now be
        // parked on the persist — the requester (node 2) not yet filled.
        assert_eq!(m.transient(), &Transient::AwaitPersist { seq: 1 });
        assert!(m.has_current(), "requester stays parked across the persist");
        // Confirmation releases the parked request and counts the persist.
        let acts = m.on_event(0, 0, HomeEvent::PersistDone { seq: 1 });
        assert!(acts.contains(&HomeAction::Count(Counter::FlushPersists)));
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::SendFill {
                to: 2,
                exclusive: false,
                ..
            }
        )));
        assert!(m.transient().is_none());
    }

    #[test]
    fn stale_persist_done_is_ignored() {
        let mut m = durable_at_writeback();
        assert_eq!(m.transient(), &Transient::AwaitPersist { seq: 1 });
        // A confirmation from before the awaited sequence changes nothing.
        let acts = m.on_event(0, 0, HomeEvent::PersistDone { seq: 0 });
        assert!(!acts.contains(&HomeAction::Count(Counter::FlushPersists)));
        assert_eq!(m.transient(), &Transient::AwaitPersist { seq: 1 });
        // A later (covering) confirmation completes it.
        let acts = m.on_event(0, 0, HomeEvent::PersistDone { seq: 5 });
        assert!(acts.contains(&HomeAction::Count(Counter::FlushPersists)));
        assert!(m.transient().is_none());
        // And once stable, any further confirmation is stale.
        let acts = m.on_event(0, 0, HomeEvent::PersistDone { seq: 5 });
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Trace(Transition {
                trigger: "stale-persist-done",
                ..
            })
        )));
    }

    #[test]
    fn durable_voluntary_writeback_persists_idle() {
        let mut m = M::new();
        m.set_durable(true);
        m.on_event(0, 0, remote(1, Kind::Write));
        m.on_event(0, 0, HomeEvent::Drained);
        // Node 1 evicts voluntarily: no requester waits, but the machine
        // still persists the new image before servicing anything further.
        let acts = m.on_event(
            0,
            0,
            HomeEvent::Writeback {
                from: 1,
                downgrade: false,
                direct: false,
            },
        );
        assert!(acts.contains(&HomeAction::PersistChunk { seq: 1 }));
        assert_eq!(m.transient(), &Transient::AwaitPersist { seq: 1 });
        m.on_event(0, 0, HomeEvent::PersistDone { seq: 1 });
        assert!(m.transient().is_none());
        assert_eq!(m.state(), &DirState::Unshared);
    }

    /// An unsolicited downgrade writeback from the Dirty owner (an intent
    /// unlock that keeps its copy) leaves the owner the one sharer and the
    /// home dentry Shared.
    #[test]
    fn a_voluntary_downgrade_leaves_the_owner_sharing() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Write));
        m.on_event(0, 0, HomeEvent::Drained);
        let downgrade = HomeEvent::Writeback {
            from: 1,
            downgrade: true,
            direct: false,
        };
        let acts = m.on_event(0, 0, downgrade.clone());
        assert_eq!(
            acts,
            [
                HomeAction::Trace(Transition {
                    from: "Dirty",
                    to: "Shared",
                    trigger: "voluntary-downgrade",
                }),
                HomeAction::SetHomeLocal {
                    state: LocalState::Shared,
                    tag: NOTAG,
                },
            ]
        );
        assert_eq!(m.state(), &DirState::Shared { sharers: vec![1] });
        assert!(m.transient().is_none());
        // A second notice is stale: the sender no longer owns the chunk.
        assert!(m.on_event(0, 0, downgrade).is_empty());
        assert_eq!(m.state(), &DirState::Shared { sharers: vec![1] });
    }

    /// A durable machine persists a voluntary downgrade before it serves
    /// the next request: node 2's write queues behind the persist, and
    /// only then invalidates node 1's kept copy.
    #[test]
    fn durable_voluntary_downgrade_persists_before_the_next_request() {
        let mut m = M::new();
        m.set_durable(true);
        m.on_event(0, 0, remote(1, Kind::Write));
        m.on_event(0, 0, HomeEvent::Drained);
        let acts = m.on_event(
            0,
            0,
            HomeEvent::Writeback {
                from: 1,
                downgrade: true,
                direct: false,
            },
        );
        assert!(acts.contains(&HomeAction::PersistChunk { seq: 1 }));
        assert_eq!(m.transient(), &Transient::AwaitPersist { seq: 1 });
        assert!(m.on_event(0, 0, remote(2, Kind::Write)).is_empty());
        assert_eq!(m.pending_len(), 1);
        let acts = m.on_event(0, 0, HomeEvent::PersistDone { seq: 1 });
        assert!(acts.contains(&HomeAction::Count(Counter::FlushPersists)));
        assert!(acts.contains(&HomeAction::Send {
            to: 1,
            msg: Msg::Invalidate
        }));
        assert_eq!(m.transient(), &Transient::AwaitInvAcks { waiting: vec![1] });
    }

    #[test]
    fn non_durable_machine_never_persists() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Write));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(0, 0, remote(2, Kind::Read));
        let acts = m.on_event(
            0,
            0,
            HomeEvent::Writeback {
                from: 1,
                downgrade: true,
                direct: false,
            },
        );
        assert!(!acts
            .iter()
            .any(|a| matches!(a, HomeAction::PersistChunk { .. })));
        assert!(m.transient().is_none(), "completes without a persist wait");
        assert_eq!(m.persist_seq(), 0);
    }

    #[test]
    fn durable_flushes_complete_persists_before_ack() {
        let mut m = M::new();
        m.set_durable(true);
        m.on_event(0, 0, remote(1, Kind::Operate(5)));
        m.on_event(0, 0, HomeEvent::Drained);
        // A read closes the epoch: recall, then the flush arrives.
        m.on_event(0, 0, remote(2, Kind::Read));
        let acts = m.on_event(
            0,
            0,
            HomeEvent::Flush {
                from: 1,
                op: 5,
                data: vec![1],
                keep: false,
            },
        );
        // Reduce first, then persist the reduced image; the read stays
        // parked until the log confirms.
        let reduce_at = acts
            .iter()
            .position(|a| matches!(a, HomeAction::ApplyFlushData { .. }))
            .expect("flush data reduced");
        let persist_at = acts
            .iter()
            .position(|a| matches!(a, HomeAction::PersistChunk { .. }))
            .expect("reduced image persisted");
        assert!(reduce_at < persist_at, "persist covers the reduction");
        assert_eq!(m.transient(), &Transient::AwaitPersist { seq: 1 });
        let acts = m.on_event(0, 0, HomeEvent::PersistDone { seq: 1 });
        assert!(acts
            .iter()
            .any(|a| matches!(a, HomeAction::StartHomeDrain { .. })));
    }

    #[test]
    fn peer_restart_unfences_the_identity() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Write));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(
            0,
            0,
            HomeEvent::PeerDown {
                dead: 1,
                view_epoch: 1,
            },
        );
        assert!(m.is_dead(1));
        // Its events are fenced while dead.
        let acts = m.on_event(0, 0, remote(1, Kind::Read));
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Trace(Transition {
                trigger: "stale-event-from-dead-peer",
                ..
            })
        )));
        // A stale restart admission (epoch not newer) is fenced.
        let acts = m.on_event(
            0,
            0,
            HomeEvent::PeerRestarted {
                node: 1,
                view_epoch: 1,
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Trace(Transition {
                trigger: "stale-peer-restart-epoch",
                ..
            })
        )));
        assert!(m.is_dead(1));
        // A properly-bumped admission un-deadens it; fresh requests work.
        m.on_event(
            0,
            0,
            HomeEvent::PeerRestarted {
                node: 1,
                view_epoch: 2,
            },
        );
        assert!(!m.is_dead(1));
        assert_eq!(m.view_epoch(), 2);
        let acts = m.on_event(0, 0, remote(1, Kind::Read));
        assert!(acts
            .iter()
            .any(|a| matches!(a, HomeAction::StartHomeDrain { .. })));
    }

    #[test]
    fn persist_wait_survives_unrelated_peer_down() {
        // A PeerDown landing while a persist is in flight must not abandon
        // the wait: the persist is local, not owed by any peer.
        let mut m = durable_at_writeback();
        assert_eq!(m.transient(), &Transient::AwaitPersist { seq: 1 });
        m.on_event(
            0,
            0,
            HomeEvent::PeerDown {
                dead: 3,
                view_epoch: 1,
            },
        );
        assert_eq!(m.transient(), &Transient::AwaitPersist { seq: 1 });
        let acts = m.on_event(0, 0, HomeEvent::PersistDone { seq: 1 });
        assert!(acts.contains(&HomeAction::Count(Counter::FlushPersists)));
    }

    // ---- chunk migration (DESIGN.md §15) ----

    /// Drive a fresh source machine through the drain up to the transfer;
    /// returns the machine waiting for the target's ack.
    fn source_awaiting_ack(to: NodeId) -> M {
        let mut m = M::new();
        let acts = m.on_event(0, 0, HomeEvent::BeginMigration { to });
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::StartHomeDrain {
                target: LocalState::Invalid,
                ..
            }
        )));
        let acts = m.on_event(0, 0, HomeEvent::Drained);
        assert!(acts.contains(&HomeAction::TransferChunk { to, mig_epoch: 1 }));
        assert_eq!(m.transient(), &Transient::MigratingOut { to, mig_epoch: 1 });
        m
    }

    #[test]
    fn migration_source_happy_path_departs_on_ack() {
        let mut m = source_awaiting_ack(2);
        let acts = m.on_event(
            0,
            0,
            HomeEvent::MigrateAck {
                from: 2,
                mig_epoch: 1,
            },
        );
        assert!(acts.contains(&HomeAction::Send {
            to: 2,
            msg: Msg::MigrateCommit { mig_epoch: 1 }
        }));
        assert!(acts.contains(&HomeAction::DepartChunk {
            to: 2,
            mig_epoch: 1
        }));
        assert!(acts.contains(&HomeAction::Count(Counter::MigrationsOut)));
        assert_eq!(m.migrated_to(), Some((2, 1)));
        assert!(m.transient().is_none());
    }

    #[test]
    fn migration_recall_revokes_every_right_first() {
        let mut m = M::new();
        // Two sharers hold the chunk when the migration is requested.
        m.on_event(0, 0, remote(1, Kind::Read));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(0, 0, remote(2, Kind::Read));
        let acts = m.on_event(0, 0, HomeEvent::BeginMigration { to: 3 });
        let invs = acts
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    HomeAction::Send {
                        msg: Msg::Invalidate,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(invs, 2, "both sharers recalled: {acts:?}");
        assert!(matches!(m.transient(), Transient::AwaitInvAcks { .. }));
        assert_eq!(m.migrating_to(), Some(3));
        // No transfer may happen until the last right is revoked.
        let acts = m.on_event(0, 0, HomeEvent::InvAck { from: 1 });
        assert!(acts
            .iter()
            .all(|a| !matches!(a, HomeAction::StartHomeDrain { .. })));
        let acts = m.on_event(0, 0, HomeEvent::InvAck { from: 2 });
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::StartHomeDrain {
                target: LocalState::Invalid,
                ..
            }
        )));
        assert_eq!(m.state(), &DirState::Unshared);
        let acts = m.on_event(0, 0, HomeEvent::Drained);
        assert!(acts.contains(&HomeAction::TransferChunk {
            to: 3,
            mig_epoch: 1
        }));
    }

    #[test]
    fn migration_recall_pulls_dirty_data_home() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Write));
        m.on_event(0, 0, HomeEvent::Drained);
        assert_eq!(m.state(), &DirState::Dirty { owner: 1 });
        let acts = m.on_event(0, 0, HomeEvent::BeginMigration { to: 2 });
        assert!(acts.contains(&HomeAction::Send {
            to: 1,
            msg: Msg::RecallDirty
        }));
        // The owner's writeback lands the dirty image in the home slot —
        // exactly what the transfer will ship.
        let acts = m.on_event(
            0,
            0,
            HomeEvent::Writeback {
                from: 1,
                downgrade: false,
                direct: false,
            },
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::StartHomeDrain {
                target: LocalState::Invalid,
                ..
            }
        )));
        let acts = m.on_event(0, 0, HomeEvent::Drained);
        assert!(acts.contains(&HomeAction::TransferChunk {
            to: 2,
            mig_epoch: 1
        }));
    }

    #[test]
    fn migration_of_an_operated_chunk_reduces_every_flush_before_transfer() {
        let mut m = M::new();
        // Nodes 1 and 2 both operate under operator 5.
        m.on_event(0, 0, remote(1, Kind::Operate(5)));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(0, 0, remote(2, Kind::Operate(5)));
        let acts = m.on_event(0, 0, HomeEvent::BeginMigration { to: 3 });
        for n in [1, 2] {
            assert!(
                acts.contains(&HomeAction::Send {
                    to: n,
                    msg: Msg::RecallOperated { op: 5 }
                }),
                "operator {n} recalled: {acts:?}"
            );
        }
        let flush = |from| HomeEvent::Flush {
            from,
            op: 5,
            data: vec![1],
            keep: false,
        };
        // The first flush is reduced, but the recall still waits on node 2.
        let acts = m.on_event(0, 0, flush(1));
        assert!(acts.contains(&HomeAction::ApplyFlushData {
            op: 5,
            data: vec![1]
        }));
        assert!(acts
            .iter()
            .all(|a| !matches!(a, HomeAction::StartHomeDrain { .. })));
        // The last flush is reduced, and only then does the home drain.
        let acts = m.on_event(0, 0, flush(2));
        let reduce_at = acts
            .iter()
            .position(|a| {
                *a == HomeAction::ApplyFlushData {
                    op: 5,
                    data: vec![1],
                }
            })
            .expect("last flush reduced");
        let drain_at = acts
            .iter()
            .position(|a| {
                matches!(
                    a,
                    HomeAction::StartHomeDrain {
                        target: LocalState::Invalid,
                        ..
                    }
                )
            })
            .expect("home drained once every operand is home");
        assert!(reduce_at < drain_at, "{acts:?}");
        assert_eq!(m.state(), &DirState::Unshared);
        let acts = m.on_event(0, 0, HomeEvent::Drained);
        assert!(acts
            .iter()
            .any(|a| matches!(a, HomeAction::TransferChunk { to: 3, .. })));
    }

    #[test]
    fn migration_to_the_dirty_owner_recalls_it_first() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Write));
        m.on_event(0, 0, HomeEvent::Drained);
        assert_eq!(m.state(), &DirState::Dirty { owner: 1 });
        // Moving the chunk to its own Dirty owner still pulls the dirty
        // image home: the transfer ships the home slot, not the cacheline.
        let mut acts = m.on_event(0, 0, HomeEvent::BeginMigration { to: 1 });
        assert!(acts.contains(&HomeAction::Send {
            to: 1,
            msg: Msg::RecallDirty
        }));
        assert!(acts
            .iter()
            .all(|a| !matches!(a, HomeAction::TransferChunk { .. })));
        acts.extend(m.on_event(
            0,
            0,
            HomeEvent::Writeback {
                from: 1,
                downgrade: false,
                direct: false,
            },
        ));
        acts.extend(m.on_event(0, 0, HomeEvent::Drained));
        assert!(acts
            .iter()
            .any(|a| matches!(a, HomeAction::TransferChunk { to: 1, .. })));
        assert!(
            acts.iter()
                .all(|a| !matches!(a, HomeAction::SendFill { .. })),
            "{acts:?}"
        );
    }

    #[test]
    fn migration_skips_the_grace_window() {
        let mut m = M::new();
        m.on_event(0, 1_000, remote(1, Kind::Write));
        m.on_event(1_000, 1_000, HomeEvent::Drained);
        // The fresh grant's window defers a competing read...
        m.on_event(1_010, 1_000, remote(2, Kind::Read));
        assert_eq!(m.transient(), &Transient::GraceWait);
        // ...but not the migration, which recalls the owner at once.
        let acts = m.on_event(1_020, 1_000, HomeEvent::BeginMigration { to: 3 });
        assert!(acts.contains(&HomeAction::Send {
            to: 1,
            msg: Msg::RecallDirty
        }));
        assert!(acts
            .iter()
            .all(|a| !matches!(a, HomeAction::ScheduleRetry { .. })));
        assert_eq!(m.transient(), &Transient::AwaitWriteback { from: 1 });
    }

    #[test]
    fn migration_epoch_outranks_every_source_persist() {
        let mut m = M::new();
        m.set_durable(true);
        let mut persisted = Vec::new();
        let mut transfers = Vec::new();
        // Feed one event, answer every persist it asks for, and record the
        // persist sequences and transfer epochs the source emitted.
        let mut feed = |m: &mut M, ev| {
            let mut queue = vec![ev];
            while let Some(ev) = queue.pop() {
                for a in m.on_event(0, 0, ev) {
                    match a {
                        HomeAction::PersistChunk { seq } => {
                            persisted.push(seq);
                            queue.push(HomeEvent::PersistDone { seq });
                        }
                        HomeAction::TransferChunk { mig_epoch, .. } => transfers.push(mig_epoch),
                        _ => {}
                    }
                }
            }
        };
        // A voluntary writeback persists before the migration starts.
        feed(&mut m, remote(1, Kind::Write));
        feed(&mut m, HomeEvent::Drained);
        let wb = |from| HomeEvent::Writeback {
            from,
            downgrade: false,
            direct: false,
        };
        feed(&mut m, wb(1));
        // Node 2 holds the chunk Dirty when the migration asks for it, so
        // the migration's recall pulls a writeback home first.
        feed(&mut m, remote(2, Kind::Write));
        feed(&mut m, HomeEvent::Drained);
        feed(&mut m, HomeEvent::BeginMigration { to: 3 });
        feed(&mut m, wb(2));
        feed(&mut m, HomeEvent::Drained);
        assert!(!persisted.is_empty());
        let [epoch] = transfers[..] else {
            panic!("expected one transfer, got {transfers:?}");
        };
        assert!(
            persisted.iter().all(|&seq| seq < epoch),
            "fence epoch {epoch} must outrank every persist {persisted:?}"
        );
    }

    #[test]
    fn migration_parks_requests_behind_the_fence_and_forwards_after() {
        let mut m = source_awaiting_ack(2);
        // Requests arriving under the fence park — no fill, no wake.
        let acts = m.on_event(0, 0, remote(1, Kind::Read));
        assert!(acts
            .iter()
            .all(|a| !matches!(a, HomeAction::SendFill { .. } | HomeAction::Wake(_))));
        assert_eq!(m.pending_len(), 1);
        let acts = m.on_event(
            0,
            0,
            HomeEvent::MigrateAck {
                from: 2,
                mig_epoch: 1,
            },
        );
        // The parked remote request replays as a forward to the new home.
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Send {
                to: 2,
                msg: Msg::MigrateForward {
                    requester: 1,
                    kind: Kind::Read,
                    ..
                }
            }
        )));
        assert!(acts.contains(&HomeAction::Count(Counter::ParkedReplays)));
        // Post-departure traffic is forwarded too, never served here.
        let acts = m.on_event(0, 0, remote(3, Kind::Write));
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Send {
                to: 2,
                msg: Msg::MigrateForward {
                    requester: 3,
                    kind: Kind::Write,
                    ..
                }
            }
        )));
        // A parked *local* waiter wakes instead (the caller re-resolves the
        // home map and retries against the new home).
        let acts = m.on_event(0, 0, local(9, Kind::Read));
        assert!(acts.contains(&HomeAction::Wake(9)));
    }

    /// The redirect a former home sends pairs the new home and fence epoch
    /// it committed to. After A→B→C, A's home map reads C at the newer
    /// epoch; pairing B with that epoch would pin a requester to B.
    #[test]
    fn former_home_redirect_pairs_its_own_home_and_epoch() {
        let mut m = M::new();
        // A recovered log left the persist sequence at 6, so the fence
        // epoch of this move is 7.
        m.resume_persist_seq(6);
        m.on_event(0, 0, HomeEvent::BeginMigration { to: 2 });
        let acts = m.on_event(0, 0, HomeEvent::Drained);
        assert!(acts.contains(&HomeAction::TransferChunk {
            to: 2,
            mig_epoch: 7
        }));
        m.on_event(
            0,
            0,
            HomeEvent::MigrateAck {
                from: 2,
                mig_epoch: 7,
            },
        );
        assert_eq!(m.migrated_to(), Some((2, 7)));
        let acts = m.on_event(
            0,
            0,
            HomeEvent::Request(Request {
                source: Requester::Remote {
                    node: 3,
                    dst_off: 64,
                },
                kind: Kind::Write,
            }),
        );
        assert_eq!(
            acts[..2],
            [
                HomeAction::Send {
                    to: 2,
                    msg: Msg::MigrateForward {
                        requester: 3,
                        dst_off: 64,
                        kind: Kind::Write,
                    },
                },
                HomeAction::Send {
                    to: 3,
                    msg: Msg::HomeMoved {
                        new_home: 2,
                        epoch: 7,
                    },
                },
            ]
        );
    }

    #[test]
    fn migration_target_acks_then_adopts_on_commit() {
        let mut m = M::new();
        let acts = m.on_event(
            0,
            0,
            HomeEvent::MigrateData {
                from: 0,
                mig_epoch: 5,
            },
        );
        // Non-durable: ack immediately, then wait for the commit.
        assert!(acts.contains(&HomeAction::Send {
            to: 0,
            msg: Msg::MigrateAck { mig_epoch: 5 }
        }));
        assert_eq!(m.transient().name(), "MigratingIn:AwaitCommit");
        // Requests park while the source is still authoritative.
        m.on_event(0, 0, remote(3, Kind::Read));
        assert_eq!(m.pending_len(), 1);
        let acts = m.on_event(
            0,
            0,
            HomeEvent::MigrateCommit {
                from: 0,
                mig_epoch: 5,
            },
        );
        assert!(acts.contains(&HomeAction::AdoptChunk { mig_epoch: 5 }));
        assert!(acts.contains(&HomeAction::Count(Counter::MigrationsIn)));
        assert!(acts.contains(&HomeAction::Count(Counter::ParkedReplays)));
        // The parked request is now served by the adopted home.
        assert!(acts
            .iter()
            .any(|a| matches!(a, HomeAction::StartHomeDrain { .. })));
        assert!(m.migrated_to().is_none());
        // The fence epoch was adopted as a burned persist sequence: a later
        // persist must outrank every record the source ever logged.
        assert!(m.persist_seq() >= 5);
    }

    #[test]
    fn durable_migration_target_persists_before_ack() {
        let mut m = M::new();
        m.set_durable(true);
        let acts = m.on_event(
            0,
            0,
            HomeEvent::MigrateData {
                from: 0,
                mig_epoch: 3,
            },
        );
        // Persist-before-ack: the transferred image must be on this log
        // before the source is told it may stop being authoritative.
        assert!(acts
            .iter()
            .any(|a| matches!(a, HomeAction::PersistChunk { seq } if *seq >= 3)));
        assert!(acts.iter().all(|a| !matches!(
            a,
            HomeAction::Send {
                msg: Msg::MigrateAck { .. },
                ..
            }
        )));
        assert_eq!(m.transient().name(), "MigratingIn:Persist");
        let acts = m.on_event(0, 0, HomeEvent::PersistDone { seq: 3 });
        assert!(acts.contains(&HomeAction::Send {
            to: 0,
            msg: Msg::MigrateAck { mig_epoch: 3 }
        }));
        assert_eq!(m.transient().name(), "MigratingIn:AwaitCommit");
    }

    #[test]
    fn source_reassumes_when_target_dies_before_ack() {
        let mut m = source_awaiting_ack(2);
        let acts = m.on_event(
            0,
            0,
            HomeEvent::PeerDown {
                dead: 2,
                view_epoch: 1,
            },
        );
        // The target never served anyone, so the source re-assumes.
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Trace(Transition {
                trigger: "migration-aborted-target-dead",
                ..
            })
        )));
        assert!(acts.contains(&HomeAction::SetHomeLocal {
            state: LocalState::Exclusive,
            tag: NOTAG,
        }));
        assert!(m.transient().is_none());
        assert!(m.migrated_to().is_none());
        // And the chunk serves requests again.
        let acts = m.on_event(0, 0, remote(1, Kind::Read));
        assert!(acts
            .iter()
            .any(|a| matches!(a, HomeAction::StartHomeDrain { .. })));
    }

    #[test]
    fn target_death_during_recall_aborts_at_completion() {
        let mut m = M::new();
        m.on_event(0, 0, remote(1, Kind::Read));
        m.on_event(0, 0, HomeEvent::Drained);
        m.on_event(0, 0, HomeEvent::BeginMigration { to: 2 });
        assert!(matches!(m.transient(), Transient::AwaitInvAcks { .. }));
        assert_eq!(m.migrating_to(), Some(2));
        m.on_event(
            0,
            0,
            HomeEvent::PeerDown {
                dead: 2,
                view_epoch: 1,
            },
        );
        // The recall still waits on node 1; the target-death check fires
        // when the set empties.
        let acts = m.on_event(0, 0, HomeEvent::InvAck { from: 1 });
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Trace(Transition {
                trigger: "migration-aborted-target-dead",
                ..
            })
        )));
        assert!(m.transient().is_none());
    }

    #[test]
    fn target_adopts_when_source_dies_awaiting_commit() {
        let mut m = M::new();
        m.on_event(
            0,
            0,
            HomeEvent::MigrateData {
                from: 0,
                mig_epoch: 4,
            },
        );
        assert_eq!(m.transient().name(), "MigratingIn:AwaitCommit");
        // The quorum-confirmed source death doubles as the commit: the
        // source acked its hand-off and can never serve again.
        let acts = m.on_event(
            0,
            0,
            HomeEvent::PeerDown {
                dead: 0,
                view_epoch: 1,
            },
        );
        assert!(acts.contains(&HomeAction::AdoptChunk { mig_epoch: 4 }));
        assert!(acts.contains(&HomeAction::Count(Counter::MigrationsIn)));
    }

    #[test]
    fn stale_migration_messages_are_fenced_by_epoch() {
        let mut m = source_awaiting_ack(2);
        // An ack stamped with a different fence epoch is a straggler of an
        // older migration attempt: ignored, the transfer wait continues.
        let acts = m.on_event(
            0,
            0,
            HomeEvent::MigrateAck {
                from: 2,
                mig_epoch: 99,
            },
        );
        assert!(acts
            .iter()
            .all(|a| !matches!(a, HomeAction::DepartChunk { .. })));
        assert_eq!(
            m.transient(),
            &Transient::MigratingOut {
                to: 2,
                mig_epoch: 1
            }
        );
        // A second BeginMigration under an active migration is rejected.
        let acts = m.on_event(0, 0, HomeEvent::BeginMigration { to: 3 });
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Trace(Transition {
                trigger: "stale-begin-migration",
                ..
            })
        )));
    }

    #[test]
    fn begin_migration_to_dead_target_is_rejected() {
        let mut m = M::new();
        m.on_event(
            0,
            0,
            HomeEvent::PeerDown {
                dead: 2,
                view_epoch: 1,
            },
        );
        let acts = m.on_event(0, 0, HomeEvent::BeginMigration { to: 2 });
        assert!(acts.iter().any(|a| matches!(
            a,
            HomeAction::Trace(Transition {
                trigger: "migration-target-dead",
                ..
            })
        )));
        assert!(m.transient().is_none());
        assert!(m.migrated_to().is_none());
    }

    /// Model-checker counterexample regression: a migration queued while a
    /// remote write's HomeDrain is in flight must let that grant complete
    /// first. The grant paths pre-commit the directory state (here
    /// `Dirty{owner:2}`) before the drain, so starting the fence at the
    /// Drained edge would recall from an "owner" whose fill never left —
    /// the owner ignores the recall as a crossing message and the
    /// migration waits forever.
    #[test]
    fn migration_queued_during_grant_drain_fills_before_recalling() {
        let mut m = M::new();
        m.on_event(0, 0, remote(2, Kind::Write));
        assert_eq!(m.state(), &DirState::Dirty { owner: 2 });
        assert_eq!(m.transient(), &Transient::HomeDrain);
        // The fence arrives mid-drain and parks.
        let acts = m.on_event(0, 0, HomeEvent::BeginMigration { to: 1 });
        assert!(acts.iter().all(|a| !matches!(
            a,
            HomeAction::Send {
                msg: Msg::RecallDirty,
                ..
            }
        )));
        // The drain edge grants the parked fill BEFORE the recall, on the
        // same FIFO link, so the owner sees Fill then RecallDirty in order.
        let acts = m.on_event(1, 0, HomeEvent::Drained);
        let fill_at = acts.iter().position(|a| {
            matches!(
                a,
                HomeAction::SendFill {
                    to: 2,
                    exclusive: true,
                    ..
                }
            )
        });
        let recall_at = acts.iter().position(|a| {
            matches!(
                a,
                HomeAction::Send {
                    to: 2,
                    msg: Msg::RecallDirty
                }
            )
        });
        assert!(
            fill_at.is_some() && recall_at.is_some() && fill_at < recall_at,
            "fill must precede the migration recall: {acts:?}"
        );
        assert_eq!(m.transient(), &Transient::AwaitWriteback { from: 2 });
        assert_eq!(m.migrating_to(), Some(1));
        // The writeback answers the recall and the transfer proceeds.
        let acts = m.on_event(
            2,
            0,
            HomeEvent::Writeback {
                from: 2,
                downgrade: false,
                direct: false,
            },
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, HomeAction::StartHomeDrain { .. })));
    }
}
