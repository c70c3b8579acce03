//! Communication layer (§3.1, §4.5): the adapter between runtime threads
//! and the network, speaking only the backend-agnostic
//! [`Transport`] trait (simulated NIC by default, real TCP sockets behind
//! the `tcp-transport` feature — DESIGN.md §13).
//!
//! An **Rx thread** per node polls the transport's receive queue and routes each
//! protocol message to the runtime thread owning the message's chunk. **Tx
//! threads** are optional (`ClusterConfig::tx_threads`): when enabled,
//! runtime threads enqueue RDMA requests on the RDMA-request queue and a
//! dedicated Tx thread posts them (the paper's design, which reduces queue
//! pairs from n²·t to n²·c); when disabled, the runtime posts inline and
//! pays the posting cost itself.
//!
//! ## Reliable delivery (fault mode)
//!
//! When `ClusterConfig::fault` is set the fabric may jitter, stall, or drop
//! messages and crash whole nodes, so the layer switches to a reliable
//! channel run by one **reliability agent** thread per node:
//!
//! * Every outgoing protocol RPC is tagged with a per-(sender → receiver)
//!   **sequence number** and tracked until a cumulative ack covers it.
//! * The agent sleeps with [`Mailbox::recv_deadline`]; when the oldest
//!   unacked message's timer expires it **retransmits** the SEND with
//!   exponential backoff. One-sided WRITEs are *not* retransmitted: the
//!   fault model never drops them, and re-writing a buffer the receiver may
//!   already be using would corrupt it — only the notification SEND repeats,
//!   which is idempotent.
//! * The Rx thread delivers each link's messages **in sequence order**
//!   (buffering out-of-order arrivals), so the coherence protocol above
//!   keeps its RC-FIFO assumptions verbatim, and **suppresses duplicates**
//!   from retransmissions — re-acking them, since a duplicate usually means
//!   the previous ack was lost.
//! * The agent keeps one [`Link`] per peer (sequence counter, unacked
//!   queue, suspicion, heartbeat stamp); the Rx thread forwards it every
//!   ack and membership frame as received ([`RelMsg::Heard`]).
//!
//! ## Lease membership and quorum death declarations (DESIGN.md §12)
//!
//! The agent is also the node's failure detector, and it never declares a
//! peer dead on its own:
//!
//! * Every message the Rx thread receives renews the sender's **lease**
//!   (`MembershipView::note_heard`); the agent sends an explicit
//!   `Heartbeat` toward any peer it has been idle with for
//!   `FaultConfig::heartbeat_ns`, so leases stay fresh on idle links.
//! * A message retried past `FaultConfig::max_retries` makes the peer
//!   **Suspected**, not dead. If the suspect's own incoming lease is still
//!   fresh the suspicion is refuted on the spot (the loss is one-way — it
//!   can hear us or at least we can hear it) and retransmission continues.
//! * Otherwise the agent **polls** the rest of the cluster with
//!   `SuspectQuery`; peers vote `alive` iff their own lease on the suspect
//!   is fresh. A majority of the electorate (everyone but the suspect, the
//!   suspector counting itself) confirms the death; a single `alive` vote
//!   refutes it. After `suspect_poll_rounds` rounds, silent voters that
//!   are themselves Suspected or Dead in the local view abstain, so a
//!   shrinking cluster still converges (degenerate quorum).
//! * While a peer is Suspected its outstanding queue is **parked**: no
//!   retransmissions, nothing discarded. A refuted suspicion re-admits the
//!   peer and **replays** every parked SEND (same sequence numbers — the
//!   receiver deduplicates), so a live-but-lossy peer loses nothing. Only
//!   a quorum-confirmed death discards the queue, stamps a fresh
//!   membership epoch, and fans `RtMsg::PeerDown` out to the runtime
//!   threads — the membership view is the *sole* source of those events.

use std::collections::VecDeque;
use std::sync::Arc;

use dsim::{Ctx, Mailbox, VTime};
use rdma_fabric::{MemoryRegion, NodeId, Transport};

use crate::config::FaultConfig;
use crate::membership::{quorum_needed, MembershipView, PeerHealth};
use crate::msg::{Envelope, NetMsg, RtMsg};
use crate::shared::ClusterShared;
use crate::stats::NodeStats;

/// One outbound protocol message: the one-sided WRITE that must land
/// first, if any, then the two-sided notification SEND carrying `env`.
pub(crate) struct Post {
    dst: NodeId,
    write: Option<RdmaWrite>,
    env: Envelope,
}

/// The data a [`Post`] RDMA-writes into `region` at word `offset`.
struct RdmaWrite {
    region: MemoryRegion,
    offset: usize,
    data: Vec<u64>,
}

impl Post {
    /// Post the verbs on `transport`: the WRITE, if any, then the
    /// notification `frame` wraps the envelope in.
    fn transmit(
        self,
        ctx: &mut Ctx,
        transport: &dyn Transport<NetMsg>,
        frame: impl FnOnce(Envelope) -> NetMsg,
    ) {
        let msg = frame(self.env);
        match self.write {
            None => transport.send(ctx, self.dst, msg),
            Some(w) => transport.write_send(ctx, self.dst, &w.region, w.offset, w.data, msg),
        }
    }
}

/// A work request on the RDMA-request queue (runtime → Tx thread).
pub(crate) enum TxReq {
    Post(Post),
    Shutdown,
}

/// A work request for the reliability agent (runtime/Rx → agent).
pub(crate) enum RelMsg {
    /// Reliable post: the WRITE (the fault model never drops one), then a
    /// sequenced, tracked notification.
    Post(Post),
    /// An ack or membership frame (`Ack`, `SuspectQuery`, `SuspectVote`,
    /// `JoinReq`, `JoinVote`) the Rx thread received from `from`, forwarded
    /// as received.
    Heard {
        from: NodeId,
        msg: NetMsg,
    },
    /// Bring the sender side of the reliable link to `peer` up like a cold
    /// boot ([`Link::reset`]). Sent by [`crate::Cluster::restart_peer`]
    /// when a restarted peer is re-admitted; pairs with a
    /// [`crate::shared::RxLink::reset`] on both receiver sides.
    ResetLink {
        peer: NodeId,
    },
    /// This (pre-provisioned, `Joining`) node should announce itself to the
    /// live cluster and collect admit votes. Injected by
    /// [`crate::Cluster::join_peer`]; the agent re-announces every
    /// `suspect_poll_ns` until a quorum of survivors has admitted it
    /// (DESIGN.md §15).
    AnnounceJoin,
    Shutdown,
}

/// Handle the runtime uses to emit network traffic, hiding whether a Tx
/// thread or the reliability agent is in between.
pub(crate) struct CommHandle {
    pub transport: Arc<dyn Transport<NetMsg>>,
    pub tx: Option<Mailbox<TxReq>>,
    /// Reliability agent queue; takes precedence over `tx` for remote
    /// destinations when fault mode is on.
    pub rel: Option<Mailbox<RelMsg>>,
    pub node: NodeId,
}

impl CommHandle {
    /// Two-sided protocol message.
    pub(crate) fn send(&self, ctx: &mut Ctx, dst: NodeId, env: Envelope) {
        self.post(
            ctx,
            Post {
                dst,
                write: None,
                env,
            },
        );
    }

    /// One-sided data WRITE followed by a notification message (RC FIFO
    /// guarantees the data lands first).
    pub(crate) fn write_send(
        &self,
        ctx: &mut Ctx,
        dst: NodeId,
        region: &MemoryRegion,
        offset: usize,
        data: Vec<u64>,
        env: Envelope,
    ) {
        let write = RdmaWrite {
            region: region.clone(),
            offset,
            data,
        };
        self.post(
            ctx,
            Post {
                dst,
                write: Some(write),
                env,
            },
        );
    }

    /// Hand `post` to the reliability agent (remote destinations in fault
    /// mode), else to the Tx thread, else post it inline.
    fn post(&self, ctx: &mut Ctx, post: Post) {
        match (&self.rel, &self.tx) {
            (Some(rel), _) if post.dst != self.node => rel.send(ctx, RelMsg::Post(post), 0),
            (_, Some(tx)) => tx.send(ctx, TxReq::Post(post), 0),
            _ => post.transmit(ctx, &*self.transport, |env| NetMsg::Rpc { env }),
        }
    }
}

/// Body of a Tx thread: drain the RDMA-request queue and post verbs.
pub(crate) fn tx_thread_main(
    ctx: &mut Ctx,
    transport: Arc<dyn Transport<NetMsg>>,
    queue: Mailbox<TxReq>,
) {
    while let TxReq::Post(post) = queue.recv(ctx) {
        post.transmit(ctx, &*transport, |env| NetMsg::Rpc { env });
    }
}

/// An unacked reliable RPC awaiting its cumulative ack.
struct Pending {
    seq: u64,
    env: Envelope,
    deadline: VTime,
    retries: u32,
}

/// Ballot box for this node's own join announcement (held by the joiner's
/// agent while it is still `Joining`).
struct JoinPoll {
    /// `admits[v]` is set once survivor `v` voted to admit us.
    admits: Vec<bool>,
    /// When the next announcement round is due.
    next_announce: VTime,
}

/// Ballot box for one in-flight suspicion, held by the suspector's agent.
struct SuspectPoll {
    /// `votes[v]` is `Some(alive)` once voter `v`'s ballot arrived during
    /// *this* suspicion; a re-admitted peer starts a fresh box (old votes
    /// are fenced by dropping the box).
    votes: Vec<Option<bool>>,
    /// Query rounds sent so far.
    rounds: u32,
    /// When the next poll round (and verdict re-evaluation) is due.
    next_poll: VTime,
}

/// The sender side of this node's reliable link to one peer.
#[derive(Default)]
struct Link {
    /// Sequence number of the next SEND.
    next_seq: u64,
    /// SENDs no cumulative ack has covered yet, oldest first.
    outstanding: VecDeque<Pending>,
    /// The quorum poll of an in-flight suspicion of the peer.
    suspect: Option<SuspectPoll>,
    /// When this node last transmitted to the peer (the heartbeat timer).
    last_sent: VTime,
}

impl Link {
    /// Bring the link up like a cold boot at `now`: an earlier
    /// incarnation's unacked frames carry sequence numbers that are gone
    /// for good, so sequencing restarts from 0, with nothing outstanding
    /// and no suspicion.
    fn reset(&mut self, now: VTime) {
        *self = Link {
            last_sent: now,
            ..Link::default()
        };
    }
}

/// The per-node reliability agent (fault mode only): posts every outgoing
/// RPC with a sequence number, tracks it until acked, retransmits on
/// timeout with exponential backoff, keeps leases alive with idle
/// heartbeats, and runs the suspect → quorum-poll → confirm/refute
/// membership protocol when a retry budget is exhausted (module docs).
struct Agent<'a> {
    shared: &'a ClusterShared,
    node: NodeId,
    transport: &'a dyn Transport<NetMsg>,
    fault: &'a FaultConfig,
    view: &'a MembershipView,
    stats: &'a NodeStats,
    /// `links[peer]`: the sender side of the link to `peer`.
    links: Vec<Link>,
    /// This node's own join ballot box, while it announces itself.
    join: Option<JoinPoll>,
}

/// Body of the per-node reliability agent thread.
pub(crate) fn rel_thread_main(
    ctx: &mut Ctx,
    shared: Arc<ClusterShared>,
    node: NodeId,
    queue: Mailbox<RelMsg>,
) {
    let nodes = shared.cfg.nodes;
    let fault = shared.cfg.fault.as_ref();
    let mut agent = Agent {
        shared: &shared,
        node,
        transport: &*shared.transports[node],
        fault: fault.expect("the agent runs only in fault mode"),
        view: &shared.membership[node],
        stats: &shared.stats[node],
        links: (0..nodes).map(|_| Link::default()).collect(),
        join: None,
    };
    loop {
        let msg = match agent.next_deadline() {
            Some(d) => queue.recv_deadline(ctx, d),
            None => Some(queue.recv(ctx)),
        };
        match msg {
            Some(RelMsg::Post(post)) => agent.post(ctx, post),
            Some(RelMsg::Heard { from, msg }) => agent.heard(ctx, from, msg),
            // The peer restarted: its old incarnation's stream state is
            // void on both ends, so sequencing starts over from 0.
            Some(RelMsg::ResetLink { peer }) => agent.links[peer].reset(ctx.now()),
            // Start (or restart) the announce loop; the first round goes
            // out in the next timer pass.
            Some(RelMsg::AnnounceJoin) => {
                agent.join = Some(JoinPoll {
                    admits: vec![false; nodes],
                    next_announce: ctx.now(),
                })
            }
            Some(RelMsg::Shutdown) => break,
            None => agent.on_timer(ctx),
        }
    }
}

impl Agent<'_> {
    /// The earliest of three timer families: the head retransmit timer of
    /// every live un-suspected link (acks are cumulative, so only heads
    /// matter), the poll timer of every suspicion, and each live link's
    /// next idle heartbeat; plus the next join announcement. Parked
    /// (suspected) queues deliberately have no timer.
    fn next_deadline(&self) -> Option<VTime> {
        let mut next = self.join.as_ref().map(|jp| jp.next_announce);
        for (dst, link) in self.links.iter().enumerate() {
            if dst == self.node || self.view.is_dead(dst) {
                continue;
            }
            let head = match &link.suspect {
                Some(st) => Some(st.next_poll),
                None => link.outstanding.front().map(|p| p.deadline),
            };
            let heartbeat = Some(link.last_sent + self.fault.heartbeat_ns);
            next = [next, head, heartbeat].into_iter().flatten().min();
        }
        next
    }

    /// Post `post` as the next SEND of its link and track it until acked.
    fn post(&mut self, ctx: &mut Ctx, post: Post) {
        let dst = post.dst;
        if self.view.is_dead(dst) {
            return; // fail-stop: traffic to a dead peer is dropped
        }
        // Posted even toward a Suspected peer: a WRITE always lands (the
        // fault model never drops one-sided verbs), and the notification
        // is tracked like any other — parked with the queue, replayed on
        // re-admission.
        let link = &mut self.links[dst];
        let seq = link.next_seq;
        link.next_seq += 1;
        let env = post.env.clone();
        post.transmit(ctx, self.transport, |env| NetMsg::SeqRpc { seq, env });
        link.last_sent = ctx.now();
        link.outstanding.push_back(Pending {
            seq,
            env,
            deadline: ctx.now() + self.fault.rpc_timeout_ns,
            retries: 0,
        });
    }

    /// Act on a frame the Rx thread received from `from`.
    fn heard(&mut self, ctx: &mut Ctx, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Ack { seq } => {
                let queue = &mut self.links[from].outstanding;
                while queue.front().is_some_and(|p| p.seq < seq) {
                    queue.pop_front();
                }
            }
            NetMsg::SuspectQuery { suspect } => {
                // Vote with this node's own lease oracle. A suspect this
                // node already confirmed dead gets a dead ballot even if a
                // stale lease stamp survives.
                let now = ctx.now();
                let alive = !self.view.is_dead(suspect)
                    && self.view.lease_fresh(suspect, now, self.fault.lease_ns);
                self.transport
                    .send(ctx, from, NetMsg::SuspectVote { suspect, alive });
                self.links[from].last_sent = now;
            }
            NetMsg::SuspectVote { suspect, alive } => {
                // Votes for a peer this node is not currently suspecting
                // are fenced (stale ballots from a resolved or refuted
                // suspicion must not influence a later one).
                if let Some(st) = self.links[suspect].suspect.as_mut() {
                    st.votes[from] = Some(alive);
                    self.resolve(ctx, suspect, ctx.now());
                }
            }
            // First contact from a pre-provisioned joiner (only the joiner
            // itself may announce its join): admit it into this node's
            // view under a burned epoch, bring the reliable link up as a
            // restart re-admission does — both directions from sequence 0
            // — and vote. A duplicate announcement after the admission is
            // re-affirmed; a confirmed-dead "joiner" is refused.
            NetMsg::JoinReq { node } if node == from => {
                let admit = if self.view.admit(from).is_some() {
                    self.links[from].reset(ctx.now());
                    self.shared.rx_links[self.node][from].lock().reset();
                    true
                } else {
                    !self.view.is_dead(from)
                };
                self.transport
                    .send(ctx, from, NetMsg::JoinVote { node: from, admit });
                self.links[from].last_sent = ctx.now();
            }
            // A survivor admits this joiner. Electorate: the peers this
            // joiner sees as Alive. A majority of the full membership
            // suffices; a smaller live cluster must answer unanimously.
            NetMsg::JoinVote { node, admit: true } if node == self.node => {
                let Some(jp) = self.join.as_mut() else {
                    return;
                };
                jp.admits[from] = true;
                let got = jp.admits.iter().filter(|&&v| v).count();
                let nodes = self.links.len();
                let electorate = (0..nodes)
                    .filter(|&p| p != node && self.view.health(p) == PeerHealth::Alive)
                    .count();
                if got >= quorum_needed(nodes).min(electorate).max(1) {
                    self.view.admit(node);
                    self.join = None;
                }
            }
            // Refusals, ballots on another node's join, and announcements
            // not sent by their joiner.
            _ => {}
        }
    }

    /// The timer passes, in order: join announcements, idle heartbeats,
    /// retransmits, then suspicion polls. Each stamp and deadline a pass
    /// sets uses the time the timer fired, though every send charges its
    /// post time.
    fn on_timer(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let me = self.node;
        let nodes = self.links.len();
        // Join announce rounds: broadcast to every peer this joiner sees as
        // Alive until the vote resolves.
        if let Some(jp) = self.join.as_mut().filter(|jp| now >= jp.next_announce) {
            jp.next_announce = now + self.fault.suspect_poll_ns;
            for (dst, link) in self.links.iter_mut().enumerate() {
                if dst == me || self.view.health(dst) != PeerHealth::Alive || jp.admits[dst] {
                    continue;
                }
                self.transport.send(ctx, dst, NetMsg::JoinReq { node: me });
                link.last_sent = now;
            }
        }
        // Idle heartbeats: renew this node's lease at every live peer it
        // has not transmitted to for a heartbeat interval.
        for (dst, link) in self.links.iter_mut().enumerate() {
            let idle = now >= link.last_sent + self.fault.heartbeat_ns;
            if dst != me && !self.view.is_dead(dst) && idle {
                self.transport.send(ctx, dst, NetMsg::Heartbeat);
                link.last_sent = now;
            }
        }
        // Retransmit pass over live, un-suspected links with an expired
        // head timer.
        for (dst, link) in self.links.iter_mut().enumerate() {
            if dst == me || self.view.is_dead(dst) || link.suspect.is_some() {
                continue;
            }
            let Some(head) = link.outstanding.front_mut() else {
                continue;
            };
            if head.deadline > now {
                continue;
            }
            NodeStats::bump(&self.stats.rpc_timeouts);
            if head.retries >= self.fault.max_retries {
                NodeStats::bump(&self.stats.suspicions);
                if !self.view.lease_fresh(dst, now, self.fault.lease_ns) {
                    self.view.suspect(dst);
                    link.suspect = Some(SuspectPoll {
                        votes: vec![None; nodes],
                        rounds: 0,
                        next_poll: now, // the first round goes out below
                    });
                    continue;
                }
                // The peer is still talking to us: the loss is one-way, so
                // refute on the spot and keep retransmitting from a fresh
                // retry budget.
                NodeStats::bump(&self.stats.refutations);
                head.retries = 0;
            } else {
                head.retries += 1;
            }
            head.deadline = now + (self.fault.rpc_timeout_ns << head.retries.min(16));
            let resend = NetMsg::SeqRpc {
                seq: head.seq,
                env: head.env.clone(),
            };
            self.transport.send(ctx, dst, resend);
            link.last_sent = now;
            NodeStats::bump(&self.stats.retransmits);
        }
        // Poll pass: evaluate and advance every due suspicion.
        for dst in 0..nodes {
            if !matches!(&self.links[dst].suspect, Some(st) if now >= st.next_poll) {
                continue;
            }
            if self.view.lease_fresh(dst, now, self.fault.lease_ns) {
                // The suspect spoke to us since the suspicion (lease renewed
                // by the Rx thread): self-refute.
                self.refute(ctx, dst);
            } else if self.resolve(ctx, dst, now) {
                // Another query round to everyone who has not voted and is
                // not confirmed dead.
                let poll = self.links[dst].suspect.as_mut();
                let st = poll.expect("a pending verdict keeps its suspicion");
                st.rounds += 1;
                st.next_poll = now + self.fault.suspect_poll_ns;
                let voters: Vec<NodeId> = (0..nodes)
                    .filter(|&v| v != me && v != dst && st.votes[v].is_none())
                    .collect();
                for v in voters {
                    if !self.view.is_dead(v) {
                        self.transport
                            .send(ctx, v, NetMsg::SuspectQuery { suspect: dst });
                        self.links[v].last_sent = now;
                    }
                }
            }
        }
    }

    /// Count the ballots on `suspect` as of `now` and act on the verdict:
    /// refute, or confirm the death. Returns whether the verdict is still
    /// pending. The electorate is every node except the suspect; the
    /// suspector's own exhausted retries count as its ballot. One `alive`
    /// vote refutes. A full majority of dead ballots confirms.
    ///
    /// After `suspect_poll_rounds` query rounds the electorate degenerates
    /// to the *reachable* voters: silent members that are themselves
    /// Suspected/Dead in the view, or whose lease on this node has lapsed
    /// (no receipt for `lease_ns` — they cannot deliver a ballot), abstain.
    /// If every member has either voted dead or abstained, the suspicion is
    /// confirmed on the remaining evidence. This is what lets two survivors
    /// of a three-node cluster agree on a real death, and what lets a node
    /// severed from *everyone* (its own NIC died) converge on its local view
    /// instead of polling forever — its declarations cannot propagate, so
    /// connected nodes' quorum safety is untouched. The cost is deliberate:
    /// a node hearing no peer at all cannot distinguish its own isolation
    /// from cluster death, and resolves in favor of its own liveness
    /// (fail-stop, DESIGN.md §12).
    fn resolve(&mut self, ctx: &mut Ctx, suspect: NodeId, now: VTime) -> bool {
        let poll = self.links[suspect].suspect.as_ref();
        let st = poll.expect("a verdict needs a suspicion in flight");
        let nodes = self.links.len();
        let confirms = 1 + st.votes.iter().flatten().filter(|&&alive| !alive).count();
        let abstained = |v: NodeId| {
            self.view.health(v) != PeerHealth::Alive
                || !self.view.lease_fresh(v, now, self.fault.lease_ns)
        };
        if st.votes.iter().flatten().any(|&alive| alive) {
            self.refute(ctx, suspect);
        } else if confirms >= quorum_needed(nodes)
            || st.rounds >= self.fault.suspect_poll_rounds
                && (0..nodes)
                    .filter(|&v| v != self.node && v != suspect)
                    .all(|v| st.votes[v] == Some(false) || abstained(v))
        {
            self.confirm(ctx, suspect);
        } else {
            return true;
        }
        false
    }

    /// Re-admit a refuted suspect and replay its parked SENDs with their
    /// original sequence numbers (the receiver deduplicates; the cumulative
    /// ack the replay provokes clears whatever had in fact arrived).
    fn refute(&mut self, ctx: &mut Ctx, dst: NodeId) {
        self.view.readmit(dst);
        NodeStats::bump(&self.stats.refutations);
        let link = &mut self.links[dst];
        link.suspect = None;
        let now = ctx.now();
        for p in link.outstanding.iter_mut() {
            p.retries = 0;
            p.deadline = now + self.fault.rpc_timeout_ns;
            let resend = NetMsg::SeqRpc {
                seq: p.seq,
                env: p.env.clone(),
            };
            self.transport.send(ctx, dst, resend);
            NodeStats::bump(&self.stats.retransmits);
        }
        link.last_sent = now;
    }

    /// Stamp a quorum-confirmed death into the membership view, discard the
    /// parked queue, and fan the epoch-numbered `PeerDown` out to every
    /// runtime thread.
    fn confirm(&mut self, ctx: &mut Ctx, dst: NodeId) {
        let Some(epoch) = self.view.confirm_dead(dst) else {
            return;
        };
        NodeStats::bump(&self.stats.confirmed_deaths);
        self.links[dst].outstanding.clear();
        self.links[dst].suspect = None;
        for rt in &self.shared.rt_mailboxes[self.node] {
            rt.send(ctx, RtMsg::PeerDown { node: dst, epoch }, 0);
        }
    }
}

/// Body of the per-node Rx thread: poll the transport and deliver RPCs to
/// the runtime thread that owns each message's chunk. In fault mode it also
/// terminates the reliable channel — in-order delivery, duplicate
/// suppression, and cumulative acknowledgment, per source node — and is the
/// membership view's ear: every receipt from `src` renews `src`'s lease.
pub(crate) fn rx_thread_main(ctx: &mut Ctx, shared: Arc<ClusterShared>, node: NodeId) {
    let transport = shared.transports[node].clone();
    let poll_cost = shared.cfg.net.cq_poll_ns;
    loop {
        // Opportunistic drain: take an already-delivered message without
        // re-entering the blocking receive path (one inbox probe instead
        // of a blocking-point setup per message of a burst). Timing is
        // unchanged — on the simulated backend `try_recv` on a delivered
        // message performs the same dequeue-and-bump a non-empty `recv`
        // would — so protocol traffic stays bit-identical.
        let (src, msg) = match transport.try_recv(ctx) {
            Some(item) => item,
            None => transport.recv(ctx),
        };
        ctx.charge(poll_cost);
        if matches!(msg, NetMsg::Halt) {
            break;
        }
        // A peer this node has confirmed dead gets *silence* — no acks, no
        // votes, no lease renewal: acking its traffic while the runtime
        // discards it would leave that peer waiting forever on replies that
        // will never come. Going quiet instead lets its own retries
        // exhaust, so the declaration becomes mutual and its blocked
        // requests fail over to `NodeUnavailable`. (A merely *Suspected*
        // peer is still served normally — its traffic is exactly what
        // refutes the suspicion.)
        if src != node && shared.is_peer_down(node, src) {
            continue;
        }
        // Any receipt proves the sender was alive when it transmitted.
        shared.membership[node].note_heard(src, ctx.now());
        match msg {
            NetMsg::Halt => break,
            NetMsg::Rpc { env } => route(ctx, &shared, node, src, env),
            NetMsg::Heartbeat => {
                // Lease already renewed above; nothing else to do.
            }
            msg @ (NetMsg::Ack { .. }
            | NetMsg::SuspectQuery { .. }
            | NetMsg::SuspectVote { .. }
            | NetMsg::JoinReq { .. }
            | NetMsg::JoinVote { .. }) => {
                if let Some(rel) = &shared.rel_mailboxes[node] {
                    rel.send(ctx, RelMsg::Heard { from: src, msg }, 0);
                }
            }
            NetMsg::SeqRpc { seq, env } => {
                // Link state lives in shared so `restart_peer` can reset it
                // when a peer is re-admitted; uncontended otherwise.
                let ack = {
                    let mut link = shared.rx_links[node][src].lock();
                    if seq < link.next_expected || link.reorder.contains_key(&seq) {
                        NodeStats::bump(&shared.stats[node].dup_rpcs);
                    } else if seq == link.next_expected {
                        route(ctx, &shared, node, src, env);
                        link.next_expected += 1;
                        // Release any buffered successors the gap was blocking.
                        let mut next = link.next_expected;
                        while let Some(env) = link.reorder.remove(&next) {
                            route(ctx, &shared, node, src, env);
                            next += 1;
                        }
                        link.next_expected = next;
                    } else {
                        link.reorder.insert(seq, env);
                    }
                    link.next_expected
                };
                // Ack cumulatively on every receipt — duplicates included,
                // since a duplicate usually means our previous ack was lost.
                transport.send(ctx, src, NetMsg::Ack { seq: ack });
            }
        }
    }
}

/// Hand a received protocol message to the runtime thread that owns its
/// chunk.
fn route(ctx: &mut Ctx, shared: &ClusterShared, node: NodeId, src: NodeId, env: Envelope) {
    shared
        .rt_mailbox(node, env.array, env.chunk)
        .send(ctx, RtMsg::Net { src, env }, 0);
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use crate::{
        ArrayOptions, AsymmetricLoss, Cluster, ClusterConfig, FaultConfig, FaultPlan, Sim,
        SimConfig,
    };

    /// A vote answers a query with a send, and stamps the voter's heartbeat
    /// timer toward the querier with the time read before that send, as
    /// every reply's stamp does. So the voter's next heartbeat reaches the
    /// querier exactly `heartbeat_ns` after its vote did. Node 0 loses node
    /// 2 both ways for a while, suspects it and polls node 1, whose lease
    /// on node 2 is fresh; node 1 sends node 0 nothing but votes and
    /// heartbeats. Node 0 notes the receipt time of each frame from node 1:
    /// no gap between two of them exceeds the heartbeat interval.
    #[test]
    fn a_vote_restarts_the_voters_heartbeat_timer() {
        const HEARTBEAT_NS: u64 = 25_000;
        let mut plan = FaultPlan::new(0x5EED);
        plan.asym_loss = [(0, 2), (2, 0)]
            .map(|(from, to)| AsymmetricLoss {
                from,
                to,
                drop_ppm: 1_000_000,
                from_ns: 300_000,
                until_ns: 1_500_000,
            })
            .to_vec();
        let mut fc = FaultConfig::new(plan);
        fc.rpc_timeout_ns = 20_000;
        fc.max_retries = 2;
        fc.lease_ns = 100_000;
        fc.heartbeat_ns = HEARTBEAT_NS;
        fc.suspect_poll_ns = 10_000;
        fc.suspect_poll_rounds = 3;
        let mut cfg = ClusterConfig::with_nodes(3);
        cfg.runtime_threads = 2;
        cfg.fault = Some(fc);
        let heard = Arc::new(Mutex::new(Vec::new()));
        let log = heard.clone();
        let suspicions = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, cfg);
            let shared = cluster.shared.clone();
            let arr = cluster.alloc::<u64>(3 * 512, ArrayOptions::default());
            cluster.run(ctx, 2, move |ctx, env| {
                let a = arr.on(env.node);
                match (env.node, env.thread) {
                    (2, 0) => {
                        a.set(ctx, 8, 42);
                        ctx.sleep(1_800_000);
                    }
                    // The recall of node 2's copy is what node 0 retries.
                    (0, 0) => {
                        ctx.sleep(500_000);
                        assert_eq!(a.get(ctx, 8), 42);
                    }
                    (0, 1) => {
                        while ctx.now() < 1_800_000 {
                            let at = shared.membership[0].last_heard(1);
                            let mut log = log.lock().unwrap();
                            if at > 0 && log.last() != Some(&at) {
                                log.push(at);
                            }
                            drop(log);
                            ctx.sleep(100);
                        }
                    }
                    _ => {}
                }
            });
            let suspicions = cluster.stats(0).suspicions;
            cluster.shutdown(ctx);
            suspicions
        });
        assert!(suspicions > 0, "node 0 never suspected node 2");
        let heard = heard.lock().unwrap();
        let gaps: Vec<u64> = heard.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.contains(&HEARTBEAT_NS), "no heartbeat: {gaps:?}");
        assert!(gaps.iter().any(|&g| g < HEARTBEAT_NS), "no vote: {gaps:?}");
        assert!(
            gaps.iter().all(|&g| g <= HEARTBEAT_NS),
            "a heartbeat came late: {gaps:?}"
        );
    }
}
