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
    /// Cumulative ack from `from`, forwarded by the Rx thread.
    Ack {
        from: NodeId,
        seq: u64,
    },
    /// A peer's quorum poll about `suspect`, forwarded by the Rx thread;
    /// the agent answers with its own lease verdict.
    SuspectQuery {
        from: NodeId,
        suspect: NodeId,
    },
    /// Reset the sender side of the reliable link to `peer`: forget
    /// outstanding frames, restart sequencing from 0, drop any suspicion.
    /// Sent by [`crate::Cluster::restart_peer`] when a restarted peer is
    /// re-admitted; pairs with a [`crate::shared::RxLink::reset`] on both
    /// receiver sides so the link comes up like a cold boot.
    ResetLink {
        peer: NodeId,
    },
    /// A vote answering this node's own poll, forwarded by the Rx thread.
    SuspectVote {
        from: NodeId,
        suspect: NodeId,
        alive: bool,
    },
    /// This (pre-provisioned, `Joining`) node should announce itself to the
    /// live cluster and collect admit votes. Injected by
    /// [`crate::Cluster::join_peer`]; the agent re-announces every
    /// `suspect_poll_ns` until a quorum of survivors has admitted it
    /// (DESIGN.md §15).
    AnnounceJoin,
    /// A joiner's announcement, forwarded by the Rx thread: admit `from`
    /// into this node's view, bring the reliable link up from seq 0 (the
    /// first-contact generalization of `restart_peer`'s reset), and vote.
    JoinReq {
        from: NodeId,
    },
    /// A survivor's ballot on `node`'s join announcement, forwarded by the
    /// Rx thread (meaningful on `node` itself).
    JoinVote {
        from: NodeId,
        node: NodeId,
        admit: bool,
    },
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

/// Outcome of counting a suspicion's ballots.
enum Verdict {
    /// Not enough ballots either way; keep polling.
    Pending,
    /// Someone has a fresh lease on the suspect: it lives.
    Refuted,
    /// A (possibly degenerate) quorum confirmed the death.
    Confirmed,
}

/// Count ballots for `suspect`. The electorate is every node except the
/// suspect; the suspector's own exhausted retries count as its ballot. One
/// `alive` vote refutes. A full majority of dead ballots confirms.
///
/// After `poll_rounds` query rounds the electorate degenerates to the
/// *reachable* voters: silent members that are themselves Suspected/Dead in
/// `view`, or whose lease on this node has lapsed (no receipt for
/// `lease_ns` — they cannot deliver a ballot), abstain. If every member has
/// either voted dead or abstained, the suspicion is confirmed on the
/// remaining evidence. This is what lets two survivors of a three-node
/// cluster agree on a real death, and what lets a node severed from
/// *everyone* (its own NIC died) converge on its local view instead of
/// polling forever — its declarations cannot propagate, so connected nodes'
/// quorum safety is untouched. The cost is deliberate: a node hearing no
/// peer at all cannot distinguish its own isolation from cluster death, and
/// resolves in favor of its own liveness (fail-stop, DESIGN.md §12).
#[allow(clippy::too_many_arguments)]
fn poll_verdict(
    st: &SuspectPoll,
    view: &MembershipView,
    me: NodeId,
    suspect: NodeId,
    nodes: usize,
    poll_rounds: u32,
    now: VTime,
    lease_ns: VTime,
) -> Verdict {
    if st.votes.iter().flatten().any(|&alive| alive) {
        return Verdict::Refuted;
    }
    let confirms = 1 + st.votes.iter().flatten().filter(|&&alive| !alive).count();
    if confirms >= quorum_needed(nodes) {
        return Verdict::Confirmed;
    }
    if st.rounds >= poll_rounds {
        let all_resolved = (0..nodes).filter(|&v| v != me && v != suspect).all(|v| {
            st.votes[v] == Some(false)
                || view.health(v) != PeerHealth::Alive
                || !view.lease_fresh(v, now, lease_ns)
        });
        if all_resolved {
            return Verdict::Confirmed;
        }
    }
    Verdict::Pending
}

/// Body of the per-node reliability agent (fault mode only): posts every
/// outgoing RPC with a sequence number, tracks it until acked, retransmits
/// on timeout with exponential backoff, keeps leases alive with idle
/// heartbeats, and runs the suspect → quorum-poll → confirm/refute
/// membership protocol when a retry budget is exhausted (module docs).
pub(crate) fn rel_thread_main(
    ctx: &mut Ctx,
    shared: Arc<ClusterShared>,
    node: NodeId,
    queue: Mailbox<RelMsg>,
) {
    let transport = shared.transports[node].clone();
    let fault = shared
        .cfg
        .fault
        .as_ref()
        .expect("reliability agent requires FaultConfig");
    let timeout = fault.rpc_timeout_ns;
    let max_retries = fault.max_retries;
    let lease_ns = fault.lease_ns;
    let heartbeat_ns = fault.heartbeat_ns;
    let poll_ns = fault.suspect_poll_ns;
    let poll_rounds = fault.suspect_poll_rounds;
    let nodes = shared.cfg.nodes;
    let stats = shared.stats[node].clone();
    let view = &shared.membership[node];
    let mut next_seq = vec![0u64; nodes];
    let mut outstanding: Vec<VecDeque<Pending>> = (0..nodes).map(|_| VecDeque::new()).collect();
    let mut suspects: Vec<Option<SuspectPoll>> = (0..nodes).map(|_| None).collect();
    let mut last_sent = vec![0 as VTime; nodes];
    let mut join: Option<JoinPoll> = None;

    /// Re-admit a refuted suspect and replay its parked SENDs with their
    /// original sequence numbers (the receiver deduplicates; the cumulative
    /// ack the replay provokes clears whatever had in fact arrived).
    #[allow(clippy::too_many_arguments)]
    fn refute(
        ctx: &mut Ctx,
        transport: &dyn Transport<NetMsg>,
        view: &MembershipView,
        stats: &NodeStats,
        parked: &mut VecDeque<Pending>,
        slot: &mut Option<SuspectPoll>,
        last_sent: &mut VTime,
        dst: NodeId,
        timeout: VTime,
    ) {
        view.readmit(dst);
        NodeStats::bump(&stats.refutations);
        *slot = None;
        let now = ctx.now();
        for p in parked.iter_mut() {
            p.retries = 0;
            p.deadline = now + timeout;
            transport.send(
                ctx,
                dst,
                NetMsg::SeqRpc {
                    seq: p.seq,
                    env: p.env.clone(),
                },
            );
            NodeStats::bump(&stats.retransmits);
        }
        *last_sent = now;
    }

    /// Stamp a quorum-confirmed death into the membership view and fan the
    /// epoch-numbered `PeerDown` out to every runtime thread.
    fn confirm(
        ctx: &mut Ctx,
        shared: &ClusterShared,
        stats: &NodeStats,
        parked: &mut VecDeque<Pending>,
        slot: &mut Option<SuspectPoll>,
        node: NodeId,
        dst: NodeId,
    ) {
        let Some(epoch) = shared.membership[node].confirm_dead(dst) else {
            return;
        };
        NodeStats::bump(&stats.confirmed_deaths);
        NodeStats::raise(&stats.membership_epoch, epoch);
        parked.clear();
        *slot = None;
        for rt in &shared.rt_mailboxes[node] {
            rt.send(ctx, RtMsg::PeerDown { node: dst, epoch }, 0);
        }
    }

    loop {
        // Three timer families: the head retransmit timer of every live
        // un-suspected link (acks are cumulative, so only heads matter),
        // the poll timer of every suspicion, and each link's next idle
        // heartbeat. Parked (suspected) queues deliberately have no timer.
        let mut next_deadline: Option<VTime> = None;
        {
            let mut upd = |d: VTime| {
                next_deadline = Some(next_deadline.map_or(d, |x: VTime| x.min(d)));
            };
            for dst in 0..nodes {
                if dst == node || view.is_dead(dst) {
                    continue;
                }
                match &suspects[dst] {
                    Some(st) => upd(st.next_poll),
                    None => {
                        if let Some(p) = outstanding[dst].front() {
                            upd(p.deadline);
                        }
                    }
                }
                upd(last_sent[dst] + heartbeat_ns);
            }
            if let Some(jp) = &join {
                upd(jp.next_announce);
            }
        }
        let msg = match next_deadline {
            Some(d) => queue.recv_deadline(ctx, d),
            None => Some(queue.recv(ctx)),
        };
        match msg {
            Some(RelMsg::Post(post)) => {
                let dst = post.dst;
                if view.is_dead(dst) {
                    continue; // fail-stop: traffic to a dead peer is dropped
                }
                // Posted even toward a Suspected peer: a WRITE always lands
                // (the fault model never drops one-sided verbs), and the
                // notification is tracked like any other — parked with the
                // queue, replayed on re-admission.
                let seq = next_seq[dst];
                next_seq[dst] += 1;
                let env = post.env.clone();
                post.transmit(ctx, &*transport, |env| NetMsg::SeqRpc { seq, env });
                last_sent[dst] = ctx.now();
                outstanding[dst].push_back(Pending {
                    seq,
                    env,
                    deadline: ctx.now() + timeout,
                    retries: 0,
                });
            }
            Some(RelMsg::Ack { from, seq }) => {
                while outstanding[from].front().is_some_and(|p| p.seq < seq) {
                    outstanding[from].pop_front();
                }
            }
            Some(RelMsg::ResetLink { peer }) => {
                // The peer restarted: its old incarnation's stream state is
                // void on both ends, so sequencing starts over from 0.
                next_seq[peer] = 0;
                outstanding[peer].clear();
                suspects[peer] = None;
                last_sent[peer] = ctx.now();
            }
            Some(RelMsg::SuspectQuery { from, suspect }) => {
                // Vote with this node's own lease oracle. A suspect this
                // node already confirmed dead gets a dead ballot even if a
                // stale lease stamp survives.
                let now = ctx.now();
                let alive = !view.is_dead(suspect) && view.lease_fresh(suspect, now, lease_ns);
                transport.send(ctx, from, NetMsg::SuspectVote { suspect, alive });
                last_sent[from] = now;
            }
            Some(RelMsg::SuspectVote {
                from,
                suspect,
                alive,
            }) => {
                // Votes for a peer this node is not currently suspecting
                // are fenced (stale ballots from a resolved or refuted
                // suspicion must not influence a later one).
                if let Some(st) = suspects[suspect].as_mut() {
                    st.votes[from] = Some(alive);
                    let now = ctx.now();
                    match poll_verdict(st, view, node, suspect, nodes, poll_rounds, now, lease_ns) {
                        Verdict::Refuted => refute(
                            ctx,
                            &*transport,
                            view,
                            &stats,
                            &mut outstanding[suspect],
                            &mut suspects[suspect],
                            &mut last_sent[suspect],
                            suspect,
                            timeout,
                        ),
                        Verdict::Confirmed => confirm(
                            ctx,
                            &shared,
                            &stats,
                            &mut outstanding[suspect],
                            &mut suspects[suspect],
                            node,
                            suspect,
                        ),
                        Verdict::Pending => {}
                    }
                }
            }
            Some(RelMsg::AnnounceJoin) => {
                // Start (or restart) the announce loop; the first round goes
                // out in the timer branch below.
                join = Some(JoinPoll {
                    admits: vec![false; nodes],
                    next_announce: ctx.now(),
                });
            }
            Some(RelMsg::JoinReq { from }) => {
                // First contact from a pre-provisioned joiner: admit it into
                // this node's view under a burned epoch and bring the
                // reliable link up exactly like a restart re-admission —
                // both directions start from sequence 0 with no suspicion.
                let admit = if view.is_joining(from) {
                    if view.admit(from).is_some() {
                        next_seq[from] = 0;
                        outstanding[from].clear();
                        suspects[from] = None;
                        shared.rx_links[node][from].lock().reset();
                    }
                    true
                } else {
                    // Duplicate announcement after we already admitted it —
                    // re-affirm; a confirmed-dead "joiner" is refused.
                    !view.is_dead(from)
                };
                transport.send(ctx, from, NetMsg::JoinVote { node: from, admit });
                last_sent[from] = ctx.now();
            }
            Some(RelMsg::JoinVote {
                from,
                node: who,
                admit,
            }) => {
                if who == node && admit {
                    if let Some(jp) = join.as_mut() {
                        jp.admits[from] = true;
                        let got = jp.admits.iter().filter(|&&v| v).count();
                        // Electorate: the peers this joiner can see as
                        // Alive. A majority of the full membership suffices;
                        // a smaller live cluster must answer unanimously.
                        let electorate = (0..nodes)
                            .filter(|&p| p != node && view.health(p) == PeerHealth::Alive)
                            .count();
                        let needed = quorum_needed(nodes).min(electorate).max(1);
                        if got >= needed {
                            view.admit(node);
                            join = None;
                        }
                    }
                }
            }
            Some(RelMsg::Shutdown) => break,
            None => {
                let now = ctx.now();
                // Join announce rounds: broadcast to every peer this joiner
                // sees as Alive until the vote resolves.
                let announce_due = matches!(&join, Some(jp) if now >= jp.next_announce);
                if announce_due {
                    let jp = join.as_mut().unwrap();
                    jp.next_announce = now + poll_ns;
                    for (dst, sent) in last_sent.iter_mut().enumerate().take(nodes) {
                        if dst == node || view.health(dst) != PeerHealth::Alive || jp.admits[dst] {
                            continue;
                        }
                        transport.send(ctx, dst, NetMsg::JoinReq { node });
                        *sent = now;
                    }
                }
                // Idle heartbeats: renew this node's lease at every live
                // peer it has not transmitted to for a heartbeat interval.
                for (dst, sent) in last_sent.iter_mut().enumerate() {
                    if dst == node || view.is_dead(dst) {
                        continue;
                    }
                    if now >= *sent + heartbeat_ns {
                        transport.send(ctx, dst, NetMsg::Heartbeat);
                        *sent = now;
                    }
                }
                // Retransmit pass over live, un-suspected links with an
                // expired head timer.
                for dst in 0..nodes {
                    if dst == node || view.is_dead(dst) || suspects[dst].is_some() {
                        continue;
                    }
                    let Some(head) = outstanding[dst].front_mut() else {
                        continue;
                    };
                    if head.deadline > now {
                        continue;
                    }
                    NodeStats::bump(&stats.rpc_timeouts);
                    if head.retries >= max_retries {
                        NodeStats::bump(&stats.suspicions);
                        if view.lease_fresh(dst, now, lease_ns) {
                            // The peer is still talking to us: the loss is
                            // one-way, so refute on the spot and keep
                            // retransmitting from a fresh retry budget.
                            NodeStats::bump(&stats.refutations);
                            head.retries = 0;
                        } else {
                            view.suspect(dst);
                            suspects[dst] = Some(SuspectPoll {
                                votes: vec![None; nodes],
                                rounds: 0,
                                next_poll: now, // first round goes out below
                            });
                            continue;
                        }
                    } else {
                        head.retries += 1;
                    }
                    head.deadline = now + (timeout << head.retries.min(16));
                    transport.send(
                        ctx,
                        dst,
                        NetMsg::SeqRpc {
                            seq: head.seq,
                            env: head.env.clone(),
                        },
                    );
                    last_sent[dst] = now;
                    NodeStats::bump(&stats.retransmits);
                }
                // Poll pass: evaluate and advance every due suspicion.
                for dst in 0..nodes {
                    let due = matches!(&suspects[dst], Some(st) if now >= st.next_poll);
                    if !due {
                        continue;
                    }
                    if view.lease_fresh(dst, now, lease_ns) {
                        // The suspect spoke to us since the suspicion
                        // (lease renewed by the Rx thread): self-refute.
                        refute(
                            ctx,
                            &*transport,
                            view,
                            &stats,
                            &mut outstanding[dst],
                            &mut suspects[dst],
                            &mut last_sent[dst],
                            dst,
                            timeout,
                        );
                        continue;
                    }
                    let st = suspects[dst].as_ref().unwrap();
                    match poll_verdict(st, view, node, dst, nodes, poll_rounds, now, lease_ns) {
                        Verdict::Refuted => refute(
                            ctx,
                            &*transport,
                            view,
                            &stats,
                            &mut outstanding[dst],
                            &mut suspects[dst],
                            &mut last_sent[dst],
                            dst,
                            timeout,
                        ),
                        Verdict::Confirmed => confirm(
                            ctx,
                            &shared,
                            &stats,
                            &mut outstanding[dst],
                            &mut suspects[dst],
                            node,
                            dst,
                        ),
                        Verdict::Pending => {
                            // Another query round to everyone who has not
                            // voted and is not confirmed dead.
                            let st = suspects[dst].as_mut().unwrap();
                            st.rounds += 1;
                            st.next_poll = now + poll_ns;
                            let pending_voters: Vec<NodeId> = (0..nodes)
                                .filter(|&v| v != node && v != dst && st.votes[v].is_none())
                                .collect();
                            for v in pending_voters {
                                if view.is_dead(v) {
                                    continue;
                                }
                                transport.send(ctx, v, NetMsg::SuspectQuery { suspect: dst });
                                last_sent[v] = now;
                            }
                        }
                    }
                }
            }
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
            NetMsg::SuspectQuery { suspect } => {
                if let Some(rel) = &shared.rel_mailboxes[node] {
                    rel.send(ctx, RelMsg::SuspectQuery { from: src, suspect }, 0);
                }
            }
            NetMsg::SuspectVote { suspect, alive } => {
                if let Some(rel) = &shared.rel_mailboxes[node] {
                    rel.send(
                        ctx,
                        RelMsg::SuspectVote {
                            from: src,
                            suspect,
                            alive,
                        },
                        0,
                    );
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
            NetMsg::Ack { seq } => {
                if let Some(rel) = &shared.rel_mailboxes[node] {
                    rel.send(ctx, RelMsg::Ack { from: src, seq }, 0);
                }
            }
            NetMsg::JoinReq { node: who } => {
                // Only the joiner itself may announce its own join.
                if who == src {
                    if let Some(rel) = &shared.rel_mailboxes[node] {
                        rel.send(ctx, RelMsg::JoinReq { from: src }, 0);
                    }
                }
            }
            NetMsg::JoinVote { node: who, admit } => {
                if let Some(rel) = &shared.rel_mailboxes[node] {
                    rel.send(
                        ctx,
                        RelMsg::JoinVote {
                            from: src,
                            node: who,
                            admit,
                        },
                        0,
                    );
                }
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
