//! The requester-side **cache machine** of one chunk on one non-home node
//! (Figure 9, requester rows).
//!
//! Unlike the stateful [`HomeMachine`](super::home::HomeMachine), the cache
//! machine is a *pure function*: the chunk's local state lives in the
//! node's dentry (atomics shared with the application fast path), so the
//! executor snapshots it into a [`CacheView`] and passes it with every
//! event. [`CacheMachine::on_event`] inspects the view and returns the
//! [`CacheAction`]s to perform — it never mutates shared state itself.

use crate::state::LocalState;

use super::{Counter, Kind, Msg, NodeId, Transition, NOTAG};

/// Snapshot of a chunk's dentry, taken by the executor right before
/// consulting the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheView {
    /// Local access rights (the dentry's atomic state byte).
    pub state: LocalState,
    /// Operator tag if `state` is (Filling)Operated, [`NOTAG`] otherwise.
    pub op_tag: u32,
    /// Attached cacheline index (may be a sentinel).
    pub line: u32,
    /// True if a Figure-5 drain is pending on this chunk (delay flag set or
    /// a deferred continuation queued).
    pub draining: bool,
    /// The chunk's home as this node's home map names it.
    pub home: NodeId,
    /// A directed write's ack count on its requester (DESIGN.md §4.2), or
    /// a directed grant's on its grantee (§4.5): the `InvalidateAck`s
    /// still to come once the fill or the grant has landed (positive), or
    /// minus the acks that landed ahead of it (negative); 0 otherwise. The
    /// executor keeps it beside the dentry.
    pub acks: i64,
    /// A positive `acks` counts toward a directed grant, which brought no
    /// data, not toward a directed write's fill.
    pub granted: bool,
}

/// What to do once a Figure-5 drain completes. Mirrors the runtime's
/// drain continuations one-to-one; the machine decides the follow-up via
/// [`CacheEvent::Drained`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AfterDrain {
    /// Invalidate a Shared copy and acknowledge to `reply_to`.
    Invalidate {
        /// The cacheline to release.
        line: u32,
        /// The home node awaiting the ack.
        reply_to: NodeId,
    },
    /// Write Dirty data back and invalidate (recall or eviction).
    WritebackInvalidate {
        /// The cacheline holding the dirty data.
        line: u32,
    },
    /// Write Dirty data back but keep a Shared copy.
    Downgrade {
        /// The cacheline holding the dirty data.
        line: u32,
    },
    /// Fill a requester's line from this one (a three-leg recall), then
    /// free the line, or (`keep`) write it back and keep it Shared.
    FillRequester {
        /// The cacheline holding the dirty data.
        line: u32,
        /// The requester the home named.
        requester: NodeId,
        /// Destination word offset in the requester's cache region.
        dst_off: u64,
        /// True for a read: keep a Shared copy and write back.
        keep: bool,
    },
    /// Flush combined operands and free the line. A recall drains to
    /// Invalid; an eviction drains to [`LocalState::OperatedIdle`] and
    /// keeps its Operate rights, unless a recall, home restart or home move
    /// reaches the drain first.
    FlushInvalidate {
        /// The cacheline holding the combined operands.
        line: u32,
        /// The operator they were combined under.
        op: u32,
    },
    /// Drop a Shared copy silently (eviction).
    EvictShared {
        /// The cacheline to release.
        line: u32,
    },
    /// After dropping a Shared copy, request an upgrade.
    Upgrade {
        /// The cacheline to reuse for the fill.
        line: u32,
        /// Rights to request.
        kind: Kind,
    },
    /// After flushing an Operated copy, request different rights.
    FlushThenUpgrade {
        /// The cacheline to flush and reuse.
        line: u32,
        /// The operator the flushed operands belong to.
        old_op: u32,
        /// Rights to request next.
        kind: Kind,
    },
}

/// Everything the requester-side cache machine can react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEvent {
    /// A local application thread missed on this chunk. The executor holds
    /// its wait-cell; [`CacheAction::QueueWaiter`] /
    /// [`CacheAction::WakeRequester`] tell it what to do with it.
    Request {
        /// Rights wanted.
        kind: Kind,
        /// True if the chunk's home node is declared down.
        home_down: bool,
        /// True if a deferred drain continuation is queued for this chunk.
        drain_pending: bool,
    },
    /// The executor allocated cacheline `line` for the pending Invalid-miss
    /// of `kind` (response to [`CacheAction::AllocLine`]).
    LineAllocated {
        /// The freshly allocated cacheline.
        line: u32,
        /// The miss kind it serves.
        kind: Kind,
    },
    /// A directed write's exclusive fill arrived (data already RDMA-written
    /// to our line): the chunk is ours once `acks` sharers have acked too.
    DirectedFill {
        /// The `InvalidateAck`s this fill waits for.
        acks: u32,
    },
    /// A write-intent lock's grant arrived, and the home served this
    /// node's write at it (DESIGN.md §4.5): the Shared copy the grant
    /// counted on, or the chunk's words it carries (`data`), becomes
    /// Exclusive once `acks` sharers have acked too.
    DirectedGrant {
        /// The `InvalidateAck`s this grant waits for.
        acks: u32,
        /// The grant carries the chunk's words: the home did not list this
        /// node.
        data: bool,
    },
    /// A sharer acknowledged the directed write or grant this node waits
    /// for.
    InvAck,
    /// A fill notification arrived (data already RDMA-written to our line).
    FillDone {
        /// Rights granted: `Shared` or `Exclusive`.
        granted: LocalState,
        /// A Dirty owner the home recalled with [`Msg::RecallTo`] wrote the
        /// data, not the home.
        direct: bool,
    },
    /// An Operated grant arrived (no data travels for grants).
    GrantDone {
        /// The operator granted.
        op: u32,
    },
    /// The home asks us to drop our Shared copy.
    Invalidate {
        /// Home node to acknowledge to.
        from: NodeId,
    },
    /// The home asks us to drop our Shared copy for a directed write
    /// (DESIGN.md §4.2) and acknowledge to its writer, whatever we hold.
    DirectedInvalidate {
        /// The writer to acknowledge to.
        requester: NodeId,
    },
    /// The home recalls our Dirty ownership (write it back, invalidate).
    RecallDirty,
    /// The home downgrades our Dirty ownership (write back, keep Shared).
    DowngradeDirty,
    /// The home recalls our Dirty ownership for `requester` (the three-leg
    /// recall, DESIGN.md §4.2): fill its line from ours, then invalidate,
    /// or (`keep`) write back and keep a Shared copy.
    RecallTo {
        /// The node whose request the recall serves.
        requester: NodeId,
        /// Destination word offset in the requester's cache region.
        dst_off: u64,
        /// True for a read.
        keep: bool,
    },
    /// The home recalls our Operated membership under `op`.
    RecallOperated {
        /// The operator epoch being closed.
        op: u32,
    },
    /// The eviction scan picked this chunk's line for reclamation.
    Evict,
    /// The unlock of a write-intent lock keeps its copy, as its grant said
    /// (DESIGN.md §4.5): write an Exclusive copy back and keep it Shared,
    /// the voluntary form of [`CacheEvent::DowngradeDirty`].
    Downgrade,
    /// A drain started by [`CacheAction::BeginDrain`] completed.
    Drained {
        /// The follow-up recorded at drain start.
        after: AfterDrain,
        /// True if the chunk's home node is declared down *now*.
        home_down: bool,
    },
    /// The chunk's home node was declared down (requester-side reset).
    HomeDown,
    /// The chunk's home node restarted and rejoined at a bumped membership
    /// epoch (DESIGN.md §14). Its directory came back *cold* — rebuilt from
    /// its durable log, with no memory of our copies — so every local
    /// right on this chunk is unsound and must be dropped: a Shared copy
    /// could silently diverge from a regranted Dirty owner, a Dirty copy
    /// would never be recalled. Unlike [`CacheEvent::HomeDown`], which
    /// resets only in-flight states (stable rights stay usable against a
    /// dead home), this resets stable rights too.
    HomeRestarted,
    /// The chunk's authoritative home migrated to another node
    /// (DESIGN.md §15). The new home's directory starts cold — the recall
    /// fence revoked every outstanding right before the transfer, so by the
    /// time this notice arrives no sound local right can exist; any rights
    /// still recorded here are stale grants from the departed home and must
    /// be dropped exactly as after a home restart.
    HomeMoved,
}

/// Everything the requester-side cache machine can ask its executor to do.
/// Actions must be executed in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheAction {
    /// Park the current requester's wait-cell on the dentry.
    QueueWaiter,
    /// Wake the current requester: its rights are (already) satisfied, or
    /// it must re-check and observe an error.
    WakeRequester,
    /// Wake every waiter parked on the dentry.
    WakeAllWaiters,
    /// Begin a Figure-5 drain towards `target` (installing `tag`); deliver
    /// [`CacheEvent::Drained`] with `after` once references are gone.
    BeginDrain {
        /// State installed at drain start.
        target: LocalState,
        /// Operator tag installed at drain start.
        tag: u32,
        /// Continuation to run at completion.
        after: AfterDrain,
    },
    /// Allocate a cacheline (evicting if needed) and feed
    /// [`CacheEvent::LineAllocated`] back.
    AllocLine {
        /// The miss kind the line will serve.
        kind: Kind,
    },
    /// Attach cacheline `line` to the dentry.
    SetLine {
        /// The cacheline index.
        line: u32,
    },
    /// Detach and free cacheline `line` (sentinels are skipped).
    ReleaseLine {
        /// The cacheline index.
        line: u32,
    },
    /// Enter a transient Filling state (keeps the current op tag).
    SetTransient {
        /// The Filling state to enter.
        state: LocalState,
    },
    /// Install new rights and tag on the dentry (Figure-6 promotion).
    Promote {
        /// New local state.
        state: LocalState,
        /// New operator tag.
        tag: u32,
    },
    /// Fill cacheline `line` with operator `op`'s identity element.
    InitOperandBuffer {
        /// The cacheline to initialize.
        line: u32,
        /// The operator whose identity to use.
        op: u32,
    },
    /// Send `msg` to node `to`; the send is all the executor does.
    Send {
        /// The receiving node.
        to: NodeId,
        /// The coherence message.
        msg: Msg,
    },
    /// Send `msg` to node `to` once the drain under way has completed: the
    /// `InvalidateAck` of a directed invalidation that found the copy
    /// draining, or the empty `FillAck` of a directed grant's grantee whose
    /// copy is draining, so that no reader of it overlaps the next
    /// writer.
    SendAfterDrain {
        /// The receiving node.
        to: NodeId,
        /// The message.
        msg: Msg,
    },
    /// Allocate a line, write the directed grant's chunk words into it,
    /// attach it and install Shared rights.
    InstallGrant,
    /// Record the directed write's or grant's ack count
    /// ([`CacheView::acks`] and [`CacheView::granted`]).
    SetAcks {
        /// The new count.
        acks: i64,
        /// The count is a landed grant's.
        granted: bool,
    },
    /// RDMA-write the line back to the home subarray and send
    /// `WritebackNotice`.
    SendWriteback {
        /// The cacheline holding the data.
        line: u32,
        /// True to keep a Shared copy (downgrade), false to invalidate.
        downgrade: bool,
        /// True to detach and free the line afterwards.
        release: bool,
        /// True for the writeback of a three-leg recall's read
        /// ([`Msg::WritebackNotice`]'s `direct`).
        direct: bool,
    },
    /// RDMA-write the line into node `to`'s cache region at `dst_off` and
    /// send the matching fill notice (`FillExclusive` or `FillShared`)
    /// behind it: a three-leg recall's fill.
    SendFill {
        /// The cacheline holding the data.
        line: u32,
        /// The requester.
        to: NodeId,
        /// Destination word offset in the requester's cache region.
        dst_off: u64,
        /// True for `FillExclusive`, false for `FillShared`.
        exclusive: bool,
        /// True to detach and free the line afterwards.
        release: bool,
    },
    /// Send the line's combined operands to the home as `OperandFlush`.
    SendFlush {
        /// The cacheline holding the operands.
        line: u32,
        /// The operator they belong to.
        op: u32,
        /// True to detach and free the line afterwards.
        release: bool,
        /// True to keep the Operate rights (an eviction to
        /// [`LocalState::OperatedIdle`]).
        keep: bool,
    },
    /// Send the upgrade request matching `kind` (fill lands in `line`).
    SendUpgrade {
        /// Destination cacheline for the fill.
        line: u32,
        /// Rights to request.
        kind: Kind,
    },
    /// A read miss completed its request; the executor may issue
    /// sequential-pattern prefetches (policy stays in the executor).
    PrefetchHint,
    /// A state transition happened (structured trace).
    Trace(Transition),
    /// Bump a protocol counter.
    Count(Counter),
}

/// The requester-side cache machine: a pure event → actions function over
/// a dentry snapshot.
pub struct CacheMachine;

impl CacheMachine {
    /// Decide how to react to `ev` given the dentry snapshot `view`.
    /// Returns actions in execution order; an empty vector means the event
    /// is stale and deliberately ignored (crossing-message cases).
    pub fn on_event(view: &CacheView, ev: CacheEvent) -> Vec<CacheAction> {
        // Does the chunk hold `state` with no drain pending?
        let holds = |state| view.state == state && !view.draining;
        match ev {
            CacheEvent::Request {
                kind,
                home_down,
                drain_pending,
            } => Self::request(view, kind, home_down, drain_pending),
            CacheEvent::LineAllocated { line, kind } => Self::line_allocated(view, line, kind),
            CacheEvent::FillDone { granted, direct } => {
                let expected = match granted {
                    LocalState::Shared => LocalState::FillingShared,
                    LocalState::Exclusive => LocalState::FillingExclusive,
                    _ => unreachable!("fills grant Shared or Exclusive"),
                };
                // A three-leg recall's fill: the home holds the chunk until
                // it hears the fill landed, so that none of its later
                // messages, on another link, can overtake the fill.
                let mut out = Vec::new();
                if direct {
                    out.push(CacheAction::Send {
                        to: view.home,
                        msg: Msg::FillAck { holds: true },
                    });
                }
                // Stale unless the fill is still awaited: the line was torn
                // down (e.g. HomeDown) while the fill was in flight. The data
                // was RDMA-written into our line before this notification
                // (RC FIFO ordering).
                if view.state == expected {
                    out.extend(Self::complete(view, granted, NOTAG, Counter::Fills, "fill"));
                }
                out
            }
            // An Operated grant carries no data: the operand buffer starts
            // as the operator's identity. Stale unless still awaited.
            CacheEvent::GrantDone { op } if view.state == LocalState::FillingOperated => {
                let mut out = vec![CacheAction::InitOperandBuffer {
                    line: view.line,
                    op,
                }];
                out.extend(Self::complete(
                    view,
                    LocalState::Operated,
                    op,
                    Counter::Fills,
                    "grant",
                ));
                out
            }
            // Drop a Shared copy and ack once it drains. Any other copy is
            // already gone or on its way out — an EvictNotice (or upgrade
            // drop) from us is already in flight on the same FIFO link and
            // will satisfy the home's ack set. Sending an extra ack would be
            // a *stale* ack that could corrupt a later invalidation epoch.
            CacheEvent::Invalidate { from } if holds(LocalState::Shared) => {
                vec![CacheAction::BeginDrain {
                    target: LocalState::Invalid,
                    tag: NOTAG,
                    after: AfterDrain::Invalidate {
                        line: view.line,
                        reply_to: from,
                    },
                }]
            }
            // A directed write's invalidation is acked to its writer whatever
            // this node holds, one ack for each: a Shared copy drains first,
            // as above; a drain under way (an eviction, or an upgrade that
            // drops the copy) acks once it completes; a copy already gone
            // (its eviction crossed the invalidation), or a fill awaited
            // after a new request, acks at once. The home counts no
            // eviction toward a directed write.
            CacheEvent::DirectedInvalidate { requester } => {
                if holds(LocalState::Shared) {
                    vec![CacheAction::BeginDrain {
                        target: LocalState::Invalid,
                        tag: NOTAG,
                        after: AfterDrain::Invalidate {
                            line: view.line,
                            reply_to: requester,
                        },
                    }]
                } else if view.draining {
                    vec![CacheAction::SendAfterDrain {
                        to: requester,
                        msg: Msg::InvalidateAck,
                    }]
                } else {
                    vec![CacheAction::Send {
                        to: requester,
                        msg: Msg::InvalidateAck,
                    }]
                }
            }
            // The directed write's fill, or the directed grant, and the
            // sharers' acks land in any order. Nothing tears a fill down
            // where directed writes run, so both always find the write
            // awaited, and every ack a node other than the home receives is
            // one it counts.
            CacheEvent::DirectedFill { acks } if view.state == LocalState::FillingExclusive => {
                Self::collect(view, view.acks + i64::from(acks), true, false)
            }
            CacheEvent::DirectedGrant { acks, data } => Self::grant(view, acks, data),
            CacheEvent::InvAck => Self::collect(view, view.acks - 1, view.acks > 0, view.granted),
            // Write an Exclusive copy back and drop it. Without one, a
            // voluntary writeback is already in flight (FIFO guarantees the
            // home sees it).
            CacheEvent::RecallDirty if holds(LocalState::Exclusive) => vec![
                CacheAction::Count(Counter::Recalls),
                CacheAction::BeginDrain {
                    target: LocalState::Invalid,
                    tag: NOTAG,
                    after: AfterDrain::WritebackInvalidate { line: view.line },
                },
            ],
            // The three-leg form of both: the drain's follow-up fills the
            // requester from our line.
            CacheEvent::RecallTo {
                requester,
                dst_off,
                keep,
            } if holds(LocalState::Exclusive) => vec![
                CacheAction::Count(Counter::Recalls),
                CacheAction::BeginDrain {
                    target: if keep {
                        LocalState::Shared
                    } else {
                        LocalState::Invalid
                    },
                    tag: NOTAG,
                    after: AfterDrain::FillRequester {
                        line: view.line,
                        requester,
                        dst_off,
                        keep,
                    },
                },
            ],
            // The home's downgrade and an intent unlock's voluntary one
            // drain alike; only the home's counts as a recall.
            CacheEvent::DowngradeDirty | CacheEvent::Downgrade if holds(LocalState::Exclusive) => {
                let drain = CacheAction::BeginDrain {
                    target: LocalState::Shared,
                    tag: NOTAG,
                    after: AfterDrain::Downgrade { line: view.line },
                };
                if ev == CacheEvent::DowngradeDirty {
                    vec![CacheAction::Count(Counter::Recalls), drain]
                } else {
                    vec![drain]
                }
            }
            // Another operator's recall is a stale one, for an epoch this
            // node already left.
            CacheEvent::RecallOperated { op } if view.op_tag == op => match view.state {
                LocalState::Operated if !view.draining => vec![
                    CacheAction::Count(Counter::Recalls),
                    CacheAction::BeginDrain {
                        target: LocalState::Invalid,
                        tag: NOTAG,
                        after: AfterDrain::FlushInvalidate {
                            line: view.line,
                            op,
                        },
                    },
                ],
                // Idle: the operands already went home in keep flushes,
                // which the home does not count toward the epoch's close.
                // Answer at once with an empty flush that does. Every
                // recall reaching an idle chunk is for its current epoch:
                // an older epoch's recall arrived before this epoch's
                // grant, on the same FIFO link. Mid-eviction, the drain's
                // own flush answers the recall once it leaves as an
                // ordinary flush.
                LocalState::OperatedIdle => {
                    let trigger = if view.draining {
                        "recall-evicting"
                    } else {
                        "recall-idle"
                    };
                    let mut out = vec![CacheAction::Count(Counter::Recalls)];
                    out.extend(Self::leave_idle(view, trigger, !view.draining));
                    out
                }
                // Nothing to flush — this node left the epoch with a flush
                // that is already in flight on the same FIFO link (every
                // way out of the Operated and idle states sends one) and
                // will satisfy the home's flush set. Replying with an extra
                // empty flush would be a *stale* message that could remove
                // us from a LATER Operated epoch's sharer set (observed in
                // property testing as a lost operand).
                _ => vec![],
            },
            CacheEvent::Evict => Self::evict(view),
            CacheEvent::Drained { after, home_down } => Self::drained(view, after, home_down),
            // A delayed (draining) chunk is torn down by its continuation's
            // own home-down check, so every reset below skips it.
            //
            // Stable states keep working locally against a dead home; only
            // in-flight fills are reset.
            CacheEvent::HomeDown if view.state.in_flight() && !view.draining => {
                Self::reset(view, "home-down")
            }
            // A restarted home (a restart is always preceded by a death
            // declaration) or a moved one (the recall fence already revoked
            // every sound copy) no longer remembers granting anything this
            // node still holds. An eviction drain toward idle must leave
            // rather than keep rights the new directory never granted.
            CacheEvent::HomeRestarted | CacheEvent::HomeMoved
                if view.state != LocalState::Invalid =>
            {
                let (reset, evicting) = if ev == CacheEvent::HomeMoved {
                    ("home-moved", "home-moved-evicting")
                } else {
                    ("home-restarted", "home-restarted-evicting")
                };
                if !view.draining {
                    Self::reset(view, reset)
                } else if view.state == LocalState::OperatedIdle {
                    Self::leave_idle(view, evicting, false)
                } else {
                    vec![]
                }
            }
            _ => vec![],
        }
    }

    /// The structured trace of a move from the viewed state to `to`.
    fn trace(view: &CacheView, to: LocalState, trigger: &'static str) -> CacheAction {
        CacheAction::Trace(Transition {
            from: view.state.name(),
            to: to.name(),
            trigger,
        })
    }

    /// The rights a request waited for arrived: install them, count them
    /// and wake every waiter.
    fn complete(
        view: &CacheView,
        state: LocalState,
        tag: u32,
        counter: Counter,
        trigger: &'static str,
    ) -> Vec<CacheAction> {
        vec![
            CacheAction::Promote { state, tag },
            CacheAction::Count(counter),
            Self::trace(view, state, trigger),
            CacheAction::WakeAllWaiters,
        ]
    }

    /// A directed grant landed with `acks` to collect. Its chunk words
    /// (`data`) make a Shared copy in a fresh line when this node holds
    /// and awaits nothing; a node with a fill or a drain under way declines
    /// them and collects its acks copy-less.
    fn grant(view: &CacheView, acks: u32, data: bool) -> Vec<CacheAction> {
        let due = view.acks + i64::from(acks);
        if !(data && view.state == LocalState::Invalid && !view.draining) {
            return Self::collect(view, due, true, true);
        }
        let shared = CacheView {
            state: LocalState::Shared,
            ..*view
        };
        let mut out = vec![
            CacheAction::InstallGrant,
            CacheAction::Count(Counter::Fills),
            Self::trace(view, LocalState::Shared, "grant-data"),
        ];
        out.extend(Self::collect(&shared, due, true, true));
        out
    }

    /// A directed write's requester or a directed grant's grantee counted
    /// an ack, or what tells it how many to expect: `due` is the new
    /// [`CacheView::acks`], `landed` says the fill or the grant is in, and
    /// `grant` that a grant is what the acks count toward. Once it and
    /// every ack are in, the chunk is this node's: a fill's data, or the
    /// Shared copy a grant counted on, becomes Exclusive and its waiters
    /// wake. Then it acks to the home, which holds the chunk until then so
    /// that nothing it sends later reaches a node still filling. A grantee
    /// whose copy is gone, or going, holds nothing and says so in its ack,
    /// which waits for a drain under way.
    fn collect(view: &CacheView, due: i64, landed: bool, grant: bool) -> Vec<CacheAction> {
        let granted = grant && landed && due != 0;
        let mut out = vec![CacheAction::SetAcks { acks: due, granted }];
        if !landed || due != 0 {
            return out;
        }
        if !grant {
            out.extend(Self::complete(
                view,
                LocalState::Exclusive,
                NOTAG,
                Counter::Fills,
                "directed-fill",
            ));
        } else if view.state == LocalState::Shared && !view.draining {
            out.extend([
                CacheAction::Promote {
                    state: LocalState::Exclusive,
                    tag: NOTAG,
                },
                Self::trace(view, LocalState::Exclusive, "directed-grant"),
                CacheAction::WakeAllWaiters,
            ]);
        }
        let holds = !grant || view.state == LocalState::Shared && !view.draining;
        let msg = Msg::FillAck { holds };
        let to = view.home;
        out.push(if view.draining {
            CacheAction::SendAfterDrain { to, msg }
        } else {
            CacheAction::Send { to, msg }
        });
        out
    }

    /// The Filling state and operator tag a request of `kind` waits in.
    fn filling(kind: Kind) -> (LocalState, u32) {
        match kind {
            Kind::Read => (LocalState::FillingShared, NOTAG),
            Kind::Write => (LocalState::FillingExclusive, NOTAG),
            Kind::Operate(op) => (LocalState::FillingOperated, op),
        }
    }

    /// An idle chunk gives up its Operate rights and goes Invalid. With
    /// `flush`, an empty non-keep flush takes it out of the home's sharer
    /// set; without, the pending eviction drain's flush will.
    fn leave_idle(view: &CacheView, trigger: &'static str, flush: bool) -> Vec<CacheAction> {
        let mut out = Vec::new();
        if flush {
            out.push(CacheAction::Send {
                to: view.home,
                msg: Msg::OperandFlush {
                    op: view.op_tag,
                    data: Vec::new(),
                    keep: false,
                },
            });
            out.push(CacheAction::Count(Counter::OperandFlushes));
        }
        out.push(Self::trace(view, LocalState::Invalid, trigger));
        out.push(CacheAction::Promote {
            state: LocalState::Invalid,
            tag: NOTAG,
        });
        out
    }

    /// Drop every local right on the chunk: release its line, reset to
    /// Invalid and wake the waiters so they re-check.
    fn reset(view: &CacheView, trigger: &'static str) -> Vec<CacheAction> {
        vec![
            CacheAction::ReleaseLine { line: view.line },
            CacheAction::Promote {
                state: LocalState::Invalid,
                tag: NOTAG,
            },
            Self::trace(view, LocalState::Invalid, trigger),
            CacheAction::WakeAllWaiters,
        ]
    }

    /// A local miss: Figure 9's requester column, keyed on current rights.
    fn request(
        view: &CacheView,
        kind: Kind,
        home_down: bool,
        drain_pending: bool,
    ) -> Vec<CacheAction> {
        // A deferred transition on this chunk, or a fill, is pending: queue
        // behind it. With the chunk's home dead, the HomeDown reset (queued
        // behind this request) wakes a waiter on a fill.
        if drain_pending || view.state.in_flight() {
            return vec![CacheAction::QueueWaiter];
        }
        // The rights suffice, or the chunk's home is dead: never start a
        // fill that cannot complete, but wake the requester so the
        // application thread re-checks and observes `NodeUnavailable`.
        if home_down || view.state.permits(kind, || view.op_tag) {
            return vec![CacheAction::WakeRequester];
        }
        // A Shared copy counting acks toward a directed grant (DESIGN.md
        // §4.5) becomes Exclusive at its last ack: wait for it.
        if view.state == LocalState::Shared && view.acks != 0 {
            return vec![CacheAction::QueueWaiter];
        }
        let after = match view.state {
            LocalState::Shared => AfterDrain::Upgrade {
                line: view.line,
                kind,
            },
            LocalState::Operated => AfterDrain::FlushThenUpgrade {
                line: view.line,
                old_op: view.op_tag,
                kind,
            },
            // The same operator re-acquires an idle chunk: a line and an
            // identity buffer, built locally once the line is allocated.
            // Other rights leave the epoch with an empty flush, as
            // `FlushThenUpgrade` does with a line, then miss as Invalid.
            LocalState::OperatedIdle | LocalState::Invalid => {
                let mut out = if view.state == LocalState::OperatedIdle
                    && kind != Kind::Operate(view.op_tag)
                {
                    Self::leave_idle(view, "leave-idle", true)
                } else {
                    Vec::new()
                };
                out.extend([CacheAction::QueueWaiter, CacheAction::AllocLine { kind }]);
                return out;
            }
            s => unreachable!("{s:?} permits every request or is in flight"),
        };
        let (target, tag) = Self::filling(kind);
        vec![
            CacheAction::QueueWaiter,
            CacheAction::BeginDrain { target, tag, after },
        ]
    }

    /// The executor allocated a line for a miss. An idle Operated chunk
    /// re-acquiring under its operator fills the line with the identity and
    /// is Operated again, with no message and no wait on the home; an
    /// Invalid one enters the matching Filling state and sends the request.
    fn line_allocated(view: &CacheView, line: u32, kind: Kind) -> Vec<CacheAction> {
        let mut out = vec![CacheAction::SetLine { line }];
        if view.state == LocalState::OperatedIdle && kind == Kind::Operate(view.op_tag) {
            let op = view.op_tag;
            out.push(CacheAction::InitOperandBuffer { line, op });
            out.extend(Self::complete(
                view,
                LocalState::Operated,
                op,
                Counter::OperateReacquires,
                "reacquire",
            ));
            return out;
        }
        let (state, tag) = Self::filling(kind);
        out.push(match kind {
            Kind::Operate(_) => CacheAction::Promote { state, tag },
            Kind::Read | Kind::Write => CacheAction::SetTransient { state },
        });
        out.push(CacheAction::SendUpgrade { line, kind });
        // Prefetch only on read misses. Prefetching after write and
        // Operate misses too sped up sequential write and apply scans,
        // but contended full-size fig12d and fig17 cells fell 1.6-2.8 %
        // (ROADMAP item 4).
        if kind == Kind::Read {
            out.push(CacheAction::PrefetchHint);
        }
        out
    }

    /// The eviction scan picked this line (executor already checked the
    /// delay flag and refcount): drain with the follow-up the current state
    /// requires. Shared and Exclusive copies drain towards Invalid; an
    /// Operated one drains towards idle, keeping its Operate rights.
    fn evict(view: &CacheView) -> Vec<CacheAction> {
        let line = view.line;
        let (target, tag, after) = match view.state {
            // A copy counting acks toward a directed grant stays.
            LocalState::Shared if view.acks != 0 => return vec![],
            LocalState::Shared => (LocalState::Invalid, NOTAG, AfterDrain::EvictShared { line }),
            LocalState::Exclusive => (
                LocalState::Invalid,
                NOTAG,
                AfterDrain::WritebackInvalidate { line },
            ),
            LocalState::Operated => {
                let op = view.op_tag;
                let after = AfterDrain::FlushInvalidate { line, op };
                (LocalState::OperatedIdle, op, after)
            }
            _ => return vec![], // in-flight, idle or Invalid: not evictable
        };
        vec![
            CacheAction::Count(Counter::Evictions),
            CacheAction::BeginDrain { target, tag, after },
        ]
    }

    /// A drain completed: perform the recorded follow-up.
    fn drained(view: &CacheView, after: AfterDrain, home_down: bool) -> Vec<CacheAction> {
        if home_down {
            return Self::teardown(after);
        }
        let notice = CacheAction::Send {
            to: view.home,
            msg: Msg::EvictNotice,
        };
        match after {
            AfterDrain::Invalidate { line, reply_to } => vec![
                CacheAction::ReleaseLine { line },
                CacheAction::Send {
                    to: reply_to,
                    msg: Msg::InvalidateAck,
                },
                CacheAction::Count(Counter::Invalidations),
                CacheAction::WakeAllWaiters,
            ],
            AfterDrain::WritebackInvalidate { line } | AfterDrain::Downgrade { line } => {
                let downgrade = matches!(after, AfterDrain::Downgrade { .. });
                vec![
                    CacheAction::SendWriteback {
                        line,
                        downgrade,
                        release: !downgrade,
                        direct: false,
                    },
                    CacheAction::Count(Counter::Writebacks),
                    CacheAction::WakeAllWaiters,
                ]
            }
            // The requester's fill leaves first: it is the one that waits.
            AfterDrain::FillRequester {
                line,
                requester,
                dst_off,
                keep,
            } => {
                let mut out = vec![
                    CacheAction::SendFill {
                        line,
                        to: requester,
                        dst_off,
                        exclusive: !keep,
                        release: !keep,
                    },
                    CacheAction::Count(Counter::DirectFills),
                ];
                if keep {
                    out.extend([
                        CacheAction::SendWriteback {
                            line,
                            downgrade: true,
                            release: false,
                            direct: true,
                        },
                        CacheAction::Count(Counter::Writebacks),
                    ]);
                }
                out.push(CacheAction::WakeAllWaiters);
                out
            }
            AfterDrain::FlushInvalidate { line, op } => vec![
                CacheAction::SendFlush {
                    line,
                    op,
                    release: true,
                    // Still idle: an eviction that nothing has revoked since.
                    keep: view.state == LocalState::OperatedIdle,
                },
                CacheAction::Count(Counter::OperandFlushes),
                CacheAction::WakeAllWaiters,
            ],
            AfterDrain::EvictShared { line } => vec![
                CacheAction::ReleaseLine { line },
                notice,
                CacheAction::WakeAllWaiters,
            ],
            AfterDrain::Upgrade { line, kind } => {
                vec![notice, CacheAction::SendUpgrade { line, kind }]
            }
            AfterDrain::FlushThenUpgrade { line, old_op, kind } => vec![
                CacheAction::SendFlush {
                    line,
                    op: old_op,
                    release: false,
                    keep: false,
                },
                CacheAction::Count(Counter::OperandFlushes),
                CacheAction::SendUpgrade { line, kind },
            ],
        }
    }

    /// A drain completed after the chunk's home died: no action may
    /// reference the home — acks, notices, writebacks and flushes would all
    /// be sent to a corpse. Local cleanup still runs, and waiters are woken
    /// so application threads re-check and observe `NodeUnavailable`. Dirty
    /// data and combined operands are dropped — fail-stop: data homed on a
    /// crashed node is lost.
    fn teardown(after: AfterDrain) -> Vec<CacheAction> {
        let (line, then) = match after {
            // Keep the Shared copy the drain installed (graceful
            // degradation: it stays readable locally).
            AfterDrain::Downgrade { .. } | AfterDrain::FillRequester { keep: true, .. } => {
                return vec![CacheAction::WakeAllWaiters]
            }
            AfterDrain::Invalidate { line, .. } => {
                (line, Some(CacheAction::Count(Counter::Invalidations)))
            }
            AfterDrain::WritebackInvalidate { line }
            | AfterDrain::EvictShared { line }
            | AfterDrain::FillRequester { line, .. } => (line, None),
            // A drain toward idle rights or a Filling state resets to
            // Invalid: the idle rights go too, and an upgrade request would
            // never be answered, stranding the chunk in a Filling state.
            AfterDrain::FlushInvalidate { line, .. }
            | AfterDrain::Upgrade { line, .. }
            | AfterDrain::FlushThenUpgrade { line, .. } => (
                line,
                Some(CacheAction::Promote {
                    state: LocalState::Invalid,
                    tag: NOTAG,
                }),
            ),
        };
        let mut out = vec![CacheAction::ReleaseLine { line }];
        out.extend(then);
        out.push(CacheAction::WakeAllWaiters);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(state: LocalState, op_tag: u32, line: u32) -> CacheView {
        CacheView {
            state,
            op_tag,
            line,
            draining: false,
            home: 0,
            acks: 0,
            granted: false,
        }
    }

    #[test]
    fn invalid_miss_allocates_then_fills() {
        let v = view(LocalState::Invalid, NOTAG, super::super::LINE_NONE);
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::Request {
                kind: Kind::Read,
                home_down: false,
                drain_pending: false,
            },
        );
        assert_eq!(
            acts,
            vec![
                CacheAction::QueueWaiter,
                CacheAction::AllocLine { kind: Kind::Read }
            ]
        );
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::LineAllocated {
                line: 4,
                kind: Kind::Read,
            },
        );
        assert!(acts.contains(&CacheAction::SetLine { line: 4 }));
        assert!(acts.contains(&CacheAction::SendUpgrade {
            line: 4,
            kind: Kind::Read
        }));
        assert!(acts.contains(&CacheAction::PrefetchHint));
    }

    #[test]
    fn shared_write_upgrades_via_drain() {
        let v = view(LocalState::Shared, NOTAG, 7);
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::Request {
                kind: Kind::Write,
                home_down: false,
                drain_pending: false,
            },
        );
        assert_eq!(acts[0], CacheAction::QueueWaiter);
        assert!(matches!(
            acts[1],
            CacheAction::BeginDrain {
                target: LocalState::FillingExclusive,
                after: AfterDrain::Upgrade {
                    line: 7,
                    kind: Kind::Write
                },
                ..
            }
        ));
        // The drain completes: evict-notice + upgrade travel together.
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::Drained {
                after: AfterDrain::Upgrade {
                    line: 7,
                    kind: Kind::Write,
                },
                home_down: false,
            },
        );
        assert_eq!(
            acts,
            vec![
                CacheAction::Send {
                    to: 0,
                    msg: Msg::EvictNotice
                },
                CacheAction::SendUpgrade {
                    line: 7,
                    kind: Kind::Write
                }
            ]
        );
    }

    #[test]
    fn operated_tag_match_hits_locally() {
        let v = view(LocalState::Operated, 3, 2);
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::Request {
                kind: Kind::Operate(3),
                home_down: false,
                drain_pending: false,
            },
        );
        assert_eq!(acts, vec![CacheAction::WakeRequester]);
        // A different operator flushes first, then upgrades.
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::Request {
                kind: Kind::Operate(9),
                home_down: false,
                drain_pending: false,
            },
        );
        assert!(matches!(
            acts[1],
            CacheAction::BeginDrain {
                target: LocalState::FillingOperated,
                tag: 9,
                after: AfterDrain::FlushThenUpgrade {
                    line: 2,
                    old_op: 3,
                    kind: Kind::Operate(9)
                },
            }
        ));
    }

    #[test]
    fn stale_recall_is_ignored() {
        // Invalid copy: the recall crossed our voluntary writeback.
        let v = view(LocalState::Invalid, NOTAG, super::super::LINE_NONE);
        assert!(CacheMachine::on_event(&v, CacheEvent::RecallDirty).is_empty());
        // Draining copy: the flush is already on its way.
        let mut v = view(LocalState::Operated, 3, 2);
        v.draining = true;
        assert!(CacheMachine::on_event(&v, CacheEvent::RecallOperated { op: 3 }).is_empty());
        // Wrong epoch: never answer a stale operator recall.
        v.draining = false;
        assert!(CacheMachine::on_event(&v, CacheEvent::RecallOperated { op: 8 }).is_empty());
    }

    #[test]
    fn recall_dirty_writes_back_and_invalidates() {
        let v = view(LocalState::Exclusive, NOTAG, 5);
        let acts = CacheMachine::on_event(&v, CacheEvent::RecallDirty);
        assert_eq!(acts[0], CacheAction::Count(Counter::Recalls));
        assert!(matches!(
            acts[1],
            CacheAction::BeginDrain {
                target: LocalState::Invalid,
                after: AfterDrain::WritebackInvalidate { line: 5 },
                ..
            }
        ));
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::Drained {
                after: AfterDrain::WritebackInvalidate { line: 5 },
                home_down: false,
            },
        );
        assert_eq!(
            acts[0],
            CacheAction::SendWriteback {
                line: 5,
                downgrade: false,
                release: true,
                direct: false,
            }
        );
    }

    /// An intent unlock's downgrade drains an Exclusive copy to Shared,
    /// counting no recall, then writes it back keeping the line; any other
    /// copy, or one already draining, is left alone.
    #[test]
    fn a_voluntary_downgrade_keeps_the_line_shared() {
        let v = view(LocalState::Exclusive, NOTAG, 5);
        let acts = CacheMachine::on_event(&v, CacheEvent::Downgrade);
        assert_eq!(
            acts,
            [CacheAction::BeginDrain {
                target: LocalState::Shared,
                tag: NOTAG,
                after: AfterDrain::Downgrade { line: 5 },
            }]
        );
        let v = view(LocalState::Shared, NOTAG, 5);
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::Drained {
                after: AfterDrain::Downgrade { line: 5 },
                home_down: false,
            },
        );
        assert_eq!(
            acts[0],
            CacheAction::SendWriteback {
                line: 5,
                downgrade: true,
                release: false,
                direct: false,
            }
        );
        for state in [LocalState::Shared, LocalState::FillingExclusive] {
            assert!(
                CacheMachine::on_event(&view(state, NOTAG, 5), CacheEvent::Downgrade).is_empty()
            );
        }
        let mut v = view(LocalState::Exclusive, NOTAG, 5);
        v.draining = true;
        assert!(CacheMachine::on_event(&v, CacheEvent::Downgrade).is_empty());
    }

    #[test]
    fn fill_done_promotes_and_wakes() {
        let v = view(LocalState::FillingShared, NOTAG, 1);
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::FillDone {
                granted: LocalState::Shared,
                direct: false,
            },
        );
        assert!(acts.contains(&CacheAction::Promote {
            state: LocalState::Shared,
            tag: NOTAG
        }));
        assert!(acts.contains(&CacheAction::Count(Counter::Fills)));
        assert_eq!(acts.last(), Some(&CacheAction::WakeAllWaiters));
    }

    /// A three-leg recall: the owner drains, fills the requester before
    /// anything else leaves, and a read's owner then writes back and keeps
    /// its copy; the requester acks the owner's fill, first, even when the
    /// fill is stale.
    #[test]
    fn a_recalled_owner_fills_the_requester_which_acks() {
        for keep in [false, true] {
            let v = view(LocalState::Exclusive, NOTAG, 5);
            let ev = CacheEvent::RecallTo {
                requester: 2,
                dst_off: 64,
                keep,
            };
            let after = AfterDrain::FillRequester {
                line: 5,
                requester: 2,
                dst_off: 64,
                keep,
            };
            let target = if keep {
                LocalState::Shared
            } else {
                LocalState::Invalid
            };
            assert_eq!(
                CacheMachine::on_event(&v, ev),
                [
                    CacheAction::Count(Counter::Recalls),
                    CacheAction::BeginDrain {
                        target,
                        tag: NOTAG,
                        after,
                    },
                ]
            );
            let drained = CacheEvent::Drained {
                after,
                home_down: false,
            };
            let acts = CacheMachine::on_event(&view(target, NOTAG, 5), drained);
            assert_eq!(
                acts[0],
                CacheAction::SendFill {
                    line: 5,
                    to: 2,
                    dst_off: 64,
                    exclusive: !keep,
                    release: !keep,
                }
            );
            let writeback = CacheAction::SendWriteback {
                line: 5,
                downgrade: true,
                release: false,
                direct: true,
            };
            assert_eq!(acts.contains(&writeback), keep, "{acts:?}");
        }
        // A recall that finds no Exclusive copy crossed its writeback.
        let v = view(LocalState::Shared, NOTAG, 5);
        let ev = CacheEvent::RecallTo {
            requester: 2,
            dst_off: 64,
            keep: true,
        };
        assert!(CacheMachine::on_event(&v, ev).is_empty());
        let ack = CacheAction::Send {
            to: 0,
            msg: Msg::FillAck { holds: true },
        };
        for state in [LocalState::FillingShared, LocalState::Invalid] {
            let fill = CacheEvent::FillDone {
                granted: LocalState::Shared,
                direct: true,
            };
            let acts = CacheMachine::on_event(&view(state, NOTAG, 1), fill);
            assert_eq!(acts[0], ack);
            assert_eq!(acts.len() > 1, state == LocalState::FillingShared);
        }
    }

    /// A directed write's requester counts two acks whether they land
    /// before, around or after its fill. It holds the chunk only once the
    /// data and both acks are in: then it wakes its waiters, and then it
    /// acks the home.
    #[test]
    fn a_directed_writer_collects_two_acks_around_its_fill() {
        let (ack, fill) = (CacheEvent::InvAck, CacheEvent::DirectedFill { acks: 2 });
        for order in [[ack, ack, fill], [ack, fill, ack], [fill, ack, ack]] {
            let mut v = view(LocalState::FillingExclusive, NOTAG, 3);
            for (k, ev) in order.into_iter().enumerate() {
                let acts = CacheMachine::on_event(&v, ev);
                let CacheAction::SetAcks { acks, granted } = acts[0] else {
                    panic!("{order:?} step {k}: {acts:?}")
                };
                assert!(!granted);
                v.acks = acks;
                let held = acts.contains(&CacheAction::Promote {
                    state: LocalState::Exclusive,
                    tag: NOTAG,
                });
                assert_eq!(held, k == 2, "{order:?} step {k}: {acts:?}");
                if held {
                    assert_eq!(v.acks, 0);
                    assert_eq!(
                        acts[acts.len() - 2..],
                        [
                            CacheAction::WakeAllWaiters,
                            CacheAction::Send {
                                to: 0,
                                msg: Msg::FillAck { holds: true }
                            }
                        ]
                    );
                }
            }
        }
    }

    /// A directed invalidation is acked to the writer it names whatever the
    /// sharer holds: a Shared copy drains first, a drain under way acks
    /// when it completes, and a copy already gone or still filling acks at
    /// once.
    #[test]
    fn a_directed_invalidation_is_acked_to_its_writer() {
        let ev = CacheEvent::DirectedInvalidate { requester: 2 };
        let acts = CacheMachine::on_event(&view(LocalState::Shared, NOTAG, 5), ev);
        let after = AfterDrain::Invalidate {
            line: 5,
            reply_to: 2,
        };
        assert_eq!(
            acts,
            [CacheAction::BeginDrain {
                target: LocalState::Invalid,
                tag: NOTAG,
                after,
            }]
        );
        let drained = CacheEvent::Drained {
            after,
            home_down: false,
        };
        let acts = CacheMachine::on_event(&view(LocalState::Invalid, NOTAG, 5), drained);
        let ack = CacheAction::Send {
            to: 2,
            msg: Msg::InvalidateAck,
        };
        assert!(acts.contains(&ack), "{acts:?}");
        for state in [
            LocalState::Invalid,
            LocalState::FillingShared,
            LocalState::FillingExclusive,
        ] {
            let line = if state == LocalState::Invalid {
                super::super::LINE_NONE
            } else {
                5
            };
            let mut v = view(state, NOTAG, line);
            assert_eq!(
                CacheMachine::on_event(&v, ev),
                std::slice::from_ref(&ack),
                "{state:?}"
            );
            v.draining = true;
            assert_eq!(
                CacheMachine::on_event(&v, ev),
                [CacheAction::SendAfterDrain {
                    to: 2,
                    msg: Msg::InvalidateAck
                }],
                "{state:?} draining"
            );
        }
    }

    /// Feed `events` to a grantee whose dentry starts as `v`, carrying the
    /// ack count between steps; the actions of each step.
    fn grantee_steps(mut v: CacheView, events: &[CacheEvent]) -> Vec<Vec<CacheAction>> {
        events
            .iter()
            .map(|&ev| {
                let acts = CacheMachine::on_event(&v, ev);
                for a in &acts {
                    if let CacheAction::SetAcks { acks, granted } = a {
                        (v.acks, v.granted) = (*acks, *granted);
                    }
                }
                if acts.contains(&CacheAction::InstallGrant) {
                    (v.state, v.line) = (LocalState::Shared, 3);
                }
                if let Some(CacheAction::Promote { state, .. }) = acts
                    .iter()
                    .find(|a| matches!(a, CacheAction::Promote { .. }))
                {
                    v.state = *state;
                }
                acts
            })
            .collect()
    }

    /// A directed grant's grantee keeps its Shared copy and counts two
    /// acks whether they land before, around or after the grant. Only
    /// once the grant and both acks are in does the copy become Exclusive:
    /// then it wakes its waiters, and then it acks the home.
    #[test]
    fn a_directed_grantee_collects_two_acks_around_its_grant() {
        let grant = CacheEvent::DirectedGrant {
            acks: 2,
            data: false,
        };
        let ack = CacheEvent::InvAck;
        let done = [
            CacheAction::Promote {
                state: LocalState::Exclusive,
                tag: NOTAG,
            },
            CacheAction::Trace(Transition {
                from: "Shared",
                to: "Exclusive",
                trigger: "directed-grant",
            }),
            CacheAction::WakeAllWaiters,
            CacheAction::Send {
                to: 0,
                msg: Msg::FillAck { holds: true },
            },
        ];
        for order in [[ack, ack, grant], [ack, grant, ack], [grant, ack, ack]] {
            let steps = grantee_steps(view(LocalState::Shared, NOTAG, 3), &order);
            for (k, acts) in steps.iter().enumerate() {
                assert_eq!(acts[1..] == done, k == 2, "{order:?} step {k}: {acts:?}");
            }
        }
        // A sole sharer has no ack to wait for: the grant alone completes.
        let steps = grantee_steps(
            view(LocalState::Shared, NOTAG, 3),
            &[CacheEvent::DirectedGrant {
                acks: 0,
                data: false,
            }],
        );
        assert_eq!(steps[0][1..], done);
    }

    /// A grant that carries the chunk's words to a node that holds and
    /// awaits nothing installs them in a fresh line as a Shared copy,
    /// which then counts its ack as a sharer's does.
    #[test]
    fn a_data_grant_installs_a_shared_copy_and_counts_its_acks() {
        let grant = CacheEvent::DirectedGrant {
            acks: 1,
            data: true,
        };
        let v = view(LocalState::Invalid, NOTAG, super::super::LINE_NONE);
        let steps = grantee_steps(v, &[grant, CacheEvent::InvAck]);
        assert_eq!(
            steps[0][..3],
            [
                CacheAction::InstallGrant,
                CacheAction::Count(Counter::Fills),
                CacheAction::Trace(Transition {
                    from: "Invalid",
                    to: "Shared",
                    trigger: "grant-data",
                }),
            ]
        );
        let last = &steps[1];
        assert!(last.contains(&CacheAction::Promote {
            state: LocalState::Exclusive,
            tag: NOTAG
        }));
        assert_eq!(
            last.last(),
            Some(&CacheAction::Send {
                to: 0,
                msg: Msg::FillAck { holds: true }
            })
        );
    }

    /// While its acks come in, the grantee's Shared copy serves reads, and
    /// queues writes until the last ack. It is not evictable meanwhile.
    #[test]
    fn a_grantee_reads_and_queues_its_write_until_the_last_ack() {
        let mut v = view(LocalState::Shared, NOTAG, 3);
        v.acks = 1;
        v.granted = true;
        let req = |kind| CacheEvent::Request {
            kind,
            home_down: false,
            drain_pending: false,
        };
        assert_eq!(
            CacheMachine::on_event(&v, req(Kind::Read)),
            [CacheAction::WakeRequester]
        );
        assert_eq!(
            CacheMachine::on_event(&v, req(Kind::Write)),
            [CacheAction::QueueWaiter]
        );
        assert!(CacheMachine::on_event(&v, CacheEvent::Evict).is_empty());
        let last = CacheMachine::on_event(&v, CacheEvent::InvAck);
        assert!(last.contains(&CacheAction::WakeAllWaiters), "{last:?}");
        // Early acks: the grant is on its way, and the write waits for it.
        v.acks = -1;
        v.granted = false;
        assert_eq!(
            CacheMachine::on_event(&v, req(Kind::Write)),
            [CacheAction::QueueWaiter]
        );
    }

    /// A grantee whose copy the grant counted on is gone, or that declines
    /// a grant's words with a fill or drain under way, holds nothing: it
    /// counts its acks, then acks the home with an empty `FillAck`, never
    /// promoting. Its copy still draining, the ack waits for the drain. A
    /// refill it asked for meanwhile stays awaited.
    #[test]
    fn a_grantee_without_its_copy_acks_empty() {
        let ack = CacheAction::Send {
            to: 0,
            msg: Msg::FillAck { holds: false },
        };
        for (state, draining, data) in [
            (LocalState::Invalid, false, false),
            (LocalState::Invalid, true, false),
            (LocalState::Invalid, true, true),
            (LocalState::FillingShared, false, false),
            (LocalState::FillingShared, false, true),
            (LocalState::FillingExclusive, false, true),
            (LocalState::FillingExclusive, true, false),
        ] {
            {
                let grant = CacheEvent::DirectedGrant { acks: 1, data };
                let mut v = view(state, NOTAG, 3);
                v.draining = draining;
                let steps = grantee_steps(v, &[grant, CacheEvent::InvAck]);
                assert_eq!(
                    steps[0],
                    [CacheAction::SetAcks {
                        acks: 1,
                        granted: true
                    }]
                );
                let last = &steps[1];
                assert!(
                    !last
                        .iter()
                        .any(|a| matches!(a, CacheAction::Promote { .. })),
                    "{state:?}: {last:?}"
                );
                let want = if draining {
                    CacheAction::SendAfterDrain {
                        to: 0,
                        msg: Msg::FillAck { holds: false },
                    }
                } else {
                    ack.clone()
                };
                assert_eq!(last.last(), Some(&want), "{state:?} draining {draining}");
            }
        }
        // The refill's own fill then completes as any fill does.
        let fill = CacheEvent::FillDone {
            granted: LocalState::Exclusive,
            direct: false,
        };
        let acts = CacheMachine::on_event(&view(LocalState::FillingExclusive, NOTAG, 3), fill);
        assert!(acts.contains(&CacheAction::Promote {
            state: LocalState::Exclusive,
            tag: NOTAG
        }));
    }

    #[test]
    fn home_down_resets_in_flight_fills_only() {
        let v = view(LocalState::FillingExclusive, NOTAG, 3);
        let acts = CacheMachine::on_event(&v, CacheEvent::HomeDown);
        assert!(acts.contains(&CacheAction::ReleaseLine { line: 3 }));
        assert!(acts.contains(&CacheAction::Promote {
            state: LocalState::Invalid,
            tag: NOTAG
        }));
        // Stable copies keep working locally (graceful degradation).
        let v = view(LocalState::Exclusive, NOTAG, 3);
        assert!(CacheMachine::on_event(&v, CacheEvent::HomeDown).is_empty());
    }

    #[test]
    fn home_restart_resets_stable_rights_too() {
        // Unlike HomeDown, a restarted (cold-directory) home invalidates
        // even stable local rights — they are unsound against a directory
        // that no longer remembers granting them.
        for state in [
            LocalState::Shared,
            LocalState::Exclusive,
            LocalState::FillingShared,
        ] {
            let v = view(state, NOTAG, 3);
            let acts = CacheMachine::on_event(&v, CacheEvent::HomeRestarted);
            assert!(
                acts.contains(&CacheAction::ReleaseLine { line: 3 }),
                "{state:?} must release its line on home restart"
            );
            assert!(acts.contains(&CacheAction::Promote {
                state: LocalState::Invalid,
                tag: NOTAG
            }));
            assert_eq!(acts.last(), Some(&CacheAction::WakeAllWaiters));
        }
        // Nothing held: nothing to do.
        let v = view(LocalState::Invalid, NOTAG, super::super::LINE_NONE);
        assert!(CacheMachine::on_event(&v, CacheEvent::HomeRestarted).is_empty());
    }

    #[test]
    fn home_moved_resets_stale_rights_like_a_restart() {
        for state in [
            LocalState::Shared,
            LocalState::Exclusive,
            LocalState::FillingShared,
        ] {
            let v = view(state, NOTAG, 4);
            let acts = CacheMachine::on_event(&v, CacheEvent::HomeMoved);
            assert!(
                acts.contains(&CacheAction::ReleaseLine { line: 4 }),
                "{state:?} must release its line when the home moves"
            );
            assert!(acts.contains(&CacheAction::Promote {
                state: LocalState::Invalid,
                tag: NOTAG
            }));
            assert_eq!(acts.last(), Some(&CacheAction::WakeAllWaiters));
        }
        // The common case after the recall fence: nothing held, no-op.
        let v = view(LocalState::Invalid, NOTAG, super::super::LINE_NONE);
        assert!(CacheMachine::on_event(&v, CacheEvent::HomeMoved).is_empty());
        // Mid-drain: the continuation owns the teardown.
        let mut v = view(LocalState::Shared, NOTAG, 4);
        v.draining = true;
        assert!(CacheMachine::on_event(&v, CacheEvent::HomeMoved).is_empty());
    }

    #[test]
    fn upgrade_after_home_death_resets_instead_of_stranding() {
        let v = view(LocalState::FillingExclusive, NOTAG, 7);
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::Drained {
                after: AfterDrain::Upgrade {
                    line: 7,
                    kind: Kind::Write,
                },
                home_down: true,
            },
        );
        assert_eq!(acts[0], CacheAction::ReleaseLine { line: 7 });
        assert!(acts.contains(&CacheAction::Promote {
            state: LocalState::Invalid,
            tag: NOTAG
        }));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, CacheAction::SendUpgrade { .. })));
    }

    #[test]
    fn no_drain_continuation_messages_a_dead_home() {
        // Every AfterDrain variant must stay silent when the home is dead:
        // cleanup is local-only and waiters are woken to observe the error.
        let cases = [
            AfterDrain::Invalidate {
                line: 1,
                reply_to: 0,
            },
            AfterDrain::WritebackInvalidate { line: 1 },
            AfterDrain::Downgrade { line: 1 },
            AfterDrain::FlushInvalidate { line: 1, op: 3 },
            AfterDrain::EvictShared { line: 1 },
            AfterDrain::Upgrade {
                line: 1,
                kind: Kind::Write,
            },
            AfterDrain::FlushThenUpgrade {
                line: 1,
                old_op: 3,
                kind: Kind::Operate(9),
            },
        ];
        for after in cases {
            let v = view(LocalState::Invalid, NOTAG, 1);
            let acts = CacheMachine::on_event(
                &v,
                CacheEvent::Drained {
                    after,
                    home_down: true,
                },
            );
            assert!(
                !acts.iter().any(|a| matches!(
                    a,
                    CacheAction::Send { .. }
                        | CacheAction::SendWriteback { .. }
                        | CacheAction::SendFlush { .. }
                        | CacheAction::SendUpgrade { .. }
                )),
                "{after:?} with home_down produced a send: {acts:?}"
            );
            assert!(
                acts.contains(&CacheAction::WakeAllWaiters),
                "{after:?} with home_down must wake waiters: {acts:?}"
            );
        }
    }

    #[test]
    fn eviction_follows_state_specific_protocol() {
        let shared = view(LocalState::Shared, NOTAG, 1);
        let acts = CacheMachine::on_event(&shared, CacheEvent::Evict);
        assert!(matches!(
            acts[1],
            CacheAction::BeginDrain {
                after: AfterDrain::EvictShared { line: 1 },
                ..
            }
        ));
        let operated = view(LocalState::Operated, 4, 2);
        let acts = CacheMachine::on_event(&operated, CacheEvent::Evict);
        assert!(matches!(
            acts[1],
            CacheAction::BeginDrain {
                after: AfterDrain::FlushInvalidate { line: 2, op: 4 },
                ..
            }
        ));
        let filling = view(LocalState::FillingShared, NOTAG, 3);
        assert!(CacheMachine::on_event(&filling, CacheEvent::Evict).is_empty());
        let idle = view(LocalState::OperatedIdle, 4, super::super::LINE_NONE);
        assert!(CacheMachine::on_event(&idle, CacheEvent::Evict).is_empty());
    }

    fn request(kind: Kind) -> CacheEvent {
        CacheEvent::Request {
            kind,
            home_down: false,
            drain_pending: false,
        }
    }

    fn empty_flush(op: u32) -> CacheAction {
        CacheAction::Send {
            to: 0,
            msg: Msg::OperandFlush {
                op,
                data: Vec::new(),
                keep: false,
            },
        }
    }

    /// An evicted Operated line drains to idle under its operator and goes
    /// home in a keep flush; a chunk the drain finds Invalid again (a
    /// recall, restart or move reached it) flushes without keeping, and a
    /// dead home leaves it Invalid.
    #[test]
    fn an_evicted_operated_line_keeps_its_rights() {
        let acts = CacheMachine::on_event(&view(LocalState::Operated, 4, 2), CacheEvent::Evict);
        let after = AfterDrain::FlushInvalidate { line: 2, op: 4 };
        assert_eq!(
            acts[1],
            CacheAction::BeginDrain {
                target: LocalState::OperatedIdle,
                tag: 4,
                after,
            }
        );
        let drained = |state, tag, home_down| {
            let mut v = view(state, tag, 2);
            v.draining = true;
            CacheMachine::on_event(&v, CacheEvent::Drained { after, home_down })
        };
        for (state, tag, keep) in [
            (LocalState::OperatedIdle, 4, true),
            (LocalState::Invalid, NOTAG, false),
        ] {
            assert_eq!(
                drained(state, tag, false)[0],
                CacheAction::SendFlush {
                    line: 2,
                    op: 4,
                    release: true,
                    keep,
                }
            );
        }
        assert_eq!(
            drained(LocalState::OperatedIdle, 4, true),
            vec![
                CacheAction::ReleaseLine { line: 2 },
                CacheAction::Promote {
                    state: LocalState::Invalid,
                    tag: NOTAG,
                },
                CacheAction::WakeAllWaiters,
            ]
        );
    }

    /// The same operator re-acquires an idle chunk with a line and an
    /// identity buffer, and no message; it counts no fill.
    #[test]
    fn an_idle_chunk_reacquires_locally() {
        let v = view(LocalState::OperatedIdle, 4, super::super::LINE_NONE);
        let op = Kind::Operate(4);
        assert_eq!(
            CacheMachine::on_event(&v, request(op)),
            vec![
                CacheAction::QueueWaiter,
                CacheAction::AllocLine { kind: op }
            ]
        );
        let acts = CacheMachine::on_event(&v, CacheEvent::LineAllocated { line: 6, kind: op });
        assert_eq!(
            acts[..3],
            [
                CacheAction::SetLine { line: 6 },
                CacheAction::InitOperandBuffer { line: 6, op: 4 },
                CacheAction::Promote {
                    state: LocalState::Operated,
                    tag: 4,
                },
            ]
        );
        assert!(acts.contains(&CacheAction::Count(Counter::OperateReacquires)));
        assert!(!acts.contains(&CacheAction::Count(Counter::Fills)));
        assert_eq!(acts.last(), Some(&CacheAction::WakeAllWaiters));
        assert!(!acts.iter().any(|a| matches!(
            a,
            CacheAction::Send { .. } | CacheAction::SendUpgrade { .. }
        )));
    }

    /// Other rights leave the epoch with an empty flush first, then miss as
    /// an Invalid chunk does.
    #[test]
    fn an_idle_chunk_leaves_with_an_empty_flush() {
        let v = view(LocalState::OperatedIdle, 4, super::super::LINE_NONE);
        for kind in [Kind::Read, Kind::Write, Kind::Operate(9)] {
            let acts = CacheMachine::on_event(&v, request(kind));
            assert_eq!(acts[0], empty_flush(4), "{kind:?}");
            assert!(acts.contains(&CacheAction::Promote {
                state: LocalState::Invalid,
                tag: NOTAG,
            }));
            assert_eq!(
                acts[acts.len() - 2..],
                [CacheAction::QueueWaiter, CacheAction::AllocLine { kind }]
            );
        }
        // With the home down the requester wakes to see it unavailable.
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::Request {
                kind: Kind::Operate(4),
                home_down: true,
                drain_pending: false,
            },
        );
        assert_eq!(acts, vec![CacheAction::WakeRequester]);
    }

    /// A recall that finds the chunk idle is answered at once; one that
    /// reaches the eviction drain marks the chunk Invalid so the drain's
    /// own flush answers it; another operator's recall is stale.
    #[test]
    fn a_recall_of_an_idle_chunk_is_answered_at_once() {
        let mut v = view(LocalState::OperatedIdle, 4, super::super::LINE_NONE);
        let invalid = CacheAction::Promote {
            state: LocalState::Invalid,
            tag: NOTAG,
        };
        let acts = CacheMachine::on_event(&v, CacheEvent::RecallOperated { op: 4 });
        assert_eq!(acts[1], empty_flush(4));
        assert!(acts.contains(&invalid));
        assert!(CacheMachine::on_event(&v, CacheEvent::RecallOperated { op: 9 }).is_empty());
        v.draining = true;
        v.line = 2;
        for ev in [
            CacheEvent::RecallOperated { op: 4 },
            CacheEvent::HomeRestarted,
            CacheEvent::HomeMoved,
        ] {
            let acts = CacheMachine::on_event(&v, ev);
            assert_eq!(acts.last(), Some(&invalid), "{ev:?}");
            assert!(!acts.iter().any(|a| matches!(a, CacheAction::Send { .. })));
        }
        // Stable rights kept against a dead home; a restart drops them.
        v.draining = false;
        v.line = super::super::LINE_NONE;
        assert!(CacheMachine::on_event(&v, CacheEvent::HomeDown).is_empty());
        assert!(CacheMachine::on_event(&v, CacheEvent::HomeRestarted).contains(&invalid));
    }

    // -----------------------------------------------------------------
    // The full view x event sweep.
    // -----------------------------------------------------------------

    fn all_cache_events() -> Vec<CacheEvent> {
        use CacheEvent::*;
        let mut v = Vec::new();
        for kind in [Kind::Read, Kind::Write, Kind::Operate(5)] {
            for home_down in [false, true] {
                for drain_pending in [false, true] {
                    v.push(Request {
                        kind,
                        home_down,
                        drain_pending,
                    });
                }
            }
            v.push(LineAllocated { line: 3, kind });
        }
        for granted in [LocalState::Shared, LocalState::Exclusive] {
            // From the home, and from a recalled owner.
            for direct in [false, true] {
                v.push(FillDone { granted, direct });
            }
        }
        for op in [5, 9] {
            v.push(GrantDone { op });
            v.push(RecallOperated { op });
        }
        v.push(Invalidate { from: 0 });
        v.push(DirectedInvalidate { requester: 2 });
        v.push(DirectedFill { acks: 2 });
        for data in [false, true] {
            v.push(DirectedGrant { acks: 2, data });
        }
        v.push(InvAck);
        v.push(RecallDirty);
        v.push(DowngradeDirty);
        for keep in [false, true] {
            v.push(RecallTo {
                requester: 2,
                dst_off: 64,
                keep,
            });
        }
        v.push(Evict);
        v.push(Downgrade);
        let afters = [
            AfterDrain::Invalidate {
                line: 3,
                reply_to: 0,
            },
            AfterDrain::WritebackInvalidate { line: 3 },
            AfterDrain::Downgrade { line: 3 },
            AfterDrain::FlushInvalidate { line: 3, op: 5 },
            AfterDrain::EvictShared { line: 3 },
            AfterDrain::Upgrade {
                line: 3,
                kind: Kind::Write,
            },
            AfterDrain::FlushThenUpgrade {
                line: 3,
                old_op: 5,
                kind: Kind::Operate(9),
            },
            AfterDrain::FillRequester {
                line: 3,
                requester: 2,
                dst_off: 64,
                keep: false,
            },
            AfterDrain::FillRequester {
                line: 3,
                requester: 2,
                dst_off: 64,
                keep: true,
            },
        ];
        for after in afters {
            for home_down in [false, true] {
                v.push(Drained { after, home_down });
            }
        }
        v.push(HomeDown);
        v.push(HomeRestarted);
        v.push(HomeMoved);
        v
    }

    #[test]
    fn cache_machine_total_over_view_event_product() {
        let states = [
            LocalState::Invalid,
            LocalState::Shared,
            LocalState::Exclusive,
            LocalState::Operated,
            LocalState::FillingShared,
            LocalState::FillingExclusive,
            LocalState::FillingOperated,
            LocalState::OperatedIdle,
        ];
        let mut pairs = 0usize;
        for state in states {
            for line in [super::super::LINE_NONE, 3] {
                for draining in [false, true] {
                    for (op_tag, acks, granted) in [
                        (NOTAG, -1, false),
                        (NOTAG, 0, false),
                        (NOTAG, 1, false),
                        (NOTAG, 1, true),
                        (5, 0, false),
                    ] {
                        let view = CacheView {
                            state,
                            op_tag,
                            line,
                            draining,
                            home: 0,
                            acks,
                            granted,
                        };
                        for ev in all_cache_events() {
                            let is_request = matches!(ev, CacheEvent::Request { .. });
                            let acts = CacheMachine::on_event(&view, ev);
                            pairs += 1;
                            // The requester wait-cell is consumed exactly once
                            // on Request events and never otherwise — the
                            // executor relies on this to hand off the waiter.
                            let consumes = acts
                                .iter()
                                .filter(|a| {
                                    matches!(
                                        a,
                                        CacheAction::QueueWaiter | CacheAction::WakeRequester
                                    )
                                })
                                .count();
                            if is_request {
                                assert_eq!(
                                    consumes, 1,
                                    "Request must queue or wake exactly once: {view:?} -> {acts:?}"
                                );
                            } else {
                                assert_eq!(
                                    consumes, 0,
                                    "non-Request event consumed a requester: {view:?} -> {acts:?}"
                                );
                            }
                            // A single event starts at most one drain and
                            // allocates at most one line.
                            for pat in [
                                acts.iter()
                                    .filter(|a| matches!(a, CacheAction::BeginDrain { .. }))
                                    .count(),
                                acts.iter()
                                    .filter(|a| matches!(a, CacheAction::AllocLine { .. }))
                                    .count(),
                            ] {
                                assert!(pat <= 1, "duplicated structural action: {acts:?}");
                            }
                        }
                    }
                }
            }
        }
        // 8 states x 2 lines x 2 drain flags x 5 (tag, acks, granted) x
        // |events|.
        assert!(pairs > 1_500, "sweep unexpectedly small: {pairs} pairs");
    }
}
