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
    /// Flush combined operands and invalidate (recall or eviction).
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
    /// A fill notification arrived (data already RDMA-written to our line).
    FillDone {
        /// Rights granted: `Shared` or `Exclusive`.
        granted: LocalState,
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
    /// The home recalls our Dirty ownership (write it back, invalidate).
    RecallDirty,
    /// The home downgrades our Dirty ownership (write back, keep Shared).
    DowngradeDirty,
    /// The home recalls our Operated membership under `op`.
    RecallOperated {
        /// The operator epoch being closed.
        op: u32,
    },
    /// The eviction scan picked this chunk's line for reclamation.
    Evict,
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
    /// RDMA-write the line back to the home subarray and send
    /// `WritebackNotice`.
    SendWriteback {
        /// The cacheline holding the data.
        line: u32,
        /// True to keep a Shared copy (downgrade), false to invalidate.
        downgrade: bool,
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
        match ev {
            CacheEvent::Request {
                kind,
                home_down,
                drain_pending,
            } => Self::request(view, kind, home_down, drain_pending),
            CacheEvent::LineAllocated { line, kind } => Self::line_allocated(line, kind),
            CacheEvent::FillDone { granted } => Self::fill_done(view, granted),
            CacheEvent::GrantDone { op } => Self::grant_done(view, op),
            CacheEvent::Invalidate { from } => {
                if view.state == LocalState::Shared && !view.draining {
                    vec![CacheAction::BeginDrain {
                        target: LocalState::Invalid,
                        tag: NOTAG,
                        after: AfterDrain::Invalidate {
                            line: view.line,
                            reply_to: from,
                        },
                    }]
                } else {
                    // Our copy is already gone or on its way out — an
                    // EvictNotice (or upgrade drop) from us is already in
                    // flight on the same FIFO link and will satisfy the
                    // home's ack set. Sending an extra ack here would be a
                    // *stale* ack that could corrupt a later invalidation
                    // epoch.
                    vec![]
                }
            }
            CacheEvent::RecallDirty => {
                if view.state == LocalState::Exclusive && !view.draining {
                    vec![
                        CacheAction::Count(Counter::Recalls),
                        CacheAction::BeginDrain {
                            target: LocalState::Invalid,
                            tag: NOTAG,
                            after: AfterDrain::WritebackInvalidate { line: view.line },
                        },
                    ]
                } else {
                    // A voluntary writeback is already in flight (FIFO
                    // guarantees the home sees it).
                    vec![]
                }
            }
            CacheEvent::DowngradeDirty => {
                if view.state == LocalState::Exclusive && !view.draining {
                    vec![
                        CacheAction::Count(Counter::Recalls),
                        CacheAction::BeginDrain {
                            target: LocalState::Shared,
                            tag: NOTAG,
                            after: AfterDrain::Downgrade { line: view.line },
                        },
                    ]
                } else {
                    vec![]
                }
            }
            CacheEvent::RecallOperated { op } => {
                if view.state == LocalState::Operated && !view.draining && view.op_tag == op {
                    vec![
                        CacheAction::Count(Counter::Recalls),
                        CacheAction::BeginDrain {
                            target: LocalState::Invalid,
                            tag: NOTAG,
                            after: AfterDrain::FlushInvalidate {
                                line: view.line,
                                op,
                            },
                        },
                    ]
                } else {
                    // Nothing to flush — a voluntary flush of this operator
                    // is already in flight on the same FIFO link (eviction
                    // or operator change always flushes before leaving the
                    // Operated state) and will satisfy the home's flush
                    // set. Replying with an extra empty flush would be a
                    // *stale* message that could remove us from a LATER
                    // Operated epoch's sharer set (observed in property
                    // testing as a lost operand).
                    vec![]
                }
            }
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
            // node still holds.
            CacheEvent::HomeRestarted if view.state != LocalState::Invalid && !view.draining => {
                Self::reset(view, "home-restarted")
            }
            CacheEvent::HomeMoved if view.state != LocalState::Invalid && !view.draining => {
                Self::reset(view, "home-moved")
            }
            CacheEvent::HomeDown | CacheEvent::HomeRestarted | CacheEvent::HomeMoved => vec![],
        }
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
            CacheAction::Trace(Transition {
                from: view.state.name(),
                to: LocalState::Invalid.name(),
                trigger,
            }),
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
        // A deferred transition on this chunk is pending: queue behind it.
        if drain_pending {
            return vec![CacheAction::QueueWaiter];
        }
        // The chunk's home is dead: never start a fill that cannot
        // complete. If a fill is already in flight, the HomeDown reset
        // (queued behind this request) will wake the waiter; otherwise wake
        // it now so the application thread re-checks and observes
        // `NodeUnavailable`.
        if home_down {
            return if view.state.in_flight() {
                vec![CacheAction::QueueWaiter]
            } else {
                vec![CacheAction::WakeRequester]
            };
        }
        match view.state {
            s if s.in_flight() => vec![CacheAction::QueueWaiter],
            LocalState::Exclusive => vec![CacheAction::WakeRequester],
            LocalState::Shared => match kind {
                Kind::Read => vec![CacheAction::WakeRequester],
                Kind::Write => vec![
                    CacheAction::QueueWaiter,
                    CacheAction::BeginDrain {
                        target: LocalState::FillingExclusive,
                        tag: NOTAG,
                        after: AfterDrain::Upgrade {
                            line: view.line,
                            kind: Kind::Write,
                        },
                    },
                ],
                Kind::Operate(op) => vec![
                    CacheAction::QueueWaiter,
                    CacheAction::BeginDrain {
                        target: LocalState::FillingOperated,
                        tag: op,
                        after: AfterDrain::Upgrade {
                            line: view.line,
                            kind: Kind::Operate(op),
                        },
                    },
                ],
            },
            LocalState::Operated => {
                if kind == Kind::Operate(view.op_tag) {
                    return vec![CacheAction::WakeRequester];
                }
                let (target, new_tag) = match kind {
                    Kind::Read => (LocalState::FillingShared, NOTAG),
                    Kind::Write => (LocalState::FillingExclusive, NOTAG),
                    Kind::Operate(op) => (LocalState::FillingOperated, op),
                };
                vec![
                    CacheAction::QueueWaiter,
                    CacheAction::BeginDrain {
                        target,
                        tag: new_tag,
                        after: AfterDrain::FlushThenUpgrade {
                            line: view.line,
                            old_op: view.op_tag,
                            kind,
                        },
                    },
                ]
            }
            LocalState::Invalid => vec![CacheAction::QueueWaiter, CacheAction::AllocLine { kind }],
            LocalState::FillingShared
            | LocalState::FillingExclusive
            | LocalState::FillingOperated => unreachable!("covered by in_flight arm"),
        }
    }

    /// The executor allocated a line for an Invalid-miss: enter the
    /// matching Filling state and send the request.
    fn line_allocated(line: u32, kind: Kind) -> Vec<CacheAction> {
        let mut out = vec![CacheAction::SetLine { line }];
        match kind {
            Kind::Read => {
                out.push(CacheAction::SetTransient {
                    state: LocalState::FillingShared,
                });
                out.push(CacheAction::SendUpgrade {
                    line,
                    kind: Kind::Read,
                });
                // Prefetch only on read misses: write/operate fills are
                // never speculatively useful.
                out.push(CacheAction::PrefetchHint);
            }
            Kind::Write => {
                out.push(CacheAction::SetTransient {
                    state: LocalState::FillingExclusive,
                });
                out.push(CacheAction::SendUpgrade {
                    line,
                    kind: Kind::Write,
                });
            }
            Kind::Operate(op) => {
                out.push(CacheAction::Promote {
                    state: LocalState::FillingOperated,
                    tag: op,
                });
                out.push(CacheAction::SendUpgrade {
                    line,
                    kind: Kind::Operate(op),
                });
            }
        }
        out
    }

    /// A fill completed: the data was RDMA-written into our cacheline
    /// before this notification (RC FIFO ordering).
    fn fill_done(view: &CacheView, granted: LocalState) -> Vec<CacheAction> {
        let expected = match granted {
            LocalState::Shared => LocalState::FillingShared,
            LocalState::Exclusive => LocalState::FillingExclusive,
            _ => unreachable!("fills grant Shared or Exclusive"),
        };
        if view.state != expected {
            // Stale: the line was torn down (e.g. HomeDown) while the fill
            // was in flight.
            return vec![];
        }
        vec![
            CacheAction::Promote {
                state: granted,
                tag: NOTAG,
            },
            CacheAction::Count(Counter::Fills),
            CacheAction::Trace(Transition {
                from: view.state.name(),
                to: granted.name(),
                trigger: "fill",
            }),
            CacheAction::WakeAllWaiters,
        ]
    }

    /// An Operated grant arrived: initialize the operand buffer to the
    /// operator's identity (no data travels for grants).
    fn grant_done(view: &CacheView, op: u32) -> Vec<CacheAction> {
        if view.state != LocalState::FillingOperated {
            // Stale: the line was torn down while the grant was in flight.
            return vec![];
        }
        vec![
            CacheAction::InitOperandBuffer {
                line: view.line,
                op,
            },
            CacheAction::Promote {
                state: LocalState::Operated,
                tag: op,
            },
            CacheAction::Count(Counter::Fills),
            CacheAction::Trace(Transition {
                from: view.state.name(),
                to: LocalState::Operated.name(),
                trigger: "grant",
            }),
            CacheAction::WakeAllWaiters,
        ]
    }

    /// The eviction scan picked this line (executor already checked the
    /// delay flag and refcount): drain towards Invalid with the follow-up
    /// the current state requires.
    fn evict(view: &CacheView) -> Vec<CacheAction> {
        let after = match view.state {
            LocalState::Shared => AfterDrain::EvictShared { line: view.line },
            LocalState::Exclusive => AfterDrain::WritebackInvalidate { line: view.line },
            LocalState::Operated => AfterDrain::FlushInvalidate {
                line: view.line,
                op: view.op_tag,
            },
            _ => return vec![], // in-flight or Invalid: not evictable
        };
        vec![
            CacheAction::Count(Counter::Evictions),
            CacheAction::BeginDrain {
                target: LocalState::Invalid,
                tag: NOTAG,
                after,
            },
        ]
    }

    /// A drain completed: perform the recorded follow-up.
    ///
    /// Every arm checks `home_down`: if the chunk's home died while the
    /// drain was pending, no action may reference it — acks, notices,
    /// writebacks and flushes would all be sent to a corpse (and a pending
    /// upgrade would strand the chunk in a Filling state forever). Local
    /// cleanup still runs, and waiters are woken so application threads
    /// re-check and observe `NodeUnavailable`. Dirty data and combined
    /// operands are dropped — fail-stop: data homed on a crashed node is
    /// lost.
    fn drained(view: &CacheView, after: AfterDrain, home_down: bool) -> Vec<CacheAction> {
        let notice = CacheAction::Send {
            to: view.home,
            msg: Msg::EvictNotice,
        };
        match after {
            AfterDrain::Invalidate { line, reply_to } => {
                if home_down {
                    vec![
                        CacheAction::ReleaseLine { line },
                        CacheAction::Count(Counter::Invalidations),
                        CacheAction::WakeAllWaiters,
                    ]
                } else {
                    vec![
                        CacheAction::ReleaseLine { line },
                        CacheAction::Send {
                            to: reply_to,
                            msg: Msg::InvalidateAck,
                        },
                        CacheAction::Count(Counter::Invalidations),
                        CacheAction::WakeAllWaiters,
                    ]
                }
            }
            AfterDrain::WritebackInvalidate { line } => {
                if home_down {
                    vec![
                        CacheAction::ReleaseLine { line },
                        CacheAction::WakeAllWaiters,
                    ]
                } else {
                    vec![
                        CacheAction::SendWriteback {
                            line,
                            downgrade: false,
                            release: true,
                        },
                        CacheAction::Count(Counter::Writebacks),
                        CacheAction::WakeAllWaiters,
                    ]
                }
            }
            AfterDrain::Downgrade { line } => {
                if home_down {
                    // Keep the Shared copy the drain installed (graceful
                    // degradation: it stays readable locally); just skip the
                    // wire writeback.
                    let _ = line;
                    vec![CacheAction::WakeAllWaiters]
                } else {
                    vec![
                        CacheAction::SendWriteback {
                            line,
                            downgrade: true,
                            release: false,
                        },
                        CacheAction::Count(Counter::Writebacks),
                        CacheAction::WakeAllWaiters,
                    ]
                }
            }
            AfterDrain::FlushInvalidate { line, op } => {
                if home_down {
                    let _ = op;
                    vec![
                        CacheAction::ReleaseLine { line },
                        CacheAction::WakeAllWaiters,
                    ]
                } else {
                    vec![
                        CacheAction::SendFlush {
                            line,
                            op,
                            release: true,
                        },
                        CacheAction::Count(Counter::OperandFlushes),
                        CacheAction::WakeAllWaiters,
                    ]
                }
            }
            AfterDrain::EvictShared { line } => {
                if home_down {
                    vec![
                        CacheAction::ReleaseLine { line },
                        CacheAction::WakeAllWaiters,
                    ]
                } else {
                    vec![
                        CacheAction::ReleaseLine { line },
                        notice,
                        CacheAction::WakeAllWaiters,
                    ]
                }
            }
            AfterDrain::Upgrade { line, kind } => {
                // If the home died while the drain was pending, an upgrade
                // request would never be answered: reset to Invalid instead
                // of stranding the chunk in a Filling state.
                if home_down {
                    vec![
                        CacheAction::ReleaseLine { line },
                        CacheAction::Promote {
                            state: LocalState::Invalid,
                            tag: NOTAG,
                        },
                        CacheAction::WakeAllWaiters,
                    ]
                } else {
                    vec![notice, CacheAction::SendUpgrade { line, kind }]
                }
            }
            AfterDrain::FlushThenUpgrade { line, old_op, kind } => {
                if home_down {
                    // The combined operands have nowhere to go (fail-stop:
                    // data homed on a crashed node is lost).
                    vec![
                        CacheAction::ReleaseLine { line },
                        CacheAction::Promote {
                            state: LocalState::Invalid,
                            tag: NOTAG,
                        },
                        CacheAction::WakeAllWaiters,
                    ]
                } else {
                    vec![
                        CacheAction::SendFlush {
                            line,
                            op: old_op,
                            release: false,
                        },
                        CacheAction::Count(Counter::OperandFlushes),
                        CacheAction::SendUpgrade { line, kind },
                    ]
                }
            }
        }
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
                release: true
            }
        );
    }

    #[test]
    fn fill_done_promotes_and_wakes() {
        let v = view(LocalState::FillingShared, NOTAG, 1);
        let acts = CacheMachine::on_event(
            &v,
            CacheEvent::FillDone {
                granted: LocalState::Shared,
            },
        );
        assert!(acts.contains(&CacheAction::Promote {
            state: LocalState::Shared,
            tag: NOTAG
        }));
        assert!(acts.contains(&CacheAction::Count(Counter::Fills)));
        assert_eq!(acts.last(), Some(&CacheAction::WakeAllWaiters));
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
    }
}
