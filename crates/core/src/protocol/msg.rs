//! The **coherence message vocabulary**: every message two runtimes
//! exchange about one chunk (Figure 9), and the one statement of what each
//! becomes at its receiver ([`Msg::deliver`]).
//!
//! The machines emit messages ([`HomeAction::Send`](super::HomeAction::Send),
//! [`CacheAction::Send`](super::CacheAction::Send), and the actions that
//! move chunk data), the executor ships them in a wire envelope that names
//! the array and chunk, and the receiver hands each to `deliver` for the
//! event its machine consumes. The model checkers put the same `Msg` on
//! their links and deliver it through the same function, so they check
//! the mapping the runtime runs.

use crate::state::LocalState;

use super::{CacheEvent, HomeEvent, Kind, NodeId, Request, Requester};

/// One coherence message about one chunk. The chunk (and its array) ride
/// in the envelope around the message; data travels by one-sided RDMA
/// WRITE ahead of the notifications that say so, except combined operands,
/// which need CPU reduction at the receiver.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Msg {
    /// Requester → home: a Shared copy, filled at `dst_off`.
    ReadReq {
        /// Destination word offset in the requester's cache region.
        dst_off: u64,
    },
    /// Requester → home: exclusive (Dirty) ownership, filled at `dst_off`.
    WriteReq {
        /// Destination word offset in the requester's cache region.
        dst_off: u64,
    },
    /// Requester → home: membership in the Operated set under `op` (no data
    /// travels, so no fill offset does either).
    OperateReq {
        /// The operator id.
        op: u32,
    },
    /// Requester → home: the Shared copy was dropped silently.
    EvictNotice,
    /// Requester → home: the Dirty data was RDMA-written back.
    WritebackNotice {
        /// True if the sender keeps a Shared copy.
        downgrade: bool,
        /// True if the sender also filled the requester a [`Msg::RecallTo`]
        /// named: this writeback is the one that recall waits for. Any
        /// other writeback from the owner crossed the recall.
        direct: bool,
    },
    /// Requester → home: combined operands, reduced into the home image.
    OperandFlush {
        /// The operator they were combined under.
        op: u32,
        /// One operand per chunk word (empty = nothing to reduce).
        data: Vec<u64>,
        /// The sender evicted its line but keeps its Operate rights: it
        /// stays in the sharer set, and the flush does not count toward
        /// closing the epoch.
        keep: bool,
    },
    /// Home (or a recalled owner) → requester: a read fill landed in the
    /// requester's line.
    FillShared {
        /// Sent by a Dirty owner the home recalled with [`Msg::RecallTo`]:
        /// the requester acks it to the home.
        direct: bool,
    },
    /// Home (or a recalled owner) → requester: an exclusive fill landed in
    /// the requester's line.
    FillExclusive {
        /// Sent by a recalled owner, as for [`Msg::FillShared`].
        direct: bool,
    },
    /// Requester → home: a recalled owner's fill landed (the last leg of a
    /// [`Msg::RecallTo`]), or a directed write's or grant's acks are in.
    FillAck {
        /// False for a directed grant's grantee that holds no copy: its
        /// eviction crossed the grant, or it declined the chunk's words
        /// with a fill or drain of its own under way (DESIGN.md §4.5).
        holds: bool,
    },
    /// Home → requester: Operated access under `op`; the requester starts
    /// its operand buffer from the identity.
    GrantOperated {
        /// The operator granted.
        op: u32,
    },
    /// Home → sharer: drop the Shared copy and acknowledge.
    Invalidate,
    /// Sharer → the home that sent the `Invalidate`, or the writer a
    /// [`Msg::DirectedInvalidate`] named: the copy is gone. The receiver
    /// tells which it answers: the chunk's home counts it toward its own
    /// wait, any other node toward its directed write.
    InvalidateAck,
    /// Home → Dirty owner: write back and invalidate.
    RecallDirty,
    /// Home → Dirty owner: write back but keep a Shared copy.
    DowngradeDirty,
    /// Home → Dirty owner: the three-leg recall (DESIGN.md §4.2). Fill
    /// `requester`'s line at `dst_off` straight from the owner's, then
    /// invalidate (a write), or write back and keep a Shared copy (`keep`,
    /// a read).
    RecallTo {
        /// The node whose request the recall serves.
        requester: NodeId,
        /// Destination word offset in the requester's cache region.
        dst_off: u64,
        /// True for a read: the owner keeps a Shared copy and writes back.
        keep: bool,
    },
    /// Home → sharer: a directed write's invalidation (DESIGN.md §4.2).
    /// Drop the Shared copy and acknowledge to `requester`, whatever this
    /// node holds: one ack for every directed invalidation.
    DirectedInvalidate {
        /// The writer that collects the acks.
        requester: NodeId,
    },
    /// Home → requester: a directed write's exclusive fill landed. The
    /// requester holds the chunk once `acks` sharers' `InvalidateAck`s
    /// have landed too, then acks to the home with [`Msg::FillAck`].
    DirectedFill {
        /// The `InvalidateAck`s the requester collects.
        acks: u32,
    },
    /// Home → Operated sharer: flush the operands of `op` and invalidate.
    RecallOperated {
        /// The operator epoch being closed.
        op: u32,
    },
    /// Old home → new home: the chunk image landed in the new home's slot
    /// (DESIGN.md §15).
    MigrateData {
        /// The source's migration fence epoch.
        mig_epoch: u64,
    },
    /// New home → old home: the image is accepted (and logged, if durable).
    MigrateAck {
        /// Echo of the fence epoch.
        mig_epoch: u64,
    },
    /// Old home → new home: the hand-off committed.
    MigrateCommit {
        /// Echo of the fence epoch.
        mig_epoch: u64,
    },
    /// Any home → any node: the chunk's home moved to `new_home` under
    /// fence `epoch`. Receivers advance their home map monotonically and
    /// drop stale local rights; the runtime does the map update itself.
    HomeMoved {
        /// The chunk's new home.
        new_home: NodeId,
        /// The fence epoch of the move.
        epoch: u64,
    },
    /// Former home → new home: a request that reached the former home,
    /// re-sent on the original requester's behalf.
    MigrateForward {
        /// The original requester.
        requester: NodeId,
        /// The requester's fill destination.
        dst_off: u64,
        /// The rights originally requested.
        kind: Kind,
    },
}

/// What a delivered [`Msg`] becomes at its receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery<W> {
    /// An event for the chunk's home machine.
    Home(HomeEvent<W>),
    /// An event for the receiver's cache machine.
    Cache(CacheEvent),
}

impl Msg {
    /// The request for `kind`, filled at `dst_off` (an Operate request
    /// moves no data, so its offset is not sent).
    pub fn request(kind: Kind, dst_off: u64) -> Msg {
        match kind {
            Kind::Read => Msg::ReadReq { dst_off },
            Kind::Write => Msg::WriteReq { dst_off },
            Kind::Operate(op) => Msg::OperateReq { op },
        }
    }

    /// The fill notice of an exclusive or a read fill; `direct` for one a
    /// recalled owner sends.
    pub fn fill(exclusive: bool, direct: bool) -> Msg {
        if exclusive {
            Msg::FillExclusive { direct }
        } else {
            Msg::FillShared { direct }
        }
    }

    /// The notice of a fill from the home image: a directed write's, which
    /// carries the `acks` its requester collects, or an ordinary exclusive
    /// or read fill (`acks` 0).
    pub fn home_fill(exclusive: bool, acks: u32) -> Msg {
        match acks {
            0 => Msg::fill(exclusive, false),
            acks => Msg::DirectedFill { acks },
        }
    }

    /// The event this message becomes at its receiver; `from` is the node
    /// that sent it, and `at_home` says the receiver homes the chunk (only
    /// an `InvalidateAck` reaches both a home and a cache machine).
    pub fn deliver<W>(self, from: NodeId, at_home: bool) -> Delivery<W> {
        use Delivery::{Cache, Home};
        let request = |node, dst_off, kind| {
            Home(HomeEvent::Request(Request {
                source: Requester::Remote { node, dst_off },
                kind,
            }))
        };
        match self {
            Msg::ReadReq { dst_off } => request(from, dst_off, Kind::Read),
            Msg::WriteReq { dst_off } => request(from, dst_off, Kind::Write),
            Msg::OperateReq { op } => request(from, 0, Kind::Operate(op)),
            Msg::MigrateForward {
                requester,
                dst_off,
                kind,
            } => request(requester, dst_off, kind),
            Msg::EvictNotice => Home(HomeEvent::EvictNotice { from }),
            Msg::WritebackNotice { downgrade, direct } => Home(HomeEvent::Writeback {
                from,
                downgrade,
                direct,
            }),
            Msg::OperandFlush { op, data, keep } => Home(HomeEvent::Flush {
                from,
                op,
                data,
                keep,
            }),
            Msg::InvalidateAck if at_home => Home(HomeEvent::InvAck { from }),
            Msg::InvalidateAck => Cache(CacheEvent::InvAck),
            Msg::FillAck { holds } => Home(HomeEvent::FillAck { from, holds }),
            Msg::MigrateData { mig_epoch } => Home(HomeEvent::MigrateData { from, mig_epoch }),
            Msg::MigrateAck { mig_epoch } => Home(HomeEvent::MigrateAck { from, mig_epoch }),
            Msg::MigrateCommit { mig_epoch } => Home(HomeEvent::MigrateCommit { from, mig_epoch }),
            Msg::FillShared { direct } => Cache(CacheEvent::FillDone {
                granted: LocalState::Shared,
                direct,
            }),
            Msg::FillExclusive { direct } => Cache(CacheEvent::FillDone {
                granted: LocalState::Exclusive,
                direct,
            }),
            Msg::GrantOperated { op } => Cache(CacheEvent::GrantDone { op }),
            Msg::Invalidate => Cache(CacheEvent::Invalidate { from }),
            Msg::DirectedInvalidate { requester } => {
                Cache(CacheEvent::DirectedInvalidate { requester })
            }
            Msg::DirectedFill { acks } => Cache(CacheEvent::DirectedFill { acks }),
            Msg::RecallDirty => Cache(CacheEvent::RecallDirty),
            Msg::DowngradeDirty => Cache(CacheEvent::DowngradeDirty),
            Msg::RecallTo {
                requester,
                dst_off,
                keep,
            } => Cache(CacheEvent::RecallTo {
                requester,
                dst_off,
                keep,
            }),
            Msg::RecallOperated { op } => Cache(CacheEvent::RecallOperated { op }),
            Msg::HomeMoved { .. } => Cache(CacheEvent::HomeMoved),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Position of `m`'s variant in declaration order. The match has no
    /// wildcard, so a new variant does not compile until this table (and
    /// the delivery table below) name it.
    fn variant(m: &Msg) -> usize {
        match m {
            Msg::ReadReq { .. } => 0,
            Msg::WriteReq { .. } => 1,
            Msg::OperateReq { .. } => 2,
            Msg::EvictNotice => 3,
            Msg::WritebackNotice { .. } => 4,
            Msg::OperandFlush { .. } => 5,
            Msg::FillShared { .. } => 6,
            Msg::FillExclusive { .. } => 7,
            Msg::FillAck { .. } => 8,
            Msg::GrantOperated { .. } => 9,
            Msg::Invalidate => 10,
            Msg::InvalidateAck => 11,
            Msg::RecallDirty => 12,
            Msg::DowngradeDirty => 13,
            Msg::RecallTo { .. } => 14,
            Msg::RecallOperated { .. } => 15,
            Msg::MigrateData { .. } => 16,
            Msg::MigrateAck { .. } => 17,
            Msg::MigrateCommit { .. } => 18,
            Msg::HomeMoved { .. } => 19,
            Msg::MigrateForward { .. } => 20,
            Msg::DirectedInvalidate { .. } => 21,
            Msg::DirectedFill { .. } => 22,
        }
    }

    /// Every message delivers to the event its receiver's machine consumes:
    /// a request names its requester and fill offset, everything else
    /// names its sender where the machine needs it. Every message but an
    /// `InvalidateAck` becomes the same event whichever node receives it.
    #[test]
    fn deliver_maps_every_message_to_its_event() {
        const FROM: NodeId = 4;
        let remote = |node, dst_off, kind| {
            Delivery::Home(HomeEvent::Request(Request {
                source: Requester::Remote { node, dst_off },
                kind,
            }))
        };
        let table: Vec<(Msg, Delivery<u32>)> = vec![
            (Msg::ReadReq { dst_off: 96 }, remote(FROM, 96, Kind::Read)),
            (Msg::WriteReq { dst_off: 64 }, remote(FROM, 64, Kind::Write)),
            (Msg::OperateReq { op: 3 }, remote(FROM, 0, Kind::Operate(3))),
            (
                Msg::EvictNotice,
                Delivery::Home(HomeEvent::EvictNotice { from: FROM }),
            ),
            (
                Msg::WritebackNotice {
                    downgrade: true,
                    direct: false,
                },
                Delivery::Home(HomeEvent::Writeback {
                    from: FROM,
                    downgrade: true,
                    direct: false,
                }),
            ),
            (
                Msg::OperandFlush {
                    op: 2,
                    data: vec![7, 0, 9],
                    keep: true,
                },
                Delivery::Home(HomeEvent::Flush {
                    from: FROM,
                    op: 2,
                    data: vec![7, 0, 9],
                    keep: true,
                }),
            ),
            (
                Msg::FillShared { direct: false },
                Delivery::Cache(CacheEvent::FillDone {
                    granted: LocalState::Shared,
                    direct: false,
                }),
            ),
            (
                Msg::FillExclusive { direct: true },
                Delivery::Cache(CacheEvent::FillDone {
                    granted: LocalState::Exclusive,
                    direct: true,
                }),
            ),
            (
                Msg::GrantOperated { op: 5 },
                Delivery::Cache(CacheEvent::GrantDone { op: 5 }),
            ),
            (
                Msg::Invalidate,
                Delivery::Cache(CacheEvent::Invalidate { from: FROM }),
            ),
            (
                Msg::InvalidateAck,
                Delivery::Home(HomeEvent::InvAck { from: FROM }),
            ),
            (
                Msg::DirectedInvalidate { requester: 3 },
                Delivery::Cache(CacheEvent::DirectedInvalidate { requester: 3 }),
            ),
            (
                Msg::DirectedFill { acks: 2 },
                Delivery::Cache(CacheEvent::DirectedFill { acks: 2 }),
            ),
            (Msg::RecallDirty, Delivery::Cache(CacheEvent::RecallDirty)),
            (
                Msg::DowngradeDirty,
                Delivery::Cache(CacheEvent::DowngradeDirty),
            ),
            (
                Msg::RecallOperated { op: 6 },
                Delivery::Cache(CacheEvent::RecallOperated { op: 6 }),
            ),
            (
                Msg::MigrateData { mig_epoch: 11 },
                Delivery::Home(HomeEvent::MigrateData {
                    from: FROM,
                    mig_epoch: 11,
                }),
            ),
            (
                Msg::MigrateAck { mig_epoch: 12 },
                Delivery::Home(HomeEvent::MigrateAck {
                    from: FROM,
                    mig_epoch: 12,
                }),
            ),
            (
                Msg::MigrateCommit { mig_epoch: 13 },
                Delivery::Home(HomeEvent::MigrateCommit {
                    from: FROM,
                    mig_epoch: 13,
                }),
            ),
            (
                Msg::HomeMoved {
                    new_home: 2,
                    epoch: 14,
                },
                Delivery::Cache(CacheEvent::HomeMoved),
            ),
            // A forward is served as the original requester's own request.
            (
                Msg::MigrateForward {
                    requester: 1,
                    dst_off: 128,
                    kind: Kind::Operate(8),
                },
                remote(1, 128, Kind::Operate(8)),
            ),
            (
                Msg::FillAck { holds: false },
                Delivery::Home(HomeEvent::FillAck {
                    from: FROM,
                    holds: false,
                }),
            ),
            (
                Msg::RecallTo {
                    requester: 2,
                    dst_off: 192,
                    keep: true,
                },
                Delivery::Cache(CacheEvent::RecallTo {
                    requester: 2,
                    dst_off: 192,
                    keep: true,
                }),
            ),
        ];
        let mut covered = vec![false; table.len()];
        for (msg, want) in table {
            covered[variant(&msg)] = true;
            let at_home = matches!(want, Delivery::Home(_));
            assert_eq!(msg.clone().deliver::<u32>(FROM, at_home), want, "{msg:?}");
            if msg != Msg::InvalidateAck {
                assert_eq!(msg.clone().deliver::<u32>(FROM, !at_home), want, "{msg:?}");
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "every variant once: {covered:?}"
        );
        // A directed write's ack reaches its writer's cache machine.
        assert_eq!(
            Msg::InvalidateAck.deliver::<u32>(FROM, false),
            Delivery::Cache(CacheEvent::InvAck)
        );
    }

    /// `request` and `deliver` round-trip every kind a requester can ask for.
    #[test]
    fn request_delivers_the_kind_it_was_built_from() {
        for kind in [Kind::Read, Kind::Write, Kind::Operate(9)] {
            let dst_off = if matches!(kind, Kind::Operate(_)) {
                0
            } else {
                40
            };
            assert_eq!(
                Msg::request(kind, 40).deliver::<u32>(3, true),
                Delivery::Home(HomeEvent::Request(Request {
                    source: Requester::Remote { node: 3, dst_off },
                    kind,
                }))
            );
        }
    }
}
