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
    },
    /// Requester → home: combined operands, reduced into the home image.
    OperandFlush {
        /// The operator they were combined under.
        op: u32,
        /// One operand per chunk word (empty = nothing to reduce).
        data: Vec<u64>,
    },
    /// Home → requester: a read fill landed in the requester's line.
    FillShared,
    /// Home → requester: an exclusive fill landed in the requester's line.
    FillExclusive,
    /// Home → requester: Operated access under `op`; the requester starts
    /// its operand buffer from the identity.
    GrantOperated {
        /// The operator granted.
        op: u32,
    },
    /// Home → sharer: drop the Shared copy and acknowledge.
    Invalidate,
    /// Sharer → the node that sent the `Invalidate`: the copy is gone.
    InvalidateAck,
    /// Home → Dirty owner: write back and invalidate.
    RecallDirty,
    /// Home → Dirty owner: write back but keep a Shared copy.
    DowngradeDirty,
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

    /// The event this message becomes at its receiver; `from` is the node
    /// that sent it.
    pub fn deliver<W>(self, from: NodeId) -> Delivery<W> {
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
            Msg::WritebackNotice { downgrade } => Home(HomeEvent::Writeback { from, downgrade }),
            Msg::OperandFlush { op, data } => Home(HomeEvent::Flush { from, op, data }),
            Msg::InvalidateAck => Home(HomeEvent::InvAck { from }),
            Msg::MigrateData { mig_epoch } => Home(HomeEvent::MigrateData { from, mig_epoch }),
            Msg::MigrateAck { mig_epoch } => Home(HomeEvent::MigrateAck { from, mig_epoch }),
            Msg::MigrateCommit { mig_epoch } => Home(HomeEvent::MigrateCommit { from, mig_epoch }),
            Msg::FillShared => Cache(CacheEvent::FillDone {
                granted: LocalState::Shared,
            }),
            Msg::FillExclusive => Cache(CacheEvent::FillDone {
                granted: LocalState::Exclusive,
            }),
            Msg::GrantOperated { op } => Cache(CacheEvent::GrantDone { op }),
            Msg::Invalidate => Cache(CacheEvent::Invalidate { from }),
            Msg::RecallDirty => Cache(CacheEvent::RecallDirty),
            Msg::DowngradeDirty => Cache(CacheEvent::DowngradeDirty),
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
            Msg::FillShared => 6,
            Msg::FillExclusive => 7,
            Msg::GrantOperated { .. } => 8,
            Msg::Invalidate => 9,
            Msg::InvalidateAck => 10,
            Msg::RecallDirty => 11,
            Msg::DowngradeDirty => 12,
            Msg::RecallOperated { .. } => 13,
            Msg::MigrateData { .. } => 14,
            Msg::MigrateAck { .. } => 15,
            Msg::MigrateCommit { .. } => 16,
            Msg::HomeMoved { .. } => 17,
            Msg::MigrateForward { .. } => 18,
        }
    }

    /// Every message delivers to the event its receiver's machine consumes:
    /// a request names its requester and fill offset, everything else
    /// names its sender where the machine needs it.
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
                Msg::WritebackNotice { downgrade: true },
                Delivery::Home(HomeEvent::Writeback {
                    from: FROM,
                    downgrade: true,
                }),
            ),
            (
                Msg::OperandFlush {
                    op: 2,
                    data: vec![7, 0, 9],
                },
                Delivery::Home(HomeEvent::Flush {
                    from: FROM,
                    op: 2,
                    data: vec![7, 0, 9],
                }),
            ),
            (
                Msg::FillShared,
                Delivery::Cache(CacheEvent::FillDone {
                    granted: LocalState::Shared,
                }),
            ),
            (
                Msg::FillExclusive,
                Delivery::Cache(CacheEvent::FillDone {
                    granted: LocalState::Exclusive,
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
        ];
        let mut covered = vec![false; table.len()];
        for (msg, want) in table {
            covered[variant(&msg)] = true;
            assert_eq!(msg.clone().deliver::<u32>(FROM), want, "{msg:?}");
        }
        assert!(
            covered.iter().all(|&c| c),
            "every variant once: {covered:?}"
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
                Msg::request(kind, 40).deliver::<u32>(3),
                Delivery::Home(HomeEvent::Request(Request {
                    source: Requester::Remote { node: 3, dst_off },
                    kind,
                }))
            );
        }
    }
}
