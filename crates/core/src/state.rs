//! Protocol states of the extended cache coherence protocol (§4.4).
//!
//! Two views exist of each chunk's state:
//!
//! * the **directory state** ([`DirState`]) at the home node — the global
//!   truth of Table 1 / Figure 9;
//! * the **local access rights** ([`LocalState`]) each node caches in its
//!   dentry, which is what the lock-free fast path consults.

use crate::op::OpId;
use crate::protocol::Kind;
use rdma_fabric::NodeId;

/// Local access rights a node holds on a chunk, stored in the dentry as an
/// atomic byte for the lock-free fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LocalState {
    /// No rights; any access takes the slow path.
    Invalid = 0,
    /// Read-only copy (home side of `Shared`, or a remote shared copy).
    Shared = 1,
    /// Full Read/Write/Operate rights (home `Unshared`, or the remote owner
    /// of a `Dirty` chunk).
    Exclusive = 2,
    /// Operate-only rights under a specific operator (the dentry's `op_tag`
    /// names it).
    Operated = 3,
    /// Transient: a read fill is in flight.
    FillingShared = 4,
    /// Transient: an exclusive fill is in flight.
    FillingExclusive = 5,
    /// Transient: an Operated grant is in flight.
    FillingOperated = 6,
    /// Operate rights kept across an eviction: the node is still in the
    /// home's Operated sharer set under the dentry's `op_tag`, but its
    /// line (and the operands in it) went home in a keep flush. The fast
    /// path rejects it; the next Operate under the same operator rebuilds
    /// an identity buffer in a fresh line with no message to the home.
    OperatedIdle = 7,
}

impl LocalState {
    /// Decode from the dentry's atomic byte.
    #[inline]
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Invalid,
            1 => Self::Shared,
            2 => Self::Exclusive,
            3 => Self::Operated,
            4 => Self::FillingShared,
            5 => Self::FillingExclusive,
            6 => Self::FillingOperated,
            7 => Self::OperatedIdle,
            _ => unreachable!("invalid LocalState byte {v}"),
        }
    }

    /// Do these rights cover an access of `kind` (Figure 4's rights
    /// check)? Exclusive covers every kind, since its holder can run an
    /// Operate as a local read-modify-write; Shared covers reads; Operated
    /// covers an Operate under the operator it was granted for; an idle
    /// Operated chunk covers nothing, since it has no line. `op_tag` reads
    /// that operator; it is called only for an Operated state, so the fast
    /// path loads the dentry's tag only then.
    #[inline]
    pub fn permits(self, kind: Kind, op_tag: impl FnOnce() -> u32) -> bool {
        match (self, kind) {
            (Self::Exclusive, _) | (Self::Shared, Kind::Read) => true,
            (Self::Operated, Kind::Operate(op)) => op_tag() == op,
            _ => false,
        }
    }

    /// An intermediate (in-flight) state, which the eviction scan must skip
    /// (§4.2: "a scanned cacheline ... not in an intermediate state").
    #[inline]
    pub fn in_flight(self) -> bool {
        matches!(
            self,
            Self::FillingShared | Self::FillingExclusive | Self::FillingOperated
        )
    }

    /// State name for structured protocol traces.
    pub fn name(self) -> &'static str {
        match self {
            Self::Invalid => "Invalid",
            Self::Shared => "Shared",
            Self::Exclusive => "Exclusive",
            Self::Operated => "Operated",
            Self::FillingShared => "FillingShared",
            Self::FillingExclusive => "FillingExclusive",
            Self::FillingOperated => "FillingOperated",
            Self::OperatedIdle => "OperatedIdle",
        }
    }
}

/// Directory (home-node) state of a chunk: the four stable states of
/// Table 1. Transient phases during multi-message transitions are tracked
/// separately by the home-side machine (`protocol::Transient`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DirState {
    /// Exclusively owned by the home node (R/W/O at home, nothing
    /// elsewhere).
    Unshared,
    /// Readable everywhere; `sharers` lists the remote nodes holding
    /// copies.
    Shared { sharers: Vec<NodeId> },
    /// A single non-home node holds exclusive R/W rights.
    Dirty { owner: NodeId },
    /// All listed nodes (plus the home node) may apply operator `op`
    /// concurrently; operands are combined locally and reduced at home.
    Operated { op: OpId, sharers: Vec<NodeId> },
}

impl DirState {
    /// Home-node rights row of Table 1.
    pub fn home_rights(&self) -> Rights {
        match self {
            DirState::Unshared => Rights::RWO,
            DirState::Shared { .. } => Rights::R,
            DirState::Dirty { .. } => Rights::None,
            DirState::Operated { .. } => Rights::O,
        }
    }

    /// Other-node rights row of Table 1 (for nodes listed as holders).
    pub fn other_rights(&self) -> Rights {
        match self {
            DirState::Unshared => Rights::None,
            DirState::Shared { .. } => Rights::R,
            DirState::Dirty { .. } => Rights::RW,
            DirState::Operated { .. } => Rights::O,
        }
    }

    /// Exclusivity column of Table 1.
    pub fn exclusive(&self) -> bool {
        matches!(self, DirState::Unshared | DirState::Dirty { .. })
    }

    /// Table-1 row name.
    pub fn name(&self) -> &'static str {
        match self {
            DirState::Unshared => "Unshared",
            DirState::Shared { .. } => "Shared",
            DirState::Dirty { .. } => "Dirty",
            DirState::Operated { .. } => "Operated",
        }
    }

    /// The [`LocalState`] the *home node's* dentry must hold under this
    /// directory state.
    pub fn home_local(&self) -> LocalState {
        match self {
            DirState::Unshared => LocalState::Exclusive,
            DirState::Shared { .. } => LocalState::Shared,
            DirState::Dirty { .. } => LocalState::Invalid,
            DirState::Operated { .. } => LocalState::Operated,
        }
    }

    /// Does `node` hold the chunk alone, as its Dirty owner or its only
    /// sharer? A write-intent lock grant pulls the chunk home for its
    /// grantee unless this holds (DESIGN.md §4.5).
    pub fn held_alone_by(&self, node: NodeId) -> bool {
        match self {
            DirState::Dirty { owner } => *owner == node,
            DirState::Shared { sharers } => sharers[..] == [node],
            DirState::Unshared | DirState::Operated { .. } => false,
        }
    }
}

/// Access-rights set (Table 1 cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rights {
    None,
    R,
    RW,
    O,
    RWO,
}

impl Rights {
    pub fn allows_read(self) -> bool {
        matches!(self, Rights::R | Rights::RW | Rights::RWO)
    }
    pub fn allows_write(self) -> bool {
        matches!(self, Rights::RW | Rights::RWO)
    }
    pub fn allows_operate(self) -> bool {
        // RW holders can emulate Operate with a local read-modify-write.
        matches!(self, Rights::O | Rights::RWO | Rights::RW)
    }
}

impl std::fmt::Display for Rights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Rights::None => "None",
            Rights::R => "R",
            Rights::RW => "R/W",
            Rights::O => "O",
            Rights::RWO => "R/W/O",
        };
        write!(f, "{s}")
    }
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub state: &'static str,
    pub home: Rights,
    pub others: Rights,
    pub exclusive: bool,
}

/// Regenerate Table 1 from the protocol implementation (used by the
/// `table1` bench binary and checked against the paper in tests).
pub fn table1_rows() -> Vec<Table1Row> {
    let states = [
        DirState::Unshared,
        DirState::Shared { sharers: vec![1] },
        DirState::Dirty { owner: 1 },
        DirState::Operated {
            op: OpId(0),
            sharers: vec![1],
        },
    ];
    states
        .iter()
        .map(|s| Table1Row {
            state: s.name(),
            home: s.home_rights(),
            others: s.other_rights(),
            exclusive: s.exclusive(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_state_byte_roundtrip() {
        for v in 0..=7u8 {
            assert_eq!(LocalState::from_u8(v) as u8, v);
        }
    }

    /// The one rights predicate over every state and kind: Read, Write,
    /// Operate under the granted tag (5) and under another (6). The tag is
    /// read only when the state is Operated.
    #[test]
    fn permits_truth_table() {
        use LocalState::*;
        let kinds = [Kind::Read, Kind::Write, Kind::Operate(5), Kind::Operate(6)];
        let table = [
            (Invalid, [false, false, false, false]),
            (Shared, [true, false, false, false]),
            (Exclusive, [true, true, true, true]),
            (Operated, [false, false, true, false]),
            (FillingShared, [false, false, false, false]),
            (FillingExclusive, [false, false, false, false]),
            (FillingOperated, [false, false, false, false]),
            (OperatedIdle, [false, false, false, false]),
        ];
        for (state, row) in table {
            for (kind, want) in kinds.into_iter().zip(row) {
                let reads = std::cell::Cell::new(0);
                let tag = || {
                    reads.set(reads.get() + 1);
                    5
                };
                assert_eq!(state.permits(kind, tag), want, "{state:?} {kind:?}");
                let operated = state == Operated && matches!(kind, Kind::Operate(_));
                assert_eq!(reads.get(), u32::from(operated), "{state:?} {kind:?}");
            }
        }
        for s in [FillingShared, FillingExclusive, FillingOperated] {
            assert!(s.in_flight());
        }
        assert!(!OperatedIdle.in_flight());
    }

    #[test]
    fn table1_matches_the_paper() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 4);
        // Unshared: home R/W/O, others None, exclusive Yes.
        assert_eq!(rows[0].home, Rights::RWO);
        assert_eq!(rows[0].others, Rights::None);
        assert!(rows[0].exclusive);
        // Shared: R / R / No.
        assert_eq!(rows[1].home, Rights::R);
        assert_eq!(rows[1].others, Rights::R);
        assert!(!rows[1].exclusive);
        // Dirty: None / R/W / Yes.
        assert_eq!(rows[2].home, Rights::None);
        assert_eq!(rows[2].others, Rights::RW);
        assert!(rows[2].exclusive);
        // Operated: O / O / No.
        assert_eq!(rows[3].home, Rights::O);
        assert_eq!(rows[3].others, Rights::O);
        assert!(!rows[3].exclusive);
    }

    #[test]
    fn home_local_state_tracks_directory() {
        assert_eq!(DirState::Unshared.home_local(), LocalState::Exclusive);
        assert_eq!(
            DirState::Shared { sharers: vec![] }.home_local(),
            LocalState::Shared
        );
        assert_eq!(
            DirState::Dirty { owner: 2 }.home_local(),
            LocalState::Invalid
        );
        assert_eq!(
            DirState::Operated {
                op: OpId(1),
                sharers: vec![]
            }
            .home_local(),
            LocalState::Operated
        );
    }

    #[test]
    fn rights_predicates() {
        assert!(
            Rights::RWO.allows_read() && Rights::RWO.allows_write() && Rights::RWO.allows_operate()
        );
        assert!(
            Rights::RW.allows_operate(),
            "RW can emulate Operate locally"
        );
        assert!(!Rights::R.allows_write());
        assert!(!Rights::O.allows_read());
        assert!(!Rights::None.allows_read());
    }
}
