//! The **sans-I/O coherence-protocol core**: the extended 4-state directory
//! protocol (Unshared / Shared / Dirty / Operated, §4.3 and Figure 9)
//! expressed as two pure state machines, decoupled from every execution
//! concern.
//!
//! * [`home::HomeMachine`] — the home-side **directory machine** of one
//!   chunk: the global truth of who holds which rights, the transient
//!   phases of multi-message transitions, and the queue of requests
//!   waiting for the chunk to stabilize.
//! * [`cache::CacheMachine`] — the requester-side **cache machine** of one
//!   chunk on one non-home node: given a snapshot of the node's local
//!   rights (a [`cache::CacheView`]), it decides how to react to local
//!   requests, fills, invalidations and recalls.
//! * [`msg::Msg`] — the coherence messages the two machines exchange, and
//!   [`Msg::deliver`], the one mapping from a received message to the
//!   event its machine consumes.
//!
//! Both machines consume typed events and return a list of [`home::HomeAction`]s
//! or [`cache::CacheAction`]s. They perform **no I/O whatsoever**: no
//! simulator context, no channels, no threads, no locks, no memory regions.
//! Time enters only as an integer argument; randomness never enters. The
//! runtime layer (`crate::runtime`) is a thin *executor* that delivers
//! received messages as events and executes actions as fabric calls, and
//! the test suite (`tests/protocol_model.rs`, `tests/protocol_check.rs`)
//! drives the machines through exhaustive event interleavings with plain
//! function calls — no cluster required.
//!
//! The module is deliberately dependency-free with respect to the execution
//! substrate: it imports nothing from `dsim`, `crate::comm`, `crate::msg`
//! or `crate::shared`. Local waiters are an opaque generic payload `W`
//! (instantiated with a wait-cell by the runtime and with plain integers by
//! tests), which is what keeps the machines testable with plain function
//! calls.
#![deny(missing_docs)]

pub mod cache;
pub mod home;
pub mod locks;
pub mod msg;

pub use cache::{AfterDrain, CacheAction, CacheEvent, CacheMachine, CacheView};
pub use home::{HomeAction, HomeEvent, HomeMachine, MigInPhase, Transient};
pub use locks::{LockKind, LockSource, LockTable};
pub use msg::{Delivery, Msg};

/// A node identifier. Structurally identical to `rdma_fabric::NodeId`
/// (both are `usize`); re-declared here so the protocol core does not
/// depend on the fabric crate.
pub type NodeId = usize;

/// Sentinel cacheline index: no cacheline attached.
pub const LINE_NONE: u32 = u32::MAX;
/// Sentinel cacheline index: the chunk's data lives in the home subarray.
pub const LINE_HOME: u32 = u32::MAX - 1;

/// "No operator" tag, stored in a dentry whose state is not `Operated`.
pub const NOTAG: u32 = u32::MAX;

/// What a requester wants from a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A readable (Shared) copy.
    Read,
    /// Exclusive (Dirty) ownership.
    Write,
    /// Membership in the Operated set under this operator id.
    Operate(u32),
}

/// Where a directory request came from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Requester<W> {
    /// An application thread on the home node; `W` is the opaque completion
    /// token the executor will wake.
    Local(W),
    /// A remote node; fills are RDMA-written to `dst_off` in its cache
    /// region.
    Remote {
        /// The requesting node.
        node: NodeId,
        /// Destination word offset in the requester's cache region.
        dst_off: u64,
    },
    /// A chunk migration to the new home `to` (DESIGN.md §15), queued by
    /// [`HomeEvent::BeginMigration`] as a Write request: the directory
    /// revokes every right for it as for any exclusive request, and its
    /// "fill" is the transfer of the home image.
    Migration {
        /// The new home.
        to: NodeId,
        /// True once the home dentry has drained for the transfer — what a
        /// remote grant records by pre-committing its new owner.
        drained: bool,
    },
}

/// One directory request: who wants the chunk, and how.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request<W> {
    /// Origin of the request.
    pub source: Requester<W>,
    /// Rights requested.
    pub kind: Kind,
}

/// A structured protocol-transition record, emitted by both machines for
/// every state change. The executor counts these in `NodeStats` and prints
/// them when `DARRAY_TRACE_CHUNK` tracing is active; the model tests use
/// them to measure state × event coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State name before the transition.
    pub from: &'static str,
    /// State name after the transition.
    pub to: &'static str,
    /// What caused it (event or rule name).
    pub trigger: &'static str,
}

/// Protocol counters the machines ask the executor to bump. Kept abstract
/// so the machines stay free of atomics and shared state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// A fill or Operated grant completed on this node.
    Fills,
    /// An idle Operated chunk rebuilt its operand buffer locally, with no
    /// message to the home (not a fill: nothing arrived).
    OperateReacquires,
    /// A Shared copy was invalidated on this node.
    Invalidations,
    /// Dirty data was written back to its home.
    Writebacks,
    /// Combined operands were flushed to the home.
    OperandFlushes,
    /// A recall (dirty recall, downgrade, or Operated recall) was honored.
    Recalls,
    /// A recalled owner filled the requester's line itself (the three-leg
    /// recall, DESIGN.md §4.2).
    DirectFills,
    /// A remote write to a chunk other remotes shared was served directed:
    /// the sharers acknowledged the writer, not the home (DESIGN.md §4.2).
    DirectWrites,
    /// A write-intent lock grant served its grantee's write: the grantee
    /// kept its Shared copy and collected the other sharers' acks
    /// (DESIGN.md §4.5).
    DirectedGrants,
    /// A request reached the home while it held the chunk for a three-leg
    /// fill's, a directed write's or a directed grant's ack, and queued
    /// behind that wait ([`Transient::AwaitDirectFill`](home::Transient)).
    QueuedBehindDirect,
    /// A remote flush was reduced into the home subarray.
    OperatedReductions,
    /// A cacheline was evicted by the reclamation scan.
    Evictions,
    /// A dead peer was pruned from a sharer set or transient wait set.
    SharersPruned,
    /// An Operated epoch was closed by abort: a contributor died before
    /// flushing, so its operands are lost (fail-stop).
    EpochsAborted,
    /// A dirty-chunk flush was persisted to the durable chunk store before
    /// the protocol acknowledged it (persist-before-ack, DESIGN.md §14).
    /// Zero unless a durability policy is configured.
    FlushPersists,
    /// A chunk this node homed was handed to a new home: the migration
    /// committed and the chunk departed (DESIGN.md §15).
    MigrationsOut,
    /// A chunk migration landed here: this node adopted the chunk as its
    /// new authoritative home.
    MigrationsIn,
    /// A request that arrived during a migration fence was parked and later
    /// replayed — forwarded to the new home by the old one, or re-serviced
    /// from the parked queue once the fence lifted.
    ParkedReplays,
}
