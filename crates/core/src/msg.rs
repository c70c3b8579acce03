//! The wire around the protocol core's coherence vocabulary
//! ([`crate::protocol::Msg`]): the envelope that routes a message to the
//! runtime thread owning its chunk, the lock and membership frames, the
//! codec, and the queue entries between the interface, runtime and
//! communication layers (Figure 2).

use dsim::WaitCell;
use rdma_fabric::NodeId;

/// Index of an array in the cluster registry.
pub(crate) type ArrayId = u32;
/// Global chunk index within an array.
pub(crate) type ChunkId = u32;

pub use crate::protocol::locks::LockKind;
use crate::protocol::{Kind, Msg};

/// The protocol messages exchanged between runtimes, besides the
/// membership frames of [`NetMsg`]: the coherence vocabulary of the
/// protocol core, plus the element locks (§4.5), which are orthogonal to
/// it. Application data itself travels by one-sided RDMA WRITE.
#[derive(Debug, Clone)]
pub(crate) enum Rpc {
    /// A coherence message (Figure 9).
    Coherence(Msg),
    /// Distributed lock protocol (home-managed, element granularity).
    /// `intent` marks a writer lock taken for a write to the element's
    /// chunk (DESIGN.md §4.5); it travels under its own tags.
    LockAcquire {
        id: u64,
        kind: LockKind,
        intent: bool,
    },
    LockGrant {
        id: u64,
        kind: LockKind,
        intent: Intent,
    },
    LockRelease {
        id: u64,
        kind: LockKind,
    },
    /// A write-intent grant at which the home served the grantee's write
    /// (DESIGN.md §4.5): the grantee keeps its Shared copy, or takes the
    /// chunk's words `data` (empty for a listed sharer), and takes
    /// Exclusive once `acks` sharers have acked it. `keep` is the release
    /// rule, as [`Intent::Keep`] against [`Intent::HandBack`].
    DirectedGrant {
        id: u64,
        kind: LockKind,
        keep: bool,
        acks: u32,
        data: Vec<u64>,
    },
}

/// What a lock grant asks of its grantee besides the lock (DESIGN.md
/// §4.5). Each value travels under its own tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Intent {
    /// A plain grant.
    Plain,
    /// A write-intent grant: the grantee writes the element's chunk, after
    /// its own write miss unless the grant was directed
    /// ([`Rpc::DirectedGrant`]), and its unlock hands the chunk back home.
    HandBack,
    /// A write-intent grant whose unlock keeps a Shared copy and writes
    /// the data home.
    Keep,
}
use Intent::{HandBack, Keep, Plain};

impl From<Msg> for Rpc {
    fn from(msg: Msg) -> Self {
        Rpc::Coherence(msg)
    }
}

impl Rpc {
    /// Wire payload size in bytes (the fabric adds a fixed header).
    pub(crate) fn payload_bytes(&self) -> u64 {
        match self {
            Rpc::Coherence(Msg::OperandFlush { data, .. }) | Rpc::DirectedGrant { data, .. } => {
                16 + data.len() as u64 * 8
            }
            _ => 16,
        }
    }
}

/// A protocol message addressed to the runtime thread that owns `chunk` of
/// `array`: what the Rx thread needs to route it, and what the receiver
/// needs to find the chunk's machines.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub array: ArrayId,
    pub chunk: ChunkId,
    pub rpc: Rpc,
}

impl Envelope {
    pub(crate) fn new(array: ArrayId, chunk: ChunkId, rpc: impl Into<Rpc>) -> Self {
        Self {
            array,
            chunk,
            rpc: rpc.into(),
        }
    }
}

/// A message on the wire.
#[derive(Debug, Clone)]
pub(crate) enum NetMsg {
    /// Unsequenced RPC: the fault-free fast path (reliable fabric assumed).
    Rpc { env: Envelope },
    /// Sequence-numbered RPC on the reliable channel (used when
    /// `ClusterConfig::fault` is set). Sequence numbers are per directed
    /// (sender → receiver) link, starting at 0; the receiver delivers in
    /// order, suppresses duplicates, and acknowledges cumulatively.
    SeqRpc { seq: u64, env: Envelope },
    /// Cumulative acknowledgment: "I have delivered every sequence number
    /// below `seq` from you". Unreliable itself — a lost ack is repaired by
    /// the retransmit it provokes.
    Ack { seq: u64 },
    /// Explicit lease renewal, sent by the reliability agent toward peers
    /// it has been idle with for `FaultConfig::heartbeat_ns`. Carries no
    /// state: receipt alone refreshes the receiver's lease on the sender.
    /// Unreliable and unsequenced — a lost heartbeat just delays renewal.
    Heartbeat,
    /// Quorum poll: "my retries toward `suspect` are exhausted — have you
    /// heard from it?" Unreliable; the suspector re-polls every
    /// `FaultConfig::suspect_poll_ns` until the vote resolves.
    SuspectQuery { suspect: NodeId },
    /// Vote answering a [`NetMsg::SuspectQuery`]: `alive` iff the voter's
    /// own lease on `suspect` is fresh. Unreliable; a lost vote is repaired
    /// by the next poll round.
    SuspectVote { suspect: NodeId, alive: bool },
    /// Tear down the Rx thread.
    Halt,
    /// A pre-provisioned `Joining` node announces itself to the live
    /// cluster (DESIGN.md §15). Survivors admit it into their own view,
    /// reset the reliable link both ways, and answer with a
    /// [`NetMsg::JoinVote`]. Unreliable; the joiner re-announces until it
    /// has a quorum of admits.
    JoinReq { node: NodeId },
    /// Vote answering a [`NetMsg::JoinReq`]: `admit` iff the voter's view
    /// now records `node` as Alive.
    JoinVote { node: NodeId, admit: bool },
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

/// Little-endian cursor for [`rdma_fabric::Wire::decode`].
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let bytes = self.buf.get(self.pos..self.pos + N)?;
        self.pos += N;
        Some(bytes.try_into().expect("a slice of N bytes"))
    }

    fn u8(&mut self) -> Option<u8> {
        self.take().map(|[b]| b)
    }

    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// The wire form of one field type. Each implementation is the one
/// statement of how its type is written and read back; `get` fails, and
/// never panics or over-allocates, on bytes that `put` could not have
/// written.
trait Codec: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Option<Self>;
}

impl Codec for u32 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        r.take().map(u32::from_le_bytes)
    }
}

impl Codec for u64 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        r.take().map(u64::from_le_bytes)
    }
}

/// One byte, 0 or 1.
impl Codec for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// One byte: 0 for a reader lock, 1 for a writer lock.
impl Codec for LockKind {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            LockKind::Read => 0,
            LockKind::Write => 1,
        });
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(LockKind::Read),
            1 => Some(LockKind::Write),
            _ => None,
        }
    }
}

/// A node id as a u32.
impl Codec for NodeId {
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u32).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        u32::get(r).map(|n| n as NodeId)
    }
}

/// A u8 (0 read, 1 write, 2 operate), then a u32 operator id (0 unless
/// operate).
impl Codec for Kind {
    fn put(&self, buf: &mut Vec<u8>) {
        let (kind, op) = match *self {
            Kind::Read => (0, 0),
            Kind::Write => (1, 0),
            Kind::Operate(op) => (2, op),
        };
        buf.push(kind);
        op.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        match (r.u8()?, u32::get(r)?) {
            (0, _) => Some(Kind::Read),
            (1, _) => Some(Kind::Write),
            (2, op) => Some(Kind::Operate(op)),
            _ => None,
        }
    }
}

/// A u32 word count, then the words.
impl Codec for Vec<u64> {
    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        for w in self {
            w.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        let len = u32::get(r)? as usize;
        // A count the frame cannot hold fails the frame before anything
        // is allocated for it.
        if len > r.left() / 8 {
            return None;
        }
        let mut words = Vec::with_capacity(len);
        for _ in 0..len {
            words.push(u64::get(r)?);
        }
        Some(words)
    }
}

/// The array, the chunk, then the RPC frame.
impl Codec for Envelope {
    fn put(&self, buf: &mut Vec<u8>) {
        self.array.put(buf);
        self.chunk.put(buf);
        self.rpc.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        Some(Self {
            array: Codec::get(r)?,
            chunk: Codec::get(r)?,
            rpc: Codec::get(r)?,
        })
    }
}

/// One frame of the table as a pattern or a constructor:
/// `Enum::Variant { fields }`, or `Enum::Wrapper(Inner::Variant { fields })`
/// for a row whose variant wraps another enum's.
macro_rules! frame {
    ($enum:ident :: $variant:ident [] { $($fields:tt)* }) => {
        $enum::$variant { $($fields)* }
    };
    ($enum:ident :: $variant:ident [$($inner:tt)+] { $($fields:tt)* }) => {
        $enum::$variant($($inner)+ { $($fields)* })
    };
}

/// One field of a frame: written and read through its [`Codec`], or, for
/// `name: Type = value`, fixed by the frame's tag and absent from the wire.
/// A fixed value is one token: a literal, or a unit variant in scope.
macro_rules! field {
    (put $buf:ident, $name:ident: $codec:ty) => {
        <$codec as Codec>::put($name, $buf)
    };
    (put $buf:ident, $name:ident: $codec:ty = $fixed:tt) => {};
    (get $r:ident, $codec:ty) => {
        <$codec as Codec>::get($r)?
    };
    (get $r:ident, $codec:ty = $fixed:tt) => {
        $fixed
    };
}

/// The frame table. Each enum's frames are rows of
/// `tag => Variant { field: Codec, .. }`: one tag byte, then the fields in
/// row order, each through its [`Codec`]. `Variant(Inner::Variant)` names
/// a variant that wraps another enum's, and `field: Type = value` is fixed
/// by the tag rather than written. The table generates both halves of
/// each enum's [`Codec`]; an unassigned tag, a short frame or a trailing
/// byte decodes to `None`. The tags and field widths fix each frame's
/// length, which the TCP backend's byte counters count.
macro_rules! frames {
    ($(
        $enum:ident {
            $( $tag:literal => $variant:ident $(($($inner:ident)::+))?
               $({ $($name:ident: $codec:ty $(= $fixed:tt)?),* })?, )*
        }
    )*) => {$(
        impl Codec for $enum {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $( frame!($enum::$variant [$($($inner)::+)?] {
                        $($($name $(: $fixed)?),*)?
                    }) => {
                        buf.push($tag);
                        $($( field!(put buf, $name: $codec $(= $fixed)?); )*)?
                    } )*
                }
            }

            fn get(r: &mut Reader<'_>) -> Option<Self> {
                Some(match r.u8()? {
                    $( $tag => frame!($enum::$variant [$($($inner)::+)?] {
                        $($($name: field!(get r, $codec $(= $fixed)?)),*)?
                    }), )*
                    _ => return None,
                })
            }
        }

        #[cfg(test)]
        impl $enum {
            /// Every tag the frame table assigns.
            const TAGS: &[u8] = &[$($tag),*];
        }
    )*};
}

frames! {
    Rpc {
        0 => Coherence(Msg::ReadReq) { dst_off: u64 },
        1 => Coherence(Msg::WriteReq) { dst_off: u64 },
        2 => Coherence(Msg::OperateReq) { op: u32 },
        3 => Coherence(Msg::EvictNotice),
        4 => Coherence(Msg::WritebackNotice) { downgrade: bool, direct: bool = false },
        5 => Coherence(Msg::OperandFlush) { op: u32, data: Vec<u64>, keep: bool = false },
        6 => Coherence(Msg::FillShared) { direct: bool = false },
        7 => Coherence(Msg::FillExclusive) { direct: bool = false },
        8 => Coherence(Msg::GrantOperated) { op: u32 },
        9 => Coherence(Msg::Invalidate),
        10 => Coherence(Msg::InvalidateAck),
        11 => Coherence(Msg::RecallDirty),
        12 => Coherence(Msg::DowngradeDirty),
        13 => Coherence(Msg::RecallOperated) { op: u32 },
        14 => LockAcquire { id: u64, kind: LockKind, intent: bool = false },
        15 => LockGrant { id: u64, kind: LockKind, intent: Intent = Plain },
        16 => LockRelease { id: u64, kind: LockKind },
        17 => Coherence(Msg::MigrateData) { mig_epoch: u64 },
        18 => Coherence(Msg::MigrateAck) { mig_epoch: u64 },
        19 => Coherence(Msg::MigrateCommit) { mig_epoch: u64 },
        20 => Coherence(Msg::HomeMoved) { new_home: NodeId, epoch: u64 },
        21 => Coherence(Msg::MigrateForward) { requester: NodeId, dst_off: u64, kind: Kind },
        22 => LockAcquire { id: u64, kind: LockKind, intent: bool = true },
        23 => LockGrant { id: u64, kind: LockKind, intent: Intent = HandBack },
        24 => Coherence(Msg::OperandFlush) { op: u32, data: Vec<u64>, keep: bool = true },
        25 => LockGrant { id: u64, kind: LockKind, intent: Intent = Keep },
        26 => Coherence(Msg::RecallTo) { requester: NodeId, dst_off: u64, keep: bool = false },
        27 => Coherence(Msg::RecallTo) { requester: NodeId, dst_off: u64, keep: bool = true },
        28 => Coherence(Msg::FillAck) { holds: bool = true },
        29 => Coherence(Msg::WritebackNotice) { downgrade: bool, direct: bool = true },
        30 => Coherence(Msg::FillShared) { direct: bool = true },
        31 => Coherence(Msg::FillExclusive) { direct: bool = true },
        32 => Coherence(Msg::DirectedInvalidate) { requester: NodeId },
        33 => Coherence(Msg::DirectedFill) { acks: u32 },
        34 => DirectedGrant { id: u64, kind: LockKind, keep: bool = false, acks: u32, data: Vec<u64> },
        35 => DirectedGrant { id: u64, kind: LockKind, keep: bool = true, acks: u32, data: Vec<u64> },
        36 => Coherence(Msg::FillAck) { holds: bool = false },
    }
    NetMsg {
        0 => Rpc { env: Envelope },
        1 => SeqRpc { seq: u64, env: Envelope },
        2 => Ack { seq: u64 },
        3 => Heartbeat,
        4 => SuspectQuery { suspect: NodeId },
        5 => SuspectVote { suspect: NodeId, alive: bool },
        6 => Halt,
        7 => JoinReq { node: NodeId },
        8 => JoinVote { node: NodeId, admit: bool },
    }
}

impl rdma_fabric::Wire for NetMsg {
    /// Logical payload size. The values are exactly what the pre-trait
    /// `comm.rs` passed at each simulated send call site
    /// (`rpc.payload_bytes()` for RPCs, 8 for acks and membership messages,
    /// 0 for `Halt`), so the simulated backend charges the virtual wire
    /// identically.
    fn payload_bytes(&self) -> u64 {
        match self {
            NetMsg::Rpc { env } | NetMsg::SeqRpc { env, .. } => env.rpc.payload_bytes(),
            NetMsg::Ack { .. } => 8,
            NetMsg::Heartbeat | NetMsg::SuspectQuery { .. } | NetMsg::SuspectVote { .. } => 8,
            NetMsg::JoinReq { .. } | NetMsg::JoinVote { .. } => 8,
            NetMsg::Halt => 0,
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        self.put(buf);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let msg = Self::get(&mut r)?;
        (r.left() == 0).then_some(msg)
    }
}

/// Requests an application thread submits to its runtime via the
/// local-request queue (Figure 2).
#[derive(Debug, Clone)]
pub(crate) enum LocalKind {
    /// A miss: the application thread wants these rights on the chunk.
    Access(Kind),
    LockAcquire {
        index: u64,
        kind: LockKind,
        intent: bool,
    },
    LockRelease {
        index: u64,
        kind: LockKind,
        intent: bool,
    },
}

/// A local request plus its completion token. It goes to the runtime
/// thread that owns `chunk`: the chunk a miss is on, or the element's
/// chunk for a lock request.
pub(crate) struct LocalReq {
    pub array: ArrayId,
    pub chunk: ChunkId,
    pub kind: LocalKind,
    pub waiter: WaitCell,
}

/// Everything a runtime thread can receive.
pub(crate) enum RtMsg {
    Local(LocalReq),
    Net {
        src: NodeId,
        env: Envelope,
    },
    /// Self-scheduled directory retry after a grace window expires.
    Retry {
        array: ArrayId,
        chunk: ChunkId,
    },
    /// The node's membership view confirmed `node` dead (quorum-backed):
    /// abort in-flight fills homed there, complete directory transients
    /// waiting on it, and wake lock waiters so application threads can
    /// observe the error. `epoch` is the membership epoch stamped on the
    /// death; consumers fence events whose stamp does not match the view
    /// (a stale declaration must not re-trigger recovery).
    PeerDown {
        node: NodeId,
        epoch: u64,
    },
    /// A previously-dead `node` restarted and was re-admitted by the
    /// membership view at bumped `epoch` (DESIGN.md §14): un-fence its
    /// identity in home machines and drop all local rights on chunks homed
    /// there — the restarted directory is cold and no longer remembers
    /// granting them.
    PeerRestarted {
        node: NodeId,
        epoch: u64,
    },
    /// Begin migrating `chunk` of `array` (which this runtime thread
    /// currently homes) to node `to`. Injected by `Cluster::migrate_chunk`;
    /// the directory machine fences the chunk, recalls outstanding rights,
    /// transfers the image and hands authority over (DESIGN.md §15).
    Migrate {
        array: ArrayId,
        chunk: ChunkId,
        to: NodeId,
    },
    Shutdown,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_fabric::Wire;

    #[test]
    fn operand_flush_payload_counts_data() {
        let m = Rpc::Coherence(Msg::OperandFlush {
            op: 0,
            data: vec![0; 512],
            keep: false,
        });
        assert_eq!(m.payload_bytes(), 16 + 4096);
        let fill = Msg::FillShared { direct: false };
        assert_eq!(Rpc::Coherence(fill).payload_bytes(), 16);
    }

    fn encoded(msg: &NetMsg) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf
    }

    /// A frame for every row of the table, each with its pinned encoded
    /// length. An RPC frame `[0][array][chunk][tag][fields]` is 10 bytes
    /// plus its fields, and 8 more as a `SeqRpc`. The TCP backend's byte
    /// counters count these bytes, so the lengths are written out here,
    /// not derived from the table.
    fn every_frame() -> Vec<(NetMsg, usize)> {
        fn rpc(rpc: impl Into<Rpc>, len: usize) -> [(NetMsg, usize); 2] {
            let env = Envelope::new(2, 9, rpc);
            let seq = u64::MAX - 1;
            let seq_rpc = NetMsg::SeqRpc {
                seq,
                env: env.clone(),
            };
            [(NetMsg::Rpc { env }, len), (seq_rpc, len + 8)]
        }
        let lock = |id, kind, intent| Rpc::LockAcquire { id, kind, intent };
        let grant = |id, kind, intent| Rpc::LockGrant { id, kind, intent };
        let release = |id, kind| Rpc::LockRelease { id, kind };
        let directed = |id, keep, acks, data| Rpc::DirectedGrant {
            id,
            kind: LockKind::Write,
            keep,
            acks,
            data,
        };
        let moved = |new_home, epoch| Msg::HomeMoved { new_home, epoch };
        let forward = |kind| Msg::MigrateForward {
            requester: 1,
            dst_off: 1 << 33,
            kind,
        };
        let flush = |data, keep| Msg::OperandFlush { op: 1, data, keep };
        let writeback = |downgrade, direct| Msg::WritebackNotice { downgrade, direct };
        let recall_to = |keep| Msg::RecallTo {
            requester: 3,
            dst_off: 1 << 35,
            keep,
        };
        let rpcs = [
            rpc(Msg::ReadReq { dst_off: 1 << 40 }, 18),
            rpc(Msg::WriteReq { dst_off: 7 }, 18),
            rpc(Msg::OperateReq { op: 2 }, 14),
            rpc(Msg::EvictNotice, 10),
            rpc(writeback(true, false), 11),
            rpc(flush(vec![u64::MAX, 0, 42], false), 42),
            rpc(flush(vec![], false), 18),
            rpc(Msg::fill(false, false), 10),
            rpc(Msg::fill(true, false), 10),
            rpc(Msg::GrantOperated { op: 3 }, 14),
            rpc(Msg::Invalidate, 10),
            rpc(Msg::InvalidateAck, 10),
            rpc(Msg::RecallDirty, 10),
            rpc(Msg::DowngradeDirty, 10),
            rpc(Msg::RecallOperated { op: 4 }, 14),
            rpc(lock(99, LockKind::Read, false), 19),
            rpc(grant(100, LockKind::Write, Plain), 19),
            rpc(release(101, LockKind::Read), 19),
            rpc(Msg::MigrateData { mig_epoch: 1 << 60 }, 18),
            rpc(Msg::MigrateAck { mig_epoch: 5 }, 18),
            rpc(Msg::MigrateCommit { mig_epoch: 6 }, 18),
            rpc(moved(4, 7), 22),
            rpc(forward(Kind::Read), 27),
            rpc(forward(Kind::Write), 27),
            rpc(forward(Kind::Operate(9)), 27),
            rpc(lock(102, LockKind::Write, true), 19),
            rpc(grant(103, LockKind::Write, HandBack), 19),
            rpc(flush(vec![7, u64::MAX], true), 34),
            rpc(flush(vec![], true), 18),
            rpc(grant(104, LockKind::Write, Keep), 19),
            rpc(recall_to(false), 22),
            rpc(recall_to(true), 22),
            rpc(Msg::FillAck { holds: true }, 10),
            rpc(writeback(true, true), 11),
            rpc(writeback(false, true), 11),
            rpc(Msg::fill(false, true), 10),
            rpc(Msg::fill(true, true), 10),
            rpc(Msg::DirectedInvalidate { requester: 2 }, 14),
            rpc(Msg::DirectedFill { acks: 3 }, 14),
            rpc(directed(105, false, 2, vec![]), 27),
            rpc(directed(106, true, 0, vec![3, u64::MAX]), 43),
            rpc(Msg::FillAck { holds: false }, 10),
        ];
        let vote = |suspect, alive| NetMsg::SuspectVote { suspect, alive };
        let join = |node, admit| NetMsg::JoinVote { node, admit };
        rpcs.into_iter()
            .flatten()
            .chain([
                (NetMsg::Ack { seq: 12345 }, 9),
                (NetMsg::Heartbeat, 1),
                (NetMsg::SuspectQuery { suspect: 2 }, 5),
                (vote(1, true), 6),
                (vote(3, false), 6),
                (NetMsg::Halt, 1),
                (NetMsg::JoinReq { node: 3 }, 5),
                (join(3, true), 6),
                (join(2, false), 6),
            ])
            .collect()
    }

    /// Every frame encodes to its pinned length and decodes back to
    /// itself, and the frames cover every tag of the table.
    #[test]
    fn every_frame_round_trips_at_its_pinned_length() {
        let (mut rpc_tags, mut net_tags) = (Vec::new(), Vec::new());
        for (msg, len) in every_frame() {
            let buf = encoded(&msg);
            assert_eq!(buf.len(), len, "{msg:?}");
            let back = NetMsg::decode(&buf).expect("decode");
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
            net_tags.push(buf[0]);
            if let NetMsg::Rpc { .. } = msg {
                rpc_tags.push(buf[9]);
            }
        }
        for (seen, table) in [(rpc_tags, Rpc::TAGS), (net_tags, NetMsg::TAGS)] {
            let mut seen = seen;
            seen.sort_unstable();
            seen.dedup();
            let mut table = table.to_vec();
            table.sort_unstable();
            assert_eq!(seen, table);
        }
    }

    /// Every frame fails to decode when cut short anywhere or followed by
    /// one more byte.
    #[test]
    fn every_frame_rejects_its_prefixes_and_a_trailing_byte() {
        for (msg, _) in every_frame() {
            let mut buf = encoded(&msg);
            for end in 0..buf.len() {
                assert!(
                    NetMsg::decode(&buf[..end]).is_none(),
                    "{msg:?} cut at {end}"
                );
            }
            buf.push(0);
            assert!(NetMsg::decode(&buf).is_none(), "{msg:?} plus a byte");
        }
    }

    /// A tag the table does not assign fails whatever follows it.
    #[test]
    fn unassigned_tags_are_rejected() {
        for tail in 0..=32 {
            let tail = vec![0u8; tail];
            for tag in 37..=255u8 {
                let frame = [&[0, 2, 0, 0, 0, 9, 0, 0, 0, tag], &tail[..]].concat();
                assert!(NetMsg::decode(&frame).is_none(), "RPC tag {tag}");
            }
            for tag in 9..=255u8 {
                let frame = [&[tag], &tail[..]].concat();
                assert!(NetMsg::decode(&frame).is_none(), "tag {tag}");
            }
        }
    }

    /// `[0][array][chunk][5][op][u32::MAX]`: an operand flush whose word
    /// count no frame could hold fails to decode instead of asking for a
    /// 32 GiB allocation, with or without a few trailing bytes.
    #[test]
    fn an_operand_flush_count_past_the_frame_is_rejected() {
        let mut frame = vec![0];
        frame.extend(2u32.to_le_bytes());
        frame.extend(9u32.to_le_bytes());
        frame.push(5);
        frame.extend(1u32.to_le_bytes());
        frame.extend(u32::MAX.to_le_bytes());
        for tail in 0..=8 {
            let frame = [&frame[..], &vec![0u8; tail]].concat();
            assert!(NetMsg::decode(&frame).is_none(), "tail {tail}");
        }
    }

    #[test]
    fn wire_payload_bytes_match_pre_trait_call_sites() {
        assert_eq!(
            NetMsg::Rpc {
                env: Envelope::new(0, 0, Msg::fill(false, false))
            }
            .payload_bytes(),
            16
        );
        assert_eq!(
            NetMsg::SeqRpc {
                seq: 0,
                env: Envelope::new(
                    0,
                    0,
                    Msg::OperandFlush {
                        op: 0,
                        data: vec![0; 4],
                        keep: true,
                    }
                ),
            }
            .payload_bytes(),
            16 + 32
        );
        assert_eq!(NetMsg::Ack { seq: 0 }.payload_bytes(), 8);
        assert_eq!(NetMsg::Heartbeat.payload_bytes(), 8);
        assert_eq!(NetMsg::SuspectQuery { suspect: 0 }.payload_bytes(), 8);
        assert_eq!(
            NetMsg::SuspectVote {
                suspect: 0,
                alive: false
            }
            .payload_bytes(),
            8
        );
        assert_eq!(NetMsg::JoinReq { node: 0 }.payload_bytes(), 8);
        assert_eq!(
            NetMsg::JoinVote {
                node: 0,
                admit: true
            }
            .payload_bytes(),
            8
        );
        assert_eq!(NetMsg::Halt.payload_bytes(), 0);
    }
}
