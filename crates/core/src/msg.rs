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
        intent: bool,
    },
    LockRelease {
        id: u64,
        kind: LockKind,
    },
}

impl From<Msg> for Rpc {
    fn from(msg: Msg) -> Self {
        Rpc::Coherence(msg)
    }
}

impl Rpc {
    /// Wire payload size in bytes (the fabric adds a fixed header).
    pub(crate) fn payload_bytes(&self) -> u64 {
        match self {
            Rpc::Coherence(Msg::OperandFlush { data, .. }) => 16 + data.len() as u64 * 8,
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
    Rpc(Envelope),
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

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn lock_kind_to_u8(kind: LockKind) -> u8 {
    match kind {
        LockKind::Read => 0,
        LockKind::Write => 1,
    }
}

fn lock_kind_from_u8(b: u8) -> Option<LockKind> {
    match b {
        0 => Some(LockKind::Read),
        1 => Some(LockKind::Write),
        _ => None,
    }
}

fn bool_from_u8(b: u8) -> Option<bool> {
    match b {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

impl Envelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.array);
        put_u32(buf, self.chunk);
        self.rpc.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(Self {
            array: r.u32()?,
            chunk: r.u32()?,
            rpc: Rpc::decode(r)?,
        })
    }
}

impl Rpc {
    /// One tag byte, then the fields. The tag values and field widths fix
    /// each frame's length, which the transport byte counters in the
    /// checked-in BENCH baselines depend on.
    fn encode(&self, buf: &mut Vec<u8>) {
        let lock = |buf: &mut Vec<u8>, tag: u8, id: u64, kind: LockKind| {
            buf.push(tag);
            put_u64(buf, id);
            buf.push(lock_kind_to_u8(kind));
        };
        let msg = match self {
            Rpc::Coherence(msg) => msg,
            Rpc::LockAcquire { id, kind, intent } => {
                return lock(buf, if *intent { 22 } else { 14 }, *id, *kind)
            }
            Rpc::LockGrant { id, kind, intent } => {
                return lock(buf, if *intent { 23 } else { 15 }, *id, *kind)
            }
            Rpc::LockRelease { id, kind } => return lock(buf, 16, *id, *kind),
        };
        match msg {
            Msg::ReadReq { dst_off } => {
                buf.push(0);
                put_u64(buf, *dst_off);
            }
            Msg::WriteReq { dst_off } => {
                buf.push(1);
                put_u64(buf, *dst_off);
            }
            Msg::OperateReq { op } => {
                buf.push(2);
                put_u32(buf, *op);
            }
            Msg::EvictNotice => buf.push(3),
            Msg::WritebackNotice { downgrade } => {
                buf.push(4);
                buf.push(u8::from(*downgrade));
            }
            Msg::OperandFlush { op, data } => {
                buf.push(5);
                put_u32(buf, *op);
                put_u32(buf, data.len() as u32);
                for w in data {
                    put_u64(buf, *w);
                }
            }
            Msg::FillShared => buf.push(6),
            Msg::FillExclusive => buf.push(7),
            Msg::GrantOperated { op } => {
                buf.push(8);
                put_u32(buf, *op);
            }
            Msg::Invalidate => buf.push(9),
            Msg::InvalidateAck => buf.push(10),
            Msg::RecallDirty => buf.push(11),
            Msg::DowngradeDirty => buf.push(12),
            Msg::RecallOperated { op } => {
                buf.push(13);
                put_u32(buf, *op);
            }
            Msg::MigrateData { mig_epoch } => {
                buf.push(17);
                put_u64(buf, *mig_epoch);
            }
            Msg::MigrateAck { mig_epoch } => {
                buf.push(18);
                put_u64(buf, *mig_epoch);
            }
            Msg::MigrateCommit { mig_epoch } => {
                buf.push(19);
                put_u64(buf, *mig_epoch);
            }
            Msg::HomeMoved { new_home, epoch } => {
                buf.push(20);
                put_u32(buf, *new_home as u32);
                put_u64(buf, *epoch);
            }
            Msg::MigrateForward {
                requester,
                dst_off,
                kind,
            } => {
                let (kind, op) = match kind {
                    Kind::Read => (0, 0),
                    Kind::Write => (1, 0),
                    Kind::Operate(op) => (2, *op),
                };
                buf.push(21);
                put_u32(buf, *requester as u32);
                put_u64(buf, *dst_off);
                buf.push(kind);
                put_u32(buf, op);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let msg = match r.u8()? {
            0 => Msg::ReadReq { dst_off: r.u64()? },
            1 => Msg::WriteReq { dst_off: r.u64()? },
            2 => Msg::OperateReq { op: r.u32()? },
            3 => Msg::EvictNotice,
            4 => Msg::WritebackNotice {
                downgrade: bool_from_u8(r.u8()?)?,
            },
            5 => {
                let op = r.u32()?;
                let len = r.u32()? as usize;
                let mut data = Vec::with_capacity(len);
                for _ in 0..len {
                    data.push(r.u64()?);
                }
                Msg::OperandFlush { op, data }
            }
            6 => Msg::FillShared,
            7 => Msg::FillExclusive,
            8 => Msg::GrantOperated { op: r.u32()? },
            9 => Msg::Invalidate,
            10 => Msg::InvalidateAck,
            11 => Msg::RecallDirty,
            12 => Msg::DowngradeDirty,
            13 => Msg::RecallOperated { op: r.u32()? },
            tag @ (14..=16 | 22 | 23) => {
                let (id, kind) = (r.u64()?, lock_kind_from_u8(r.u8()?)?);
                let intent = tag >= 22;
                return Some(match tag {
                    14 | 22 => Rpc::LockAcquire { id, kind, intent },
                    15 | 23 => Rpc::LockGrant { id, kind, intent },
                    _ => Rpc::LockRelease { id, kind },
                });
            }
            17 => Msg::MigrateData {
                mig_epoch: r.u64()?,
            },
            18 => Msg::MigrateAck {
                mig_epoch: r.u64()?,
            },
            19 => Msg::MigrateCommit {
                mig_epoch: r.u64()?,
            },
            20 => Msg::HomeMoved {
                new_home: r.u32()? as NodeId,
                epoch: r.u64()?,
            },
            21 => {
                let requester = r.u32()? as NodeId;
                let dst_off = r.u64()?;
                let kind = match (r.u8()?, r.u32()?) {
                    (0, _) => Kind::Read,
                    (1, _) => Kind::Write,
                    (2, op) => Kind::Operate(op),
                    _ => return None,
                };
                Msg::MigrateForward {
                    requester,
                    dst_off,
                    kind,
                }
            }
            _ => return None,
        };
        Some(Rpc::Coherence(msg))
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
            NetMsg::Rpc(env) | NetMsg::SeqRpc { env, .. } => env.rpc.payload_bytes(),
            NetMsg::Ack { .. } => 8,
            NetMsg::Heartbeat | NetMsg::SuspectQuery { .. } | NetMsg::SuspectVote { .. } => 8,
            NetMsg::JoinReq { .. } | NetMsg::JoinVote { .. } => 8,
            NetMsg::Halt => 0,
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            NetMsg::Rpc(env) => {
                buf.push(0);
                env.encode(buf);
            }
            NetMsg::SeqRpc { seq, env } => {
                buf.push(1);
                put_u64(buf, *seq);
                env.encode(buf);
            }
            NetMsg::Ack { seq } => {
                buf.push(2);
                buf.extend_from_slice(&seq.to_le_bytes());
            }
            NetMsg::Heartbeat => buf.push(3),
            NetMsg::SuspectQuery { suspect } => {
                buf.push(4);
                buf.extend_from_slice(&(*suspect as u32).to_le_bytes());
            }
            NetMsg::SuspectVote { suspect, alive } => {
                buf.push(5);
                buf.extend_from_slice(&(*suspect as u32).to_le_bytes());
                buf.push(u8::from(*alive));
            }
            NetMsg::Halt => buf.push(6),
            NetMsg::JoinReq { node } => {
                buf.push(7);
                buf.extend_from_slice(&(*node as u32).to_le_bytes());
            }
            NetMsg::JoinVote { node, admit } => {
                buf.push(8);
                buf.extend_from_slice(&(*node as u32).to_le_bytes());
                buf.push(u8::from(*admit));
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            0 => NetMsg::Rpc(Envelope::decode(&mut r)?),
            1 => NetMsg::SeqRpc {
                seq: r.u64()?,
                env: Envelope::decode(&mut r)?,
            },
            2 => NetMsg::Ack { seq: r.u64()? },
            3 => NetMsg::Heartbeat,
            4 => NetMsg::SuspectQuery {
                suspect: r.u32()? as NodeId,
            },
            5 => NetMsg::SuspectVote {
                suspect: r.u32()? as NodeId,
                alive: bool_from_u8(r.u8()?)?,
            },
            6 => NetMsg::Halt,
            7 => NetMsg::JoinReq {
                node: r.u32()? as NodeId,
            },
            8 => NetMsg::JoinVote {
                node: r.u32()? as NodeId,
                admit: bool_from_u8(r.u8()?)?,
            },
            _ => return None,
        };
        r.done().then_some(msg)
    }
}

/// Requests an application thread submits to its runtime via the
/// local-request queue (Figure 2).
#[derive(Debug, Clone)]
pub(crate) enum LocalKind {
    Read {
        chunk: ChunkId,
    },
    Write {
        chunk: ChunkId,
    },
    Operate {
        chunk: ChunkId,
        op: u32,
    },
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

impl LocalKind {
    /// Chunk used to route the request to a runtime thread.
    pub(crate) fn route_chunk(&self, chunk_size: usize) -> ChunkId {
        match self {
            LocalKind::Read { chunk }
            | LocalKind::Write { chunk }
            | LocalKind::Operate { chunk, .. } => *chunk,
            LocalKind::LockAcquire { index, .. } | LocalKind::LockRelease { index, .. } => {
                (*index as usize / chunk_size) as ChunkId
            }
        }
    }
}

/// A local request plus its completion token.
pub(crate) struct LocalReq {
    pub array: ArrayId,
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
        });
        assert_eq!(m.payload_bytes(), 16 + 4096);
        assert_eq!(Rpc::Coherence(Msg::FillShared).payload_bytes(), 16);
    }

    /// Every coherence message, every lock message and every membership
    /// frame round-trips the codec, and each RPC frame `[0][array][chunk]
    /// [tag][fields]` has its pinned encoded length (the transport byte
    /// counters in the BENCH baselines count these bytes).
    #[test]
    fn wire_roundtrip_covers_every_message() {
        let frames: [(Rpc, usize); 25] = [
            (Msg::ReadReq { dst_off: 1 << 40 }.into(), 18),
            (Msg::WriteReq { dst_off: 7 }.into(), 18),
            (Msg::OperateReq { op: 2 }.into(), 14),
            (Msg::EvictNotice.into(), 10),
            (Msg::WritebackNotice { downgrade: true }.into(), 11),
            (
                Msg::OperandFlush {
                    op: 1,
                    data: vec![u64::MAX, 0, 42],
                }
                .into(),
                18 + 3 * 8,
            ),
            (
                Msg::OperandFlush {
                    op: 1,
                    data: vec![],
                }
                .into(),
                18,
            ),
            (Msg::FillShared.into(), 10),
            (Msg::FillExclusive.into(), 10),
            (Msg::GrantOperated { op: 3 }.into(), 14),
            (Msg::Invalidate.into(), 10),
            (Msg::InvalidateAck.into(), 10),
            (Msg::RecallDirty.into(), 10),
            (Msg::DowngradeDirty.into(), 10),
            (Msg::RecallOperated { op: 4 }.into(), 14),
            (
                Msg::MigrateData {
                    mig_epoch: u64::MAX - 3,
                }
                .into(),
                18,
            ),
            (Msg::MigrateAck { mig_epoch: 5 }.into(), 18),
            (Msg::MigrateCommit { mig_epoch: 6 }.into(), 18),
            (
                Msg::HomeMoved {
                    new_home: 4,
                    epoch: 7,
                }
                .into(),
                22,
            ),
            (
                Msg::MigrateForward {
                    requester: 1,
                    dst_off: 1 << 33,
                    kind: Kind::Operate(9),
                }
                .into(),
                27,
            ),
            (
                Rpc::LockAcquire {
                    id: 99,
                    kind: LockKind::Read,
                    intent: false,
                },
                19,
            ),
            (
                Rpc::LockGrant {
                    id: 100,
                    kind: LockKind::Write,
                    intent: false,
                },
                19,
            ),
            (
                Rpc::LockAcquire {
                    id: 102,
                    kind: LockKind::Write,
                    intent: true,
                },
                19,
            ),
            (
                Rpc::LockGrant {
                    id: 103,
                    kind: LockKind::Write,
                    intent: true,
                },
                19,
            ),
            (
                Rpc::LockRelease {
                    id: 101,
                    kind: LockKind::Read,
                },
                19,
            ),
        ];
        let mut msgs: Vec<NetMsg> = Vec::new();
        for (i, (rpc, len)) in frames.into_iter().enumerate() {
            let env = Envelope::new(2, i as ChunkId, rpc);
            let mut buf = Vec::new();
            NetMsg::Rpc(env.clone()).encode(&mut buf);
            assert_eq!(buf.len(), len, "{env:?}");
            buf.clear();
            let seq = NetMsg::SeqRpc {
                seq: u64::MAX - 1,
                env: env.clone(),
            };
            seq.encode(&mut buf);
            assert_eq!(buf.len(), len + 8, "{env:?}");
            msgs.push(NetMsg::Rpc(env));
            msgs.push(seq);
        }
        for kind in [Kind::Read, Kind::Write] {
            msgs.push(NetMsg::Rpc(Envelope::new(
                0,
                1,
                Msg::MigrateForward {
                    requester: 2,
                    dst_off: 8,
                    kind,
                },
            )));
        }
        msgs.push(NetMsg::Ack { seq: 12345 });
        msgs.push(NetMsg::Heartbeat);
        msgs.push(NetMsg::SuspectQuery { suspect: 2 });
        msgs.push(NetMsg::SuspectVote {
            suspect: 1,
            alive: true,
        });
        msgs.push(NetMsg::Halt);
        msgs.push(NetMsg::JoinReq { node: 3 });
        msgs.push(NetMsg::JoinVote {
            node: 3,
            admit: true,
        });
        msgs.push(NetMsg::JoinVote {
            node: 2,
            admit: false,
        });
        for msg in msgs {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let back = NetMsg::decode(&buf).expect("decode");
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
        // Truncated and trailing-garbage inputs must fail, not panic.
        let mut buf = Vec::new();
        NetMsg::Ack { seq: 7 }.encode(&mut buf);
        assert!(NetMsg::decode(&buf[..buf.len() - 1]).is_none());
        buf.push(0);
        assert!(NetMsg::decode(&buf).is_none());
        assert!(NetMsg::decode(&[]).is_none());
        assert!(NetMsg::decode(&[250]).is_none());
    }

    #[test]
    fn wire_payload_bytes_match_pre_trait_call_sites() {
        assert_eq!(
            NetMsg::Rpc(Envelope::new(0, 0, Msg::FillShared)).payload_bytes(),
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
                        data: vec![0; 4]
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

    #[test]
    fn lock_local_kind_routes_by_element_chunk() {
        let k = LocalKind::LockAcquire {
            index: 1_000,
            kind: LockKind::Write,
            intent: true,
        };
        assert_eq!(k.route_chunk(512), 1);
        let k = LocalKind::Read { chunk: 7 };
        assert_eq!(k.route_chunk(512), 7);
    }
}
