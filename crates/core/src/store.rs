//! Per-node durable chunk storage (DESIGN.md §14).
//!
//! An optional persistence backend under the runtime executor: when
//! [`crate::ClusterConfig::durability`] selects a policy other than
//! [`DurabilityPolicy::None`], every node opens one [`LogChunkStore`] and the
//! home-side directory machine routes dirty-chunk flushes through it
//! *before* the protocol acknowledges them (persist-before-ack — see
//! `protocol::home::Transient::AwaitPersist`).
//!
//! The store is a single append-only log-structured file per node plus an
//! optional checkpoint sidecar:
//!
//! * each log record is an epoch-stamped full-chunk image, CRC-framed so a
//!   torn tail (a crash mid-append) is detected and truncated on reopen;
//! * replay on open scans the log once and keeps, per `(array, chunk)`,
//!   only the record with the highest persist epoch — later records always
//!   win, so recovery is the last acknowledged image of every chunk;
//! * `Writethrough` syncs the file after every record; `Writeback` buffers
//!   appends and syncs at [`LogChunkStore::sync`] points (the end of each
//!   cache-reclaim episode, epoch closes, shutdown);
//! * [`LogChunkStore::checkpoint`] snapshots the full live image into a
//!   sidecar (`node<N>.ckpt`) via write-to-temp + CRC frame + atomic
//!   rename, then (when compaction is enabled) drops the log prefix the
//!   *previous* checkpoint already covers — so at every instant the
//!   newest-but-one checkpoint plus the untruncated log still reconstructs
//!   every acked write, and a crash at any byte of the sequence is safe.
//!
//! The store is a storage seam under the runtime, not a fork of the
//! protocol — the shape graft takes with its `FjallStorage` layering. It is
//! the one backend, so the runtime calls it directly; a second one (an LSM
//! tree, a block device, a remote object store) would take its public
//! methods as a trait.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::msg::{ArrayId, ChunkId};

/// When (and whether) dirty-chunk flushes are persisted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// No durability: flushes are acknowledged straight from memory. The
    /// protocol behaves bit-identically to the pre-durability builds.
    #[default]
    None,
    /// Flushes append to the log through a write buffer; the buffer is
    /// synced at batch boundaries (reclaim-episode ends, epoch closes,
    /// shutdown).
    /// A crash may lose the unsynced tail — but never an already-synced
    /// record, and never the log's integrity (the torn tail is truncated
    /// on reopen).
    Writeback,
    /// Every flush is appended *and synced* before the protocol
    /// acknowledges it. Strongest guarantee, one `fsync` per flush.
    Writethrough,
}

impl DurabilityPolicy {
    /// Human-readable knob name (config errors, reports).
    pub fn name(&self) -> &'static str {
        match self {
            DurabilityPolicy::None => "none",
            DurabilityPolicy::Writeback => "writeback",
            DurabilityPolicy::Writethrough => "writethrough",
        }
    }
}

/// Checkpoint/compaction knobs for a [`LogChunkStore`], mirrored from
/// [`crate::DurabilityConfig`] (DESIGN.md §14, "Compaction and
/// checkpointing").
#[derive(Debug, Clone, Copy)]
pub struct CheckpointConfig {
    /// Take a checkpoint automatically once this many records have been
    /// persisted since the last one ([`LogChunkStore::maybe_checkpoint`] is
    /// polled at the runtime's batch points). `None` disables periodic
    /// checkpoints; explicit [`LogChunkStore::checkpoint`] calls still work.
    pub every_persists: Option<u64>,
    /// Truncate the compacted log prefix after a successful checkpoint.
    /// With this off, checkpoints are written but the log only grows.
    pub compact: bool,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            every_persists: None,
            compact: true,
        }
    }
}

/// One chunk image recovered by log replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredChunk {
    /// Array the chunk belongs to (allocation order, so deterministic
    /// across a restart that allocates the same arrays in the same order).
    pub array: ArrayId,
    /// Global chunk index within the array.
    pub chunk: ChunkId,
    /// Persist epoch stamped on the winning record.
    pub epoch: u64,
    /// The chunk's words as of its last acknowledged flush.
    pub data: Vec<u64>,
}

/// Counters a store exposes for `NodeStats` overlay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended (one per persisted flush).
    pub persists: u64,
    /// Log records scanned during replay on open (including superseded
    /// ones). Bounded by compaction: after a checkpoint truncates the log,
    /// a reopen replays only the suffix appended since the previous
    /// checkpoint, not the store's full persist history.
    pub log_replays: u64,
    /// Distinct chunks recovered on open (checkpoint image overlaid with
    /// the log suffix, latest epoch per chunk).
    pub recovered_chunks: u64,
    /// Current log size in bytes, including any unsynced write buffer.
    pub log_bytes: u64,
    /// Size of the newest durable checkpoint in bytes (0 when none).
    pub checkpoint_bytes: u64,
    /// Checkpoints completed by this incarnation (periodic + on-demand).
    pub compactions: u64,
    /// Log records dropped by compaction truncation (they were covered by
    /// a durable checkpoint).
    pub truncated_records: u64,
}

/// Log file magic: `b"DACS"` ("DArray Chunk Store").
const MAGIC: u32 = 0x5343_4144;
/// Checkpoint sidecar magic: `b"DACK"` ("DArray ChecKpoint").
const CKPT_MAGIC: u32 = 0x4B43_4144;
/// Format version; bumped on incompatible record changes.
const VERSION: u32 = 1;
/// Per-record fixed header: array(4) chunk(4) nwords(4) pad(4) epoch(8).
const REC_HEADER_BYTES: usize = 24;
/// Log file header: magic(4) version(4).
const LOG_HEADER_BYTES: u64 = 8;

/// CRC-32 (IEEE 802.3, reflected), table-less bitwise implementation — the
/// store must not pull in a checksum dependency.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

struct LogInner {
    file: File,
    /// Buffered bytes not yet written to the file (Writeback policy).
    buf: Vec<u8>,
    /// Bytes currently in the log file (buffer excluded).
    file_len: u64,
    /// Records currently in the log file or buffer.
    file_recs: u64,
    /// Newest full image of every chunk persisted so far (recovery image
    /// overlaid with post-open persists): the checkpoint source.
    live: HashMap<(ArrayId, ChunkId), (u64, Vec<u64>)>,
    /// Byte offset in the current log file up to which the *newest durable
    /// checkpoint* already covers every record. The next compaction may
    /// drop bytes `[LOG_HEADER_BYTES, ckpt_mark)` — and no more, so the
    /// newest-but-one checkpoint plus the log always reconstructs every
    /// acked write even if the newest checkpoint file is torn.
    ckpt_mark: u64,
    /// Records in the log before `ckpt_mark`.
    recs_before_mark: u64,
    /// Size of the newest checkpoint file (0 when none).
    ckpt_bytes: u64,
    /// Records persisted since the last checkpoint (periodic trigger).
    persists_since_ckpt: u64,
    /// Completed checkpoints this incarnation.
    compactions: u64,
    /// Log records dropped by compaction truncation.
    truncated_records: u64,
}

/// A per-node durable chunk store: one append-only CRC-framed log file plus
/// a checkpoint sidecar (`<log>.ckpt`, previous generation
/// `<log>.ckpt.prev`). Every runtime thread of the node persists through
/// the same store.
pub struct LogChunkStore {
    path: PathBuf,
    sync_every_record: bool,
    ckpt_cfg: CheckpointConfig,
    inner: Mutex<LogInner>,
    /// Snapshot of the recovery image at open time; later persists append
    /// to the log but do not alter what *this* open recovered.
    recovered: Vec<RecoveredChunk>,
    persists: AtomicU64,
    log_replays: u64,
}

/// Sidecar paths derived from the log path: `node0.log` →
/// `node0.ckpt` / `node0.ckpt.prev` / `node0.ckpt.tmp` / `node0.log.tmp`.
fn sidecar_paths(log: &Path) -> (PathBuf, PathBuf, PathBuf, PathBuf) {
    (
        log.with_extension("ckpt"),
        log.with_extension("ckpt.prev"),
        log.with_extension("ckpt.tmp"),
        log.with_extension("log.tmp"),
    )
}

/// Best-effort fsync of the directory holding `path`, so renames inside it
/// are durable before we truncate anything that depends on them.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(d) = File::open(parent) {
                let _ = d.sync_all();
            }
        }
    }
}

impl LogChunkStore {
    /// Open (or create) the log at `path` with default checkpoint knobs
    /// (no periodic checkpoints; explicit checkpoints compact the log).
    pub fn open(path: &Path, policy: DurabilityPolicy) -> io::Result<Self> {
        Self::open_with(path, policy, CheckpointConfig::default())
    }

    /// Open (or create) the log at `path`, replaying any existing state:
    /// the newest intact checkpoint sidecar first (a torn or CRC-corrupt
    /// one falls back to the previous generation, then to nothing), then
    /// the log records on top, latest epoch per chunk winning. A torn log
    /// tail — an incomplete or CRC-corrupt final record left by a crash
    /// mid-append — is truncated away; everything before it is kept.
    ///
    /// `policy` must not be [`DurabilityPolicy::None`] (config validation
    /// rejects that combination before a store is ever opened).
    pub fn open_with(
        path: &Path,
        policy: DurabilityPolicy,
        ckpt_cfg: CheckpointConfig,
    ) -> io::Result<Self> {
        debug_assert_ne!(policy, DurabilityPolicy::None);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let (ckpt, ckpt_prev, ckpt_tmp, log_tmp) = sidecar_paths(path);
        // A crash can leave half-written scratch files behind; they are
        // never part of the recovery contract.
        let _ = std::fs::remove_file(&ckpt_tmp);
        let _ = std::fs::remove_file(&log_tmp);

        // Checkpoint base: newest intact generation wins; a torn or
        // CRC-bad newest checkpoint is deleted (it has no value and must
        // not be rotated over the good previous generation later) and the
        // previous one is used instead. With neither, the log alone is
        // the recovery source — correct because compaction only ever
        // truncates records a durable checkpoint covers.
        let mut ckpt_bytes = 0u64;
        let mut index: HashMap<(ArrayId, ChunkId), (u64, Vec<u64>)> = HashMap::new();
        for p in [&ckpt, &ckpt_prev] {
            let Ok(bytes) = std::fs::read(p) else {
                continue;
            };
            match decode_checkpoint(&bytes) {
                Some(chunks) => {
                    ckpt_bytes = bytes.len() as u64;
                    for rec in chunks {
                        index.insert((rec.array, rec.chunk), (rec.epoch, rec.data));
                    }
                    break;
                }
                None => {
                    // Torn/corrupt generation: fall through to the older
                    // one (or to log-only recovery).
                    let _ = std::fs::remove_file(p);
                }
            }
        }

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut body = Vec::new();
        file.read_to_end(&mut body)?;

        let mut log_replays = 0u64;
        let valid_len = if body.is_empty() {
            // Fresh log: write the file header.
            let mut hdr = Vec::with_capacity(8);
            hdr.extend_from_slice(&MAGIC.to_le_bytes());
            hdr.extend_from_slice(&VERSION.to_le_bytes());
            file.write_all(&hdr)?;
            8
        } else {
            if body.len() < 8
                || u32::from_le_bytes(body[0..4].try_into().unwrap()) != MAGIC
                || u32::from_le_bytes(body[4..8].try_into().unwrap()) != VERSION
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: not a darray chunk log (bad magic/version)",
                        path.display()
                    ),
                ));
            }
            let mut pos = 8usize;
            // Scan records until EOF or the first torn/corrupt frame.
            while let Some((consumed, array, chunk, epoch, data)) = decode_record(&body[pos..]) {
                let e = index.entry((array, chunk)).or_insert((0, Vec::new()));
                // Later records supersede earlier ones (and the checkpoint
                // base); epoch ties go to the later record too.
                if epoch >= e.0 || e.1.is_empty() {
                    *e = (epoch, data);
                }
                log_replays += 1;
                pos += consumed;
            }
            pos
        };
        if valid_len < body.len().max(8) {
            // Torn tail: a crash interrupted the final append.
            file.set_len(valid_len as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;

        let mut recovered: Vec<RecoveredChunk> = index
            .iter()
            .map(|(&(array, chunk), &(epoch, ref data))| RecoveredChunk {
                array,
                chunk,
                epoch,
                data: data.clone(),
            })
            .collect();
        recovered.sort_by_key(|r| (r.array, r.chunk));
        Ok(Self {
            path: path.to_path_buf(),
            sync_every_record: policy == DurabilityPolicy::Writethrough,
            ckpt_cfg,
            inner: Mutex::new(LogInner {
                file,
                buf: Vec::new(),
                file_len: valid_len as u64,
                file_recs: log_replays,
                live: index,
                // Conservative: claim the on-disk checkpoint covers none
                // of the current log, so the first compaction of this
                // incarnation truncates nothing. (The alternative —
                // trusting a persisted mark — would have to survive every
                // crash interleaving; claiming zero coverage is always
                // safe and costs one extra checkpoint interval of log.)
                ckpt_mark: LOG_HEADER_BYTES,
                recs_before_mark: 0,
                ckpt_bytes,
                persists_since_ckpt: 0,
                compactions: 0,
                truncated_records: 0,
            }),
            recovered,
            persists: AtomicU64::new(0),
            log_replays,
        })
    }

    /// Durably record `data` as the image of `(array, chunk)` at persist
    /// epoch `epoch`. Whether the record is synced before return is the
    /// policy's choice; [`LogChunkStore::sync`] forces it.
    pub fn persist(
        &self,
        array: ArrayId,
        chunk: ChunkId,
        epoch: u64,
        data: &[u64],
    ) -> io::Result<()> {
        let rec = encode_record(array, chunk, epoch, data);
        let mut g = self.inner.lock();
        if self.sync_every_record {
            g.buf.extend_from_slice(&rec);
            let buf = std::mem::take(&mut g.buf);
            g.file.write_all(&buf)?;
            g.file.sync_data()?;
            g.file_len += buf.len() as u64;
        } else {
            g.buf.extend_from_slice(&rec);
        }
        g.file_recs += 1;
        g.persists_since_ckpt += 1;
        // Keep the checkpoint source current: newest epoch per chunk.
        let e = g.live.entry((array, chunk)).or_insert((0, Vec::new()));
        if epoch >= e.0 || e.1.is_empty() {
            *e = (epoch, data.to_vec());
        }
        self.persists.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flush buffered records to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        let mut g = self.inner.lock();
        if !g.buf.is_empty() {
            let buf = std::mem::take(&mut g.buf);
            g.file.write_all(&buf)?;
            g.file_len += buf.len() as u64;
        }
        g.file.sync_data()
    }

    /// The chunk images recovered when the store was opened, sorted by
    /// `(array, chunk)` for deterministic replay order.
    pub fn recovered(&self) -> &[RecoveredChunk] {
        &self.recovered
    }

    /// Monotonic counters for stats overlay.
    pub fn stats(&self) -> StoreStats {
        let g = self.inner.lock();
        StoreStats {
            persists: self.persists.load(Ordering::Relaxed),
            log_replays: self.log_replays,
            recovered_chunks: self.recovered.len() as u64,
            log_bytes: g.file_len + g.buf.len() as u64,
            checkpoint_bytes: g.ckpt_bytes,
            compactions: g.compactions,
            truncated_records: g.truncated_records,
        }
    }

    /// Write a full-image checkpoint now (and compact the log when the
    /// store is configured to).
    pub fn checkpoint(&self) -> io::Result<()> {
        let mut g = self.inner.lock();
        self.checkpoint_locked(&mut g)
    }

    /// Checkpoint only if the periodic threshold has been reached; polled
    /// by the runtime at batch points (reclaim-episode ends, epoch closes).
    /// Returns whether a checkpoint ran.
    pub fn maybe_checkpoint(&self) -> io::Result<bool> {
        let mut g = self.inner.lock();
        match self.ckpt_cfg.every_persists {
            Some(k) if g.persists_since_ckpt >= k => {
                self.checkpoint_locked(&mut g)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// The crash-safe snapshot → rotate → rename → truncate sequence, with
    /// the inner lock held. Invariant at every byte: either the newest
    /// checkpoint file is intact, or the previous generation plus the
    /// (not-yet-truncated) log reconstructs every acked write.
    fn checkpoint_locked(&self, g: &mut LogInner) -> io::Result<()> {
        let (ckpt, ckpt_prev, ckpt_tmp, log_tmp) = sidecar_paths(&self.path);

        // Phase 1 — flush: every buffered record reaches the log before
        // the snapshot claims to cover it.
        if !g.buf.is_empty() {
            let buf = std::mem::take(&mut g.buf);
            g.file.write_all(&buf)?;
            g.file_len += buf.len() as u64;
        }
        g.file.sync_data()?;

        // Phase 2 — snapshot: full live image into the temp sidecar,
        // CRC-framed and synced. A crash here leaves only scrap (cleaned
        // at the next open).
        let payload = encode_checkpoint(&g.live);
        {
            let mut f = File::create(&ckpt_tmp)?;
            f.write_all(&payload)?;
            f.sync_all()?;
        }

        // Phase 3 — rotate + rename: the old checkpoint becomes the
        // previous generation, then the temp becomes the newest — both
        // atomic. A crash between them leaves no `ckpt` but an intact
        // `ckpt.prev` and an untruncated log: complete.
        if ckpt.exists() {
            std::fs::rename(&ckpt, &ckpt_prev)?;
        }
        std::fs::rename(&ckpt_tmp, &ckpt)?;
        sync_parent_dir(&self.path);
        g.ckpt_bytes = payload.len() as u64;

        // Phase 4 — truncate: drop the log prefix covered by the
        // *previous* checkpoint (lag-by-one: the newest checkpoint's
        // coverage is only reclaimed by the NEXT compaction, so a torn
        // newest checkpoint can always fall back to prev + log). The
        // rewrite goes through a temp + atomic rename: a crash mid-way
        // leaves the old log intact.
        if self.ckpt_cfg.compact && g.ckpt_mark > LOG_HEADER_BYTES {
            let dropped = g.recs_before_mark;
            g.file.seek(SeekFrom::Start(g.ckpt_mark))?;
            let mut tail = Vec::new();
            g.file.read_to_end(&mut tail)?;
            {
                let mut f = File::create(&log_tmp)?;
                f.write_all(&MAGIC.to_le_bytes())?;
                f.write_all(&VERSION.to_le_bytes())?;
                f.write_all(&tail)?;
                f.sync_all()?;
            }
            std::fs::rename(&log_tmp, &self.path)?;
            sync_parent_dir(&self.path);
            // The old handle still points at the unlinked inode; reopen.
            let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
            file.seek(SeekFrom::End(0))?;
            g.file = file;
            g.file_len = LOG_HEADER_BYTES + tail.len() as u64;
            g.file_recs -= dropped;
            g.truncated_records += dropped;
        } else {
            g.file.seek(SeekFrom::End(0))?;
        }
        // The checkpoint just written covers everything currently in the
        // log; the next compaction may truncate up to here.
        g.ckpt_mark = g.file_len;
        g.recs_before_mark = g.file_recs;
        g.compactions += 1;
        g.persists_since_ckpt = 0;
        Ok(())
    }
}

/// Encode one record: `[len u32][crc u32][header][data]`, where `len`
/// covers header + data and `crc` covers the same bytes `len` frames.
fn encode_record(array: ArrayId, chunk: ChunkId, epoch: u64, data: &[u64]) -> Vec<u8> {
    let body_len = REC_HEADER_BYTES + data.len() * 8;
    let mut out = Vec::with_capacity(8 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // crc placeholder
    out.extend_from_slice(&array.to_le_bytes());
    out.extend_from_slice(&chunk.to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // pad (8-byte data alignment)
    out.extend_from_slice(&epoch.to_le_bytes());
    for w in data {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let crc = crc32(&out[8..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decode the record at the front of `buf`. Returns
/// `(bytes_consumed, array, chunk, epoch, data)` or `None` on a torn or
/// corrupt frame.
fn decode_record(buf: &[u8]) -> Option<(usize, ArrayId, ChunkId, u64, Vec<u64>)> {
    if buf.len() < 8 {
        return None;
    }
    let body_len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if body_len < REC_HEADER_BYTES || buf.len() < 8 + body_len {
        return None; // torn tail
    }
    let body = &buf[8..8 + body_len];
    if crc32(body) != crc {
        return None; // corrupt frame (torn overwrite)
    }
    let array = u32::from_le_bytes(body[0..4].try_into().unwrap());
    let chunk = u32::from_le_bytes(body[4..8].try_into().unwrap());
    let nwords = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
    let epoch = u64::from_le_bytes(body[16..24].try_into().unwrap());
    if body_len != REC_HEADER_BYTES + nwords * 8 {
        return None;
    }
    let mut data = Vec::with_capacity(nwords);
    for i in 0..nwords {
        let off = REC_HEADER_BYTES + i * 8;
        data.push(u64::from_le_bytes(body[off..off + 8].try_into().unwrap()));
    }
    Some((8 + body_len, array, chunk, epoch, data))
}

/// Encode a full checkpoint image:
/// `[CKPT_MAGIC][VERSION][payload_len u32][crc u32][payload]` where the
/// payload is `[nchunks u32][pad u32]` followed by one log-record body
/// (header + data, no per-record frame) per chunk, sorted by
/// `(array, chunk)` for deterministic bytes. One CRC covers the whole
/// payload: a checkpoint is valid in full or not at all.
fn encode_checkpoint(live: &HashMap<(ArrayId, ChunkId), (u64, Vec<u64>)>) -> Vec<u8> {
    let mut keys: Vec<&(ArrayId, ChunkId)> = live.keys().collect();
    keys.sort();
    let mut payload = Vec::new();
    payload.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes()); // pad
    for &&(array, chunk) in &keys {
        let (epoch, data) = &live[&(array, chunk)];
        payload.extend_from_slice(&array.to_le_bytes());
        payload.extend_from_slice(&chunk.to_le_bytes());
        payload.extend_from_slice(&(data.len() as u32).to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes()); // pad
        payload.extend_from_slice(&epoch.to_le_bytes());
        for w in data {
            payload.extend_from_slice(&w.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decode a checkpoint file. `None` on any defect — short file, bad
/// magic/version, length mismatch, CRC mismatch, malformed chunk table —
/// never a partial image: the caller falls back to an older generation.
fn decode_checkpoint(bytes: &[u8]) -> Option<Vec<RecoveredChunk>> {
    if bytes.len() < 16
        || u32::from_le_bytes(bytes[0..4].try_into().unwrap()) != CKPT_MAGIC
        || u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != VERSION
    {
        return None;
    }
    let payload_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if bytes.len() != 16 + payload_len {
        return None; // torn (or trailing garbage): reject whole
    }
    let payload = &bytes[16..];
    if crc32(payload) != crc {
        return None;
    }
    if payload.len() < 8 {
        return None;
    }
    let nchunks = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let mut pos = 8usize;
    let mut out = Vec::with_capacity(nchunks);
    for _ in 0..nchunks {
        if payload.len() < pos + REC_HEADER_BYTES {
            return None;
        }
        let body = &payload[pos..];
        let array = u32::from_le_bytes(body[0..4].try_into().unwrap());
        let chunk = u32::from_le_bytes(body[4..8].try_into().unwrap());
        let nwords = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
        let epoch = u64::from_le_bytes(body[16..24].try_into().unwrap());
        if payload.len() < pos + REC_HEADER_BYTES + nwords * 8 {
            return None;
        }
        let mut data = Vec::with_capacity(nwords);
        for i in 0..nwords {
            let off = REC_HEADER_BYTES + i * 8;
            data.push(u64::from_le_bytes(body[off..off + 8].try_into().unwrap()));
        }
        out.push(RecoveredChunk {
            array,
            chunk,
            epoch,
            data,
        });
        pos += REC_HEADER_BYTES + nwords * 8;
    }
    if pos != payload.len() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "darray-store-test-{}-{name}.log",
            std::process::id()
        ));
        cleanup(&p);
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let (ckpt, prev, tmp, ltmp) = sidecar_paths(p);
        for f in [ckpt, prev, tmp, ltmp] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn persist_reopen_recovers_latest_image() {
        let p = temp_log("latest");
        {
            let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
            s.persist(0, 3, 1, &[1, 2, 3]).unwrap();
            s.persist(0, 3, 2, &[4, 5, 6]).unwrap();
            s.persist(1, 0, 1, &[9]).unwrap();
            assert_eq!(s.stats().persists, 3);
            assert!(s.recovered().is_empty(), "fresh log recovered nothing");
        }
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        let rec = s.recovered();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec[0].array, 0);
        assert_eq!(rec[0].chunk, 3);
        assert_eq!(rec[0].epoch, 2);
        assert_eq!(rec[0].data, vec![4, 5, 6], "later record wins");
        assert_eq!(rec[1].data, vec![9]);
        let st = s.stats();
        assert_eq!(st.log_replays, 3);
        assert_eq!(st.recovered_chunks, 2);
        cleanup(&p);
    }

    #[test]
    fn writeback_buffers_until_sync() {
        let p = temp_log("writeback");
        {
            let s = LogChunkStore::open(&p, DurabilityPolicy::Writeback).unwrap();
            s.persist(0, 0, 1, &[7]).unwrap();
            // Unsynced: nothing has reached the file past the header yet.
            assert_eq!(std::fs::metadata(&p).unwrap().len(), 8, "header only");
            s.sync().unwrap();
            assert!(std::fs::metadata(&p).unwrap().len() > 8);
        }
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writeback).unwrap();
        assert_eq!(s.recovered().len(), 1);
        cleanup(&p);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let p = temp_log("torn");
        {
            let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
            s.persist(0, 0, 1, &[1, 1]).unwrap();
            s.persist(0, 1, 1, &[2, 2]).unwrap();
        }
        // Chop the final record mid-frame: a crash mid-append.
        let full = std::fs::metadata(&p).unwrap().len();
        let f = OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        let rec = s.recovered();
        assert_eq!(rec.len(), 1, "only the intact record survives");
        assert_eq!(rec[0].chunk, 0);
        let one_record = 8 + (REC_HEADER_BYTES + 2 * 8) as u64;
        assert_eq!(
            std::fs::metadata(&p).unwrap().len(),
            full - one_record,
            "tail truncated to the last intact frame"
        );
        // The truncated log keeps appending cleanly.
        s.persist(0, 1, 2, &[3, 3]).unwrap();
        drop(s);
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        assert_eq!(s.recovered().len(), 2);
        cleanup(&p);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let p = temp_log("crc");
        {
            let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
            s.persist(0, 0, 1, &[1]).unwrap();
            s.persist(0, 1, 1, &[2]).unwrap();
        }
        // Flip a data byte inside the second record.
        let mut body = std::fs::read(&p).unwrap();
        let last = body.len() - 1;
        body[last] ^= 0xFF;
        std::fs::write(&p, &body).unwrap();
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        assert_eq!(s.recovered().len(), 1, "replay stops at the corrupt frame");
        cleanup(&p);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let p = temp_log("magic");
        std::fs::write(&p, b"not a chunk log").unwrap();
        assert!(LogChunkStore::open(&p, DurabilityPolicy::Writethrough).is_err());
        cleanup(&p);
    }

    #[test]
    fn policy_names() {
        assert_eq!(DurabilityPolicy::None.name(), "none");
        assert_eq!(DurabilityPolicy::Writeback.name(), "writeback");
        assert_eq!(DurabilityPolicy::Writethrough.name(), "writethrough");
    }

    #[test]
    fn checkpoint_recovers_without_log_records() {
        let p = temp_log("ckpt-basic");
        {
            let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
            s.persist(0, 0, 1, &[10, 11]).unwrap();
            s.persist(0, 1, 1, &[20, 21]).unwrap();
            s.persist(0, 0, 2, &[12, 13]).unwrap();
            s.checkpoint().unwrap();
            let st = s.stats();
            assert_eq!(st.compactions, 1);
            assert!(st.checkpoint_bytes > 0);
        }
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        let rec = s.recovered();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec[0].data, vec![12, 13], "latest image in the checkpoint");
        assert_eq!(rec[1].data, vec![20, 21]);
        assert_eq!(
            s.stats().recovered_chunks,
            2,
            "checkpoint chunks count as recovered"
        );
        cleanup(&p);
    }

    #[test]
    fn second_compaction_truncates_the_log_prefix() {
        let p = temp_log("ckpt-truncate");
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        for e in 1..=10u64 {
            s.persist(0, 0, e, &[e]).unwrap();
        }
        s.checkpoint().unwrap();
        // Lag-by-one: the first checkpoint covers the 10 records but the
        // log keeps them until the *next* compaction (so a torn newest
        // checkpoint can always fall back to prev + log).
        assert_eq!(s.stats().truncated_records, 0);
        for e in 11..=15u64 {
            s.persist(0, 0, e, &[e]).unwrap();
        }
        s.checkpoint().unwrap();
        let st = s.stats();
        assert_eq!(st.compactions, 2);
        assert_eq!(st.truncated_records, 10, "first checkpoint's prefix drops");
        drop(s);
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        let st = s.stats();
        assert_eq!(
            st.log_replays, 5,
            "replay is the post-truncation suffix, not the full history"
        );
        assert_eq!(s.recovered()[0].data, vec![15]);
        assert_eq!(s.recovered()[0].epoch, 15);
        cleanup(&p);
    }

    #[test]
    fn bounded_replay_after_compaction() {
        // The acceptance bound: reopen replays O(live chunks + suffix),
        // never O(total persists).
        let p = temp_log("ckpt-bounded");
        let s = LogChunkStore::open_with(
            &p,
            DurabilityPolicy::Writethrough,
            CheckpointConfig {
                every_persists: Some(8),
                compact: true,
            },
        )
        .unwrap();
        let mut persists = 0u64;
        for round in 0..50u64 {
            for c in 0..4u32 {
                s.persist(0, c, round + 1, &[round, c as u64]).unwrap();
                persists += 1;
            }
            s.maybe_checkpoint().unwrap();
        }
        assert_eq!(persists, 200);
        assert!(s.stats().compactions >= 20);
        assert!(s.stats().truncated_records > 150);
        drop(s);
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        let st = s.stats();
        let live = 4u64;
        let suffix_bound = 2 * 8; // two checkpoint intervals (lag-by-one)
        assert!(
            st.log_replays <= live + suffix_bound,
            "replayed {} records for {} persists (bound {})",
            st.log_replays,
            persists,
            live + suffix_bound
        );
        assert_eq!(st.recovered_chunks, live);
        assert_eq!(s.recovered()[0].epoch, 50);
        cleanup(&p);
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous_generation() {
        let p = temp_log("ckpt-torn");
        let (ckpt, prev, _, _) = sidecar_paths(&p);
        {
            let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
            for e in 1..=6u64 {
                s.persist(0, 0, e, &[e]).unwrap();
            }
            s.checkpoint().unwrap(); // generation 1
            s.persist(0, 1, 1, &[77]).unwrap();
            s.checkpoint().unwrap(); // generation 2; gen 1 rotates to .prev
            s.persist(0, 2, 1, &[88]).unwrap();
        }
        assert!(ckpt.exists() && prev.exists());
        // Tear the newest checkpoint mid-frame (simulating a non-atomic
        // rename or sector loss).
        let len = std::fs::metadata(&ckpt).unwrap().len();
        let f = OpenOptions::new().write(true).open(&ckpt).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        let rec = s.recovered();
        // prev (gen 1: chunk 0) + untruncated log suffix (chunk 1 record
        // survived compaction lag; chunk 2 record appended after) covers
        // everything.
        assert_eq!(rec.len(), 3, "fallback recovery is complete: {rec:?}");
        assert_eq!(rec[0].data, vec![6]);
        assert_eq!(rec[1].data, vec![77]);
        assert_eq!(rec[2].data, vec![88]);
        assert!(
            !ckpt.exists(),
            "the torn generation is deleted, not rotated"
        );
        cleanup(&p);
    }

    #[test]
    fn torn_checkpoint_with_no_previous_generation_uses_the_log() {
        let p = temp_log("ckpt-torn-nofallback");
        let (ckpt, prev, _, _) = sidecar_paths(&p);
        {
            let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
            s.persist(0, 0, 1, &[5]).unwrap();
            s.checkpoint().unwrap();
        }
        assert!(!prev.exists());
        std::fs::write(&ckpt, b"DACKgarbage").unwrap();
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        // Lag-by-one means the log still holds the record.
        assert_eq!(s.recovered().len(), 1);
        assert_eq!(s.recovered()[0].data, vec![5]);
        cleanup(&p);
    }

    #[test]
    fn stale_scratch_files_are_cleaned_at_open() {
        let p = temp_log("ckpt-scratch");
        let (_, _, ckpt_tmp, log_tmp) = sidecar_paths(&p);
        {
            let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
            s.persist(0, 0, 1, &[1]).unwrap();
        }
        std::fs::write(&ckpt_tmp, b"half a snapshot").unwrap();
        std::fs::write(&log_tmp, b"half a rewrite").unwrap();
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        assert_eq!(s.recovered().len(), 1);
        assert!(!ckpt_tmp.exists() && !log_tmp.exists());
        cleanup(&p);
    }

    #[test]
    fn maybe_checkpoint_honors_the_interval() {
        let p = temp_log("ckpt-interval");
        let s = LogChunkStore::open_with(
            &p,
            DurabilityPolicy::Writethrough,
            CheckpointConfig {
                every_persists: Some(3),
                compact: true,
            },
        )
        .unwrap();
        s.persist(0, 0, 1, &[1]).unwrap();
        assert!(!s.maybe_checkpoint().unwrap(), "below the interval");
        s.persist(0, 0, 2, &[2]).unwrap();
        s.persist(0, 0, 3, &[3]).unwrap();
        assert!(s.maybe_checkpoint().unwrap(), "interval reached");
        assert!(!s.maybe_checkpoint().unwrap(), "counter reset");
        assert_eq!(s.stats().compactions, 1);
        // Disabled interval never auto-fires.
        drop(s);
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        s.persist(0, 0, 4, &[4]).unwrap();
        assert!(!s.maybe_checkpoint().unwrap());
        cleanup(&p);
    }

    #[test]
    fn writeback_checkpoint_flushes_the_buffer_first() {
        let p = temp_log("ckpt-writeback");
        {
            let s = LogChunkStore::open(&p, DurabilityPolicy::Writeback).unwrap();
            s.persist(0, 0, 1, &[42]).unwrap();
            // Buffered only; the checkpoint must flush before snapshotting.
            s.checkpoint().unwrap();
        }
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writeback).unwrap();
        assert_eq!(s.recovered().len(), 1);
        assert_eq!(s.recovered()[0].data, vec![42]);
        cleanup(&p);
    }

    #[test]
    fn log_bytes_tracks_file_and_buffer() {
        let p = temp_log("ckpt-bytes");
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writeback).unwrap();
        assert_eq!(s.stats().log_bytes, 8, "fresh log is just the header");
        s.persist(0, 0, 1, &[1]).unwrap();
        let rec_len = (8 + REC_HEADER_BYTES + 8) as u64;
        assert_eq!(s.stats().log_bytes, 8 + rec_len, "buffered bytes counted");
        s.sync().unwrap();
        assert_eq!(s.stats().log_bytes, 8 + rec_len);
        assert_eq!(std::fs::metadata(&p).unwrap().len(), 8 + rec_len);
        cleanup(&p);
    }

    #[test]
    fn compaction_disabled_keeps_the_log_whole() {
        let p = temp_log("ckpt-nocompact");
        let s = LogChunkStore::open_with(
            &p,
            DurabilityPolicy::Writethrough,
            CheckpointConfig {
                every_persists: None,
                compact: false,
            },
        )
        .unwrap();
        for e in 1..=5u64 {
            s.persist(0, 0, e, &[e]).unwrap();
        }
        s.checkpoint().unwrap();
        s.checkpoint().unwrap();
        let st = s.stats();
        assert_eq!(st.compactions, 2);
        assert_eq!(st.truncated_records, 0, "no truncation with compact off");
        drop(s);
        let s = LogChunkStore::open(&p, DurabilityPolicy::Writethrough).unwrap();
        assert_eq!(s.stats().log_replays, 5, "full log still replayed");
        cleanup(&p);
    }
}
