//! The store itself: bucketized entry array + slab-managed byte array
//! (§5.2, Figure 11).

use std::sync::Arc;

use darray::{Ctx, Layout, DEFAULT_CHUNK_SIZE};
use parking_lot::Mutex;

use crate::backend::KvBackend;
use crate::entry::Entry;
use crate::hash::{bucket_of, tag_of};
use crate::slab::SlabAllocator;

/// Slots per bucket: 15 entries plus the overflow pointer.
pub const BUCKET_SLOTS: usize = 16;
/// Entry slots usable for keys in each bucket.
pub const BUCKET_ENTRIES: usize = 15;

/// Store sizing.
#[derive(Debug, Clone)]
pub struct KvsConfig {
    /// Main hash buckets.
    pub buckets: u64,
    /// Overflow buckets reserved per node (chained when buckets fill up).
    pub overflow_per_node: u64,
    /// Total byte-array capacity in bytes (values live here).
    pub value_capacity: u64,
    /// Number of nodes.
    pub nodes: usize,
}

impl KvsConfig {
    /// Length (in `u64` elements) of the entry array this config needs.
    pub fn entry_array_len(&self) -> usize {
        ((self.buckets + self.overflow_per_node * self.nodes as u64) * BUCKET_SLOTS as u64) as usize
    }

    /// Length (in `u64` words) of the byte array this config needs.
    pub fn byte_array_words(&self) -> usize {
        (self.value_capacity / 8) as usize
    }
}

/// Store errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvsError {
    /// The pair exceeds the largest slab class or the 16-bit size field.
    TooLarge,
    /// This node's byte-array partition or overflow-bucket budget is
    /// exhausted.
    Full,
}

/// Cluster-global store state: per-node slab allocators and overflow-bucket
/// counters. Allocate the two arrays yourself (sizes from [`KvsConfig`]),
/// then derive per-node [`KvsView`]s.
#[derive(Clone)]
pub struct Kvs {
    cfg: Arc<KvsConfig>,
    /// The byte array's partition, which says whose slab owns a pair.
    layout: Arc<Layout>,
    slabs: Arc<Vec<Mutex<SlabAllocator>>>,
    ovf_next: Arc<Vec<Mutex<u64>>>,
}

impl Kvs {
    /// Build the global store state. The byte array is assumed to use the
    /// default even, chunk-aligned partition (which both backends use), so
    /// each node's slab manages exactly its local bytes — values are
    /// written node-locally and read remotely.
    pub fn new(cfg: KvsConfig) -> Self {
        let layout = Layout::even(cfg.byte_array_words(), cfg.nodes, DEFAULT_CHUNK_SIZE);
        let slabs = (0..cfg.nodes)
            .map(|n| {
                let r = layout.node_elems(n);
                Mutex::new(SlabAllocator::new(r.start as u64 * 8, r.end as u64 * 8))
            })
            .collect();
        let ovf_next = (0..cfg.nodes).map(|_| Mutex::new(0)).collect();
        Self {
            cfg: Arc::new(cfg),
            layout: Arc::new(layout),
            slabs: Arc::new(slabs),
            ovf_next: Arc::new(ovf_next),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &KvsConfig {
        &self.cfg
    }

    /// Bind a node's view over its backend arrays.
    pub fn view<B: KvBackend>(&self, node: usize, entries: B, bytes: B) -> KvsView<B> {
        assert_eq!(entries.len(), self.cfg.entry_array_len());
        assert_eq!(bytes.len(), self.cfg.byte_array_words());
        KvsView {
            kvs: self.clone(),
            node,
            entries,
            bytes,
        }
    }

    /// Return a pair's space to the slab of the node whose partition holds
    /// it.
    fn free(&self, e: Entry) {
        let owner = self.layout.home_of((e.offset() / 8) as usize);
        self.slabs[owner].lock().free(e.offset(), e.size() as usize);
    }
}

/// A node-local handle to the store.
#[derive(Clone)]
pub struct KvsView<B: KvBackend> {
    kvs: Kvs,
    node: usize,
    entries: B,
    bytes: B,
}

/// Bytes a pair occupies: an 8-byte header plus the word-padded key and
/// value.
fn pair_bytes(key: &[u8], val: &[u8]) -> usize {
    8 + key.len().div_ceil(8) * 8 + val.len().div_ceil(8) * 8
}

/// A pair's header word, `[seq:32][val_len:16][key_len:16]`. `seq` is
/// twice the slab item's generation (mod 2³²), plus one while the pair is
/// being written. The generation changes every time the item is handed
/// out, so a lock-free reader that reads the same complete header before
/// and after the key and value read a pair nobody rewrote in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header(u64);

impl Header {
    fn new(key_len: usize, val_len: usize, gen: u32, writing: bool) -> Self {
        let seq = gen << 1 | u32::from(writing);
        Header(key_len as u64 | (val_len as u64) << 16 | (seq as u64) << 32)
    }

    fn key_len(self) -> usize {
        (self.0 & 0xFFFF) as usize
    }

    fn val_len(self) -> usize {
        (self.0 >> 16 & 0xFFFF) as usize
    }

    fn writing(self) -> bool {
        self.0 >> 32 & 1 == 1
    }
}

/// Where a locked probe of a key's chain ended.
struct Probe {
    /// The slot holding the key, and its entry.
    found: Option<(usize, Entry)>,
    /// The first empty slot seen.
    empty: Option<usize>,
    /// Base of the last bucket visited.
    last_base: usize,
}

impl<B: KvBackend> KvsView<B> {
    fn base_of(&self, chain_pos: u64) -> usize {
        (chain_pos * BUCKET_SLOTS as u64) as usize
    }

    /// Base of the bucket that follows the one at `base`, if any.
    fn next_bucket(&self, ctx: &mut Ctx, base: usize) -> Option<usize> {
        match self.entries.get(ctx, base + BUCKET_ENTRIES) {
            0 => None,
            ovf => Some(self.base_of(self.kvs.cfg.buckets + (ovf - 1))),
        }
    }

    /// Whether the pair at word `at`, whose header is `h`, holds `key`.
    fn holds_key(&self, ctx: &mut Ctx, at: usize, h: Header, key: &[u8]) -> bool {
        h.key_len() == key.len()
            && key.chunks(8).enumerate().all(|(w, part)| {
                self.bytes.get(ctx, at + 1 + w).to_le_bytes()[..part.len()] == *part
            })
    }

    /// The value of the pair at word `at`, whose header is `h`.
    fn read_value(&self, ctx: &mut Ctx, at: usize, h: Header) -> Vec<u8> {
        let first = at + 1 + h.key_len().div_ceil(8);
        let mut out = Vec::with_capacity(h.val_len());
        for w in 0..h.val_len().div_ceil(8) {
            let word = self.bytes.get(ctx, first + w).to_le_bytes();
            out.extend_from_slice(&word[..(h.val_len() - w * 8).min(8)]);
        }
        out
    }

    /// Retrieve a key's value (Figure 11): hash to a bucket, probe its 15
    /// entries by tag, follow the overflow pointer if needed.
    ///
    /// No lock is taken, so a put may free and reuse a pair while it is
    /// read. A pair whose header changed between before and after the read
    /// (or that is being written) is no longer the key's, so the get starts
    /// over from the bucket head; and a pair that does not hold the key
    /// counts as a miss only if its entry still points at it.
    pub fn get(&self, ctx: &mut Ctx, key: &[u8]) -> Option<Vec<u8>> {
        let tag = tag_of(key);
        let head = self.base_of(bucket_of(key, self.kvs.cfg.buckets));
        'restart: loop {
            let mut base = head;
            loop {
                for slot in base..base + BUCKET_ENTRIES {
                    let e = Entry(self.entries.get(ctx, slot));
                    if e.is_empty() || e.tag() != tag {
                        continue;
                    }
                    let at = (e.offset() / 8) as usize;
                    let h = Header(self.bytes.get(ctx, at));
                    if h.writing() {
                        continue 'restart;
                    }
                    if self.holds_key(ctx, at, h, key) {
                        let val = self.read_value(ctx, at, h);
                        if Header(self.bytes.get(ctx, at)) == h {
                            return Some(val);
                        }
                        continue 'restart;
                    }
                    if self.entries.get(ctx, slot) != e.0 {
                        continue 'restart;
                    }
                }
                match self.next_bucket(ctx, base) {
                    Some(next) => base = next,
                    None => return None,
                }
            }
        }
    }

    /// Write the pair into freshly allocated slab space on this node and
    /// return its entry. The header is marked as being written before any
    /// other word of the item changes, and completed last, since a reader
    /// that followed an entry to the item before it was freed may still be
    /// reading it.
    fn write_pair(&self, ctx: &mut Ctx, key: &[u8], val: &[u8]) -> Result<Entry, KvsError> {
        let size = pair_bytes(key, val);
        if size > u16::MAX as usize {
            return Err(KvsError::TooLarge);
        }
        let item = self.kvs.slabs[self.node]
            .lock()
            .alloc(size)
            .ok_or(KvsError::Full)?;
        let at = (item.offset / 8) as usize;
        let header = |writing| Header::new(key.len(), val.len(), item.gen, writing).0;
        self.bytes.set(ctx, at, header(true));
        let mut w = at + 1;
        for part in [key, val] {
            for chunk in part.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                self.bytes.set(ctx, w, u64::from_le_bytes(word));
                w += 1;
            }
        }
        self.bytes.set(ctx, at, header(false));
        Ok(Entry::pack(tag_of(key), size as u16, item.offset))
    }

    /// Probe `key`'s chain from its head bucket at `head` for the key's
    /// slot and the first empty slot. The caller holds the bucket lock, so
    /// no pair in the chain can be freed under the probe.
    fn probe(&self, ctx: &mut Ctx, head: usize, key: &[u8]) -> Probe {
        let tag = tag_of(key);
        let mut probe = Probe {
            found: None,
            empty: None,
            last_base: head,
        };
        let mut base = Some(head);
        while let Some(b) = base {
            probe.last_base = b;
            for slot in b..b + BUCKET_ENTRIES {
                let e = Entry(self.entries.get(ctx, slot));
                if e.is_empty() {
                    probe.empty = probe.empty.or(Some(slot));
                } else if e.tag() == tag {
                    let at = (e.offset() / 8) as usize;
                    let h = Header(self.bytes.get(ctx, at));
                    if self.holds_key(ctx, at, h, key) {
                        probe.found = Some((slot, e));
                        return probe;
                    }
                }
            }
            base = self.next_bucket(ctx, b);
        }
        probe
    }

    /// Insert or update a key. The pair is written first, outside the
    /// bucket's distributed writer lock: nothing can reach it until its
    /// entry is linked, so the lock covers only the probe and the link.
    pub fn put(&self, ctx: &mut Ctx, key: &[u8], val: &[u8]) -> Result<(), KvsError> {
        let new = self.write_pair(ctx, key, val)?;
        let head = self.base_of(bucket_of(key, self.kvs.cfg.buckets));
        self.entries.wlock(ctx, head);
        let linked = self.link(ctx, head, key, new);
        self.entries.unlock(ctx, head);
        // Nothing points at the replaced pair any more (nor, on an error,
        // at the new one), so its space is free.
        match linked {
            Ok(replaced) => replaced.into_iter().for_each(|old| self.kvs.free(old)),
            Err(_) => self.kvs.free(new),
        }
        linked.map(|_| ())
    }

    /// Point `key`'s slot at `new`, chaining a fresh overflow bucket from
    /// this node's budget if the chain is full; returns the entry it
    /// replaced.
    fn link(
        &self,
        ctx: &mut Ctx,
        head: usize,
        key: &[u8],
        new: Entry,
    ) -> Result<Option<Entry>, KvsError> {
        let cfg = &self.kvs.cfg;
        let probe = self.probe(ctx, head, key);
        if let Some((slot, old)) = probe.found {
            self.entries.set(ctx, slot, new.0);
            return Ok(Some(old));
        }
        if let Some(slot) = probe.empty {
            self.entries.set(ctx, slot, new.0);
            return Ok(None);
        }
        let id = {
            let mut next = self.kvs.ovf_next[self.node].lock();
            if *next >= cfg.overflow_per_node {
                return Err(KvsError::Full);
            }
            let id = self.node as u64 * cfg.overflow_per_node + *next;
            *next += 1;
            id
        };
        self.entries.set(ctx, self.base_of(cfg.buckets + id), new.0);
        self.entries
            .set(ctx, probe.last_base + BUCKET_ENTRIES, id + 1);
        Ok(None)
    }

    /// Remove a key; returns true if it was present. (An extension beyond
    /// the paper's Figure 11, for API completeness.)
    pub fn delete(&self, ctx: &mut Ctx, key: &[u8]) -> bool {
        let head = self.base_of(bucket_of(key, self.kvs.cfg.buckets));
        self.entries.wlock(ctx, head);
        let found = self.probe(ctx, head, key).found;
        if let Some((slot, _)) = found {
            self.entries.set(ctx, slot, Entry::EMPTY.0);
        }
        self.entries.unlock(ctx, head);
        match found {
            Some((_, e)) => {
                self.kvs.free(e);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_sizes() {
        let cfg = KvsConfig {
            buckets: 100,
            overflow_per_node: 10,
            value_capacity: 1 << 20,
            nodes: 4,
        };
        assert_eq!(cfg.entry_array_len(), (100 + 40) * 16);
        assert_eq!(cfg.byte_array_words(), (1 << 20) / 8);
    }

    #[test]
    fn header_packs_lengths_and_changes_with_every_write() {
        let h = Header::new(8, 100, 7, false);
        assert_eq!((h.key_len(), h.val_len(), h.writing()), (8, 100, false));
        let busy = Header::new(8, 100, 7, true);
        assert!(busy.writing() && busy != h);
        assert_ne!(Header::new(8, 100, 8, false), h);
        assert_eq!(
            Header::new(u16::MAX as usize, 0, u32::MAX, true).key_len(),
            65535
        );
    }

    #[test]
    fn pair_bytes_pads_to_words() {
        assert_eq!(pair_bytes(b"k", b"v"), 8 + 8 + 8);
        assert_eq!(pair_bytes(b"12345678", b""), 8 + 8);
        assert_eq!(pair_bytes(b"123456789", b"x"), 8 + 16 + 8);
    }
}
