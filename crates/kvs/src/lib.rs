//! # darray-kvs — the distributed key-value store of §5.2
//!
//! "A distributed key-value store comprises an entry array and a byte
//! array, both spanning multiple nodes. The entry array is partitioned
//! into buckets, with each bucket containing 15 entries and an overflow
//! pointer ... Each entry is 8 bytes and comprises an 8-bit tag, 16-bit
//! size, and 40-bit offset ... We port the SlabAllocator from Memcached to
//! manage the byte array."
//!
//! The store is generic over a [`KvBackend`] so the *same* code runs on
//! DArray and on the GAM baseline — mirroring the paper's §6.5 comparison,
//! where "GAM has a KVS implementation that is similar to DArray-based
//! KVS".

mod backend;
mod entry;
mod hash;
mod slab;
mod store;

pub use backend::{DArrayBackend, GamBackend, KvBackend};
pub use entry::Entry;
pub use hash::{bucket_of, tag_of};
pub use slab::{Item, SlabAllocator};
pub use store::{Kvs, KvsConfig, KvsError, KvsView};
