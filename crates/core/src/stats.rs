//! Per-node runtime statistics.
//!
//! Every counter is one row of the `counters!` table at the bottom of this
//! file, and everything else is generated from it: the [`NodeStats`]
//! words, [`NodeStatsSnapshot`], [`NodeStats::snapshot`], the cluster-wide
//! [`NodeStatsSnapshot::merge`], the name/value list
//! [`NodeStatsSnapshot::fields`] the `BENCH_*.json` writer prints, and the
//! per-counter [`DiffClass`] that `protocol_diff` and the Sim≡TCP parity
//! tests read from [`COUNTERS`].
//!
//! Adding a counter is one table row plus its bump site. Every figure's
//! BENCH json then carries it, so re-bless the checked-in baselines with
//! `protocol_diff --update` (DESIGN.md §10 "Counters").

use dsim::SingleWriterU64;
use rdma_fabric::TransportStats;

use crate::store::StoreStats;

/// How `protocol_diff` judges a counter's change against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffClass {
    /// Exact (within `--threshold-pct`): a rise fails, a drop is reported
    /// as an improvement. Protocol traffic, faults and store activity.
    Lower,
    /// Exact (within `--threshold-pct`): a drop fails, a rise is reported
    /// as an improvement. Work the fast path absorbed.
    Higher,
    /// Symmetric `--transport-pct` band: leaving it in either direction
    /// fails, drift inside it is a note. Backend-dependent wire and egress
    /// counters.
    Band,
}

/// One row of the counter table as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRow {
    /// Field name in [`NodeStatsSnapshot`], and the key in `BENCH_*.json`.
    pub name: &'static str,
    /// How `protocol_diff` compares the counter with a baseline.
    pub class: DiffClass,
}

impl NodeStats {
    #[inline]
    pub(crate) fn bump(field: &SingleWriterU64) {
        field.add(1);
    }

    /// Raise a gauge-style field to `v` (monotone; used for
    /// `membership_epoch`, which tracks a level rather than a count).
    #[inline]
    pub(crate) fn raise(field: &SingleWriterU64, v: u64) {
        field.raise(v);
    }
}

/// Emit `NodeStats` with one word per `runtime` row; rows owned by the
/// transport or the chunk store have none.
macro_rules! node_stats {
    ([$($words:tt)*]) => {
        /// Monotonic counters describing one node's DArray activity.
        ///
        /// Only simulated code bumps them, and every simulated thread runs
        /// on the OS thread of the cluster's `Sim`, so each counter has one
        /// writer and a bump is a relaxed load and store
        /// ([`SingleWriterU64`]; debug builds check the writer). Build them
        /// on that OS thread, as `Cluster::new` does. Any thread may
        /// snapshot with [`NodeStats::snapshot`].
        #[derive(Debug, Default)]
        pub struct NodeStats { $($words)* }
    };
    ([$($words:tt)*] $(#[$doc:meta])* $name:ident runtime; $($rest:tt)*) => {
        node_stats!([$($words)* $(#[$doc])* pub $name: SingleWriterU64,] $($rest)*);
    };
    ([$($words:tt)*] $(#[$doc:meta])* $name:ident $owner:ident; $($rest:tt)*) => {
        node_stats!([$($words)*] $($rest)*);
    };
}

/// Read one row from its owner.
macro_rules! read {
    (runtime, $name:ident, $rt:ident, $transport:ident, $store:ident) => {
        $rt.$name.get()
    };
    (transport, $name:ident, $rt:ident, $transport:ident, $store:ident) => {
        $transport.$name
    };
    (store, $name:ident, $rt:ident, $transport:ident, $store:ident) => {
        $store.$name
    };
}

/// Fold another node's value of one row into `$into`.
macro_rules! aggregate {
    (sum, $into:expr, $from:expr) => {
        $into += $from
    };
    (max, $into:expr, $from:expr) => {
        $into = $into.max($from)
    };
}

/// The [`DiffClass`] a row names.
macro_rules! diff_class {
    (lower) => {
        DiffClass::Lower
    };
    (higher) => {
        DiffClass::Higher
    };
    (band) => {
        DiffClass::Band
    };
}

/// The counter table. Each row is `name: owner, aggregation, diff class;`
/// under the counter's doc:
/// - owner: `runtime` (a word in [`NodeStats`]), `transport` (a field of
///   [`TransportStats`]) or `store` (a field of [`StoreStats`]);
/// - aggregation across nodes: `sum`, or `max` for gauges;
/// - diff class: `lower`, `higher` or `band` (see [`DiffClass`]).
///
/// Row order is the key order of every `BENCH_*.json` section.
macro_rules! counters {
    ($( $(#[$doc:meta])* $name:ident: $owner:ident, $agg:ident, $class:ident; )+) => {
        node_stats!([] $( $(#[$doc])* $name $owner; )+);

        /// Point-in-time copy of every counter of one node: the
        /// [`NodeStats`] words plus the transport and chunk-store rows.
        /// `Cluster::stats` returns one per node; [`NodeStatsSnapshot::merge`]
        /// folds them into a cluster-wide total.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct NodeStatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )+
        }

        /// Every row of the counter table, in `BENCH_*.json` key order.
        pub const COUNTERS: &[CounterRow] = &[
            $( CounterRow { name: stringify!($name), class: diff_class!($class) }, )+
        ];

        impl NodeStats {
            /// Copy out every counter, taking the transport and store rows
            /// from their owners' stats.
            pub fn snapshot(
                &self,
                transport: &TransportStats,
                store: &StoreStats,
            ) -> NodeStatsSnapshot {
                NodeStatsSnapshot {
                    $( $name: read!($owner, $name, self, transport, store), )+
                }
            }
        }

        impl NodeStatsSnapshot {
            /// Fold another node's counters into this one: sums, and the
            /// max for gauges.
            pub fn merge(&mut self, other: &Self) {
                $( aggregate!($agg, self.$name, other.$name); )+
            }

            /// Every counter with its value, in [`COUNTERS`] order.
            pub fn fields(&self) -> impl Iterator<Item = (CounterRow, u64)> {
                COUNTERS.iter().copied().zip([$(self.$name),+])
            }

            /// [`NodeStatsSnapshot::fields`], writable.
            pub fn fields_mut(&mut self) -> impl Iterator<Item = (CounterRow, &mut u64)> {
                COUNTERS.iter().copied().zip([$(&mut self.$name),+])
            }
        }
    };
}

counters! {
    /// Chunk fills completed (read, write or operate grants).
    fills: runtime, sum, lower;
    /// Invalidations performed on this node's copies.
    invalidations: runtime, sum, lower;
    /// Recall/downgrade messages honored by this node (home pulled back a
    /// dirty or operated copy we held).
    recalls: runtime, sum, lower;
    /// Dirty writebacks sent (voluntary or recalled).
    writebacks: runtime, sum, lower;
    /// Operand flushes sent (voluntary or recalled).
    operand_flushes: runtime, sum, lower;
    /// Operand flushes *reduced into* this node's home subarray (each is one
    /// remote node's combined Operated contribution).
    operated_reductions: runtime, sum, lower;
    /// Cachelines evicted by the reclamation scan.
    evictions: runtime, sum, lower;
    /// Protocol state transitions executed by this node's machines (home
    /// directory + local cache), as emitted by `protocol::Transition`.
    transitions: runtime, sum, lower;
    /// Dead peers pruned from directory sharer sets and transient wait
    /// sets during peer-down recovery.
    sharers_pruned: runtime, sum, lower;
    /// Operated epochs this node's directory machines closed by abort
    /// because a contributor died before flushing its operands.
    epochs_aborted: runtime, sum, lower;
    /// Locks held by (or granted to) dead peers that this node's lock
    /// tables reclaimed during peer-down recovery.
    orphaned_locks_reclaimed: runtime, sum, lower;
    /// Peers this node moved to *Suspected* after exhausting retries
    /// (includes suspicions resolved instantly by a fresh incoming lease).
    suspicions: runtime, sum, lower;
    /// Suspicions refuted — by a quorum vote naming the peer alive, or by
    /// the suspect's own traffic refreshing its lease — after which the
    /// peer was re-admitted and its parked traffic replayed.
    refutations: runtime, sum, lower;
    /// Suspicions a quorum promoted to confirmed deaths: the peers this
    /// node declared down.
    confirmed_deaths: runtime, sum, lower;
    /// Gauge (not a counter): this node's current membership-view epoch,
    /// i.e. the number of deaths it has confirmed so far.
    membership_epoch: runtime, max, lower;
    /// Dirty-chunk flushes persisted to the durable chunk store before the
    /// protocol acknowledged them (persist-before-ack, DESIGN.md §14).
    /// Zero unless a durability policy is configured.
    flush_persists: runtime, sum, lower;
    /// Log records replayed when this node's durable chunk store was
    /// opened (includes superseded records of re-persisted chunks).
    log_replays: store, sum, lower;
    /// Distinct chunk images recovered from the durable log at bring-up
    /// (latest epoch per chunk) and overlaid onto home subarrays.
    recovered_chunks: store, sum, lower;
    /// Bytes currently held by this node's durable chunk log (header plus
    /// framed records, including the not-yet-compacted suffix). Zero under
    /// `durability.policy = none`.
    log_bytes: store, sum, lower;
    /// Bytes of this node's newest durable checkpoint sidecar (0 before
    /// the first checkpoint).
    checkpoint_bytes: store, sum, lower;
    /// Checkpoints taken by this node's chunk store (periodic trigger plus
    /// explicit `Cluster::checkpoint_all` calls).
    compactions: store, sum, lower;
    /// Log records dropped by compaction — the prefix covered by a
    /// checkpoint generation and truncated from the log.
    truncated_records: store, sum, lower;
    /// Chunks this node handed to a new home: migrations that committed and
    /// departed (DESIGN.md §15). Zero outside elastic mode.
    migrations_out: runtime, sum, lower;
    /// Chunk migrations that landed here: this node adopted the chunk as
    /// its new authoritative home.
    migrations_in: runtime, sum, lower;
    /// Requests parked behind a migration fence and later replayed —
    /// forwarded to the new home or re-serviced once the fence lifted.
    parked_replays: runtime, sum, lower;
    /// Bytes this node's transport handed to the wire (payload plus backend
    /// framing).
    bytes_tx: transport, sum, band;
    /// Bytes this node's transport received from the wire.
    bytes_rx: transport, sum, band;
    /// Frames (SENDs plus one-sided WRITEs) this node's transport posted.
    frames: transport, sum, band;
    /// Completion events the transport observed for posted work.
    completions: transport, sum, band;
    /// Egress flushes the transport committed (doorbell rings; always
    /// `frames == tx_flushes + frames_coalesced`).
    tx_flushes: transport, sum, band;
    /// Flushes that carried two or more frames (one doorbell amortized
    /// over a batch).
    doorbell_batches: transport, sum, band;
    /// Frames that rode an already-open batch instead of ringing their
    /// own doorbell.
    frames_coalesced: transport, sum, band;
    /// Gauge: high-water mark of the per-link egress ring, in frames.
    ring_hwm: transport, max, band;
    /// Fast-path accesses that succeeded immediately.
    fast_hits: runtime, sum, higher;
    /// Slow-path requests an application thread submitted to the runtime
    /// and blocked on.
    slow_misses: runtime, sum, lower;
    /// Requests sent ahead of use, which no thread waits on: the runtime's
    /// sequential read prefetches, plus the requests `DArray::prefetch`
    /// hints send.
    prefetches: runtime, sum, lower;
    /// Lock acquisitions granted by this node's lock tables.
    locks_granted: runtime, sum, lower;
    /// Protocol messages handled by runtime threads.
    rpcs_handled: runtime, sum, lower;
    /// Local requests handled by runtime threads.
    local_handled: runtime, sum, lower;
    /// Operator applications combined locally (Operated state).
    local_combines: runtime, sum, higher;
    /// Reliable-RPC timeout expirations (each triggers a retransmit or, at
    /// the retry limit, a suspicion). Zero unless `ClusterConfig::fault`
    /// is set.
    rpc_timeouts: runtime, sum, lower;
    /// Reliable-RPC retransmissions posted.
    retransmits: runtime, sum, lower;
    /// Duplicate RPCs suppressed at the Rx/runtime boundary.
    dup_rpcs: runtime, sum, lower;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare(s: &NodeStats) -> NodeStatsSnapshot {
        s.snapshot(&TransportStats::default(), &StoreStats::default())
    }

    #[test]
    fn counters_start_zero_and_bump() {
        let s = NodeStats::default();
        assert_eq!(bare(&s), NodeStatsSnapshot::default());
        NodeStats::bump(&s.fast_hits);
        NodeStats::bump(&s.fast_hits);
        NodeStats::bump(&s.evictions);
        let snap = bare(&s);
        assert_eq!(snap.fast_hits, 2);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.fills, 0);
    }

    /// Two clusters, each in its own `Sim` on its own OS thread at the same
    /// time, count exactly what each counts alone: every counter of every
    /// node, and one combine and one fast hit per apply.
    #[test]
    fn two_sims_on_two_os_threads_count_exactly() {
        use crate::{ArrayOptions, Cluster, ClusterConfig, Sim, SimConfig};

        const NODES: usize = 3;
        const THREADS: usize = 2;
        fn workload(rounds: usize) -> Vec<NodeStatsSnapshot> {
            Sim::new(SimConfig::default()).run(|ctx| {
                let cluster = Cluster::new(ctx, ClusterConfig::test_config(NODES));
                let add = cluster.ops().register_add_u64();
                let arr = cluster.alloc::<u64>(4096, ArrayOptions::default());
                cluster.run(ctx, THREADS, move |ctx, env| {
                    let a = arr.on(env.node);
                    for i in 0..rounds {
                        a.apply(ctx, (i * 97 + env.node) % 4096, add, 1);
                    }
                });
                let stats = (0..NODES).map(|n| cluster.stats(n)).collect();
                cluster.shutdown(ctx);
                stats
            })
        }
        let rounds = [300, 500];
        let alone = rounds.map(workload);
        let start = std::sync::Barrier::new(rounds.len());
        let together = std::thread::scope(|s| {
            rounds
                .map(|r| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        workload(r)
                    })
                })
                .map(|h| h.join().unwrap())
        });
        assert_eq!(together, alone);
        for (nodes, r) in together.iter().zip(rounds) {
            let mut total = NodeStatsSnapshot::default();
            nodes.iter().for_each(|n| total.merge(n));
            let applies = (NODES * THREADS * r) as u64;
            assert_eq!(total.local_combines, applies);
            assert_eq!(total.fast_hits, applies);
            assert!(total.fills > 0 && total.rpcs_handled > 0, "{total:?}");
        }
    }

    #[test]
    fn merge_sums_counters_and_takes_the_max_of_gauges() {
        let node = |v: u64| {
            let mut s = NodeStatsSnapshot::default();
            s.fields_mut().for_each(|(_, x)| *x = v);
            s
        };
        let mut total = node(3);
        total.merge(&node(5));
        for (c, v) in total.fields() {
            let gauge = matches!(c.name, "membership_epoch" | "ring_hwm");
            assert_eq!(v, if gauge { 5 } else { 8 }, "{}", c.name);
        }
    }
}
