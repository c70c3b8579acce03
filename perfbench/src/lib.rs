//! End-to-end and per-layer benchmark of the DArray reproduction.
//!
//! Three closed-loop workloads (see `README.md` for why each was chosen)
//! run through the public API on a 4-node cluster over the simulated
//! fabric. Two clocks are kept apart:
//!
//! - **virtual time** is the modelled RDMA cluster, what DArray's users
//!   see. It is bit-for-bit deterministic in the seed, so every repetition
//!   of a run — traced or not — must produce an identical [`Virtual`];
//! - **host time** is what the simulator costs, taken from process CPU time
//!   (wall clock is noisier) and reported as medians over repetitions.

mod array;
pub mod host;
mod kvs;
mod pagerank;
pub mod report;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use darray::{
    CacheConfig, Cluster, ClusterConfig, Ctx, NodeEnv, TransportKind, VTime, DEFAULT_CHUNK_SIZE,
};

/// Nodes in every workload's cluster.
pub(crate) const NODES: usize = 4;
/// Runtime threads per node (the library default, pinned here so that
/// `DARRAY_RUNTIME_THREADS` cannot change what is measured).
const RUNTIME_THREADS: usize = 2;
/// Cachelines per node: 1024 lines of 512 words is 4 MiB.
const CACHE_LINES: usize = 1024;

/// One virtual millisecond.
const MS: VTime = 1_000_000;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KvsZipf95,
    ArrayUniform,
    PagerankRmat16,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::KvsZipf95,
        Workload::ArrayUniform,
        Workload::PagerankRmat16,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvsZipf95 => "kvs-zipf95",
            Workload::ArrayUniform => "array-uniform",
            Workload::PagerankRmat16 => "pagerank-rmat16",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload at the size the benchmark measures.
    pub fn spec(self) -> Spec {
        match self {
            Workload::KvsZipf95 => Spec::Kvs {
                records: 20_000,
                warmup_ns: 4 * MS,
                window_ns: 20 * MS,
            },
            Workload::ArrayUniform => Spec::Array {
                elems_per_node: 1 << 18,
                warmup_ns: 8 * MS,
                window_ns: 20 * MS,
            },
            Workload::PagerankRmat16 => Spec::PageRank {
                scale: 16,
                edge_factor: 16,
                iters: 5,
            },
        }
    }
}

/// Sizes of one workload. Phases last a fixed virtual time, in which every
/// app thread issues operations back to back (a closed loop).
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// `kvs-zipf95`: YCSB Zipf 0.99, 95 % get, over `records` preloaded
    /// 100-byte values; 2 app threads per node.
    Kvs {
        records: u64,
        warmup_ns: VTime,
        window_ns: VTime,
    },
    /// `array-uniform`: 50 % get and 25 % set on array A, 25 % apply(add)
    /// on array B, uniform indices; 2 app threads per node.
    Array {
        elems_per_node: usize,
        warmup_ns: VTime,
        window_ns: VTime,
    },
    /// `pagerank-rmat16`: non-Pin `pagerank_darray` on
    /// `rmat(scale, edge_factor, seed)`; 1 app thread per node.
    PageRank {
        scale: u32,
        edge_factor: usize,
        iters: usize,
    },
}

impl Spec {
    /// Application threads per node.
    pub fn app_threads(&self) -> usize {
        match self {
            Spec::Kvs { .. } => kvs::THREADS,
            Spec::Array { .. } => array::THREADS,
            // `pagerank_darray` runs one app thread per node.
            Spec::PageRank { .. } => 1,
        }
    }
}

/// The cluster every workload runs on, with every knob that could change
/// the measurement set explicitly rather than taken from a default that
/// reads the environment.
pub fn cluster_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.runtime_threads = RUNTIME_THREADS;
    cfg.transport = TransportKind::Sim;
    cfg.cache = CacheConfig {
        capacity_lines: CACHE_LINES,
        line_words: DEFAULT_CHUNK_SIZE,
        ..CacheConfig::default()
    };
    cfg
}

/// Per-thread stream seed: distinct for each (seed, phase, node, thread).
pub(crate) fn stream_seed(seed: u64, phase: u64, node: usize, thread: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (phase << 32 | (node as u64) << 16 | thread as u64)
}

/// Counter deltas the per-layer metrics are computed from. `read` sums
/// every node; `since` subtracts a snapshot taken at the window's start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub fast_hits: u64,
    pub slow_misses: u64,
    pub fills: u64,
    pub prefetches: u64,
    pub rpcs_handled: u64,
    pub evictions: u64,
    pub transitions: u64,
    pub invalidations: u64,
    pub recalls: u64,
    pub writebacks: u64,
    pub locks_granted: u64,
    pub operand_flushes: u64,
    pub local_combines: u64,
    pub frames: u64,
    pub bytes_tx: u64,
    pub nic_writes: u64,
    pub nic_sends: u64,
    pub switches: u64,
    pub events: u64,
}

impl Counters {
    pub fn read(ctx: &Ctx, cluster: &Cluster) -> Self {
        let mut c = Counters::default();
        for n in 0..cluster.config().nodes {
            let s = cluster.stats(n);
            let nic = cluster.nic_stats(n);
            c.fast_hits += s.fast_hits;
            c.slow_misses += s.slow_misses;
            c.fills += s.fills;
            c.prefetches += s.prefetches;
            c.rpcs_handled += s.rpcs_handled;
            c.evictions += s.evictions;
            c.transitions += s.transitions;
            c.invalidations += s.invalidations;
            c.recalls += s.recalls;
            c.writebacks += s.writebacks;
            c.locks_granted += s.locks_granted;
            c.operand_flushes += s.operand_flushes;
            c.local_combines += s.local_combines;
            c.frames += s.frames;
            c.bytes_tx += s.bytes_tx;
            c.nic_writes += nic.writes;
            c.nic_sends += nic.sends;
        }
        let sim = ctx.stats();
        c.switches = sim.switches;
        c.events = sim.events;
        c
    }

    pub fn since(self, start: Self) -> Self {
        Counters {
            fast_hits: self.fast_hits - start.fast_hits,
            slow_misses: self.slow_misses - start.slow_misses,
            fills: self.fills - start.fills,
            prefetches: self.prefetches - start.prefetches,
            rpcs_handled: self.rpcs_handled - start.rpcs_handled,
            evictions: self.evictions - start.evictions,
            transitions: self.transitions - start.transitions,
            invalidations: self.invalidations - start.invalidations,
            recalls: self.recalls - start.recalls,
            writebacks: self.writebacks - start.writebacks,
            locks_granted: self.locks_granted - start.locks_granted,
            operand_flushes: self.operand_flushes - start.operand_flushes,
            local_combines: self.local_combines - start.local_combines,
            frames: self.frames - start.frames,
            bytes_tx: self.bytes_tx - start.bytes_tx,
            nic_writes: self.nic_writes - start.nic_writes,
            nic_sends: self.nic_sends - start.nic_sends,
            switches: self.switches - start.switches,
            events: self.events - start.events,
        }
    }
}

/// Run `f` on every app thread (`threads` per node) and collect what each
/// returns.
pub(crate) fn on_threads<T: Send + 'static>(
    ctx: &mut Ctx,
    cluster: &Cluster,
    threads: usize,
    f: impl Fn(&mut Ctx, NodeEnv) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = out.clone();
    cluster.run(ctx, threads, move |ctx, env| {
        let r = f(ctx, env);
        sink.lock().expect("results poisoned").push(r);
    });
    Arc::into_inner(out)
        .expect("app threads joined")
        .into_inner()
        .expect("results poisoned")
}

/// Run the measured window. Counters, virtual time and host CPU are read
/// where it starts and ends, both between `Cluster::run` calls, so set-up
/// traffic never reaches them. Returns the window's result, a [`Virtual`]
/// with the window's length, counters and cache peak filled in, and the
/// window's host CPU time.
pub(crate) fn measure<R>(
    ctx: &mut Ctx,
    cluster: &Cluster,
    window: impl FnOnce(&mut Ctx) -> R,
) -> (R, Virtual, Duration) {
    let start = Counters::read(ctx, cluster);
    let (t0, cpu0) = (ctx.now(), host::process_cpu());
    let r = window(ctx);
    let cpu = host::process_cpu() - cpu0;
    let window_ns = ctx.now() - t0;
    let counters = Counters::read(ctx, cluster).since(start);
    let pools = (0..cluster.config().nodes).flat_map(|n| cluster.pool_stats(n));
    let cache_peak = pools.fold((0, 0), |(peak, lines), p| {
        (
            peak + u64::from(p.peak_occupied),
            lines + u64::from(p.lines),
        )
    });
    let virt = Virtual {
        window_ns,
        counters,
        cache_peak,
        ..Virtual::default()
    };
    (r, virt, cpu)
}

/// Every sample of `parts`, sorted.
pub(crate) fn sorted<'a>(parts: impl Iterator<Item = &'a Vec<u64>>) -> Vec<u64> {
    let mut all: Vec<u64> = parts.flatten().copied().collect();
    all.sort_unstable();
    all
}

/// Everything one repetition measures in virtual time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Virtual {
    /// Operations completed in the measured window.
    pub ops: u64,
    /// Length of the measured window, virtual ns.
    pub window_ns: u64,
    /// Operations issued in set-up and window whose results were checked.
    pub attempted: u64,
    /// Checked operations (or outputs) that failed their check.
    pub failed: u64,
    /// Sorted latency samples of each top-level API call, virtual ns.
    pub latency: BTreeMap<&'static str, Vec<u64>>,
    /// Counter deltas over the measured window.
    pub counters: Counters,
    /// High-water cache occupancy over every runtime thread's pool on
    /// every node, in lines, and the total lines. A lifetime gauge: it
    /// includes set-up.
    pub cache_peak: (u64, u64),
}

/// A KV operation's span: its array calls and its time outside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvSpan {
    pub ops: u64,
    pub array_calls: u64,
    /// Sum over ops of (kv span − child array spans), virtual ns.
    pub self_ns: u64,
}

impl KvSpan {
    pub(crate) fn sum(parts: impl Iterator<Item = KvSpan>) -> KvSpan {
        parts.fold(KvSpan::default(), |a, b| KvSpan {
            ops: a.ops + b.ops,
            array_calls: a.array_calls + b.array_calls,
            self_ns: a.self_ns + b.self_ns,
        })
    }
}

/// Spans the traced run records around the calls into each layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Spans {
    /// Sorted durations of `DArray::get` calls, virtual ns.
    pub array_get: Vec<u64>,
    /// Sorted durations of `DArray::wlock` calls (the KVS's lock wait).
    pub array_wlock: Vec<u64>,
    pub kv_get: KvSpan,
    pub kv_put: KvSpan,
}

/// One repetition: set up a cluster, run the measured window, check it.
#[derive(Debug, Clone)]
pub struct Rep {
    pub virt: Virtual,
    /// Present in traced repetitions only.
    pub spans: Option<Spans>,
    /// Host wall time from the start of set-up to the window.
    pub setup: Duration,
    /// Host process CPU time of the window.
    pub window_cpu: Duration,
}

/// Run `spec` once with inputs drawn from `seed`.
pub fn run_once(spec: &Spec, seed: u64, traced: bool) -> Rep {
    match *spec {
        Spec::Kvs {
            records,
            warmup_ns,
            window_ns,
        } => kvs::run(records, warmup_ns, window_ns, seed, traced),
        Spec::Array {
            elems_per_node,
            warmup_ns,
            window_ns,
        } => array::run(elems_per_node, warmup_ns, window_ns, seed, traced),
        Spec::PageRank {
            scale,
            edge_factor,
            iters,
        } => pagerank::run(scale, edge_factor, iters, seed, traced),
    }
}

/// Nearest-rank quantile of `sorted` at `per_mille` / 1000 (500 is the
/// median), or `None` unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], per_mille: usize) -> Option<u64> {
    let rank = (per_mille * sorted.len()).div_ceil(1000).max(1);
    if rank > sorted.len() || sorted.len() - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}
