//! Ablations of DArray's design choices (DESIGN.md §5): each table flips
//! one mechanism and reruns a focused workload.
//!
//! 1. lock-free vs lock-based data access path (§4.1's strawman);
//! 2. sequential prefetch on/off (§4.2);
//! 3. dedicated Tx threads vs inline posting (§4.5);
//! 4. selective signaling interval (§4.5);
//! 5. runtime threads per node (§3.1's parallel runtime layer);
//! 6. eviction watermark settings under cache thrash (§4.2).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use darray::{
    AccessPath, ArrayOptions, CacheConfig, Cluster, ClusterConfig, NodeStatsSnapshot, PoolStats,
    Sim, SimConfig, VTime,
};
use darray_bench::report::{cluster_traffic, fmt, print_table, write_bench_json_with_metrics};
use workloads::Rng;

/// Sequential scan throughput (Mops/s) and the protocol traffic it cost,
/// under an arbitrary configuration.
fn scan(
    cfg: ClusterConfig,
    threads: usize,
    elems_per_node: usize,
    ops: u64,
    random: bool,
) -> (f64, NodeStatsSnapshot) {
    let (mops, traffic, _) = scan_pools(cfg, threads, elems_per_node, ops, random);
    (mops, traffic)
}

/// [`scan`] that also returns each node's per-runtime-thread cache-pool
/// snapshots (`pools[node][rt]`), for the placement-skew ablation.
fn scan_pools(
    cfg: ClusterConfig,
    threads: usize,
    elems_per_node: usize,
    ops: u64,
    random: bool,
) -> (f64, NodeStatsSnapshot, Vec<Vec<PoolStats>>) {
    let nodes = cfg.nodes;
    let len = elems_per_node * nodes;
    let (elapsed, traffic, pools): (VTime, NodeStatsSnapshot, Vec<Vec<PoolStats>>) =
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, cfg);
            let arr = cluster.alloc::<u64>(len, ArrayOptions::default());
            let el = Arc::new(AtomicU64::new(0));
            let e2 = el.clone();
            cluster.run(ctx, threads, move |ctx, env| {
                let a = arr.on(env.node);
                let mut rng = Rng::new((env.node * 64 + env.thread) as u64 + 1);
                env.barrier(ctx);
                let t0 = ctx.now();
                for k in 0..ops {
                    let i = if random {
                        rng.next_below(len as u64) as usize
                    } else {
                        (k as usize) % len
                    };
                    std::hint::black_box(a.get(ctx, i));
                }
                e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
            });
            let t = el.load(Ordering::Relaxed);
            let traffic = cluster_traffic(&cluster);
            let pools = (0..nodes).map(|n| cluster.pool_stats(n)).collect();
            cluster.shutdown(ctx);
            (t, traffic, pools)
        });
    let mops = (ops * (nodes * threads) as u64) as f64 / (elapsed as f64 / 1e9) / 1e6;
    (mops, traffic, pools)
}

fn main() {
    let fast = darray_bench::fast_mode();
    let ops: u64 = if fast { 4_096 } else { 30_000 };
    // One protocol-traffic section per ablated configuration: the diff
    // harness then pins each mechanism's coherence cost, not just its
    // headline throughput.
    let mut traffic: Vec<(String, NodeStatsSnapshot)> = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    // 1. Access path (the §4.1 strawman): local scans with rising thread
    // counts — the lock serializes threads within a chunk.
    {
        let mut rows = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let mut free = ClusterConfig::with_nodes(1);
            free.runtime_threads = 1;
            free.access_path = AccessPath::LockFree;
            let mut lock = ClusterConfig::with_nodes(1);
            lock.runtime_threads = 1;
            lock.access_path = AccessPath::LockBased;
            let (f, tf) = scan(free, threads, 16_384, ops, false);
            let (l, tl) = scan(lock, threads, 16_384, ops, false);
            traffic.push((format!("a1_lockfree_t{threads}"), tf));
            traffic.push((format!("a1_lockbased_t{threads}"), tl));
            rows.push(vec![threads.to_string(), fmt(f), fmt(l), fmt(f / l)]);
        }
        print_table(
            "Ablation 1 — lock-free vs lock-based access path (1 node, seq read, Mops/s)",
            &["threads", "lock-free", "lock-based", "speedup"],
            &rows,
        );
    }

    // 2. Prefetch: remote sequential scan with and without it.
    {
        let mut rows = Vec::new();
        for prefetch in [0usize, 1, 2, 4, 8] {
            let mut cfg = ClusterConfig::with_nodes(2);
            cfg.runtime_threads = 1;
            cfg.cache.prefetch_lines = prefetch;
            let (t, tr) = scan(cfg, 1, 16_384, ops, false);
            traffic.push((format!("a2_prefetch{prefetch}"), tr));
            rows.push(vec![prefetch.to_string(), fmt(t)]);
        }
        print_table(
            "Ablation 2 — prefetch depth (2 nodes, remote seq read, Mops/s)",
            &["prefetch lines", "throughput"],
            &rows,
        );
    }

    // 3. Dedicated Tx threads vs inline posting.
    {
        let mut rows = Vec::new();
        for tx in [false, true] {
            let mut cfg = ClusterConfig::with_nodes(4);
            cfg.runtime_threads = 1;
            cfg.tx_threads = tx;
            let (t, tr) = scan(cfg, 1, 8_192, ops, false);
            traffic.push((
                format!("a3_tx_{}", if tx { "dedicated" } else { "inline" }),
                tr,
            ));
            rows.push(vec![
                if tx {
                    "dedicated Tx threads"
                } else {
                    "inline posting"
                }
                .to_string(),
                fmt(t),
            ]);
        }
        print_table(
            "Ablation 3 — Tx thread offload (4 nodes, seq read, Mops/s)",
            &["comm layer", "throughput"],
            &rows,
        );
    }

    // 4. Selective signaling interval.
    {
        let mut rows = Vec::new();
        for r in [1u64, 4, 16, 64, 256] {
            let mut cfg = ClusterConfig::with_nodes(2);
            cfg.runtime_threads = 1;
            cfg.net.signal_interval = r;
            let (t, tr) = scan(cfg, 1, 8_192, ops, false);
            traffic.push((format!("a4_signal{r}"), tr));
            rows.push(vec![r.to_string(), fmt(t)]);
        }
        print_table(
            "Ablation 4 — selective signaling interval (2 nodes, seq read, Mops/s)",
            &["signal every r requests", "throughput"],
            &rows,
        );
    }

    // 5. Runtime threads: chunks (and protocol work) partition across
    // them, so coherence-heavy workloads gain from a second runtime thread.
    // Per-pool occupancy rides along in the metrics object: skewed
    // placement would show up as one pool's allocs/peak dwarfing the rest.
    {
        let mut rows = Vec::new();
        for rts in [1usize, 2, 4] {
            let mut cfg = ClusterConfig::with_nodes(4);
            cfg.runtime_threads = rts;
            let (t, tr, pools) = scan_pools(cfg, 2, 8_192, ops, false);
            traffic.push((format!("a5_rt{rts}"), tr));
            // Aggregate each pool index over the (symmetric) nodes.
            let mut pool_cells = Vec::new();
            for r in 0..rts {
                let allocs: u64 = pools.iter().map(|n| n[r].allocs).sum();
                let evictions: u64 = pools.iter().map(|n| n[r].evictions).sum();
                let peak: u64 = pools.iter().map(|n| n[r].peak_occupied as u64).sum();
                metrics.push((format!("a5_rt{rts}_pool{r}_allocs"), allocs as f64));
                metrics.push((format!("a5_rt{rts}_pool{r}_evictions"), evictions as f64));
                metrics.push((format!("a5_rt{rts}_pool{r}_peak"), peak as f64));
                pool_cells.push(format!("p{r}: {allocs}/{peak}"));
            }
            metrics.push((format!("a5_rt{rts}_mops"), t));
            rows.push(vec![rts.to_string(), fmt(t), pool_cells.join("  ")]);
        }
        print_table(
            "Ablation 5 — runtime threads per node (4 nodes, 2 app threads, seq read, Mops/s)",
            &[
                "runtime threads",
                "throughput",
                "pool allocs/peak (all nodes)",
            ],
            &rows,
        );
    }

    // 6. Eviction watermarks under random-access thrash.
    {
        let mut rows = Vec::new();
        for (lo, hi) in [(0.05, 0.10), (0.30, 0.50), (0.60, 0.80)] {
            let mut cfg = ClusterConfig::with_nodes(2);
            cfg.runtime_threads = 1;
            cfg.cache = CacheConfig {
                capacity_lines: 64,
                low_watermark: lo,
                high_watermark: hi,
                prefetch_lines: 0,
                ..CacheConfig::default()
            };
            let (t, tr) = scan(cfg, 1, 131_072, ops / 4, true);
            traffic.push((
                format!("a6_wm{:02}_{:02}", (lo * 100.0) as u32, (hi * 100.0) as u32),
                tr,
            ));
            rows.push(vec![format!("{lo:.2}/{hi:.2}"), fmt(t)]);
        }
        print_table(
            "Ablation 6 — eviction watermarks (2 nodes, random read, thrashing cache, Mops/s)",
            &["low/high watermark", "throughput"],
            &rows,
        );
    }

    match write_bench_json_with_metrics("ablations", &metrics, &traffic) {
        Ok(p) => println!("\nprotocol traffic written to {}", p.display()),
        Err(e) => eprintln!("could not write BENCH_ablations.json: {e}"),
    }
}
