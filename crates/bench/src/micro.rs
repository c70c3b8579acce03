//! Micro benchmarks: sequential and uniform-random Read/Write/Operate over
//! a global array (Figures 1, 12, 13, 15 and 18).
//!
//! "We allocate a global array that spans multiple nodes, with each element
//! of 8 bytes in size. The array size increases linearly with the number of
//! nodes ... Each thread on a node sequentially accesses the entire global
//! array with an 8-byte granularity." (§6.2) — the harness scales the array
//! down (see DESIGN.md §2) and optionally caps the per-thread op count;
//! averages are unaffected because the access pattern is cyclic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::report::cluster_traffic;
use bcl::BclCluster;
use darray::{ArrayOptions, Cluster, NodeStatsSnapshot, PinMode, Sim, SimConfig, VTime};
use gam::{gam_config, GamCluster};
use workloads::Rng;

/// Which system runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Builtin,
    Bcl,
    Gam,
    DArray,
    DArrayPin,
}

impl System {
    pub fn label(self) -> &'static str {
        match self {
            System::Builtin => "builtin",
            System::Bcl => "BCL",
            System::Gam => "GAM",
            System::DArray => "DArray",
            System::DArrayPin => "DArray-Pin",
        }
    }
}

/// Which API is exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
    Operate,
}

impl Op {
    pub fn label(self) -> &'static str {
        match self {
            Op::Read => "Read",
            Op::Write => "Write",
            Op::Operate => "Operate",
        }
    }
}

/// Result of one micro-benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct MicroOut {
    pub total_ops: u64,
    /// Max over threads of their measured window (virtual ns).
    pub elapsed: VTime,
    /// Coherence traffic behind the run (all-zero for non-DArray systems,
    /// which have no protocol machines to count).
    pub protocol: NodeStatsSnapshot,
}

impl MicroOut {
    /// Aggregate throughput in Mops/s.
    pub fn mops(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.total_ops as f64 / (self.elapsed as f64 / 1e9) / 1e6
    }

    /// Average per-op latency in ns (valid when threads run disjoint ops).
    pub fn avg_latency_ns(&self, ops_per_thread: u64) -> f64 {
        self.elapsed as f64 / ops_per_thread as f64
    }
}

/// Index streams: cyclic sequential over the whole array, or uniform
/// random.
#[derive(Debug, Clone, Copy)]
pub enum Pattern {
    Sequential,
    Random,
}

/// Run `ops_per_thread` accesses per thread on every node (DArray runs
/// single-runtime-threaded; see [`micro_rt`] for the thread-count sweep).
pub fn micro(
    system: System,
    op: Op,
    pattern: Pattern,
    nodes: usize,
    threads: usize,
    elems_per_node: usize,
    ops_per_thread: u64,
) -> MicroOut {
    micro_rt(
        system,
        op,
        pattern,
        nodes,
        threads,
        elems_per_node,
        ops_per_thread,
        1,
    )
}

/// [`micro`] with an explicit DArray runtime-thread count (fig12/fig13
/// sweep it). The comparison engines have no runtime-thread knob and
/// ignore `runtime_threads`.
#[allow(clippy::too_many_arguments)]
pub fn micro_rt(
    system: System,
    op: Op,
    pattern: Pattern,
    nodes: usize,
    threads: usize,
    elems_per_node: usize,
    ops_per_thread: u64,
    runtime_threads: usize,
) -> MicroOut {
    let len = elems_per_node * nodes;
    match system {
        System::Builtin => builtin_micro(op, len, ops_per_thread),
        System::Bcl => bcl_micro(op, pattern, nodes, threads, len, ops_per_thread),
        System::Gam => gam_micro(op, pattern, nodes, threads, len, ops_per_thread),
        System::DArray => darray_micro(
            op,
            pattern,
            nodes,
            threads,
            len,
            ops_per_thread,
            false,
            runtime_threads,
        ),
        System::DArrayPin => darray_micro(
            op,
            pattern,
            nodes,
            threads,
            len,
            ops_per_thread,
            true,
            runtime_threads,
        ),
    }
}

/// A native in-memory array: the Figure 1 baseline. One node, one thread,
/// every access charged the native cost.
fn builtin_micro(_op: Op, len: usize, ops: u64) -> MicroOut {
    let cost = rdma_fabric::CostModel::default();
    Sim::new(SimConfig::default()).run(move |ctx| {
        let data = vec![0u64; len];
        let mut sink = 0u64;
        for i in 0..ops {
            ctx.charge(cost.native_access_ns);
            sink = sink.wrapping_add(data[(i as usize) % len]);
        }
        std::hint::black_box(sink);
        MicroOut {
            total_ops: ops,
            elapsed: ctx.now(),
            protocol: NodeStatsSnapshot::default(),
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn darray_micro(
    op: Op,
    pattern: Pattern,
    nodes: usize,
    threads: usize,
    len: usize,
    ops_per_thread: u64,
    pin: bool,
    runtime_threads: usize,
) -> MicroOut {
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, crate::bench_cluster_config_rt(nodes, runtime_threads));
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(len, ArrayOptions::default());
        let elapsed = Arc::new(AtomicU64::new(0));
        let e2 = elapsed.clone();
        cluster.run(ctx, threads, move |ctx, env| {
            let a = arr.on(env.node);
            let chunk = a.chunk_size();
            let mut rng = Rng::new((env.node * 64 + env.thread) as u64 + 1);
            // Each node starts its full-array scan at its own partition
            // (the standard way to avoid a thundering herd on chunk 0; the
            // scan still covers local and remote data).
            let start = (env.node * (len / env.nodes)) % len;
            env.barrier(ctx);
            let t0 = ctx.now();
            match (pattern, pin) {
                (Pattern::Sequential, false) => {
                    let mut i = start;
                    for _ in 0..ops_per_thread {
                        match op {
                            Op::Read => {
                                std::hint::black_box(a.get(ctx, i));
                            }
                            Op::Write => a.set(ctx, i, i as u64),
                            Op::Operate => a.apply(ctx, i, add, 1),
                        }
                        i += 1;
                        if i == len {
                            i = 0;
                        }
                    }
                }
                (Pattern::Sequential, true) => {
                    // Pin each chunk window while streaming through it.
                    let mut done = 0u64;
                    let mut at = start;
                    while done < ops_per_thread {
                        let mode = match op {
                            Op::Read => PinMode::Read,
                            Op::Write => PinMode::Write,
                            Op::Operate => PinMode::Operate(add),
                        };
                        let p = a.pin(ctx, at, mode);
                        let hi = (at - at % chunk + chunk).min(len);
                        while at < hi && done < ops_per_thread {
                            match op {
                                Op::Read => {
                                    std::hint::black_box(p.get(ctx, at));
                                }
                                Op::Write => p.set(ctx, at, at as u64),
                                Op::Operate => p.apply(ctx, at, add, 1),
                            }
                            at += 1;
                            done += 1;
                        }
                        p.unpin();
                        if at == len {
                            at = 0;
                        }
                    }
                }
                (Pattern::Random, _) => {
                    for _ in 0..ops_per_thread {
                        let i = rng.next_below(len as u64) as usize;
                        match op {
                            Op::Read => {
                                std::hint::black_box(a.get(ctx, i));
                            }
                            Op::Write => a.set(ctx, i, i as u64),
                            Op::Operate => a.apply(ctx, i, add, 1),
                        }
                    }
                }
            }
            e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
        });
        let out = MicroOut {
            total_ops: ops_per_thread * (nodes * threads) as u64,
            elapsed: elapsed.load(Ordering::Relaxed),
            protocol: cluster_traffic(&cluster),
        };
        cluster.shutdown(ctx);
        out
    })
}

fn gam_micro(
    op: Op,
    pattern: Pattern,
    nodes: usize,
    threads: usize,
    len: usize,
    ops_per_thread: u64,
) -> MicroOut {
    Sim::new(SimConfig::default()).run(move |ctx| {
        let g = GamCluster::with_config(ctx, gam_config(nodes));
        let arr = g.alloc::<u64>(len);
        let elapsed = Arc::new(AtomicU64::new(0));
        let e2 = elapsed.clone();
        g.run(ctx, threads, move |ctx, env| {
            let a = arr.on(env.node);
            let mut rng = Rng::new((env.node * 64 + env.thread) as u64 + 1);
            let start = (env.node * (len / env.nodes)) % len;
            env.barrier(ctx);
            let t0 = ctx.now();
            for k in 0..ops_per_thread {
                let i = match pattern {
                    Pattern::Sequential => (start + k as usize) % len,
                    Pattern::Random => rng.next_below(len as u64) as usize,
                };
                match op {
                    Op::Read => {
                        std::hint::black_box(a.read(ctx, i));
                    }
                    Op::Write => a.write(ctx, i, i as u64),
                    // GAM's Atomic: read-modify-write under exclusive
                    // ownership (§6.2: "the Atomic interface in GAM, which
                    // results in suboptimal performance due to its
                    // exclusive ownership").
                    Op::Operate => a.atomic(ctx, i, |x| x + 1),
                }
            }
            e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
        });
        let out = MicroOut {
            total_ops: ops_per_thread * (nodes * threads) as u64,
            elapsed: elapsed.load(Ordering::Relaxed),
            protocol: NodeStatsSnapshot::default(),
        };
        g.shutdown(ctx);
        out
    })
}

fn bcl_micro(
    op: Op,
    pattern: Pattern,
    nodes: usize,
    threads: usize,
    len: usize,
    ops_per_thread: u64,
) -> MicroOut {
    assert!(op != Op::Operate, "BCL has no Operate interface");
    Sim::new(SimConfig::default()).run(move |ctx| {
        let c = BclCluster::new(nodes);
        let arr = c.alloc::<u64>(len);
        let elapsed = Arc::new(AtomicU64::new(0));
        let e2 = elapsed.clone();
        c.run(ctx, threads, move |ctx, env| {
            let a = arr.on(env.node);
            let mut rng = Rng::new((env.node * 64 + env.thread) as u64 + 1);
            // BCL has no cache, so a full-array sequential scan's average is
            // exactly the local/remote mixture (1/n local, (n-1)/n remote);
            // with a capped op count we sample that mixture directly instead
            // of walking the whole array.
            let part = len / env.nodes;
            let local_base = env.node * part;
            let remote_base = ((env.node + 1) % env.nodes) * part;
            env.barrier(ctx);
            let t0 = ctx.now();
            for k in 0..ops_per_thread {
                let i = match pattern {
                    Pattern::Sequential => {
                        let k = k as usize;
                        if env.nodes > 1 && !k.is_multiple_of(env.nodes) {
                            remote_base + k % part
                        } else {
                            local_base + k % part
                        }
                    }
                    Pattern::Random => rng.next_below(len as u64) as usize,
                };
                match op {
                    Op::Read => {
                        std::hint::black_box(a.read(ctx, i));
                    }
                    Op::Write => a.write(ctx, i, i as u64),
                    Op::Operate => unreachable!(),
                }
            }
            e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
        });
        MicroOut {
            total_ops: ops_per_thread * (nodes * threads) as u64,
            elapsed: elapsed.load(Ordering::Relaxed),
            protocol: NodeStatsSnapshot::default(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_latency_ordering_holds() {
        // Single machine: builtin < DArray-Pin < DArray < GAM; distributed:
        // everyone ≥ its local latency, BCL near the 2 µs round trip.
        let ops = 4_096;
        let builtin = micro(
            System::Builtin,
            Op::Read,
            Pattern::Sequential,
            1,
            1,
            4096,
            ops,
        );
        let pin = micro(
            System::DArrayPin,
            Op::Read,
            Pattern::Sequential,
            1,
            1,
            4096,
            ops,
        );
        let plain = micro(
            System::DArray,
            Op::Read,
            Pattern::Sequential,
            1,
            1,
            4096,
            ops,
        );
        let gam = micro(System::Gam, Op::Read, Pattern::Sequential, 1, 1, 4096, ops);
        let b = builtin.avg_latency_ns(ops);
        let p = pin.avg_latency_ns(ops);
        let d = plain.avg_latency_ns(ops);
        let g = gam.avg_latency_ns(ops);
        assert!(b < p && p < d && d < g, "b={b} p={p} d={d} g={g}");
    }

    #[test]
    fn distributed_bcl_latency_is_round_trip_bound() {
        let ops = 512;
        // 4096 elems/node so the staggered starts (node·2048) fall in other
        // nodes' partitions: most accesses in the window are remote.
        let out = micro(System::Bcl, Op::Read, Pattern::Sequential, 3, 1, 4096, ops);
        let lat = out.avg_latency_ns(ops);
        assert!(lat > 800.0, "BCL latency {lat}");
    }

    #[test]
    fn darray_seq_read_beats_gam_distributed() {
        let ops = 8_192;
        let d = micro(
            System::DArray,
            Op::Read,
            Pattern::Sequential,
            3,
            1,
            4096,
            ops,
        );
        let g = micro(System::Gam, Op::Read, Pattern::Sequential, 3, 1, 4096, ops);
        assert!(
            d.mops() > g.mops() * 2.0,
            "DArray {} vs GAM {}",
            d.mops(),
            g.mops()
        );
    }

    #[test]
    fn operate_scales_better_than_gam_atomic() {
        let ops = 2_048;
        let d = micro(
            System::DArray,
            Op::Operate,
            Pattern::Sequential,
            3,
            1,
            2048,
            ops,
        );
        let g = micro(
            System::Gam,
            Op::Operate,
            Pattern::Sequential,
            3,
            1,
            2048,
            ops,
        );
        assert!(
            d.mops() > g.mops(),
            "DArray {} vs GAM {}",
            d.mops(),
            g.mops()
        );
    }
}
