//! Figure 17: YCSB throughput of the DArray-based KVS versus the GAM-based
//! KVS on six nodes, sweeping thread count and get ratio (Zipfian 0.99).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use darray::{ArrayOptions, Cluster, Ctx, NodeStatsSnapshot, Sim, SimConfig, VTime};
use darray_kvs::{DArrayBackend, GamBackend, KvBackend, Kvs, KvsConfig, KvsView};

use crate::report::cluster_traffic;
use gam::{gam_config, GamCluster};
use workloads::{YcsbOp, YcsbSpec, YcsbStream};

/// Which KVS backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvSys {
    DArray,
    Gam,
}

impl KvSys {
    pub fn label(self) -> &'static str {
        match self {
            KvSys::DArray => "DArray-KVS",
            KvSys::Gam => "GAM-KVS",
        }
    }
}

/// Result of one Figure-17 cell.
#[derive(Debug, Clone, Copy)]
pub struct KvsOut {
    pub total_ops: u64,
    pub elapsed: VTime,
    /// Cluster-wide coherence traffic behind this cell (all-zero for the
    /// GAM backend, which does not expose `NodeStats`).
    pub protocol: NodeStatsSnapshot,
}

impl KvsOut {
    /// Total throughput in Kops/s.
    pub fn kops(&self) -> f64 {
        self.total_ops as f64 / (self.elapsed as f64 / 1e9) / 1e3
    }
}

fn drive<B: KvBackend>(
    ctx: &mut Ctx,
    env: &darray::NodeEnv,
    kv: &KvsView<B>,
    spec: &YcsbSpec,
    ops_per_thread: u64,
    elapsed: &AtomicU64,
) {
    // Preload: each node inserts its share of the records.
    let records = spec.records;
    let vsize = spec.value_size;
    for k in 0..records {
        if k as usize % env.nodes == env.node && env.thread == 0 {
            let val = YcsbStream::value_for(k, 0, vsize);
            kv.put(ctx, &k.to_le_bytes(), &val).expect("preload put");
        }
    }
    env.barrier(ctx);
    let mut stream = YcsbStream::new(spec.clone(), (env.node * 64 + env.thread) as u64 + 1000);
    let mut version = 1u64;
    env.barrier(ctx);
    let t0 = ctx.now();
    for _ in 0..ops_per_thread {
        match stream.next_op() {
            YcsbOp::Get(k) => {
                std::hint::black_box(kv.get(ctx, &k.to_le_bytes()));
            }
            YcsbOp::Put(k) => {
                version += 1;
                let val = YcsbStream::value_for(k, version, vsize);
                kv.put(ctx, &k.to_le_bytes(), &val).expect("put");
            }
        }
    }
    elapsed.fetch_max(ctx.now() - t0, Ordering::Relaxed);
}

/// Run one YCSB cell.
pub fn kvs_ycsb(
    sys: KvSys,
    nodes: usize,
    threads: usize,
    get_ratio: f64,
    records: u64,
    ops_per_thread: u64,
) -> KvsOut {
    let spec = YcsbSpec {
        records,
        get_ratio,
        theta: 0.99,
        value_size: 100,
        distribution: workloads::RequestDistribution::Zipfian,
    };
    let cfg = KvsConfig {
        buckets: (records / 8).max(16),
        overflow_per_node: (records / 16).max(8),
        value_capacity: (records * 2 + 1024) * 256,
        nodes,
    };
    let total_ops = ops_per_thread * (nodes * threads) as u64;
    match sys {
        KvSys::DArray => Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, crate::bench_cluster_config(nodes));
            let entries = cluster.alloc::<u64>(cfg.entry_array_len(), ArrayOptions::default());
            let bytes = cluster.alloc::<u64>(cfg.byte_array_words(), ArrayOptions::default());
            let kvs = Kvs::new(cfg);
            let elapsed = Arc::new(AtomicU64::new(0));
            let e2 = elapsed.clone();
            cluster.run(ctx, threads, move |ctx, env| {
                let kv = kvs.view(
                    env.node,
                    DArrayBackend(entries.on(env.node)),
                    DArrayBackend(bytes.on(env.node)),
                );
                drive(ctx, &env, &kv, &spec, ops_per_thread, &e2);
            });
            let out = KvsOut {
                total_ops,
                elapsed: elapsed.load(Ordering::Relaxed),
                protocol: cluster_traffic(&cluster),
            };
            cluster.shutdown(ctx);
            out
        }),
        KvSys::Gam => Sim::new(SimConfig::default()).run(move |ctx| {
            let g = GamCluster::with_config(ctx, gam_config(nodes));
            let entries = g.alloc::<u64>(cfg.entry_array_len());
            let bytes = g.alloc::<u64>(cfg.byte_array_words());
            let kvs = Kvs::new(cfg);
            let elapsed = Arc::new(AtomicU64::new(0));
            let e2 = elapsed.clone();
            g.run(ctx, threads, move |ctx, env| {
                let kv = kvs.view(
                    env.node,
                    GamBackend(entries.on(env.node)),
                    GamBackend(bytes.on(env.node)),
                );
                drive(ctx, &env, &kv, &spec, ops_per_thread, &e2);
            });
            let out = KvsOut {
                total_ops,
                elapsed: elapsed.load(Ordering::Relaxed),
                protocol: NodeStatsSnapshot::default(),
            };
            g.shutdown(ctx);
            out
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn darray_kvs_beats_gam_kvs_on_pure_gets() {
        let d = kvs_ycsb(KvSys::DArray, 2, 1, 1.0, 256, 400);
        let g = kvs_ycsb(KvSys::Gam, 2, 1, 1.0, 256, 400);
        assert!(
            d.kops() > g.kops() * 3.0,
            "darray {} vs gam {}",
            d.kops(),
            g.kops()
        );
    }

    #[test]
    fn darray_kvs_beats_gam_kvs_with_puts_but_less() {
        let d = kvs_ycsb(KvSys::DArray, 2, 1, 0.5, 256, 300);
        let g = kvs_ycsb(KvSys::Gam, 2, 1, 0.5, 256, 300);
        let ratio = d.kops() / g.kops();
        assert!(ratio > 1.2, "ratio {ratio}");
    }
}
