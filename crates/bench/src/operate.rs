//! Figure 14: the Operate interface versus `WLock+Read+Write` under a
//! Zipfian (0.99) `write_add` workload. "The lock-based scheme's exclusive
//! ownership causes severe contention in multi-node systems."

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::report::cluster_traffic;
use darray::{ArrayOptions, Cluster, NodeStatsSnapshot, Sim, SimConfig, VTime};
use workloads::{Rng, Zipfian};

/// Result of one Figure-14 configuration.
#[derive(Debug, Clone, Copy)]
pub struct Fig14Out {
    pub total_ops: u64,
    pub elapsed: VTime,
    /// Coherence traffic behind the run; the Operate path shows up as
    /// `operand_flushes`/`operated_reductions`, the lock emulation as
    /// recall/invalidate ping-pong.
    pub protocol: NodeStatsSnapshot,
}

impl Fig14Out {
    pub fn mops(&self) -> f64 {
        self.total_ops as f64 / (self.elapsed as f64 / 1e9) / 1e6
    }
    pub fn avg_latency_ns(&self, ops_per_node: u64) -> f64 {
        self.elapsed as f64 / ops_per_node as f64
    }
}

/// Zipfian `write_add` over a global array; `use_operate` selects the
/// Operate interface, otherwise WLock+Read+Write emulates the same
/// semantics.
pub fn zipf_update(nodes: usize, len: usize, ops_per_node: u64, use_operate: bool) -> Fig14Out {
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, crate::bench_cluster_config(nodes));
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(len, ArrayOptions::default());
        let elapsed = Arc::new(AtomicU64::new(0));
        let e2 = elapsed.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            let zipf = Zipfian::new(len as u64);
            let mut rng = Rng::new(env.node as u64 + 7);
            env.barrier(ctx);
            let t0 = ctx.now();
            for _ in 0..ops_per_node {
                let i = zipf.next_scrambled(&mut rng) as usize;
                if use_operate {
                    a.apply(ctx, i, add, 1);
                } else {
                    // The emulation the paper describes: "acquire the
                    // writer lock for the corresponding vertex, read the
                    // vertex's rank, add the increment value to the rank,
                    // and write it back before releasing the lock."
                    a.wlock(ctx, i);
                    let v = a.get(ctx, i);
                    a.set(ctx, i, v + 1);
                    a.unlock(ctx, i);
                }
            }
            e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
        });
        let out = Fig14Out {
            total_ops: ops_per_node * nodes as u64,
            elapsed: elapsed.load(Ordering::Relaxed),
            protocol: cluster_traffic(&cluster),
        };
        cluster.shutdown(ctx);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operate_beats_lock_based_on_multiple_nodes() {
        let op = zipf_update(3, 8_192, 2_000, true);
        let lk = zipf_update(3, 8_192, 2_000, false);
        assert!(
            op.mops() > lk.mops() * 3.0,
            "operate {} vs lock {}",
            op.mops(),
            lk.mops()
        );
    }

    #[test]
    fn lock_latency_grows_with_nodes() {
        let one = zipf_update(1, 8_192, 1_000, false);
        let four = zipf_update(4, 8_192, 1_000, false);
        assert!(
            four.avg_latency_ns(1_000) > one.avg_latency_ns(1_000) * 2.0,
            "lock latency should grow: 1n={} 4n={}",
            one.avg_latency_ns(1_000),
            four.avg_latency_ns(1_000)
        );
    }

    #[test]
    fn operate_latency_stays_flat() {
        let one = zipf_update(1, 8_192, 2_000, true);
        let four = zipf_update(4, 8_192, 2_000, true);
        assert!(
            four.avg_latency_ns(2_000) < one.avg_latency_ns(2_000) * 10.0,
            "operate latency should stay near-flat: 1n={} 4n={}",
            one.avg_latency_ns(2_000),
            four.avg_latency_ns(2_000)
        );
    }
}
