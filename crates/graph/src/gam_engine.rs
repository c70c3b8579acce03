//! Graph engines ported to the GAM baseline (§6.4: "We utilized the array
//! abstractions provided by DArray and GAM to port Polymer ... to
//! distributed ones").
//!
//! GAM has no Operate interface, so neighbor updates use its Atomic verb —
//! an exclusive-ownership read-modify-write. Under a scatter phase this
//! ping-pongs chunk ownership between all updating nodes, which (together
//! with the lock-based access path on *every* element touch) is why the
//! paper measures GAM two to three orders of magnitude behind DArray on
//! graph workloads.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use darray::Ctx;
use gam::{GamArray, GamCluster};
use parking_lot::Mutex;

use crate::cc::PropagateResult;
use crate::csr::EdgeList;
use crate::local::{LocalGraph, Partition};
use crate::pagerank::PrResult;

/// PageRank over GAM.
pub fn pagerank_gam(ctx: &mut Ctx, g: &GamCluster, el: &EdgeList, iters: usize) -> PrResult {
    let n = el.vertices;
    let nodes = {
        // GamCluster doesn't expose its node count; derive it from an array.
        // The probe also holds array id 0, and an array's id sets which
        // runtime thread serves each of its chunks, so dropping the probe
        // would move GAM's placement and timings.
        let probe = g.alloc::<u64>(1);
        probe.on(0).nodes()
    };
    let Partition {
        locals,
        offsets,
        ids,
    } = LocalGraph::partition_balanced(el, nodes);
    let locals = Arc::new(locals);
    let a = g.alloc_partitioned::<f64>(n, offsets.clone(), |_| 1.0 / n as f64);
    let b = g.alloc_partitioned::<f64>(n, offsets, |_| 0.0);
    let elapsed = Arc::new(AtomicU64::new(0));
    let out = Arc::new(Mutex::new(Vec::new()));
    let (e2, o2) = (elapsed.clone(), out.clone());
    g.run(ctx, 1, move |ctx, env| {
        let lg = &locals[env.node];
        let arrs: [GamArray<f64>; 2] = [a.on(env.node), b.on(env.node)];
        env.barrier(ctx);
        let t0 = ctx.now();
        for it in 0..iters {
            let src = &arrs[it % 2];
            let dst = &arrs[(it + 1) % 2];
            for v in lg.owned.clone() {
                dst.write(ctx, v, 0.0);
            }
            env.barrier(ctx);
            for u in lg.owned.clone() {
                let d = lg.degree(u);
                if d == 0 {
                    continue;
                }
                let c = src.read(ctx, u) / d as f64;
                for &v in lg.neighbors(u) {
                    dst.atomic(ctx, v as usize, move |x| x + c);
                }
            }
            env.barrier(ctx);
            let base = 0.15 / n as f64;
            for v in lg.owned.clone() {
                let s = dst.read(ctx, v);
                dst.write(ctx, v, base + 0.85 * s);
            }
            env.barrier(ctx);
        }
        e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
        env.barrier(ctx);
        if env.node == 0 {
            let fin = &arrs[iters % 2];
            let mut v = Vec::with_capacity(n);
            for i in 0..n {
                v.push(fin.read(ctx, i));
            }
            *o2.lock() = v;
        }
    });
    let ranks = ids.to_input_order(&out.lock());
    PrResult {
        elapsed: elapsed.load(Ordering::Relaxed),
        ranks,
    }
}

/// Connected Components over GAM (min-label propagation with Atomic).
pub fn cc_gam(ctx: &mut Ctx, g: &GamCluster, el: &EdgeList) -> PropagateResult {
    let sym = el.symmetrized();
    let n = sym.vertices;
    let nodes = {
        // The same probe, array id 0, as in `pagerank_gam`.
        let probe = g.alloc::<u64>(1);
        probe.on(0).nodes()
    };
    let Partition {
        locals,
        offsets,
        ids,
    } = LocalGraph::partition_balanced(&sym, nodes);
    let locals = Arc::new(locals);
    let label = |i| ids.input(i) as u64;
    let a = g.alloc_partitioned::<u64>(n, offsets.clone(), label);
    let b = g.alloc_partitioned::<u64>(n, offsets, label);
    let flags = g.alloc::<u64>(nodes);
    let elapsed = Arc::new(AtomicU64::new(0));
    let rounds_out = Arc::new(AtomicUsize::new(0));
    let out = Arc::new(Mutex::new(Vec::new()));
    let (e2, r2, o2) = (elapsed.clone(), rounds_out.clone(), out.clone());
    g.run(ctx, 1, move |ctx, env| {
        let lg = &locals[env.node];
        let arrs: [GamArray<u64>; 2] = [a.on(env.node), b.on(env.node)];
        let fl = flags.on(env.node);
        env.barrier(ctx);
        let t0 = ctx.now();
        let mut round = 0usize;
        loop {
            let src = &arrs[round % 2];
            let dst = &arrs[(round + 1) % 2];
            for v in lg.owned.clone() {
                let x = src.read(ctx, v);
                dst.write(ctx, v, x);
            }
            env.barrier(ctx);
            for u in lg.owned.clone() {
                let lu = src.read(ctx, u);
                for &v in lg.neighbors(u) {
                    dst.atomic(ctx, v as usize, move |x: u64| x.min(lu));
                }
            }
            env.barrier(ctx);
            let mut changed = false;
            for v in lg.owned.clone() {
                changed |= src.read(ctx, v) != dst.read(ctx, v);
            }
            fl.write(ctx, env.node, changed as u64);
            env.barrier(ctx);
            let mut any = false;
            for i in 0..env.nodes {
                any |= fl.read(ctx, i) != 0;
            }
            env.barrier(ctx);
            round += 1;
            if !any {
                break;
            }
            assert!(round <= n + 2, "GAM CC failed to converge");
        }
        e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
        env.barrier(ctx);
        if env.node == 0 {
            r2.store(round, Ordering::Relaxed);
            let fin = &arrs[round % 2];
            let mut v = Vec::with_capacity(n);
            for i in 0..n {
                v.push(fin.read(ctx, i));
            }
            *o2.lock() = v;
        }
    });
    let values = ids.to_input_order(&out.lock());
    PropagateResult {
        elapsed: elapsed.load(Ordering::Relaxed),
        values,
        rounds: rounds_out.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{cc_ref, pagerank_ref};
    use crate::rmat::rmat;
    use darray::{Sim, SimConfig};
    use gam::gam_config_with_net;
    use rdma_fabric::NetConfig;

    #[test]
    fn gam_pagerank_matches_reference() {
        let el = rmat(9, 4, 42);
        let want = pagerank_ref(&el, 2);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let g = GamCluster::with_config(ctx, gam_config_with_net(2, NetConfig::instant()));
            let r = pagerank_gam(ctx, &g, &el, 2);
            g.shutdown(ctx);
            r
        });
        for (x, y) in got.ranks.iter().zip(&want) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn gam_cc_matches_reference() {
        let el = rmat(8, 2, 11);
        let want = cc_ref(&el);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let g = GamCluster::with_config(ctx, gam_config_with_net(2, NetConfig::instant()));
            let r = cc_gam(ctx, &g, &el);
            g.shutdown(ctx);
            r
        });
        assert_eq!(got.values, want);
    }
}
