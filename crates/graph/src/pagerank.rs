//! Distributed PageRank over DArray (Figure 8): each node walks its owned
//! vertices and `apply`s rank contributions to the neighbors' slots in the
//! next-rank array; the Operate interface combines remote contributions
//! locally and reduces them at each chunk's home node.

use darray::{Cluster, Ctx, PinMode, VTime};

use crate::csr::EdgeList;
use crate::engine::{partition, supersteps, Window};

/// Result of a distributed PageRank run.
pub struct PrResult {
    /// Virtual time of the iteration loop (max over nodes), excluding graph
    /// loading and the final gather.
    pub elapsed: VTime,
    /// Final ranks (gathered at node 0).
    pub ranks: Vec<f64>,
}

/// Run `iters` PageRank iterations on an existing cluster; `pin` selects
/// the DArray-Pin variant (§6.4).
pub fn pagerank_darray(
    ctx: &mut Ctx,
    cluster: &Cluster,
    el: &EdgeList,
    iters: usize,
    pin: bool,
) -> PrResult {
    let n = el.vertices;
    let (locals, opts) = partition(cluster, el);
    let add = cluster.ops().register_add_f64();
    let a = cluster.alloc_with::<f64>(n, opts.clone(), |_| 1.0 / n as f64);
    let b = cluster.alloc::<f64>(n, opts);
    let base = 0.15 / n as f64;
    let run = supersteps(ctx, cluster, locals, [a, b], Some(iters), move |ctx, s| {
        let (g, src, dst) = (s.local, s.src, s.dst);
        // Zero the owned range of dst.
        for w in dst.chunk_windows(g.owned.clone()) {
            let d = Window::open(ctx, dst, w.start, PinMode::Write, pin);
            for v in w {
                d.set(ctx, v, 0.0);
            }
        }
        s.env.barrier(ctx);
        // Scatter: each owned vertex's rank share goes to its neighbors.
        for w in src.chunk_windows(g.owned.clone()) {
            let r = Window::open(ctx, src, w.start, PinMode::Read, pin);
            for u in w {
                let d = g.degree(u);
                if d == 0 {
                    continue;
                }
                let c = r.get(ctx, u) / d as f64;
                for &v in g.neighbors(u) {
                    dst.apply(ctx, v as usize, add, c);
                }
            }
        }
        s.env.barrier(ctx);
        // Damp the owned ranks (reading an owned element recalls any
        // outstanding Operated state and reduces it).
        for w in dst.chunk_windows(g.owned.clone()) {
            let d = Window::open(ctx, dst, w.start, PinMode::Write, pin);
            for v in w {
                let x = d.get(ctx, v);
                d.set(ctx, v, base + 0.85 * x);
            }
        }
        s.env.barrier(ctx);
        true
    });
    PrResult {
        elapsed: run.elapsed,
        ranks: run.values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::pagerank_ref;
    use crate::rmat::rmat;
    use darray::{ClusterConfig, Sim, SimConfig};

    fn run(nodes: usize, pin: bool, iters: usize) -> PrResult {
        let el = rmat(10, 4, 42);
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(nodes));
            let r = pagerank_darray(ctx, &cluster, &el, iters, pin);
            cluster.shutdown(ctx);
            r
        })
    }

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn matches_reference_on_three_nodes() {
        let el = rmat(10, 4, 42);
        let want = pagerank_ref(&el, 3);
        let got = run(3, false, 3);
        assert!(close(&got.ranks, &want), "distributed PR diverged");
        assert!(got.elapsed > 0);
    }

    #[test]
    fn pin_variant_matches_too() {
        let el = rmat(10, 4, 42);
        let want = pagerank_ref(&el, 3);
        let got = run(2, true, 3);
        assert!(close(&got.ranks, &want), "pinned PR diverged");
    }

    #[test]
    fn single_node_works() {
        // `run` always uses rmat(10, 4, 42); compare against the same graph.
        let el = rmat(10, 4, 42);
        let want = pagerank_ref(&el, 2);
        let got = run(1, false, 2);
        assert!(close(&got.ranks, &want));
    }
}
