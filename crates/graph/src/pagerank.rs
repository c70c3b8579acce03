//! Distributed PageRank over DArray (Figure 8): each node walks its owned
//! vertices and `apply`s rank contributions to the neighbors' slots in the
//! next-rank array; the Operate interface combines remote contributions
//! locally and reduces them at each chunk's home node.
//!
//! A round is one walk and one barrier. The arrays hold undamped sums `x`,
//! whose rank is `base + 0.85·x`: the walk damps each owned sum as it reads
//! it, scatters the rank's shares, and resets the slot to 0, so the array
//! it read becomes the next round's zeroed accumulator. Only a vertex's
//! owner reads its slot and nobody applies to it within the round, so the
//! reset needs no barrier of its own; the round's closing barrier orders it
//! before any node's next-round `apply`. One damp pass over the owned final
//! sums ends the run, inside the timed window. A round first hints the
//! Operate grants of its targets, and its walk hints each next window's
//! recall, so they are in flight while the walk works instead of each
//! blocking it for a round trip.

use darray::{Cluster, Ctx, PinMode, VTime};

use crate::csr::EdgeList;
use crate::engine::{partition, prefetch_targets, supersteps, walk_owned};
use crate::local::Partition;

/// Result of a distributed PageRank run.
pub struct PrResult {
    /// Virtual time of the iteration loop and the final damp pass (max
    /// over nodes), excluding graph loading and the final gather.
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
    let (Partition { locals, ids, .. }, opts) = partition(cluster, el);
    let add = cluster.ops().register_add_f64();
    // The sum 1/n damps to the initial rank 1/n.
    let a = cluster.alloc_with::<f64>(n, opts.clone(), |_| 1.0 / n as f64);
    let b = cluster.alloc::<f64>(n, opts);
    let base = 0.15 / n as f64;
    let damp = move |x: f64| base + 0.85 * x;
    let run = supersteps(
        ctx,
        cluster,
        locals,
        [a, b],
        Some(iters),
        move |ctx, s| {
            let (g, src, dst) = (s.local, s.src, s.dst);
            prefetch_targets(ctx, g, dst, add);
            // Reading an owned sum recalls any outstanding Operated state
            // and reduces it.
            let walk = [(src, PinMode::Write)];
            walk_owned(ctx, g.owned.clone(), walk, pin, |ctx, [r], u| {
                let d = g.degree(u);
                if d > 0 {
                    let c = damp(r.get(ctx, u)) / d as f64;
                    for &v in g.neighbors(u) {
                        dst.apply(ctx, v as usize, add, c);
                    }
                }
                r.set(ctx, u, 0.0);
            });
            s.env.barrier(ctx);
            true
        },
        move |ctx, g, fin| {
            let walk = [(fin, PinMode::Write)];
            walk_owned(ctx, g.owned.clone(), walk, pin, |ctx, [d], v| {
                let x = d.get(ctx, v);
                d.set(ctx, v, damp(x));
            });
        },
    );
    PrResult {
        elapsed: run.elapsed,
        ranks: ids.to_input_order(&run.values),
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

    /// Every rank within a relative 1e-9 of the reference's.
    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()))
    }

    /// `iters = 0` checks the seed (the sum 1/n damps to 1/n, a fixed
    /// point of the damp); with rounds, the ranks are right only if the
    /// final damp ran.
    #[test]
    fn matches_reference_at_every_round_count() {
        let el = rmat(10, 4, 42);
        for iters in [0, 1, 5] {
            let want = pagerank_ref(&el, iters);
            for nodes in [1, 2, 3] {
                for pin in [false, true] {
                    let got = run(nodes, pin, iters);
                    assert!(
                        close(&got.ranks, &want),
                        "{iters} iters on {nodes} nodes, pin {pin}: diverged"
                    );
                    assert!(got.elapsed > 0);
                }
            }
        }
    }
}
