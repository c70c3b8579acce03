//! Single-source shortest paths over DArray (an extension beyond the
//! paper's two applications): Bellman-Ford-style relaxation where each
//! round `apply`s `min(dist[u] + w)` along owned weighted edges. The
//! Operated state combines relaxations from all nodes locally.

use darray::{ArrayOptions, Cluster, Ctx};

use crate::cc::PropagateResult;
use crate::csr::EdgeList;
use crate::engine::{copy_owned, partition, supersteps, vote};
use crate::local::Partition;
use workloads::Rng;

/// Per-edge weights aligned with an [`EdgeList`]'s edge order.
#[derive(Debug, Clone)]
pub struct EdgeWeights(pub Vec<u32>);

/// Deterministic uniform weights in `1..=max_w`.
pub fn random_weights(el: &EdgeList, max_w: u32, seed: u64) -> EdgeWeights {
    let mut rng = Rng::new(seed);
    EdgeWeights(
        (0..el.edges.len())
            .map(|_| 1 + rng.next_below(max_w as u64) as u32)
            .collect(),
    )
}

/// Sequential reference (Bellman-Ford).
pub fn sssp_ref(el: &EdgeList, w: &EdgeWeights, src: usize) -> Vec<u64> {
    let n = el.vertices;
    let mut dist = vec![u64::MAX; n];
    dist[src] = 0;
    loop {
        let mut changed = false;
        for (k, &(u, v)) in el.edges.iter().enumerate() {
            let du = dist[u as usize];
            if du == u64::MAX {
                continue;
            }
            let nd = du + w.0[k] as u64;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                changed = true;
            }
        }
        if !changed {
            return dist;
        }
    }
}

/// Per-node weighted subgraph (parallel arrays to [`LocalGraph`]'s CSR
/// would complicate it; we keep a flat owned edge list instead — SSSP is
/// edge-oriented anyway).
struct LocalWeighted {
    owned: std::ops::Range<usize>,
    edges: Vec<(u32, u32, u32)>, // (src, dst, weight), internal ids
}

/// Distributed SSSP; returns distances (unreachable = `u64::MAX`).
pub fn sssp_darray(
    ctx: &mut Ctx,
    cluster: &Cluster,
    el: &EdgeList,
    weights: &EdgeWeights,
    src: usize,
    pin: bool,
) -> PropagateResult {
    assert!(src < el.vertices);
    assert_eq!(weights.0.len(), el.edges.len());
    let n = el.vertices;
    let nodes = cluster.config().nodes;
    let (Partition { locals, ids, .. }, opts) = partition(cluster, el);
    let ranges: Vec<std::ops::Range<usize>> = locals.iter().map(|l| l.owned.clone()).collect();
    let mut per_node: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); nodes];
    for (k, &(u, v)) in el.edges.iter().enumerate() {
        let (u, v) = (ids.internal(u as usize), ids.internal(v as usize));
        let owner = ranges.partition_point(|r| r.end <= u).min(nodes - 1);
        per_node[owner].push((u as u32, v as u32, weights.0[k]));
    }
    let locals: Vec<LocalWeighted> = ranges
        .into_iter()
        .zip(per_node)
        .map(|(owned, edges)| LocalWeighted { owned, edges })
        .collect();
    let min = cluster.ops().register_min_u64();
    let src = ids.internal(src);
    let init = move |v: usize| if v == src { 0 } else { u64::MAX };
    let a = cluster.alloc_with::<u64>(n, opts.clone(), init);
    let b = cluster.alloc_with::<u64>(n, opts, init);
    let flags = cluster.alloc::<u64>(nodes, ArrayOptions::default());
    let run = supersteps(
        ctx,
        cluster,
        locals,
        [a, b],
        None,
        move |ctx, s| {
            let g = s.local;
            copy_owned(ctx, g.owned.clone(), s.src, s.dst, pin);
            s.env.barrier(ctx);
            // Relax owned edges: a flat edge list, not a window walk, so its
            // reads stay plain. SSSP's Pin variant pins the seed copy only, so
            // the vote reads plainly too.
            for &(u, v, w) in &g.edges {
                let du = s.src.get(ctx, u as usize);
                if du == u64::MAX {
                    continue;
                }
                s.dst.apply(ctx, v as usize, min, du + w as u64);
            }
            s.env.barrier(ctx);
            vote(ctx, s.env, &flags, g.owned.clone(), s.src, s.dst, false)
        },
        |_, _, _| {},
    );
    PropagateResult {
        elapsed: run.elapsed,
        values: ids.to_input_order(&run.values),
        rounds: run.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::rmat;
    use darray::{ClusterConfig, Sim, SimConfig};

    #[test]
    fn sssp_matches_bellman_ford() {
        let el = rmat(9, 4, 17);
        let w = random_weights(&el, 10, 5);
        let want = sssp_ref(&el, &w, 0);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(3));
            let r = sssp_darray(ctx, &cluster, &el, &w, 0, false);
            cluster.shutdown(ctx);
            r
        });
        assert_eq!(got.values, want);
    }

    #[test]
    fn sssp_pin_variant_matches() {
        let el = rmat(8, 4, 18);
        let w = random_weights(&el, 5, 6);
        let want = sssp_ref(&el, &w, 2);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
            let r = sssp_darray(ctx, &cluster, &el, &w, 2, true);
            cluster.shutdown(ctx);
            r
        });
        assert_eq!(got.values, want);
    }

    #[test]
    fn unit_weights_reduce_to_bfs() {
        let el = rmat(8, 4, 19);
        let w = EdgeWeights(vec![1; el.edges.len()]);
        let bfs = crate::reference::bfs_ref(&el, 0);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
            let r = sssp_darray(ctx, &cluster, &el, &w, 0, false);
            cluster.shutdown(ctx);
            r
        });
        assert_eq!(got.values, bfs);
    }
}
