//! Connected Components by min-label propagation over DArray, using the
//! `write_min` operator (§4.3) — the second graph application of §6.4.
//!
//! BFS runs through the same propagation: each round seeds the next label
//! array, scatters `min` contributions along edges, and takes the
//! convergence vote through a small flag array.

use darray::{ArrayOptions, Cluster, Ctx, PinMode, VTime};

use crate::csr::EdgeList;
use crate::engine::{copy_owned, partition, prefetch_targets, supersteps, vote, walk_owned};
use crate::local::Partition;

/// Result of a propagation run (CC or BFS).
pub struct PropagateResult {
    /// Virtual time of the iteration loop (max over nodes).
    pub elapsed: VTime,
    /// Final per-vertex values (labels or distances), gathered at node 0.
    pub values: Vec<u64>,
    /// Rounds until convergence.
    pub rounds: usize,
}

/// What one vertex contributes to its neighbors, given its current value.
/// `None` means "nothing" (e.g. unreached BFS vertices).
pub(crate) type ContribFn = fn(u64) -> Option<u64>;

/// Generic min-propagation engine; `init(v)` seeds input vertex `v`'s
/// value.
pub(crate) fn min_propagate_darray(
    ctx: &mut Ctx,
    cluster: &Cluster,
    el: &EdgeList,
    init: impl Fn(usize) -> u64,
    contrib: ContribFn,
    pin: bool,
) -> PropagateResult {
    let n = el.vertices;
    let (Partition { locals, ids, .. }, opts) = partition(cluster, el);
    let min = cluster.ops().register_min_u64();
    let seed = |i| init(ids.input(i));
    let a = cluster.alloc_with::<u64>(n, opts.clone(), seed);
    let b = cluster.alloc_with::<u64>(n, opts, seed);
    let flags = cluster.alloc::<u64>(cluster.config().nodes, ArrayOptions::default());
    let run = supersteps(
        ctx,
        cluster,
        locals,
        [a, b],
        None,
        move |ctx, s| {
            let (g, src, dst) = (s.local, s.src, s.dst);
            copy_owned(ctx, g.owned.clone(), src, dst, pin);
            s.env.barrier(ctx);
            // Scatter min contributions along owned out-edges.
            prefetch_targets(ctx, g, dst, min);
            let walk = [(src, PinMode::Read)];
            walk_owned(ctx, g.owned.clone(), walk, pin, |ctx, [r], u| {
                if let Some(c) = contrib(r.get(ctx, u)) {
                    for &v in g.neighbors(u) {
                        dst.apply(ctx, v as usize, min, c);
                    }
                }
            });
            s.env.barrier(ctx);
            vote(ctx, s.env, &flags, g.owned.clone(), src, dst, pin)
        },
        |_, _, _| {},
    );
    PropagateResult {
        elapsed: run.elapsed,
        values: ids.to_input_order(&run.values),
        rounds: run.rounds,
    }
}

/// Distributed Connected Components: every vertex converges to the minimum
/// vertex id in its (undirected) component.
pub fn cc_darray(ctx: &mut Ctx, cluster: &Cluster, el: &EdgeList, pin: bool) -> PropagateResult {
    let sym = el.symmetrized();
    min_propagate_darray(ctx, cluster, &sym, |v| v as u64, Some, pin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::cc_ref;
    use crate::rmat::rmat;
    use darray::{ClusterConfig, Sim, SimConfig};

    fn run_cc(nodes: usize, pin: bool) -> (PropagateResult, Vec<u64>) {
        let el = rmat(9, 2, 11);
        let want = cc_ref(&el);
        let got = Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::test_config(nodes));
            let r = cc_darray(ctx, &cluster, &el, pin);
            cluster.shutdown(ctx);
            r
        });
        (got, want)
    }

    #[test]
    fn cc_matches_reference_multi_node() {
        let (got, want) = run_cc(3, false);
        assert_eq!(got.values, want);
        assert!(got.rounds >= 1);
    }

    #[test]
    fn cc_pin_variant_matches() {
        let (got, want) = run_cc(2, true);
        assert_eq!(got.values, want);
    }

    #[test]
    fn cc_single_node_matches() {
        let (got, want) = run_cc(1, false);
        assert_eq!(got.values, want);
    }
}
