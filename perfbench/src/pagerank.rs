//! `pagerank-rmat16`: non-Pin `pagerank_darray` on an R-MAT graph, checked
//! against the single-threaded reference.

use std::time::Instant;

use darray::{Cluster, Sim, SimConfig};
use darray_graph::pagerank::pagerank_darray;
use darray_graph::reference::pagerank_ref;
use darray_graph::rmat;

use crate::{cluster_config, measure, Rep, Spans};

/// Ranks must match the reference within this relative error.
const TOLERANCE: f64 = 1e-9;

pub(crate) fn run(scale: u32, edge_factor: usize, iters: usize, seed: u64, traced: bool) -> Rep {
    let setup_start = Instant::now();
    let el = rmat(scale, edge_factor, seed);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cluster_config());
        let setup = setup_start.elapsed();

        let (pr, mut virt, window_cpu) = measure(ctx, &cluster, |ctx| {
            pagerank_darray(ctx, &cluster, &el, iters, false)
        });
        cluster.shutdown(ctx);

        let want = pagerank_ref(&el, iters);
        let wrong = want
            .iter()
            .zip(&pr.ranks)
            .filter(|(w, g)| (*w - *g).abs() > TOLERANCE * w.abs().max(g.abs()))
            .count();
        virt.ops = (el.edges.len() * iters) as u64;
        virt.window_ns = pr.elapsed;
        virt.attempted = virt.ops;
        virt.failed = (wrong + want.len().abs_diff(pr.ranks.len())) as u64;
        Rep {
            virt,
            spans: traced.then(Spans::default),
            setup,
            window_cpu,
        }
    })
}
