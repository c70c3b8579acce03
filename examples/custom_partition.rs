//! Custom partitioning (the constructor's `partition_offset` argument,
//! §3.2): place data where the work is.
//!
//! An R-MAT graph concentrates high-degree vertices at low ids, so an even
//! split of the input ids leaves node 0 with most of the edges. The graph
//! engines first give the vertices internal ids that deal the heavy ones
//! over every chunk, then split the internal ids by edges and pass that
//! split to the array constructor as `partition_offset`. This example
//! prints both layouts side by side, checks that the engines' partition
//! is the more balanced one, and runs PageRank on it against the
//! sequential reference.
//!
//! Run with: `cargo run --release --example custom_partition`

use darray::{Cluster, ClusterConfig, Sim, SimConfig};
use darray_graph::local::LocalGraph;
use darray_graph::pagerank::pagerank_darray;
use darray_graph::reference::pagerank_ref;
use darray_graph::rmat;

fn main() {
    let nodes = 4;
    let el = rmat(13, 8, 9);
    println!(
        "rMat13 with edge factor 8: {} vertices, {} edges\n",
        el.vertices,
        el.edges.len()
    );

    // The even split of the input ids (what you get without
    // partition_offset), beside the engines' partition of internal ids.
    let even = LocalGraph::partition(&el, nodes);
    let engine = LocalGraph::partition_balanced(&el, nodes);
    println!("        even split of input ids    engines' partition of internal ids");
    println!("node    vertices          edges    vertices          edges");
    for (n, (e, b)) in even.iter().zip(&engine.locals).enumerate() {
        println!(
            "{n:>4}    {:>6}..{:<6} {:>8}    {:>6}..{:<6} {:>8}",
            e.owned.start,
            e.owned.end,
            e.local_edges(),
            b.owned.start,
            b.owned.end,
            b.local_edges()
        );
    }
    println!("partition_offset = {:?}", engine.offsets);
    let max_edges = |parts: &[LocalGraph]| parts.iter().map(|p| p.local_edges()).max();
    let (max_even, max_engine) = (max_edges(&even), max_edges(&engine.locals));
    assert!(
        max_engine < max_even,
        "the engines' partition must balance edges better: {max_engine:?} vs {max_even:?}"
    );

    // The engine runs on that partition and returns the ranks in input
    // order.
    let iters = 3;
    let input = el.clone();
    let pr = Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, ClusterConfig::with_nodes(nodes));
        let r = pagerank_darray(ctx, &cluster, &input, iters, true);
        cluster.shutdown(ctx);
        r
    });
    let want = pagerank_ref(&el, iters);
    assert_eq!(pr.ranks.len(), want.len());
    for (v, (got, want)) in pr.ranks.iter().zip(&want).enumerate() {
        assert!(
            (got - want).abs() <= 1e-9 * got.abs().max(want.abs()),
            "vertex {v}: rank {got} vs reference {want}"
        );
    }
    println!(
        "\nPageRank ({iters} iterations, {nodes} nodes, DArray-Pin): {:.3} ms virtual; every rank matches the reference",
        pr.elapsed as f64 / 1e6
    );
}
