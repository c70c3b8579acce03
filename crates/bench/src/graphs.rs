//! Figure 16: PageRank and Connected Components running time across the
//! four engines (DArray, DArray-Pin, GAM, Gemini).

use crate::report::cluster_traffic;
use darray::{Cluster, NodeStatsSnapshot, Sim, SimConfig, VTime};
use darray_graph::cc::cc_darray;
use darray_graph::gam_engine::{cc_gam, pagerank_gam};
use darray_graph::gemini::{cc_gemini, pagerank_gemini};
use darray_graph::pagerank::pagerank_darray;
use darray_graph::rmat;
use gam::{gam_config, GamCluster};
use rdma_fabric::NetConfig;

/// The engine under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphSys {
    DArray,
    DArrayPin,
    Gam,
    Gemini,
}

impl GraphSys {
    pub fn label(self) -> &'static str {
        match self {
            GraphSys::DArray => "DArray",
            GraphSys::DArrayPin => "DArray-Pin",
            GraphSys::Gam => "GAM",
            GraphSys::Gemini => "Gemini",
        }
    }
}

/// Which algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    PageRank,
    Cc,
}

impl Algo {
    pub fn label(self) -> &'static str {
        match self {
            Algo::PageRank => "PR",
            Algo::Cc => "CC",
        }
    }
}

/// Run one (engine, algorithm, node-count) cell of Figure 16 on an rMAT
/// graph of the given scale; returns the virtual running time in ns.
pub fn graph_cell(
    sys: GraphSys,
    algo: Algo,
    nodes: usize,
    scale: u32,
    edge_factor: usize,
    pr_iters: usize,
) -> VTime {
    graph_cell_with_traffic(sys, algo, nodes, scale, edge_factor, pr_iters).0
}

/// [`graph_cell`] plus the cluster-wide protocol traffic of the run —
/// `Some` for the DArray engines (which expose `NodeStats`), `None` for
/// the GAM and Gemini comparison engines.
pub fn graph_cell_with_traffic(
    sys: GraphSys,
    algo: Algo,
    nodes: usize,
    scale: u32,
    edge_factor: usize,
    pr_iters: usize,
) -> (VTime, Option<NodeStatsSnapshot>) {
    let el = rmat(scale, edge_factor, 24);
    match sys {
        GraphSys::DArray | GraphSys::DArrayPin => {
            let pin = sys == GraphSys::DArrayPin;
            Sim::new(SimConfig::default()).run(move |ctx| {
                let cluster = Cluster::new(ctx, crate::bench_cluster_config(nodes));
                let t = match algo {
                    Algo::PageRank => pagerank_darray(ctx, &cluster, &el, pr_iters, pin).elapsed,
                    Algo::Cc => cc_darray(ctx, &cluster, &el, pin).elapsed,
                };
                let traffic = cluster_traffic(&cluster);
                cluster.shutdown(ctx);
                (t, Some(traffic))
            })
        }
        GraphSys::Gam => Sim::new(SimConfig::default()).run(move |ctx| {
            let g = GamCluster::with_config(ctx, gam_config(nodes));
            let t = match algo {
                Algo::PageRank => pagerank_gam(ctx, &g, &el, pr_iters).elapsed,
                Algo::Cc => cc_gam(ctx, &g, &el).elapsed,
            };
            g.shutdown(ctx);
            (t, None)
        }),
        GraphSys::Gemini => Sim::new(SimConfig::default()).run(move |ctx| {
            let t = match algo {
                Algo::PageRank => {
                    pagerank_gemini(ctx, &el, nodes, pr_iters, NetConfig::default()).elapsed
                }
                Algo::Cc => cc_gemini(ctx, &el, nodes, NetConfig::default()).elapsed,
            };
            (t, None)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gam_is_orders_of_magnitude_slower_than_darray() {
        let d = graph_cell(GraphSys::DArray, Algo::PageRank, 3, 12, 4, 2);
        let g = graph_cell(GraphSys::Gam, Algo::PageRank, 3, 12, 4, 2);
        // The gap widens further with scale and node count (the full
        // Figure 16 shows 3 orders of magnitude).
        assert!(g > d * 30, "gam {g} vs darray {d}");
    }

    #[test]
    fn gemini_wins_on_one_node() {
        let d = graph_cell(GraphSys::DArrayPin, Algo::PageRank, 1, 10, 4, 2);
        let g = graph_cell(GraphSys::Gemini, Algo::PageRank, 1, 10, 4, 2);
        assert!(g < d, "gemini {g} should beat darray-pin {d} on one node");
    }
}
