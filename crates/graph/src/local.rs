//! Per-node subgraphs: every node owns a chunk-aligned vertex range
//! (matching the DArray partition) and stores the out-edges of its owned
//! vertices locally — the "reuse the computation engine" part of porting a
//! single-machine engine (§5.1).

use darray::{Layout, DEFAULT_CHUNK_SIZE};

use crate::csr::{Csr, EdgeList};

/// The subgraph one node computes on.
pub struct LocalGraph {
    /// Owned vertex range (chunk-aligned, same partition as the vertex
    /// arrays).
    pub owned: std::ops::Range<usize>,
    /// Total vertices in the global graph.
    pub vertices: usize,
    /// The first index of each chunk that an owned vertex's out-edge
    /// reaches and another node homes, ascending: the chunks a scatter
    /// over this node's edges needs Operate rights on from other homes.
    pub targets: Vec<usize>,
    /// CSR restricted to owned sources; `csr.neighbors(u - owned.start)`
    /// are the out-neighbors of global vertex `u`.
    csr: Csr,
}

impl LocalGraph {
    /// Partition `el` over `nodes` nodes; returns one `LocalGraph` per
    /// node. The partition matches `Layout::even(vertices, nodes, 512)`,
    /// i.e. the default DArray partition of the vertex arrays.
    pub fn partition(el: &EdgeList, nodes: usize) -> Vec<LocalGraph> {
        Self::split(el, &Layout::even(el.vertices, nodes, DEFAULT_CHUNK_SIZE))
    }

    /// Edge-balanced partition: chunk-aligned contiguous vertex ranges with
    /// roughly equal out-edge counts per node. R-MAT graphs concentrate
    /// high-degree vertices at low ids, so the even split of
    /// [`LocalGraph::partition`] would leave node 0 with most of the work;
    /// real engines (Gemini's chunk-based partitioning, and DArray through
    /// its `partition_offset` constructor argument) balance by edges.
    /// Returns the per-node subgraphs plus the element offsets to pass as
    /// `ArrayOptions::partition_offset` so the vertex arrays use the same
    /// homes.
    pub fn partition_balanced(el: &EdgeList, nodes: usize) -> (Vec<LocalGraph>, Vec<usize>) {
        let chunk = DEFAULT_CHUNK_SIZE;
        let num_chunks = el.vertices.div_ceil(chunk).max(1);
        let mut chunk_edges = vec![0u64; num_chunks];
        for &(u, _) in &el.edges {
            chunk_edges[u as usize / chunk] += 1;
        }
        // Weight chunks by edges plus a small vertex term so empty regions
        // still spread out.
        let weights: Vec<u64> = chunk_edges.iter().map(|&e| e + 8).collect();
        let total: u64 = weights.iter().sum();
        let mut offsets = Vec::with_capacity(nodes);
        let mut acc = 0u64;
        let mut c = 0usize;
        for i in 0..nodes {
            offsets.push((c * chunk).min(el.vertices));
            let target = total * (i as u64 + 1) / nodes as u64;
            while c < num_chunks && acc < target {
                // Leave at least one chunk per remaining node.
                if num_chunks - c < nodes - i {
                    break;
                }
                acc += weights[c];
                c += 1;
            }
        }
        let layout = Layout::custom(el.vertices, nodes, chunk, &offsets);
        (Self::split(el, &layout), offsets)
    }

    /// Give each node of `layout` the out-edges of its owned vertices,
    /// and record which other homes' chunks those edges reach.
    fn split(el: &EdgeList, layout: &Layout) -> Vec<LocalGraph> {
        let nodes = layout.nodes();
        let mut per_node_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nodes];
        let mut reached = vec![vec![false; layout.num_chunks()]; nodes];
        for &(u, v) in &el.edges {
            let owner = layout.home_of(u as usize);
            per_node_edges[owner].push((u, v));
            reached[owner][layout.chunk_of(v as usize)] = true;
        }
        (0..nodes)
            .map(|n| {
                let owned = layout.node_elems(n);
                let local_el = EdgeList {
                    vertices: owned.len(),
                    edges: per_node_edges[n]
                        .iter()
                        .map(|&(u, v)| (u - owned.start as u32, v))
                        .collect(),
                };
                let targets = (0..layout.num_chunks())
                    .filter(|&c| reached[n][c] && layout.home_of_chunk(c) != n)
                    .map(|c| layout.chunk_first_elem(c))
                    .collect();
                LocalGraph {
                    owned,
                    vertices: el.vertices,
                    targets,
                    csr: Csr::from_edges(&local_el),
                }
            })
            .collect()
    }

    /// Out-degree of owned global vertex `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.csr.degree(u - self.owned.start)
    }

    /// Out-neighbors (global ids) of owned global vertex `u`.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        self.csr.neighbors(u - self.owned.start)
    }

    /// Number of locally stored edges.
    pub fn local_edges(&self) -> usize {
        self.csr.edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::rmat;

    #[test]
    fn partition_covers_all_vertices_and_edges() {
        let el = rmat(11, 4, 2);
        let parts = LocalGraph::partition(&el, 3);
        let total_vertices: usize = parts.iter().map(|p| p.owned.len()).sum();
        assert_eq!(total_vertices, el.vertices);
        let total_edges: usize = parts.iter().map(|p| p.local_edges()).sum();
        assert_eq!(total_edges, el.edges.len());
    }

    #[test]
    fn neighbors_match_global_graph() {
        let el = rmat(9, 4, 5);
        let global = Csr::from_edges(&el);
        let parts = LocalGraph::partition(&el, 4);
        for p in &parts {
            for u in p.owned.clone() {
                let mut a: Vec<u32> = p.neighbors(u).to_vec();
                let mut b: Vec<u32> = global.neighbors(u).to_vec();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "vertex {u}");
            }
        }
    }

    #[test]
    fn balanced_partition_equalizes_edges() {
        let el = rmat(13, 8, 4);
        let (even, _) = (LocalGraph::partition(&el, 4), 0);
        let (bal, offsets) = LocalGraph::partition_balanced(&el, 4);
        let max_even = even.iter().map(|p| p.local_edges()).max().unwrap();
        let max_bal = bal.iter().map(|p| p.local_edges()).max().unwrap();
        assert!(max_bal < max_even, "balanced {max_bal} vs even {max_even}");
        // Offsets are chunk-aligned, non-decreasing, start at 0.
        assert_eq!(offsets[0], 0);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(offsets.iter().all(|o| o % 512 == 0 || *o == el.vertices));
        // Edges and vertices fully covered.
        let tv: usize = bal.iter().map(|p| p.owned.len()).sum();
        let te: usize = bal.iter().map(|p| p.local_edges()).sum();
        assert_eq!(tv, el.vertices);
        assert_eq!(te, el.edges.len());
        // Max node is within 2x of the mean (the even split is far worse).
        assert!(max_bal <= 2 * el.edges.len() / 4 + 512);
    }

    #[test]
    fn ownership_is_chunk_aligned() {
        let el = rmat(12, 2, 1);
        let parts = LocalGraph::partition(&el, 5);
        for p in &parts {
            assert_eq!(p.owned.start % 512, 0);
        }
    }
}
