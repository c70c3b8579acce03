//! Per-node subgraphs: every node owns a chunk-aligned vertex range
//! (matching the DArray partition) and stores the out-edges of its owned
//! vertices locally — the "reuse the computation engine" part of porting a
//! single-machine engine (§5.1).
//!
//! The engines do not partition input ids. [`LocalGraph::partition_balanced`]
//! first gives every vertex an engine-internal id ([`Numbering`]) that
//! deals the heavy vertices over all chunks, so that the chunk-aligned
//! split can balance edges; the engines seed their arrays and return
//! their results through that numbering.

use std::cmp::Reverse;

use darray::{Layout, DEFAULT_CHUNK_SIZE};

use crate::csr::{Csr, EdgeList};

/// The subgraph one node computes on. After
/// [`LocalGraph::partition_balanced`], every vertex id it holds (`owned`,
/// `targets`, `neighbors`) is an internal id of the partition's
/// [`Numbering`].
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
    /// are the out-neighbors of owned vertex `u`.
    csr: Csr,
}

/// The engine-internal vertex numbering of a balanced partition: a
/// permutation of `0..vertices` between input ids and internal ids.
pub struct Numbering {
    /// `internal[v]` is input vertex `v`'s internal id.
    internal: Vec<u32>,
    /// `input[i]` is the input vertex whose internal id is `i`.
    input: Vec<u32>,
}

impl Numbering {
    /// Deal the vertices of `el` over its `chunk`-vertex chunks in
    /// descending out-degree order, ties broken by id: the k-th vertex
    /// takes the next free slot of chunk `k mod chunks`, so every chunk
    /// gets an equal share of the heavy head. A short last chunk drops out
    /// of the deal once it is full.
    fn deal(el: &EdgeList, chunk: usize) -> Self {
        let n = el.vertices;
        let mut degree = vec![0u32; n];
        for &(u, _) in &el.edges {
            degree[u as usize] += 1;
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&v| (Reverse(degree[v as usize]), v));
        let chunks = n.div_ceil(chunk).max(1);
        let tail = n - (chunks - 1) * chunk;
        let mut internal = vec![0u32; n];
        let mut input = vec![0u32; n];
        for (k, &v) in order.iter().enumerate() {
            let (c, slot) = if k < chunks * tail {
                (k % chunks, k / chunks)
            } else {
                let k = k - chunks * tail;
                (k % (chunks - 1), tail + k / (chunks - 1))
            };
            let i = c * chunk + slot;
            internal[v as usize] = i as u32;
            input[i] = v;
        }
        Self { internal, input }
    }

    /// Input vertex `v`'s internal id.
    #[inline]
    pub fn internal(&self, v: usize) -> usize {
        self.internal[v] as usize
    }

    /// The input vertex whose internal id is `i`.
    #[inline]
    pub fn input(&self, i: usize) -> usize {
        self.input[i] as usize
    }

    /// `values`, indexed by internal id, in input order.
    pub fn to_input_order<T: Copy>(&self, values: &[T]) -> Vec<T> {
        self.internal.iter().map(|&i| values[i as usize]).collect()
    }
}

/// What [`LocalGraph::partition_balanced`] returns.
pub struct Partition {
    /// One subgraph per node, in internal ids.
    pub locals: Vec<LocalGraph>,
    /// The first internal id each node owns: the vertex arrays'
    /// `ArrayOptions::partition_offset`, so they use the same homes.
    pub offsets: Vec<usize>,
    /// The internal ids.
    pub ids: Numbering,
}

impl LocalGraph {
    /// Partition `el` over `nodes` nodes in input ids; returns one
    /// `LocalGraph` per node. The partition matches
    /// `Layout::even(vertices, nodes, 512)`, i.e. the default DArray
    /// partition of the vertex arrays. No engine uses it: it is the
    /// unbalanced split that [`LocalGraph::partition_balanced`] improves
    /// on.
    pub fn partition(el: &EdgeList, nodes: usize) -> Vec<LocalGraph> {
        let layout = Layout::even(el.vertices, nodes, DEFAULT_CHUNK_SIZE);
        Self::split(el, &layout, |v| v)
    }

    /// The partition every graph engine uses: chunk-aligned contiguous
    /// ranges of internal ids with roughly equal out-edge counts per node.
    /// R-MAT graphs concentrate high-degree vertices at low ids, so no
    /// chunk-aligned split of the input ids balances them: the few chunks
    /// at the head hold most of the edges. Real engines balance by edges
    /// (Gemini's chunk-based partitioning, and DArray through its
    /// `partition_offset` constructor argument), and Graph500 permutes
    /// vertex labels, so the split runs over a [`Numbering`] that spreads
    /// the head over every chunk. Every node takes at least one chunk when
    /// there are as many chunks as nodes.
    pub fn partition_balanced(el: &EdgeList, nodes: usize) -> Partition {
        let chunk = DEFAULT_CHUNK_SIZE;
        let ids = Numbering::deal(el, chunk);
        let num_chunks = el.vertices.div_ceil(chunk).max(1);
        let mut chunk_edges = vec![0u64; num_chunks];
        for &(u, _) in &el.edges {
            chunk_edges[ids.internal(u as usize) / chunk] += 1;
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
            let (first, later) = (c, nodes - i - 1);
            // Take at least one chunk, then more up to the target while
            // one is left for every later node.
            while c < num_chunks && (c == first || (acc < target && c + later < num_chunks)) {
                acc += weights[c];
                c += 1;
            }
        }
        let layout = Layout::custom(el.vertices, nodes, chunk, &offsets);
        let locals = Self::split(el, &layout, |v| ids.internal(v as usize) as u32);
        Partition {
            locals,
            offsets,
            ids,
        }
    }

    /// Give each node of `layout` the out-edges of its owned vertices,
    /// each endpoint mapped through `id`, and record which other homes'
    /// chunks those edges reach.
    fn split(el: &EdgeList, layout: &Layout, id: impl Fn(u32) -> u32) -> Vec<LocalGraph> {
        let nodes = layout.nodes();
        let mut per_node_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nodes];
        let mut reached = vec![vec![false; layout.num_chunks()]; nodes];
        for &(u, v) in &el.edges {
            let (u, v) = (id(u), id(v));
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

    /// Out-degree of owned vertex `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        self.csr.degree(u - self.owned.start)
    }

    /// Out-neighbors of owned vertex `u`.
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
    use rdma_fabric::CostModel;

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
        let even = LocalGraph::partition(&el, 4);
        let Partition {
            locals: bal,
            offsets,
            ..
        } = LocalGraph::partition_balanced(&el, 4);
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

    /// The numbering is a permutation, and the subgraphs hold exactly the
    /// input edges under it, also when the last chunk is short.
    #[test]
    fn numbering_permutes_and_keeps_every_edge() {
        let short_tail = EdgeList {
            vertices: 1100,
            edges: rmat(10, 4, 3).edges,
        };
        for (el, nodes) in [(rmat(11, 4, 2), 3), (short_tail, 2)] {
            let p = LocalGraph::partition_balanced(&el, nodes);
            let mut taken = vec![false; el.vertices];
            for v in 0..el.vertices {
                let i = p.ids.internal(v);
                assert_eq!(p.ids.input(i), v);
                assert!(!std::mem::replace(&mut taken[i], true), "id {i} twice");
            }
            let input = |v: usize| p.ids.input(v) as u32;
            let mut got: Vec<(u32, u32)> = p
                .locals
                .iter()
                .flat_map(|g| {
                    g.owned.clone().flat_map(move |u| {
                        g.neighbors(u)
                            .iter()
                            .map(move |&v| (input(u), input(v as usize)))
                    })
                })
                .collect();
            let mut want = el.edges.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{} vertices on {nodes} nodes", el.vertices);
        }
    }

    /// The greedy split used to give a node nothing when the node before
    /// it overshot its target: on rMat14 node 1 of 8, and nodes 1 and 2
    /// of 12. A star puts all edges on one chunk even after the deal.
    #[test]
    fn every_node_takes_a_chunk() {
        let star = EdgeList {
            vertices: 8 * 512,
            edges: (1..8 * 512).map(|v| (0, v)).collect(),
        };
        let rmat14 = rmat(14, 4, 24);
        for (el, nodes) in [(&star, 8), (&rmat14, 8), (&rmat14, 12)] {
            let p = LocalGraph::partition_balanced(el, nodes);
            for (n, g) in p.locals.iter().enumerate() {
                assert!(!g.owned.is_empty(), "node {n} of {nodes} owns no chunk");
            }
        }
    }

    /// `CostModel`'s cost of each node's PageRank walk, max over mean: a
    /// fast-path access to reset every owned vertex and to read each one
    /// with out-edges, and a fast-path access plus a combine per `apply`.
    /// The slowest node's walk sets the round.
    fn walk_imbalance(el: &EdgeList, nodes: usize) -> f64 {
        let c = CostModel::default();
        let (access, apply) = (c.darray_fast_path(), c.darray_fast_path() + c.op_apply_ns);
        let cost: Vec<u64> = LocalGraph::partition_balanced(el, nodes)
            .locals
            .iter()
            .map(|g| {
                let with_edges = g.owned.clone().filter(|&u| g.degree(u) > 0).count();
                access * (g.owned.len() + with_edges) as u64 + apply * g.local_edges() as u64
            })
            .collect();
        let max = *cost.iter().max().unwrap() as f64;
        max * nodes as f64 / cost.iter().sum::<u64>() as f64
    }

    /// The input-order split gives 1.073 and 1.62 here.
    #[test]
    fn walk_cost_is_balanced() {
        let four = walk_imbalance(&rmat(16, 16, 1), 4);
        assert!(four <= 1.03, "rmat(16, 16, 1) on 4 nodes: max/mean {four}");
        let eight = walk_imbalance(&rmat(14, 4, 24), 8);
        assert!(
            eight <= 1.25,
            "rmat(14, 4, 24) on 8 nodes: max/mean {eight}"
        );
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
