//! # darray-graph — distributed graph analytics (§5.1)
//!
//! "To port a single-machine graph analytics engine to a distributed one,
//! we could simply replace the built-in arrays with our DArray ... and
//! reuse the computation engine and task scheduling components."
//!
//! This crate provides:
//!
//! * [`mod@rmat`] — the Graph500 R-MAT generator (the paper evaluates on
//!   rMat24: 2²⁴ vertices, 2²⁶ edges; the harness defaults to smaller
//!   scales, same structure);
//! * [`csr`] — compressed sparse row graphs;
//! * [`local`] — per-node subgraphs (each node owns a chunk-aligned vertex
//!   range and the out-edges of its owned vertices), and the one partition
//!   every engine shares: internal vertex ids that deal high-degree
//!   vertices over all chunks, split by edges;
//! * [`pagerank`] / [`cc`] / [`bfs`] — PageRank, Connected Components and
//!   BFS over DArray, in plain and Pin-optimized variants (Figure 8's
//!   pattern: `apply(dst, add, contribution)` with local combining); they
//!   and [`sssp`] are per-round steps of one superstep loop, and `pin`
//!   only chooses whether each owned chunk window is pinned. A PageRank
//!   round is one walk of the owned vertices and one barrier; a CC, BFS
//!   or SSSP round is a seed copy, a scatter and a convergence vote, with
//!   three barriers. Each walk hints its next window's rights, and each
//!   scatter its targets' Operate grants, ahead of use
//!   (`DArray::prefetch`);
//! * [`gam_engine`] — the same algorithms ported to the GAM baseline
//!   (Atomic-verb neighbor updates under exclusive ownership);
//! * [`gemini`] — a Gemini-style bulk-synchronous message-passing baseline
//!   engine (dense-mode partition-aggregated delta exchange with a global
//!   barrier per superstep);
//! * [`sssp`] — weighted single-source shortest paths (extension);
//! * [`mod@reference`] — single-threaded reference implementations used by the
//!   test suite.

pub mod bfs;
pub mod cc;
pub mod csr;
mod engine;
pub mod gam_engine;
pub mod gemini;
pub mod local;
pub mod pagerank;
pub mod reference;
pub mod rmat;
pub mod sssp;

pub use csr::{Csr, EdgeList};
pub use local::LocalGraph;
pub use rmat::rmat;
