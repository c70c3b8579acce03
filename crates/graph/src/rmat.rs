//! R-MAT graph generator (Chakrabarti, Zhan, Faloutsos 2004) with the
//! Graph500 parameters, as used for the paper's input graph ("The input
//! graph, rMat24, containing 2²⁴ vertices and 2²⁶ edges, is generated by
//! the RMAT generator in Graph500", §6.4).

use workloads::Rng;

use crate::csr::EdgeList;

/// Graph500 R-MAT quadrant probabilities.
pub const A: f64 = 0.57;
pub const B: f64 = 0.19;
pub const C: f64 = 0.19;

/// The draw of [`Rng::next_f64`] is `k · 2⁻⁵³` for `k = next_u64() >> 11`.
const DRAW_SHIFT: u32 = 11;

/// The quadrant cut points `A`, `A+B` and `A+B+C`, each scaled by 2⁵³.
///
/// Each sum is an f64 in `[0.5, 1)`, where neighbouring f64s are 2⁻⁵³
/// apart, so each scaled cut is an exact integer, and a draw `k · 2⁻⁵³`
/// lies below the cut `p` exactly when `k` lies below `p · 2⁵³`. Comparing
/// the integer `k` therefore picks the quadrant the float comparison
/// `r < A`, `r < A + B`, `r < A + B + C` picks, for every draw.
fn cuts() -> [u64; 3] {
    let scale = (1u64 << 53) as f64;
    [A, A + B, A + B + C].map(|p| {
        debug_assert!((0.5..1.0).contains(&p));
        (p * scale) as u64
    })
}

/// The quadrant (0 to 3) of draw `k`: how many of the cuts lie at or
/// below it.
#[inline]
fn quadrant(k: u64, [a, ab, abc]: &[u64; 3]) -> u64 {
    (k >= *a) as u64 + (k >= *ab) as u64 + (k >= *abc) as u64
}

/// Generate an R-MAT graph with `2^scale` vertices and
/// `edge_factor * 2^scale` directed edges (Graph500 uses rMatN = scale N;
/// the paper's rMat24 has edge factor 4). Deterministic in `seed`.
///
/// Each level draws once and picks its quadrant without a branch: its
/// index is how many of the integers `A·2⁵³`, `(A+B)·2⁵³` and
/// `(A+B+C)·2⁵³` (all exact) lie at or below the draw's top 53 bits, its
/// high bit the source's bit and its low bit the target's. For every draw
/// that is the quadrant the float comparisons `r < A`, `r < A+B`,
/// `r < A+B+C` pick.
///
/// Panics if `scale > 32`: vertex ids are `u32`.
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> EdgeList {
    assert!(scale <= 32, "rmat: scale {scale} > 32 overflows u32 ids");
    let n = 1usize << scale;
    let m = n * edge_factor;
    let cuts = cuts();
    let mut rng = Rng::new(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..scale {
            let q = quadrant(rng.next_u64() >> DRAW_SHIFT, &cuts);
            u = u << 1 | q >> 1;
            v = v << 1 | q & 1;
        }
        edges.push((u as u32, v as u32));
    }
    EdgeList { vertices: n, edges }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator as first written: one float draw per level, three
    /// branches. [`rmat`] must reproduce its every edge.
    fn rmat_float(scale: u32, edge_factor: usize, seed: u64) -> EdgeList {
        let n = 1usize << scale;
        let m = n * edge_factor;
        let mut rng = Rng::new(seed);
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let (mut u, mut v) = (0usize, 0usize);
            for level in (0..scale).rev() {
                let r = rng.next_f64();
                let (du, dv) = if r < A {
                    (0, 0)
                } else if r < A + B {
                    (0, 1)
                } else if r < A + B + C {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u |= du << level;
                v |= dv << level;
            }
            edges.push((u as u32, v as u32));
        }
        EdgeList { vertices: n, edges }
    }

    /// FNV-1a over the edge list, each edge as one `u64`.
    fn checksum(el: &EdgeList) -> u64 {
        el.edges.iter().fold(0xcbf2_9ce4_8422_2325, |h, &(u, v)| {
            (h ^ ((u as u64) << 32 | v as u64)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Random draws almost never land on a cut, so check the draws on
    /// either side of each one, and the extremes, against the float
    /// comparisons [`Rng::next_f64`]'s value would meet.
    #[test]
    fn quadrants_match_the_float_comparisons_at_every_cut() {
        let cuts = cuts();
        let draws = cuts.iter().flat_map(|&c| [c - 1, c, c + 1]);
        for k in draws.chain([0, (1 << 53) - 1]) {
            let r = k as f64 * (1.0 / (1u64 << 53) as f64);
            let float = if r < A {
                0
            } else if r < A + B {
                1
            } else if r < A + B + C {
                2
            } else {
                3
            };
            assert_eq!(quadrant(k, &cuts), float, "draw {k}");
        }
    }

    #[test]
    fn matches_the_float_generator() {
        for (scale, edge_factor, seed) in [
            (0, 4, 1),
            (1, 1, 2),
            (3, 8, 0),
            (8, 4, 7),
            (10, 16, 1),
            (12, 2, 24),
            (13, 1, u64::MAX),
            (14, 1, 3),
        ] {
            let (int, float) = (
                rmat(scale, edge_factor, seed),
                rmat_float(scale, edge_factor, seed),
            );
            assert_eq!(int.vertices, float.vertices);
            assert!(
                int.edges == float.edges,
                "rmat({scale}, {edge_factor}, {seed}) differs from the float generator"
            );
        }
    }

    /// perfbench's `pagerank-rmat16` inputs, edge for edge. Debug builds
    /// take seconds to run the float generator at this size, so the check
    /// is compiled into release test builds only
    /// (`cargo test --release -p darray-graph`).
    #[cfg(not(debug_assertions))]
    #[test]
    fn full_size_matches_the_float_generator() {
        for seed in [1, 7] {
            assert!(
                rmat(16, 16, seed).edges == rmat_float(16, 16, seed).edges,
                "rmat(16, 16, {seed}) differs from the float generator"
            );
        }
    }

    #[test]
    fn perfbench_inputs_are_pinned() {
        // Taken from the float generator; a change here moves every
        // `pagerank-rmat16` number.
        assert_eq!(checksum(&rmat(16, 16, 1)), 0xe214_38fb_c52b_0f43);
        assert_eq!(checksum(&rmat(16, 16, 7)), 0x5261_705c_ce31_b10b);
    }

    #[test]
    #[should_panic(expected = "scale 33 > 32")]
    fn scale_above_32_panics() {
        assert_eq!(rmat(32, 0, 1).vertices, 1 << 32);
        rmat(33, 0, 1);
    }

    #[test]
    fn sizes_match_parameters() {
        let g = rmat(10, 4, 1);
        assert_eq!(g.vertices, 1024);
        assert_eq!(g.edges.len(), 4096);
        assert!(g
            .edges
            .iter()
            .all(|&(u, v)| (u as usize) < 1024 && (v as usize) < 1024));
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(rmat(8, 4, 7).edges, rmat(8, 4, 7).edges);
        assert_ne!(rmat(8, 4, 7).edges, rmat(8, 4, 8).edges);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // R-MAT with Graph500 parameters produces a heavy-tailed degree
        // distribution: the max out-degree far exceeds the average.
        let g = rmat(12, 8, 3);
        let mut deg = vec![0u64; g.vertices];
        for &(u, _) in &g.edges {
            deg[u as usize] += 1;
        }
        let avg = g.edges.len() as u64 / g.vertices as u64;
        let max = *deg.iter().max().unwrap();
        assert!(max > avg * 10, "max {max} avg {avg}");
    }

    #[test]
    fn low_ids_are_hotter() {
        // Quadrant a=0.57 biases both endpoints toward low vertex ids.
        let g = rmat(12, 8, 5);
        let half = g.vertices as u32 / 2;
        let low = g.edges.iter().filter(|&&(u, _)| u < half).count();
        assert!(
            low > g.edges.len() * 60 / 100,
            "low half has {low}/{}",
            g.edges.len()
        );
    }
}
