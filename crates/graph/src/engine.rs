//! The DArray graph engine (§5.1) that PageRank, CC, BFS and SSSP run on:
//! bulk-synchronous supersteps over two double-buffered vertex arrays,
//! where each phase walks a node's owned vertices one chunk window at a
//! time ([`walk_owned`]). A [`Window`] is the plain array or a pinned chunk
//! (§4.1); `pin` only chooses which, so each phase is written once for
//! both variants. A walk hints the next window's rights before it opens
//! the current one, so the next window's recall overlaps this one's work.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use darray::{
    ArrayOptions, Cluster, Ctx, DArray, Element, GlobalArray, NodeEnv, OpId, PinMode, Pinned, VTime,
};
use parking_lot::Mutex;

use crate::csr::EdgeList;
use crate::local::{LocalGraph, Partition};

/// One chunk window of an array, opened plain or pinned.
pub(crate) enum Window<'a, T: Element> {
    /// Every access takes the lock-free fast path.
    Plain(&'a DArray<T>),
    /// The chunk stays pinned until the window drops; accesses skip the
    /// per-access atomics.
    Pinned(Pinned<T>),
}

impl<'a, T: Element> Window<'a, T> {
    /// Open the window of `arr` that holds `start`, pinned in `mode` when
    /// `pin` is set.
    fn open(ctx: &mut Ctx, arr: &'a DArray<T>, start: usize, mode: PinMode, pin: bool) -> Self {
        if pin {
            Window::Pinned(arr.pin(ctx, start, mode))
        } else {
            Window::Plain(arr)
        }
    }

    pub(crate) fn get(&self, ctx: &mut Ctx, index: usize) -> T {
        match self {
            Window::Plain(a) => a.get(ctx, index),
            Window::Pinned(p) => p.get(ctx, index),
        }
    }

    pub(crate) fn set(&self, ctx: &mut Ctx, index: usize, value: T) {
        match self {
            Window::Plain(a) => a.set(ctx, index, value),
            Window::Pinned(p) => p.set(ctx, index, value),
        }
    }
}

/// Walk `owned` one chunk window at a time, calling `body` on each vertex
/// with that window of every array in `arrays` open in its mode (pinned
/// when `pin` is set). Before opening window k it hints window k+1 of
/// every array in the same mode ([`DArray::prefetch`]), so the next
/// window's recall or fill is in flight while this one is walked.
pub(crate) fn walk_owned<T: Element, const N: usize>(
    ctx: &mut Ctx,
    owned: Range<usize>,
    arrays: [(&DArray<T>, PinMode); N],
    pin: bool,
    mut body: impl FnMut(&mut Ctx, &[Window<'_, T>; N], usize),
) {
    let mut windows = arrays[0].0.chunk_windows(owned).peekable();
    while let Some(w) = windows.next() {
        if let Some(next) = windows.peek() {
            for (a, mode) in arrays {
                a.prefetch(ctx, next.start, mode);
            }
        }
        let open = arrays.map(|(a, mode)| Window::open(ctx, a, w.start, mode, pin));
        for v in w {
            body(ctx, &open, v);
        }
    }
}

/// Hint Operate rights under `op` on every chunk of `dst` that another
/// node homes and this node's out-edges reach ([`LocalGraph::targets`]),
/// so a scatter's grants are in flight before its first `apply`. Call it
/// after the barrier that opens the scatter: before it, a target's home
/// may still be reading the chunk.
pub(crate) fn prefetch_targets<T: Element>(
    ctx: &mut Ctx,
    g: &LocalGraph,
    dst: &DArray<T>,
    op: OpId,
) {
    for &t in &g.targets {
        dst.prefetch(ctx, t, PinMode::Operate(op));
    }
}

/// Partition `el` by edges over the cluster's nodes: the per-node
/// subgraphs and internal ids, and the options that give the vertex arrays
/// the same homes.
pub(crate) fn partition(cluster: &Cluster, el: &EdgeList) -> (Partition, ArrayOptions) {
    let p = LocalGraph::partition_balanced(el, cluster.config().nodes);
    let opts = homes(p.offsets.clone());
    (p, opts)
}

/// The options that home a vertex array's elements on the nodes of a
/// partition whose nodes start at `offsets`.
pub(crate) fn homes(offsets: Vec<usize>) -> ArrayOptions {
    ArrayOptions {
        chunk_size: None,
        partition_offset: Some(offsets),
    }
}

/// One node's view of one superstep.
pub(crate) struct Step<'a, T: Element, L> {
    pub env: &'a NodeEnv,
    /// This node's share of the graph.
    pub local: &'a L,
    /// The values the previous round left.
    pub src: &'a DArray<T>,
    /// The values this round computes.
    pub dst: &'a DArray<T>,
}

/// What a superstep run returns.
pub(crate) struct Supersteps<T> {
    /// Virtual time of the round loop and the `finish` pass (max over
    /// nodes), excluding graph loading and the final gather.
    pub elapsed: VTime,
    pub rounds: usize,
    /// The final values, gathered at node 0, by internal id.
    pub values: Vec<T>,
}

/// Run supersteps with one app thread per node, `locals[node]` being that
/// node's share. Round `r` reads `arrays[r % 2]` and writes
/// `arrays[(r + 1) % 2]`, and each step closes its round with its own
/// barrier. `Some(k)` runs `k` rounds; `None` runs until a step returns
/// false, which every node's step must agree on (as [`vote`] makes it),
/// and panics after `len + 2` rounds. Then each node runs `finish` on its
/// share and the array holding the final values (PageRank's damp pass),
/// inside the timed window; the barrier after the window orders it before
/// node 0's gather.
pub(crate) fn supersteps<T, L, S, F>(
    ctx: &mut Ctx,
    cluster: &Cluster,
    locals: Vec<L>,
    arrays: [GlobalArray<T>; 2],
    rounds: Option<usize>,
    step: S,
    finish: F,
) -> Supersteps<T>
where
    T: Element,
    L: Send + Sync + 'static,
    S: Fn(&mut Ctx, Step<'_, T, L>) -> bool + Send + Sync + 'static,
    F: Fn(&mut Ctx, &L, &DArray<T>) + Send + Sync + 'static,
{
    let elapsed = Arc::new(AtomicU64::new(0));
    let rounds_run = Arc::new(AtomicUsize::new(0));
    let out = Arc::new(Mutex::new(Vec::new()));
    let (e2, r2, o2) = (elapsed.clone(), rounds_run.clone(), out.clone());
    cluster.run(ctx, 1, move |ctx, env| {
        let arrs = [arrays[0].on(env.node), arrays[1].on(env.node)];
        let n = arrs[0].len();
        env.barrier(ctx);
        let t0 = ctx.now();
        let mut round = 0;
        while rounds.is_none_or(|k| round < k) {
            let more = step(
                ctx,
                Step {
                    env: &env,
                    local: &locals[env.node],
                    src: &arrs[round % 2],
                    dst: &arrs[(round + 1) % 2],
                },
            );
            round += 1;
            if !more {
                break;
            }
            assert!(rounds.is_some() || round <= n + 2, "failed to converge");
        }
        finish(ctx, &locals[env.node], &arrs[round % 2]);
        e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
        env.barrier(ctx);
        if env.node == 0 {
            r2.store(round, Ordering::Relaxed);
            let fin = &arrs[round % 2];
            *o2.lock() = (0..n).map(|i| fin.get(ctx, i)).collect();
        }
    });
    let values = std::mem::take(&mut *out.lock());
    Supersteps {
        elapsed: elapsed.load(Ordering::Relaxed),
        rounds: rounds_run.load(Ordering::Relaxed),
        values,
    }
}

/// Seed `dst` with `src` over the owned range.
pub(crate) fn copy_owned(
    ctx: &mut Ctx,
    owned: Range<usize>,
    src: &DArray<u64>,
    dst: &DArray<u64>,
    pin: bool,
) {
    let arrays = [(src, PinMode::Read), (dst, PinMode::Write)];
    walk_owned(ctx, owned, arrays, pin, |ctx, [s, d], v| {
        let x = s.get(ctx, v);
        d.set(ctx, v, x);
    });
}

/// The convergence vote: each node checks whether any owned value moved
/// from `src` to `dst` (reading an owned `dst` value first reduces its
/// outstanding combines), publishes that in its slot of `flags`, and
/// learns whether any node's moved.
///
/// It ends without a barrier: the caller must not write `flags`, or
/// another node's elements of `src` and `dst`, until a barrier that every
/// node reaches only after its vote returns. The propagation rounds meet
/// that: the next round's seed copy writes owned elements only, and its
/// barrier comes before any scatter or vote.
pub(crate) fn vote(
    ctx: &mut Ctx,
    env: &NodeEnv,
    flags: &GlobalArray<u64>,
    owned: Range<usize>,
    src: &DArray<u64>,
    dst: &DArray<u64>,
    pin: bool,
) -> bool {
    let mut changed = false;
    let arrays = [(src, PinMode::Read), (dst, PinMode::Read)];
    walk_owned(ctx, owned, arrays, pin, |ctx, [s, d], v| {
        changed |= s.get(ctx, v) != d.get(ctx, v);
    });
    let flags = flags.on(env.node);
    flags.set(ctx, env.node, changed as u64);
    env.barrier(ctx);
    let mut any = false;
    for i in 0..env.nodes {
        any |= flags.get(ctx, i) != 0;
    }
    any
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::{partition, supersteps};
    use crate::bfs::bfs_darray;
    use crate::cc::cc_darray;
    use crate::csr::EdgeList;
    use crate::local::LocalGraph;
    use crate::pagerank::pagerank_darray;
    use crate::rmat::rmat;
    use crate::sssp::{random_weights, sssp_darray, EdgeWeights};
    use darray::{
        Cluster, ClusterConfig, Ctx, NodeStatsSnapshot, Sim, SimConfig, VTime, DEFAULT_CHUNK_SIZE,
    };

    /// Runs one engine, returning its time and rounds.
    type Engine = fn(&mut Ctx, &Cluster, &EdgeList, &EdgeWeights, bool) -> (VTime, usize);

    /// The element accesses a run of `rounds` rounds makes through owned
    /// windows, given `n` vertices of which `nz` have out-edges.
    type Windowed = fn(u64, u64, u64) -> u64;

    /// The value tests pass even if `pin` were ignored. Here the Pin
    /// variant must be faster, and must take exactly one fast-path hit
    /// fewer per windowed access, so a phase that ignored `pin` would fail.
    #[test]
    fn pin_reaches_every_phase() {
        let el = rmat(11, 4, 11);
        let w = random_weights(&el, 10, 5);
        let n = el.vertices as u64;
        let nz = el.edges.iter().map(|e| e.0).collect::<BTreeSet<_>>().len() as u64;
        let engines: [(&str, Engine, Windowed); 4] = [
            // Each round's walk (read vertices with out-edges, reset
            // every vertex), then the final damp (read, write).
            (
                "PR",
                |ctx, c, el, _, pin| (pagerank_darray(ctx, c, el, 2, pin).elapsed, 2),
                |n, nz, rounds| rounds * (n + nz) + 2 * n,
            ),
            // Copy (read, write), scatter (read), vote (read, read).
            (
                "CC",
                |ctx, c, el, _, pin| {
                    let r = cc_darray(ctx, c, el, pin);
                    (r.elapsed, r.rounds)
                },
                |n, _, rounds| 5 * n * rounds,
            ),
            (
                "BFS",
                |ctx, c, el, _, pin| {
                    let r = bfs_darray(ctx, c, el, 0, pin);
                    (r.elapsed, r.rounds)
                },
                |n, _, rounds| 5 * n * rounds,
            ),
            // Copy (read, write); relaxation and the vote read plainly.
            (
                "SSSP",
                |ctx, c, el, w, pin| {
                    let r = sssp_darray(ctx, c, el, w, 0, pin);
                    (r.elapsed, r.rounds)
                },
                |n, _, rounds| 2 * n * rounds,
            ),
        ];
        for (name, engine, windowed) in engines {
            let [plain, pinned] = [false, true].map(|pin| {
                let (el, w) = (el.clone(), w.clone());
                Sim::new(SimConfig::default()).run(move |ctx| {
                    let cluster = Cluster::new(ctx, ClusterConfig::test_config(2));
                    let (t, rounds) = engine(ctx, &cluster, &el, &w, pin);
                    let hits: u64 = (0..2).map(|i| cluster.stats(i).fast_hits).sum();
                    cluster.shutdown(ctx);
                    (t, rounds, hits)
                })
            });
            println!("{name}: plain {plain:?}, pin {pinned:?} (ns, rounds, fast hits)");
            assert_eq!(plain.1, pinned.1, "{name}: rounds differ");
            assert_eq!(
                plain.2 - pinned.2,
                windowed(n, nz, plain.1 as u64),
                "{name}: fast-path hits the Pin variant saved"
            );
            assert!(
                pinned.0 < plain.0,
                "{name}: pin {pinned:?} vs plain {plain:?}"
            );
        }
    }

    /// Runs PageRank (`Some(rounds)`) or CC (`None`) on 8 nodes and
    /// returns the rounds run and each node's counters.
    fn on_8_nodes(
        el: &EdgeList,
        pr_rounds: Option<usize>,
        pin: bool,
    ) -> (usize, Vec<NodeStatsSnapshot>) {
        let el = el.clone();
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::with_nodes(8));
            let rounds = match pr_rounds {
                Some(k) => {
                    pagerank_darray(ctx, &cluster, &el, k, pin);
                    k
                }
                None => cc_darray(ctx, &cluster, &el, pin).rounds,
            };
            let stats = (0..8).map(|n| cluster.stats(n)).collect();
            cluster.shutdown(ctx);
            (rounds, stats)
        })
    }

    /// Node 0's waits in the gather that ends every superstep run,
    /// measured alone: a run of no rounds over fresh arrays homed as
    /// `el`'s partition homes them.
    fn gather_waits(el: &EdgeList) -> u64 {
        let el = el.clone();
        Sim::new(SimConfig::default()).run(move |ctx| {
            let cluster = Cluster::new(ctx, ClusterConfig::with_nodes(8));
            let (p, opts) = partition(&cluster, &el);
            let arrays = [0; 2].map(|_| cluster.alloc::<u64>(el.vertices, opts.clone()));
            supersteps(
                ctx,
                &cluster,
                p.locals,
                arrays,
                Some(0),
                |_, _| true,
                |_, _, _| {},
            );
            let waits = cluster.stats(0).slow_misses;
            cluster.shutdown(ctx);
            waits
        })
    }

    /// (fills, recalls, operand flushes, frames), summed over nodes.
    fn traffic(stats: &[NodeStatsSnapshot]) -> [u64; 4] {
        let mut t = NodeStatsSnapshot::default();
        stats.iter().for_each(|s| t.merge(s));
        [t.fills, t.recalls, t.operand_flushes, t.frames]
    }

    /// Owned chunk windows and targets of each node's share of `el`.
    fn shares(el: &EdgeList) -> Vec<(u64, u64)> {
        LocalGraph::partition_balanced(el, 8)
            .locals
            .iter()
            .map(|g| {
                let windows = g.owned.len().div_ceil(DEFAULT_CHUNK_SIZE) as u64;
                (windows, g.targets.len() as u64)
            })
            .collect()
    }

    /// Blocks of 32 consecutive vertices, each vertex linked to the 12
    /// after it in its block, cyclically. Every vertex has out-degree 12,
    /// so the numbering deals vertex `k` to chunk `k mod 32`: an edge `j`
    /// steps along a block reaches the chunk `j` chunks on, and on 8 nodes
    /// (4 chunks each) each node's edges reach only the 12 chunks after
    /// its own.
    fn blocks() -> EdgeList {
        let edges = (0..32 * DEFAULT_CHUNK_SIZE as u32)
            .flat_map(|k| (1..=12).map(move |j| (k, k - k % 32 + (k + j) % 32)))
            .collect();
        EdgeList {
            vertices: 32 * DEFAULT_CHUNK_SIZE,
            edges,
        }
    }

    /// FIG_FAST's fig16 stops at 2 nodes, where every node's edges reach
    /// every chunk the other node homes. Once the numbering spreads the
    /// R-MAT head, so do they on 8 nodes; on [`blocks`] they do not, so a
    /// hint on a chunk no owned edge reaches would show here as an extra
    /// grant, recall and flush. The hints only move requests earlier:
    /// fills, recalls, operand flushes and frames equal the counts the
    /// engines make with both hint calls removed (pinned here, the same at
    /// 1, 2 and 4 runtime threads), while the waits fall.
    #[test]
    fn hints_add_no_traffic_on_8_nodes() {
        let el = blocks();
        let chunks = el.vertices.div_ceil(DEFAULT_CHUNK_SIZE) as u64;
        let pr = shares(&el);
        assert!(
            pr.iter().any(|&(owned, targets)| owned + targets < chunks),
            "every node's edges reach every chunk: {pr:?}"
        );
        for pin in [false, true] {
            let (_, two) = on_8_nodes(&el, Some(2), pin);
            let (_, three) = on_8_nodes(&el, Some(3), pin);
            assert_eq!(
                traffic(&two),
                [220, 192, 192, 852],
                "PageRank, 2 rounds, pin {pin}"
            );
            assert_eq!(
                traffic(&three),
                [316, 288, 288, 1236],
                "PageRank, 3 rounds, pin {pin}"
            );
            // Without hints a steady round waits on every owned window's
            // recall and every target's grant. With them a node waits at
            // most once per window (a short window can outrun the next
            // one's recall) and once on a grant, and the cluster waits on
            // fewer windows than it owns.
            let waits: Vec<u64> = (0..8)
                .map(|n| three[n].slow_misses - two[n].slow_misses)
                .collect();
            for (n, (&w, &(owned, _))) in waits.iter().zip(&pr).enumerate() {
                assert!(
                    w <= owned + 1,
                    "PageRank node {n}, pin {pin}: {w} waits in a round"
                );
            }
            let windows: u64 = pr.iter().map(|&(owned, _)| owned).sum();
            assert!(
                waits.iter().sum::<u64>() < windows,
                "PageRank, pin {pin}: {waits:?} waits in a round on {windows} windows"
            );
            let (rounds, cc) = on_8_nodes(&el, None, pin);
            assert_eq!(rounds, 3);
            assert_eq!(traffic(&cc), [645, 597, 576, 2602], "CC, pin {pin}");
            // Without hints each round's scatter alone waits once per
            // target. CC partitions the symmetrized graph. Node 0's count
            // also holds the gather after the rounds, so take out that
            // gather's waits, measured alone. No round reads another
            // home's element of either array, so the gather starts with
            // nothing cached in both runs; only the runtime's sequential
            // prefetcher remembers its last miss from the rounds, which has
            // saved the run's gather at most one wait here.
            let sym = el.symmetrized();
            let cc_shares = shares(&sym);
            let gather = gather_waits(&sym);
            assert!(
                gather <= chunks - cc_shares[0].0,
                "the gather waited {gather} times"
            );
            for (n, &(_, targets)) in cc_shares.iter().enumerate() {
                let in_rounds = cc[n].slow_misses - if n == 0 { gather } else { 0 };
                let per_round = in_rounds / rounds as u64;
                assert!(
                    targets == 0 || per_round < targets,
                    "CC node {n}, pin {pin}: {per_round} waits a round, {targets} targets"
                );
            }
        }
    }
}
