//! A Gemini-style distributed graph engine (Zhu et al., OSDI 2016) — the
//! specialized message-passing baseline of §6.4.
//!
//! Gemini partitions vertices across nodes and, instead of shared memory,
//! exchanges *bulk aggregated updates* every superstep: each node
//! accumulates its contributions to every peer's vertex range in local
//! mirror buffers, ships one dense message per peer, reduces incoming
//! buffers, then synchronizes on a global barrier. Single-node runs touch
//! plain local arrays with no abstraction overhead at all — which is why
//! Gemini beats DArray-Pin on one node (Figure 16) — but every superstep
//! moves O(|V|) bytes per node pair and stalls on the barrier, which is
//! the structural reason for its weaker scaling (paper: 0.28 / 0.09
//! scalability on PR / CC versus DArray-Pin's 0.55 / 0.74).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use dsim::{Ctx, JoinHandle, SimBarrier};
use parking_lot::Mutex;
use rdma_fabric::{CostModel, Fabric, NetConfig, Nic, NodeId};

use crate::cc::PropagateResult;
use crate::csr::EdgeList;
use crate::local::{LocalGraph, Partition};
use crate::pagerank::PrResult;

/// Messages between Gemini workers.
enum GMsg {
    /// Dense partial-update buffer for the receiver's vertex range.
    Delta { round: u32, data: Vec<u64> },
    /// Convergence flag for iterative algorithms.
    Flag { round: u32, changed: bool },
}

impl GMsg {
    fn bytes(&self) -> u64 {
        match self {
            GMsg::Delta { data, .. } => 8 + data.len() as u64 * 8,
            GMsg::Flag { .. } => 8,
        }
    }
}

struct Worker {
    node: NodeId,
    nodes: usize,
    nic: Arc<Nic<GMsg>>,
    stash: VecDeque<(NodeId, GMsg)>,
    cost: CostModel,
}

impl Worker {
    fn send(&self, ctx: &mut Ctx, dst: NodeId, msg: GMsg) {
        let bytes = msg.bytes();
        self.nic.send(ctx, dst, msg, bytes);
    }

    /// Collect one round's deltas from every peer (out-of-phase messages
    /// are stashed).
    fn collect_deltas(&mut self, ctx: &mut Ctx, round: u32) -> Vec<Vec<u64>> {
        let mut got = Vec::new();
        let mut i = 0;
        while i < self.stash.len() {
            if matches!(&self.stash[i].1, GMsg::Delta { round: r, .. } if *r == round) {
                if let Some((_, GMsg::Delta { data, .. })) = self.stash.remove(i) {
                    got.push(data);
                }
            } else {
                i += 1;
            }
        }
        let rx = self.nic.rx();
        while got.len() < self.nodes - 1 {
            let (src, msg) = rx.recv(ctx);
            ctx.charge(self.cost.rpc_handle_ns);
            match msg {
                GMsg::Delta { round: r, data } if r == round => got.push(data),
                other => self.stash.push_back((src, other)),
            }
        }
        got
    }

    /// Collect one round's flags; returns true if anyone changed.
    fn collect_flags(&mut self, ctx: &mut Ctx, round: u32) -> bool {
        let mut any = false;
        let mut seen = 0;
        let mut i = 0;
        while i < self.stash.len() {
            if matches!(&self.stash[i].1, GMsg::Flag { round: r, .. } if *r == round) {
                if let Some((_, GMsg::Flag { changed, .. })) = self.stash.remove(i) {
                    any |= changed;
                    seen += 1;
                }
            } else {
                i += 1;
            }
        }
        let rx = self.nic.rx();
        while seen < self.nodes - 1 {
            let (src, msg) = rx.recv(ctx);
            ctx.charge(self.cost.rpc_handle_ns);
            match msg {
                GMsg::Flag { round: r, changed } if r == round => {
                    any |= changed;
                    seen += 1;
                }
                other => self.stash.push_back((src, other)),
            }
        }
        any
    }
}

fn spawn_workers<F>(ctx: &mut Ctx, nodes: usize, net: NetConfig, f: F)
where
    F: Fn(&mut Ctx, Worker, SimBarrier) + Send + Sync + 'static,
{
    let fabric: Fabric<GMsg> = Fabric::new(nodes, net.clone());
    let barrier = SimBarrier::with_cost(nodes, 2 * net.prop_latency_ns);
    let f = Arc::new(f);
    let mut handles: Vec<JoinHandle> = Vec::new();
    for node in 0..nodes {
        let w = Worker {
            node,
            nodes,
            nic: fabric.nic(node),
            stash: VecDeque::new(),
            cost: CostModel::default(),
        };
        let b = barrier.clone();
        let f2 = f.clone();
        handles.push(ctx.spawn(&format!("gemini-{node}"), move |c| f2(c, w, b)));
    }
    for h in handles {
        h.join(ctx);
    }
}

/// Gemini PageRank: `iters` supersteps of dense delta exchange.
pub fn pagerank_gemini(
    ctx: &mut Ctx,
    el: &EdgeList,
    nodes: usize,
    iters: usize,
    net: NetConfig,
) -> PrResult {
    let n = el.vertices;
    let Partition { locals, ids, .. } = LocalGraph::partition_balanced(el, nodes);
    let locals = Arc::new(locals);
    let ranges: Arc<Vec<std::ops::Range<usize>>> =
        Arc::new(locals.iter().map(|l| l.owned.clone()).collect());
    let elapsed = Arc::new(AtomicU64::new(0));
    let out = Arc::new(Mutex::new(vec![0.0f64; n]));
    let (e2, o2) = (elapsed.clone(), out.clone());
    spawn_workers(ctx, nodes, net, move |ctx, mut w, barrier| {
        let me = w.node;
        let g = &locals[me];
        let owned = g.owned.clone();
        let cost = CostModel::default();
        // Per-edge: rank read, owner lookup, and an atomic add into the
        // mirror buffer (Gemini's scatter is multi-threaded in reality).
        let edge_ns = cost.native_access_ns * 2 + cost.atomic_rmw_ns;
        let mut rank = vec![1.0 / n as f64; owned.len()];
        barrier.wait(ctx);
        let t0 = ctx.now();
        for it in 0..iters as u32 {
            // Accumulate contributions into per-peer mirror buffers.
            let mut bufs: Vec<Vec<f64>> = ranges.iter().map(|r| vec![0.0; r.len()]).collect();
            for u in owned.clone() {
                let d = g.degree(u);
                ctx.charge(cost.native_access_ns + d as u64 * edge_ns);
                if d == 0 {
                    continue;
                }
                let c = rank[u - owned.start] / d as f64;
                for &v in g.neighbors(u) {
                    let v = v as usize;
                    let owner = ranges.partition_point(|r| r.end <= v).min(w.nodes - 1);
                    bufs[owner][v - ranges[owner].start] += c;
                }
            }
            // Ship every peer its dense buffer.
            #[allow(clippy::needless_range_loop)]
            for peer in 0..w.nodes {
                if peer == me {
                    continue;
                }
                let data: Vec<u64> = bufs[peer].iter().map(|x| x.to_bits()).collect();
                w.send(ctx, peer, GMsg::Delta { round: it, data });
            }
            let mut next = std::mem::take(&mut bufs[me]);
            // Reduce incoming buffers.
            for data in w.collect_deltas(ctx, it) {
                ctx.charge(cost.memcpy(data.len()) + data.len() as u64 * cost.op_apply_ns);
                for (i, bits) in data.into_iter().enumerate() {
                    next[i] += f64::from_bits(bits);
                }
            }
            // Damp.
            let base = 0.15 / n as f64;
            ctx.charge(owned.len() as u64 * cost.native_access_ns);
            for x in &mut next {
                *x = base + 0.85 * *x;
            }
            rank = next;
            barrier.wait(ctx);
        }
        e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
        // Gather (host-side; outside the timed window).
        o2.lock()[owned.clone()].copy_from_slice(&rank);
    });
    let ranks = ids.to_input_order(&out.lock());
    PrResult {
        elapsed: elapsed.load(Ordering::Relaxed),
        ranks,
    }
}

/// Gemini Connected Components: min-label propagation with bulk delta
/// exchange until no label changes anywhere.
pub fn cc_gemini(ctx: &mut Ctx, el: &EdgeList, nodes: usize, net: NetConfig) -> PropagateResult {
    let sym = el.symmetrized();
    let n = sym.vertices;
    let Partition { locals, ids, .. } = LocalGraph::partition_balanced(&sym, nodes);
    let ids = Arc::new(ids);
    let locals = Arc::new(locals);
    let ranges: Arc<Vec<std::ops::Range<usize>>> =
        Arc::new(locals.iter().map(|l| l.owned.clone()).collect());
    let elapsed = Arc::new(AtomicU64::new(0));
    let rounds_out = Arc::new(AtomicUsize::new(0));
    let out = Arc::new(Mutex::new(vec![0u64; n]));
    let (e2, r2, o2) = (elapsed.clone(), rounds_out.clone(), out.clone());
    let ids2 = ids.clone();
    spawn_workers(ctx, nodes, net, move |ctx, mut w, barrier| {
        let me = w.node;
        let g = &locals[me];
        let owned = g.owned.clone();
        let cost = CostModel::default();
        // Per-edge: rank read, owner lookup, and an atomic add into the
        // mirror buffer (Gemini's scatter is multi-threaded in reality).
        let edge_ns = cost.native_access_ns * 2 + cost.atomic_rmw_ns;
        let mut label: Vec<u64> = owned.clone().map(|i| ids2.input(i) as u64).collect();
        barrier.wait(ctx);
        let t0 = ctx.now();
        let mut round = 0u32;
        loop {
            let mut bufs: Vec<Vec<u64>> = ranges.iter().map(|r| vec![u64::MAX; r.len()]).collect();
            for u in owned.clone() {
                let d = g.degree(u);
                ctx.charge(cost.native_access_ns + d as u64 * edge_ns);
                let lu = label[u - owned.start];
                for &v in g.neighbors(u) {
                    let v = v as usize;
                    let owner = ranges.partition_point(|r| r.end <= v).min(w.nodes - 1);
                    let slot = &mut bufs[owner][v - ranges[owner].start];
                    *slot = (*slot).min(lu);
                }
            }
            #[allow(clippy::needless_range_loop)]
            for peer in 0..w.nodes {
                if peer == me {
                    continue;
                }
                let data = std::mem::take(&mut bufs[peer]);
                w.send(ctx, peer, GMsg::Delta { round, data });
            }
            let own = std::mem::take(&mut bufs[me]);
            let mut changed = false;
            for (i, m) in own.into_iter().enumerate() {
                if m < label[i] {
                    label[i] = m;
                    changed = true;
                }
            }
            for data in w.collect_deltas(ctx, round) {
                ctx.charge(cost.memcpy(data.len()) + data.len() as u64 * cost.op_apply_ns);
                for (i, m) in data.into_iter().enumerate() {
                    if m < label[i] {
                        label[i] = m;
                        changed = true;
                    }
                }
            }
            // Exchange convergence flags.
            for peer in 0..w.nodes {
                if peer != me {
                    w.send(ctx, peer, GMsg::Flag { round, changed });
                }
            }
            let any = w.collect_flags(ctx, round) | changed;
            barrier.wait(ctx);
            round += 1;
            if !any {
                break;
            }
            assert!((round as usize) <= n + 2, "CC failed to converge");
        }
        e2.fetch_max(ctx.now() - t0, Ordering::Relaxed);
        if me == 0 {
            r2.store(round as usize, Ordering::Relaxed);
        }
        o2.lock()[owned.clone()].copy_from_slice(&label);
    });
    let values = ids.to_input_order(&out.lock());
    PropagateResult {
        elapsed: elapsed.load(Ordering::Relaxed),
        values,
        rounds: rounds_out.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{cc_ref, pagerank_ref};
    use crate::rmat::rmat;
    use dsim::{Sim, SimConfig};

    #[test]
    fn gemini_pagerank_matches_reference() {
        let el = rmat(10, 4, 42);
        let want = pagerank_ref(&el, 3);
        let got = Sim::new(SimConfig::default())
            .run(move |ctx| pagerank_gemini(ctx, &el, 3, 3, NetConfig::instant()));
        assert_eq!(got.ranks.len(), want.len());
        for (a, b) in got.ranks.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn gemini_cc_matches_reference() {
        let el = rmat(9, 2, 11);
        let want = cc_ref(&el);
        let got = Sim::new(SimConfig::default())
            .run(move |ctx| cc_gemini(ctx, &el, 3, NetConfig::instant()));
        assert_eq!(got.values, want);
    }

    #[test]
    fn gemini_single_node_runs_without_messages() {
        let el = rmat(8, 4, 5);
        let want = pagerank_ref(&el, 2);
        let got = Sim::new(SimConfig::default())
            .run(move |ctx| pagerank_gemini(ctx, &el, 1, 2, NetConfig::default()));
        for (a, b) in got.ranks.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
