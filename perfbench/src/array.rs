//! `array-uniform`: uniform-random get/set on array A and apply(add) on
//! array B, both sized so each node's remote share is 3x its cache.

use std::time::Instant;

use darray::{ArrayOptions, Cluster, Ctx, GlobalArray, OpId, Sim, SimConfig, VTime};
use workloads::Rng;

use crate::{cluster_config, measure, on_threads, sorted, stream_seed, Rep, Spans, NODES};

/// App threads per node.
pub(crate) const THREADS: usize = 2;

/// The only non-zero value `set` ever stores at index `i`, so a `get` can
/// be checked without knowing the order of the writes.
fn set_value(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// What one app thread did in one phase.
#[derive(Default)]
struct ThreadLog {
    get_ns: Vec<u64>,
    set_ns: Vec<u64>,
    apply_ns: Vec<u64>,
    /// Gets that returned neither 0 nor the index's set value.
    bad_gets: u64,
}

#[derive(Clone)]
struct Arrays {
    a: GlobalArray<u64>,
    b: GlobalArray<u64>,
    add: OpId,
}

fn drive(ctx: &mut Ctx, arrays: &Arrays, node: usize, rng: &mut Rng, end: VTime) -> ThreadLog {
    let (a, b) = (arrays.a.on(node), arrays.b.on(node));
    let len = a.len() as u64;
    let mut log = ThreadLog::default();
    while ctx.now() < end {
        let i = rng.next_below(len) as usize;
        let t = ctx.now();
        match rng.next_below(4) {
            0 | 1 => {
                let v = a.get(ctx, i);
                log.get_ns.push(ctx.now() - t);
                log.bad_gets += u64::from(v != 0 && v != set_value(i));
            }
            2 => {
                a.set(ctx, i, set_value(i));
                log.set_ns.push(ctx.now() - t);
            }
            _ => {
                b.apply(ctx, i, arrays.add, 1);
                log.apply_ns.push(ctx.now() - t);
            }
        }
    }
    log
}

/// One phase lasting `duration` virtual ns.
fn phase(
    ctx: &mut Ctx,
    cluster: &Cluster,
    arrays: &Arrays,
    (seed, phase): (u64, u64),
    duration: VTime,
) -> Vec<ThreadLog> {
    let end = ctx.now() + duration;
    let arrays = arrays.clone();
    on_threads(ctx, cluster, THREADS, move |ctx, env| {
        let mut rng = Rng::new(stream_seed(seed, phase, env.node, env.thread));
        drive(ctx, &arrays, env.node, &mut rng, end)
    })
}

pub(crate) fn run(
    elems_per_node: usize,
    warmup_ns: VTime,
    window_ns: VTime,
    seed: u64,
    traced: bool,
) -> Rep {
    let setup_start = Instant::now();
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cluster_config());
        let len = elems_per_node * NODES;
        let arrays = Arrays {
            add: cluster.ops().register_add_u64(),
            a: cluster.alloc::<u64>(len, ArrayOptions::default()),
            b: cluster.alloc::<u64>(len, ArrayOptions::default()),
        };
        let mut logs = phase(ctx, &cluster, &arrays, (seed, 0), warmup_ns);
        let setup = setup_start.elapsed();

        let (window, mut virt, window_cpu) = measure(ctx, &cluster, |ctx| {
            phase(ctx, &cluster, &arrays, (seed, 1), window_ns)
        });
        // Each node adds up the elements of B it homes.
        let b = arrays.b.clone();
        let b_sums = on_threads(ctx, &cluster, 1, move |ctx, env| {
            let b = b.on(env.node);
            b.local_range().map(|i| b.get(ctx, i)).sum::<u64>()
        });
        cluster.shutdown(ctx);

        virt.latency
            .insert("get", sorted(window.iter().map(|l| &l.get_ns)));
        virt.latency
            .insert("set", sorted(window.iter().map(|l| &l.set_ns)));
        virt.latency
            .insert("apply", sorted(window.iter().map(|l| &l.apply_ns)));
        virt.ops = virt.latency.values().map(|v| v.len() as u64).sum();
        logs.extend(window);
        let applies: u64 = logs.iter().map(|l| l.apply_ns.len() as u64).sum();
        let sum_ok = b_sums.iter().sum::<u64>() == applies;
        virt.attempted = logs
            .iter()
            .map(|l| (l.get_ns.len() + l.set_ns.len() + l.apply_ns.len()) as u64)
            .sum();
        virt.failed = logs.iter().map(|l| l.bad_gets).sum::<u64>() + u64::from(!sum_ok);
        let spans = Spans {
            array_get: virt.latency["get"].clone(),
            ..Spans::default()
        };
        Rep {
            virt,
            spans: traced.then_some(spans),
            setup,
            window_cpu,
        }
    })
}
