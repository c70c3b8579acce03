//! Fault injection: boot a cluster whose fabric randomly delays, stalls,
//! and drops verbs, watch the reliable channel recover, replay the exact
//! run from its seed, and survive a node crash with a structured error.
//!
//! Run with: `cargo run --release --example fault_injection`

use darray::{
    ArrayOptions, Cluster, ClusterConfig, DArrayError, FaultConfig, FaultPlan, NodeStatsSnapshot,
    Sim, SimConfig, VTime,
};

/// Run a small all-to-all workload under the given fault plan; return each
/// node's final statistics and the final virtual time.
fn run_under_faults(seed: u64) -> (Vec<NodeStatsSnapshot>, VTime) {
    let mut plan = FaultPlan::new(seed);
    plan.jitter_ns = 500; // up to 0.5 us extra serialization per verb
    plan.drop_ppm = 25_000; // 2.5% of SENDs vanish
    plan.stall_ppm = 1_500; // occasional NIC stall...
    plan.stall_ns = (5_000, 20_000); // ...of 5-20 us

    let mut cfg = ClusterConfig::with_nodes(3);
    cfg.fault = Some(FaultConfig::new(plan));
    cfg.try_validate().expect("fault config should be valid");

    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(64 * 1024, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Touch one element in each of 128 chunks — mostly remote, so
            // every miss is a coherence RPC that may be dropped — and take
            // a few distributed locks (more SEND traffic to lose).
            let chunk = 512;
            for i in 0..128 {
                let idx = i * chunk + env.node;
                a.set(ctx, idx, (env.node * 1000 + i) as u64);
            }
            for i in 0..32 {
                let idx = i * 4 * chunk + 100;
                a.wlock(ctx, idx);
                let v = a.get(ctx, idx);
                a.set(ctx, idx, v + 1);
                a.unlock(ctx, idx);
            }
            env.barrier(ctx);
            let next = (env.node + 1) % env.nodes;
            for i in 0..128 {
                assert_eq!(a.get(ctx, i * chunk + next), (next * 1000 + i) as u64);
            }
        });
        let snaps = (0..3).map(|n| cluster.stats(n)).collect();
        let t = ctx.now();
        cluster.shutdown(ctx);
        (snaps, t)
    })
}

fn main() {
    // --- Recovery under a lossy fabric --------------------------------
    let (snaps, t1) = run_under_faults(0xFEED);
    let mut retransmits = 0;
    let mut timeouts = 0;
    let mut dups = 0;
    for (n, s) in snaps.iter().enumerate() {
        println!(
            "node {n}: rpc_timeouts {:4}  retransmits {:4}  dup_rpcs {:4}  confirmed_deaths {}",
            s.rpc_timeouts, s.retransmits, s.dup_rpcs, s.confirmed_deaths
        );
        retransmits += s.retransmits;
        timeouts += s.rpc_timeouts;
        dups += s.dup_rpcs;
    }
    assert!(
        retransmits > 0,
        "a 2.5% drop rate must force retransmissions"
    );
    println!("workload completed correctly despite {retransmits} retransmits ({dups} duplicates suppressed, {timeouts} timeouts)");

    // --- Deterministic replay ------------------------------------------
    let (snaps2, t2) = run_under_faults(0xFEED);
    assert_eq!(snaps, snaps2, "same seed must replay bit-identically");
    assert_eq!(t1, t2);
    println!("seed 0xFEED replayed bit-identically (final virtual time {t1} ns)");
    let (_, t3) = run_under_faults(0xBEEF);
    assert_ne!(t1, t3, "a different seed should change the schedule");
    println!("seed 0xBEEF diverged as expected ({t3} ns)");

    // --- Config validation ---------------------------------------------
    let mut bad = ClusterConfig::with_nodes(2);
    bad.net.bytes_per_us = 0;
    println!("validation: {}", bad.try_validate().unwrap_err());

    // --- Crash detection and graceful degradation ----------------------
    Sim::new(SimConfig::default()).run(|ctx| {
        let mut plan = FaultPlan::new(7);
        plan.crash_at = vec![(1, 1_000_000)]; // node 1 halts at t = 1 ms
        let mut fc = FaultConfig::new(plan);
        fc.rpc_timeout_ns = 50_000;
        fc.max_retries = 3;
        let mut cfg = ClusterConfig::with_nodes(2);
        cfg.fault = Some(fc);
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(8192, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 0 {
                ctx.sleep(2_000_000); // wait past the crash
                match a.try_set(ctx, 7000, 1) {
                    Err(DArrayError::NodeUnavailable { node, epoch, kind }) => {
                        println!(
                            "crash: write to chunk homed on node {node} failed over cleanly \
                             ({kind:?} at membership epoch {epoch})"
                        );
                    }
                    other => panic!("expected NodeUnavailable, got {other:?}"),
                }
                // The local partition keeps working.
                a.set(ctx, 10, 3);
                assert_eq!(a.get(ctx, 10), 3);
                println!("crash: local data still served (graceful degradation)");
            }
        });
        let s0 = cluster.stats(0);
        assert_eq!(s0.confirmed_deaths, 1);
        cluster.shutdown(ctx);
    });

    println!("fault_injection OK");
}
