//! Table 1: the states of the extended cache coherence protocol, printed
//! from the implementation (`darray::table1_rows`) and therefore guaranteed
//! to match what the runtime actually enforces.
//!
//! The binary also *drives* every state of the table on a live 2-node
//! cluster (Unshared -> Shared -> Dirty -> Operated and back home) and
//! writes the resulting protocol traffic to `BENCH_table1.json`, so the
//! diff harness pins the canonical state walk alongside the figure
//! workloads.

use darray::{
    table1_rows, ArrayOptions, Cluster, ClusterConfig, NodeStatsSnapshot, Sim, SimConfig,
};
use darray_bench::report::{cluster_traffic, print_table, write_bench_json_with_metrics};

/// Walk a chunk homed at node 0 through every Table 1 state and return the
/// cluster-wide protocol traffic. Deterministic in virtual time: the JSON
/// is byte-identical run-to-run.
fn state_walk() -> NodeStatsSnapshot {
    const NODES: usize = 2;
    let mut cfg = ClusterConfig::test_config(NODES);
    // The checked-in baseline records the single-runtime-thread walk; the
    // walk itself is barrier-serialized, so this only pins the schedule.
    cfg.runtime_threads = 1;
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(4096, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Unshared -> Shared: node 1 reads an element homed at node 0.
            if env.node == 1 {
                assert_eq!(a.get(ctx, 0), 0);
            }
            env.barrier(ctx);
            // Shared -> Dirty: node 1 writes it (invalidate + exclusive).
            if env.node == 1 {
                a.set(ctx, 0, 7);
            }
            env.barrier(ctx);
            // Dirty -> home: node 0 reads it back, recalling the dirty copy.
            if env.node == 0 {
                assert_eq!(a.get(ctx, 0), 7);
            }
            env.barrier(ctx);
            // -> Operated: both nodes combine into the same element.
            a.apply(ctx, 1, add, 1);
            env.barrier(ctx);
            // Operated -> home: a read forces the cross-node reduction.
            if env.node == 0 {
                assert_eq!(a.get(ctx, 1), NODES as u64);
            }
            env.barrier(ctx);
        });
        let traffic = cluster_traffic(&cluster);
        cluster.shutdown(ctx);
        traffic
    })
}

fn main() {
    let rows: Vec<Vec<String>> = table1_rows()
        .into_iter()
        .map(|r| {
            vec![
                r.state.to_string(),
                r.home.to_string(),
                r.others.to_string(),
                if r.exclusive { "Yes" } else { "No" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 1 — states in the extended cache coherence protocol",
        &["State", "Home node", "Other nodes", "Exclusive"],
        &rows,
    );
    println!(
        "\npaper: Unshared R/W/O|None|Yes; Shared R|R|No; Dirty None|R/W|Yes; Operated O|O|No."
    );

    let walk = state_walk();
    match write_bench_json_with_metrics("table1", &[], &[("state_walk_2n".to_string(), walk)]) {
        Ok(p) => println!("protocol traffic written to {}", p.display()),
        Err(e) => eprintln!("could not write BENCH_table1.json: {e}"),
    }
}
