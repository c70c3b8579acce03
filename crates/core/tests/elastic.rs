//! Elastic membership end-to-end (DESIGN.md §15): bring a spare node into
//! a live cluster with `Cluster::join_peer`, re-home chunks onto it with
//! `Cluster::migrate_chunk`, and keep serving coherent reads and writes
//! for the migrated chunks throughout — in the simulator, under the
//! reliable channel, and (in `tcp_parity.rs`) over real sockets.

use std::sync::{Arc, Mutex};

use darray::{
    ArrayOptions, Cluster, ClusterConfig, ConfigError, DArrayError, DurabilityPolicy, FaultConfig,
    FaultPlan, NodeStatsSnapshot, PeerHealth, Sim, SimConfig,
};

const LEN: usize = 3072;
const NODES: usize = 3;
const CHUNK: usize = 512;

fn elastic_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.elastic = true;
    cfg.initial_nodes = Some(2);
    cfg
}

/// The fault-layer counters of each node, in pin order: frames,
/// rpc_timeouts, retransmits, dup_rpcs, suspicions, refutations,
/// confirmed_deaths, membership_epoch.
fn fault_rows(snaps: &[NodeStatsSnapshot]) -> Vec<[u64; 8]> {
    snaps
        .iter()
        .map(|s| {
            [
                s.frames,
                s.rpc_timeouts,
                s.retransmits,
                s.dup_rpcs,
                s.suspicions,
                s.refutations,
                s.confirmed_deaths,
                s.membership_epoch,
            ]
        })
        .collect()
}

/// The whole lifecycle, fault-free: 2 active nodes + 1 spare; write while
/// static, join the spare, migrate two chunks onto it, and verify every
/// node reads the same bytes from the migrated chunks — then write *through*
/// the new home and read back from the old one.
#[test]
fn join_then_migrate_serves_reads_and_writes() {
    Sim::new(SimConfig::default()).run(|ctx| {
        let cluster = Cluster::new(ctx, elastic_config());
        let arr = cluster.alloc_with::<u64>(LEN, ArrayOptions::default(), |i| i as u64);

        // Spares home nothing: the even partition covers the active prefix.
        assert_eq!(cluster.peer_health(0, 2), PeerHealth::Joining);
        assert_eq!(cluster.peer_health(2, 2), PeerHealth::Joining);

        // Phase 1: active nodes dirty chunk 0 (homed on node 0) so the
        // migration has a non-pristine image to carry.
        let arr1 = arr.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            if env.node < 2 {
                let a = arr1.on(env.node);
                for k in 0..8 {
                    let idx = env.node * 8 + k;
                    a.set(ctx, idx, 10_000 + idx as u64);
                }
            }
        });

        // Join the spare: every view admits it.
        assert_eq!(cluster.join_peer(ctx, 2), NODES);
        for m in 0..NODES {
            assert_eq!(
                cluster.peer_health(m, 2),
                PeerHealth::Alive,
                "view {m} did not admit the joiner"
            );
        }
        // Idempotent: a second join admits nothing.
        assert_eq!(cluster.join_peer(ctx, 2), 0);

        // Migrate chunk 0 (dirtied above, home 0) and chunk 3 (home 1,
        // untouched) onto the joiner.
        cluster.migrate_chunk(ctx, &arr, 0, 2);
        cluster.migrate_chunk(ctx, &arr, 3, 2);
        // Re-homing an already-homed chunk is a no-op.
        cluster.migrate_chunk(ctx, &arr, 0, 2);

        // Phase 2: every node reads the migrated chunks (the new home
        // serves the fills); the joiner writes through its own homed chunk
        // and an old-home node reads the write back coherently.
        let arr2 = arr.clone();
        let flags = Arc::new(Mutex::new(vec![false; NODES]));
        let fl = flags.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr2.on(env.node);
            for k in 0..8 {
                assert_eq!(
                    a.get(ctx, k),
                    10_000 + k as u64,
                    "node {} lost a pre-migration write in chunk 0",
                    env.node
                );
                assert_eq!(a.get(ctx, 8 + k), 10_008 + k as u64);
            }
            // Chunk 3's init values moved intact.
            assert_eq!(a.get(ctx, 3 * CHUNK + 7), (3 * CHUNK + 7) as u64);
            env.barrier(ctx);
            if env.node == 2 {
                // Write through the adopted chunk...
                a.set(ctx, 3 * CHUNK + 9, 777);
            }
            env.barrier(ctx);
            if env.node == 1 {
                // ...and its former home reads it back coherently.
                assert_eq!(a.get(ctx, 3 * CHUNK + 9), 777);
            }
            fl.lock().unwrap()[env.node] = true;
        });
        assert!(flags.lock().unwrap().iter().all(|&f| f));

        // The move is visible in the counters, on the right nodes.
        let (s0, s1, s2) = (cluster.stats(0), cluster.stats(1), cluster.stats(2));
        assert_eq!(s0.migrations_out, 1, "{s0:?}");
        assert_eq!(s1.migrations_out, 1, "{s1:?}");
        assert_eq!(s2.migrations_in, 2, "{s2:?}");
        assert_eq!(s2.migrations_out, 0);
        cluster.shutdown(ctx);
    });
}

/// The same lifecycle under the reliable channel (benign fault plan): the
/// join runs as a real vote — announce, per-survivor admission + link
/// bring-up, quorum tally — and migration RPCs ride the sequenced,
/// acknowledged, retransmitted path.
#[test]
fn join_and_migrate_under_reliable_channel() {
    Sim::new(SimConfig::default()).run(|ctx| {
        let mut cfg = elastic_config();
        cfg.runtime_threads = 2;
        cfg.fault = Some(FaultConfig::new(FaultPlan::new(1)));
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc_with::<u64>(LEN, ArrayOptions::default(), |i| i as u64);

        let arr1 = arr.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            if env.node == 0 {
                let a = arr1.on(env.node);
                for k in 0..8 {
                    a.set(ctx, k, 500 + k as u64);
                }
            }
        });

        assert_eq!(cluster.join_peer(ctx, 2), NODES);
        cluster.migrate_chunk(ctx, &arr, 0, 2);

        let arr2 = arr.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr2.on(env.node);
            for k in 0..8 {
                assert_eq!(a.get(ctx, k), 500 + k as u64);
            }
            if env.node == 1 {
                a.set(ctx, 9, 901);
                assert_eq!(a.get(ctx, 9), 901);
            }
        });
        let snaps: Vec<NodeStatsSnapshot> = (0..NODES).map(|n| cluster.stats(n)).collect();
        assert_eq!(snaps[2].migrations_in, 1, "{:?}", snaps[2]);
        // The join burned one epoch on every view, and the stats read it
        // from the view, as the fault-free join's do.
        for (n, s) in snaps.iter().enumerate() {
            assert_eq!(s.membership_epoch, cluster.membership_epoch(n), "node {n}");
            assert_eq!(s.membership_epoch, 1, "node {n}");
        }
        cluster.shutdown(ctx);
        // Pinned at runtime_threads = 2.
        let pin = vec![
            [14, 0, 0, 0, 0, 0, 0, 1],
            [11, 0, 0, 0, 0, 0, 0, 1],
            [22, 0, 0, 0, 0, 0, 0, 1],
        ];
        assert_eq!((ctx.now(), fault_rows(&snaps)), (210_199, pin));
    });
}

/// Migrating a chunk that is Operated on two nodes recalls every operator's
/// combined operands and reduces them into the image it ships: no operand
/// is lost to the move.
#[test]
fn migrating_an_operated_chunk_reduces_every_operand() {
    Sim::new(SimConfig::default()).run(|ctx| {
        let cluster = Cluster::new(ctx, elastic_config());
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());

        // Node 0 (chunk 0's home) combines locally, node 1 in its cache.
        let arr1 = arr.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            if env.node < 2 {
                let a = arr1.on(env.node);
                for _ in 0..5 {
                    for i in 0..8 {
                        a.apply(ctx, i, add, 1);
                    }
                }
            }
        });

        assert_eq!(cluster.join_peer(ctx, 2), NODES);
        assert!(cluster.migrate_chunk(ctx, &arr, 0, 2));

        let arr2 = arr.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr2.on(env.node);
            for i in 0..8 {
                assert_eq!(a.get(ctx, i), 10, "node {} element {i}", env.node);
            }
        });
        let s2 = cluster.stats(2);
        assert_eq!(s2.migrations_in, 1, "{s2:?}");
        cluster.shutdown(ctx);
    });
}

/// Element locks are routed by the static layout, not the elastic home
/// map: after chunk 0 moves to node 2, its element locks are still granted
/// by chunk 0's layout home, node 0 (DESIGN.md §15). Moving the lock table
/// with the chunk is not implemented, so the locks die with node 0.
#[test]
fn locks_on_a_migrated_chunk_stay_on_the_layout_home() {
    Sim::new(SimConfig::default()).run(|ctx| {
        let cluster = Cluster::new(ctx, elastic_config());
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        assert_eq!(cluster.join_peer(ctx, 2), NODES);
        assert!(cluster.migrate_chunk(ctx, &arr, 0, 2));

        let arr1 = arr.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr1.on(env.node);
            for _ in 0..10 {
                a.wlock(ctx, 5);
                let v = a.get(ctx, 5);
                a.set(ctx, 5, v + 1);
                a.unlock(ctx, 5);
            }
            env.barrier(ctx);
            assert_eq!(a.get(ctx, 5), 30, "node {}", env.node);
        });
        assert_eq!(cluster.stats(0).locks_granted, 30);
        assert_eq!(cluster.stats(2).locks_granted, 0);
        cluster.shutdown(ctx);
    });
}

/// Arrays allocated *after* a join include the joined node in their even
/// partition; arrays allocated before it keep their prefix partition (plus
/// whatever migrations moved).
#[test]
fn arrays_allocated_after_join_span_the_joined_node() {
    Sim::new(SimConfig::default()).run(|ctx| {
        let cluster = Cluster::new(ctx, elastic_config());
        let before = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        assert_eq!(cluster.join_peer(ctx, 2), NODES);
        let after = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let b = before.on(env.node);
            let a = after.on(env.node);
            // Pre-join array: spare homes nothing.
            assert!((0..LEN).all(|i| b.home_of(i) < 2));
            // Post-join array: the joined node homes its even share.
            assert!((0..LEN).any(|i| a.home_of(i) == 2));
            // Both stay fully serviceable from every node.
            if env.node == 2 {
                b.set(ctx, 0, 5);
                a.set(ctx, LEN - 1, 6);
            }
            env.barrier(ctx);
            assert_eq!(b.get(ctx, 0), 5);
            assert_eq!(a.get(ctx, LEN - 1), 6);
        });
        cluster.shutdown(ctx);
    });
}

/// Durable elastic cluster: writes acked through the *migrated* home's
/// persist-before-ack path survive a full cluster restart over the same
/// log directory, even though the surviving image lives in the new home's
/// log, not the layout home's.
#[test]
fn migrated_chunk_persists_across_cluster_restart() {
    let dir = {
        let mut p = std::env::temp_dir();
        p.push(format!("darray-elastic-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    };
    let mk_cfg = |dir: &std::path::PathBuf| {
        let mut cfg = elastic_config();
        cfg.durability.policy = DurabilityPolicy::Writethrough;
        cfg.durability.dir = Some(dir.clone());
        cfg
    };

    // Incarnation 1: join, migrate chunk 0 to the joiner, write through
    // the new home, recall so the write persists at the new home.
    let cfg = mk_cfg(&dir);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        assert_eq!(cluster.join_peer(ctx, 2), NODES);
        cluster.migrate_chunk(ctx, &arr, 0, 2);
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 0 {
                // Dirty the migrated chunk remotely...
                for k in 0..8 {
                    a.set(ctx, k, 40_000 + k as u64);
                }
            }
            env.barrier(ctx);
            if env.node == 2 {
                // ...and recall it at the new home: persist-before-ack puts
                // the image in node 2's log before this read returns.
                for k in 0..8 {
                    assert_eq!(a.get(ctx, k), 40_000 + k as u64);
                }
            }
        });
        let s2 = cluster.stats(2);
        assert!(s2.flush_persists >= 1, "new home never persisted: {s2:?}");
        cluster.shutdown(ctx);
    });

    // Incarnation 2: same directory. The acked writes come back even
    // though chunk 0's layout home (node 0) never logged them.
    let cfg = mk_cfg(&dir);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node < 2 {
                for k in 0..8 {
                    assert_eq!(
                        a.get(ctx, k),
                        40_000 + k as u64,
                        "acked write on a migrated chunk lost across restart"
                    );
                }
            }
        });
        cluster.shutdown(ctx);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The incarnation guard: reopening a durable directory under a different
/// `runtime_threads` is rejected with a structured error, not silently
/// replayed under a re-partitioned placement.
#[test]
fn runtime_threads_change_between_incarnations_is_rejected() {
    let dir = {
        let mut p = std::env::temp_dir();
        p.push(format!("darray-elastic-meta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    };
    let mk_cfg = |dir: &std::path::PathBuf, rts: usize| {
        let mut cfg = ClusterConfig::with_nodes(2);
        cfg.runtime_threads = rts;
        cfg.durability.policy = DurabilityPolicy::Writethrough;
        cfg.durability.dir = Some(dir.clone());
        cfg
    };
    let cfg = mk_cfg(&dir, 2);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        cluster.shutdown(ctx);
    });
    // Same count: accepted. Different count: structured rejection.
    assert_eq!(mk_cfg(&dir, 2).try_validate(), Ok(()));
    assert_eq!(
        mk_cfg(&dir, 1).try_validate(),
        Err(ConfigError::RuntimeThreadsChanged {
            recorded: 2,
            configured: 1,
        })
    );
    let cfg = mk_cfg(&dir, 1);
    let err = Sim::new(SimConfig::default()).run(move |ctx| {
        let r = Cluster::try_new(ctx, cfg);
        match r {
            Ok(c) => {
                c.shutdown(ctx);
                None
            }
            Err(e) => Some(e),
        }
    });
    assert!(
        matches!(
            err,
            Some(DArrayError::Config(ConfigError::RuntimeThreadsChanged {
                recorded: 2,
                configured: 1,
            }))
        ),
        "got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Elastic knob validation: `initial_nodes` without `elastic` and
/// out-of-range active counts are structured errors.
#[test]
fn elastic_knobs_are_validated() {
    let mut cfg = ClusterConfig::with_nodes(3);
    cfg.initial_nodes = Some(2);
    assert_eq!(
        cfg.try_validate(),
        Err(ConfigError::InitialNodesWithoutElastic)
    );
    cfg.elastic = true;
    assert_eq!(cfg.try_validate(), Ok(()));
    cfg.initial_nodes = Some(0);
    assert_eq!(
        cfg.try_validate(),
        Err(ConfigError::BadInitialNodes {
            initial_nodes: 0,
            nodes: 3
        })
    );
    cfg.initial_nodes = Some(4);
    assert_eq!(
        cfg.try_validate(),
        Err(ConfigError::BadInitialNodes {
            initial_nodes: 4,
            nodes: 3
        })
    );
    // Elastic without spares is legal (migration-only elasticity).
    cfg.initial_nodes = None;
    assert_eq!(cfg.try_validate(), Ok(()));
}
