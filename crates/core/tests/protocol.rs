//! End-to-end coherence protocol tests: multi-node clusters exercising
//! reads, writes, ownership migration, the Operated state, eviction under
//! cache pressure, distributed locks, pins, and determinism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use darray::{
    AccessPath, ArrayOptions, Cluster, ClusterConfig, Ctx, FaultConfig, FaultPlan, GlobalArray,
    PinMode, Sim, SimConfig,
};

fn sim() -> Sim {
    Sim::new(SimConfig::default())
}

/// Run `f` inside a freshly booted cluster and shut it down afterwards.
fn with_cluster<R: Send + 'static>(
    cfg: ClusterConfig,
    f: impl FnOnce(&mut Ctx, &Cluster) -> R,
) -> R {
    sim().run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let r = f(ctx, &cluster);
        cluster.shutdown(ctx);
        r
    })
}

#[test]
fn remote_read_sees_home_data() {
    with_cluster(ClusterConfig::test_config(3), |ctx, cluster| {
        let arr = cluster.alloc_with::<u64>(3000, ArrayOptions::default(), |i| i as u64 * 7);
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Every node reads the whole array, including remote chunks.
            for i in (0..a.len()).step_by(97) {
                assert_eq!(a.get(ctx, i), i as u64 * 7);
            }
        });
    });
}

#[test]
fn remote_write_then_read_roundtrips() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let arr = cluster.alloc::<u64>(2048, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Each node writes a disjoint half — but the *other* node's
            // half, so every write is remote.
            let half = a.len() / 2;
            let start = if env.node == 0 { half } else { 0 };
            for i in start..start + half {
                a.set(ctx, i, (i as u64) << 8 | env.node as u64);
            }
            env.barrier(ctx);
            // Every node then verifies the full array.
            for i in 0..a.len() {
                let who = if i < half { 1 } else { 0 };
                assert_eq!(a.get(ctx, i), (i as u64) << 8 | who);
            }
        });
    });
}

#[test]
fn ownership_migrates_between_writers() {
    with_cluster(ClusterConfig::test_config(4), |ctx, cluster| {
        let arr = cluster.alloc::<u64>(512, ArrayOptions::default());
        // All four nodes take turns writing the same (single) chunk.
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            for round in 0..4 {
                if round == env.node {
                    for i in 0..a.len() {
                        let v = a.get(ctx, i);
                        a.set(ctx, i, v + 1);
                    }
                }
                env.barrier(ctx);
            }
            // Each element was incremented once per node.
            assert_eq!(a.get(ctx, 0), 4);
            assert_eq!(a.get(ctx, 511), 4);
        });
    });
}

#[test]
fn operate_combines_across_nodes() {
    with_cluster(ClusterConfig::test_config(4), |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(4096, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Every node adds (node+1) to every element.
            for i in 0..a.len() {
                a.apply(ctx, i, add, env.node as u64 + 1);
            }
            env.barrier(ctx);
            // 1+2+3+4 = 10 per element; reading forces recall+reduce.
            for i in (0..a.len()).step_by(111) {
                assert_eq!(a.get(ctx, i), 10);
            }
        });
    });
}

#[test]
fn operate_min_converges() {
    with_cluster(ClusterConfig::test_config(3), |ctx, cluster| {
        let min = cluster.ops().register_min_u64();
        let arr = cluster.alloc_with::<u64>(1024, ArrayOptions::default(), |_| u64::MAX / 2);
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            for i in 0..a.len() {
                // Node n proposes i + n; the min over nodes is i + 0.
                a.apply(ctx, i, min, (i + env.node) as u64);
            }
            env.barrier(ctx);
            if env.node == 2 {
                for i in (0..a.len()).step_by(61) {
                    assert_eq!(a.get(ctx, i), i as u64);
                }
            }
        });
    });
}

#[test]
fn mixed_operator_on_same_chunk_is_serialized_correctly() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let max = cluster.ops().register_max_u64();
        let arr = cluster.alloc::<u64>(512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Phase 1: both nodes add 5.
            a.apply(ctx, 10, add, 5);
            env.barrier(ctx);
            // Phase 2: both nodes max with 7 (forces an operator change,
            // which recalls and reduces the adds first).
            a.apply(ctx, 10, max, 7);
            env.barrier(ctx);
            // adds: 5+5 = 10; max(10, 7, 7) = 10.
            assert_eq!(a.get(ctx, 10), 10);
        });
    });
}

#[test]
fn eviction_under_tiny_cache_preserves_writes() {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.cache.capacity_lines = 8; // tiny: constant eviction pressure
    cfg.cache.prefetch_lines = 0;
    with_cluster(cfg, |ctx, cluster| {
        let arr = cluster.alloc::<u64>(64 * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 1 {
                // Write a remote element in every chunk of node 0's half —
                // far more chunks than cachelines, forcing dirty evictions.
                for c in 0..32 {
                    a.set(ctx, c * 512 + 3, c as u64 + 100);
                }
            }
            env.barrier(ctx);
            if env.node == 0 {
                for c in 0..32 {
                    assert_eq!(a.get(ctx, c * 512 + 3), c as u64 + 100);
                }
            }
        });
    });
}

#[test]
fn eviction_flushes_operated_lines() {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.cache.capacity_lines = 4;
    cfg.cache.prefetch_lines = 0;
    with_cluster(cfg, |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(64 * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 1 {
                // Touch many remote chunks with Operate; evictions must
                // flush combined operands, not lose them.
                for pass in 0..2 {
                    let _ = pass;
                    for c in 0..24 {
                        a.apply(ctx, c * 512 + 7, add, 1);
                    }
                }
            }
            env.barrier(ctx);
            if env.node == 0 {
                for c in 0..24 {
                    assert_eq!(a.get(ctx, c * 512 + 7), 2, "chunk {c}");
                }
            }
        });
    });
}

#[test]
fn distributed_wlock_provides_mutual_exclusion() {
    with_cluster(ClusterConfig::test_config(3), |ctx, cluster| {
        let arr = cluster.alloc::<u64>(512, ArrayOptions::default());
        const PER_THREAD: usize = 25;
        cluster.run(ctx, 2, move |ctx, env| {
            let a = arr.on(env.node);
            // WLock + read + modify + write: the Figure 14 baseline.
            for _ in 0..PER_THREAD {
                a.wlock(ctx, 5);
                let v = a.get(ctx, 5);
                a.set(ctx, 5, v + 1);
                a.unlock(ctx, 5);
            }
            env.barrier(ctx);
            assert_eq!(a.get(ctx, 5), (3 * 2 * PER_THREAD) as u64);
        });
    });
}

#[test]
fn rlock_allows_concurrent_readers() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let arr = cluster.alloc_with::<u64>(512, ArrayOptions::default(), |i| i as u64);
        cluster.run(ctx, 2, move |ctx, env| {
            let a = arr.on(env.node);
            for i in 0..20 {
                a.rlock(ctx, i);
                assert_eq!(a.get(ctx, i), i as u64);
                a.unlock(ctx, i);
            }
        });
    });
}

#[test]
fn pin_read_gives_stable_snapshot() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let arr = cluster.alloc_with::<u64>(1024, ArrayOptions::default(), |i| i as u64);
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Pin the remote chunk and scan it without atomics.
            let target = if env.node == 0 { 512 } else { 0 };
            let pin = a.pin(ctx, target, PinMode::Read);
            for i in pin.range() {
                assert_eq!(pin.get(ctx, i), i as u64);
            }
            pin.unpin();
        });
    });
}

#[test]
fn pin_write_and_operate_apply() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(1024, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 1 {
                // Write-pin node 0's chunk and fill it.
                let pin = a.pin(ctx, 0, PinMode::Write);
                for i in pin.range() {
                    pin.set(ctx, i, 7);
                }
                drop(pin); // Drop releases too.
            }
            env.barrier(ctx);
            // Both nodes now apply through Operate pins.
            let pin = a.pin(ctx, 100, PinMode::Operate(add));
            pin.apply(ctx, 100, add, 3);
            pin.unpin();
            env.barrier(ctx);
            assert_eq!(a.get(ctx, 100), 7 + 3 * env.nodes as u64);
        });
    });
}

#[test]
fn lock_based_access_path_is_correct_too() {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.access_path = AccessPath::LockBased;
    with_cluster(cfg, |ctx, cluster| {
        let arr = cluster.alloc::<u64>(2048, ArrayOptions::default());
        cluster.run(ctx, 2, move |ctx, env| {
            let a = arr.on(env.node);
            let id = env.node * 2 + env.thread;
            for k in 0..50 {
                let i = (id * 50 + k) % a.len();
                a.set(ctx, i, (id * 1000 + k) as u64);
                assert_eq!(a.get(ctx, i), (id * 1000 + k) as u64);
            }
        });
    });
}

#[test]
fn custom_partition_routes_homes() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        // Node 0 owns only the first chunk; node 1 the rest.
        let arr = cluster.alloc_with::<u64>(
            8 * 512,
            ArrayOptions {
                chunk_size: None,
                partition_offset: Some(vec![0, 512]),
            },
            |i| i as u64,
        );
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            assert_eq!(a.home_of(0), 0);
            assert_eq!(a.home_of(512), 1);
            assert_eq!(a.home_of(8 * 512 - 1), 1);
            if env.node == 0 {
                assert_eq!(a.local_range(), 0..512);
            }
            // And accesses still work everywhere.
            assert_eq!(a.get(ctx, 4000), 4000);
        });
    });
}

#[test]
fn multiple_runtime_threads_partition_chunks() {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.runtime_threads = 3;
    with_cluster(cfg, |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(12 * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            for c in 0..12 {
                a.apply(ctx, c * 512, add, 1);
                a.set(ctx, c * 512 + 1, 9);
            }
            env.barrier(ctx);
            for c in 0..12 {
                assert_eq!(a.get(ctx, c * 512), 2);
                assert_eq!(a.get(ctx, c * 512 + 1), 9);
            }
        });
    });
}

#[test]
fn per_thread_pools_tile_cache_capacity_exactly() {
    // 100 lines over 3 runtime threads: 34 + 33 + 33. The remainder is
    // distributed (not dropped), the pools are contiguous and disjoint,
    // and together they cover exactly 0..capacity_lines — so each
    // thread's watermark scan (cyclic within its own pool) touches every
    // line of the node's region exactly once per cycle and no line twice.
    let mut cfg = ClusterConfig::test_config(2);
    cfg.runtime_threads = 3;
    cfg.cache.capacity_lines = 100;
    with_cluster(cfg, |_ctx, cluster| {
        for node in 0..2 {
            let pools = cluster.pool_stats(node);
            assert_eq!(pools.len(), 3);
            assert_eq!(
                pools.iter().map(|p| p.lines).collect::<Vec<_>>(),
                vec![34, 33, 33],
                "remainder lines must be distributed, not dropped"
            );
            let mut next = 0;
            for p in &pools {
                assert_eq!(p.base, next, "pools must be contiguous");
                next += p.lines;
            }
            assert_eq!(next, 100, "pools must cover the whole region");
        }
    });
}

#[test]
fn pool_stats_surface_occupancy_and_evictions() {
    // Tiny cache (6 lines over 2 threads) + a working set much larger
    // than capacity: every pool must both allocate and evict, and the
    // counters must show it.
    let mut cfg = ClusterConfig::test_config(2);
    cfg.runtime_threads = 2;
    cfg.cache.capacity_lines = 6;
    cfg.cache.prefetch_lines = 0;
    with_cluster(cfg, |ctx, cluster| {
        let arr = cluster.alloc::<u64>(64 * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 0 {
                // Touch one element of many remote chunks, twice, to
                // churn both pools through their watermarks.
                for round in 0..2 {
                    for c in 32..64 {
                        assert_eq!(a.get(ctx, c * 512 + round), 0);
                    }
                }
            }
        });
        let pools = cluster.pool_stats(0);
        assert_eq!(pools.len(), 2);
        for (i, p) in pools.iter().enumerate() {
            assert!(p.allocs > 0, "pool {i} never allocated: {p:?}");
            assert!(p.evictions > 0, "pool {i} never evicted: {p:?}");
            assert!(
                p.peak_occupied > 0 && p.peak_occupied <= p.lines,
                "pool {i} peak out of range: {p:?}"
            );
            assert!(p.occupied <= p.lines);
        }
        let node_evictions = cluster.stats(0).evictions;
        let pool_evictions: u64 = pools.iter().map(|p| p.evictions).sum();
        assert_eq!(
            node_evictions, pool_evictions,
            "per-pool evictions must sum to the node counter"
        );
    });
}

#[test]
fn reclaim_keeps_occupancy_between_watermarks() {
    // Figure 7: a reclaim episode starts when free lines fall below the
    // low watermark and stops as soon as they reach the high one. Once
    // eviction has begun, occupancy must therefore stay within
    // [lines - high, lines - low], give or take the lines allocated
    // before the next idle slot. A scan that evicts every idle line would
    // empty the pool instead.
    const LINES: u32 = 64;
    const LOW: u32 = 19; // floor(0.30 * 64)
    const HIGH: u32 = 32; // ceil(0.50 * 64)
    const IN_FLIGHT: u32 = 2;
    let mut cfg = ClusterConfig::test_config(2);
    cfg.runtime_threads = 1;
    cfg.cache.capacity_lines = LINES as usize;
    cfg.cache.prefetch_lines = 0;
    with_cluster(cfg, |ctx, cluster| {
        // Node 1 homes chunks 256..512: four times node 0's cache.
        let arr = cluster.alloc::<u64>(512 * 512, ArrayOptions::default());
        for phase in 0..24 {
            let arr = arr.clone();
            cluster.run(ctx, 1, move |ctx, env| {
                if env.node == 0 {
                    let a = arr.on(env.node);
                    for k in 0..16 {
                        let c = 256 + (phase * 16 + k) % 256;
                        assert_eq!(a.get(ctx, c * 512), 0);
                    }
                }
            });
            let p = cluster.pool_stats(0)[0];
            assert_eq!(p.lines, LINES);
            if p.evictions == 0 {
                continue;
            }
            assert!(
                (LINES - HIGH..=LINES - LOW + IN_FLIGHT).contains(&p.occupied),
                "phase {phase}: occupancy {} outside [{}, {}]: {p:?}",
                p.occupied,
                LINES - HIGH,
                LINES - LOW + IN_FLIGHT
            );
        }
        assert!(
            cluster.pool_stats(0)[0].evictions > 0,
            "the pool never evicted"
        );
    });
}

#[test]
fn reclaim_stays_off_the_miss_path() {
    // One app thread reads uniformly over three times its cache. After
    // warm-up no single get may cost more than twice the first cold
    // remote miss: eviction runs in the runtime thread's idle slots, so a
    // miss waits behind at most one eviction, never a whole-pool scan.
    const LINES: usize = 128;
    const REMOTE: usize = 3 * LINES;
    let mut cfg = ClusterConfig::with_nodes(2);
    cfg.runtime_threads = 1;
    cfg.cache.capacity_lines = LINES;
    cfg.cache.prefetch_lines = 0;
    with_cluster(cfg, |ctx, cluster| {
        // Node 1 homes chunks REMOTE..2 * REMOTE.
        let arr = cluster.alloc::<u64>(2 * REMOTE * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            if env.node != 0 {
                return;
            }
            let a = arr.on(env.node);
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut timed_random_get = |ctx: &mut Ctx| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let c = REMOTE + (x % REMOTE as u64) as usize;
                let t0 = ctx.now();
                assert_eq!(a.get(ctx, c * 512), 0);
                ctx.now() - t0
            };
            let cold = timed_random_get(ctx);
            // Warm-up: fill the pool and cross the low watermark.
            for _ in 0..2 * REMOTE {
                timed_random_get(ctx);
            }
            let worst = (0..2_000).map(|_| timed_random_get(ctx)).max().unwrap();
            assert!(
                worst <= 2 * cold,
                "worst warm get {worst} ns exceeds twice the cold miss {cold} ns"
            );
        });
        assert!(cluster.stats(0).evictions > 0, "the workload never evicted");
    });
}

#[test]
fn tx_threads_mode_works() {
    let mut cfg = ClusterConfig::test_config(2);
    cfg.tx_threads = true;
    with_cluster(cfg, |ctx, cluster| {
        let arr = cluster.alloc::<u64>(2048, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            let other_half_start = if env.node == 0 { 1024 } else { 0 };
            for i in other_half_start..other_half_start + 64 {
                a.set(ctx, i, i as u64 + 1);
            }
            env.barrier(ctx);
            for i in 0..64 {
                assert_eq!(a.get(ctx, i), i as u64 + 1);
                assert_eq!(a.get(ctx, 1024 + i), 1024 + i as u64 + 1);
            }
        });
    });
}

#[test]
fn two_arrays_coexist_independently() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let add = cluster.ops().register_add_u64();
        let xs = cluster.alloc::<u64>(1024, ArrayOptions::default());
        let ys = cluster.alloc_with::<f64>(1024, ArrayOptions::default(), |i| i as f64);
        cluster.run(ctx, 1, move |ctx, env| {
            let x = xs.on(env.node);
            let y = ys.on(env.node);
            x.apply(ctx, 700, add, 2);
            assert_eq!(y.get(ctx, 700), 700.0);
            env.barrier(ctx);
            assert_eq!(x.get(ctx, 700), 4);
        });
    });
}

#[test]
fn runs_are_deterministic() {
    fn one_run() -> (u64, u64) {
        with_cluster(ClusterConfig::with_nodes(3), |ctx, cluster| {
            let add = cluster.ops().register_add_u64();
            let arr = cluster.alloc::<u64>(6 * 512, ArrayOptions::default());
            cluster.run(ctx, 2, move |ctx, env| {
                let a = arr.on(env.node);
                for i in (0..a.len()).step_by(7) {
                    a.apply(ctx, i, add, 1);
                }
                env.barrier(ctx);
                if env.node == 0 && env.thread == 0 {
                    let mut sum = 0;
                    for i in (0..a.len()).step_by(7) {
                        sum += a.get(ctx, i);
                    }
                    assert_eq!(sum, 6 * (a.len() as u64).div_ceil(7));
                }
            });
            let s = cluster.stats(0);
            (ctx_now(ctx), s.fills + s.rpcs_handled)
        })
    }
    fn ctx_now(ctx: &Ctx) -> u64 {
        ctx.now()
    }
    let a = one_run();
    let b = one_run();
    assert_eq!(
        a, b,
        "virtual end time and protocol traffic must be identical"
    );
}

#[test]
fn stats_reflect_activity() {
    with_cluster(ClusterConfig::test_config(2), |ctx, cluster| {
        let arr = cluster.alloc_with::<u64>(4096, ArrayOptions::default(), |i| i as u64);
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 1 {
                for i in 0..2048 {
                    assert_eq!(a.get(ctx, i), i as u64);
                }
            }
        });
        let s1 = cluster.stats(1);
        assert!(s1.fast_hits > 0);
        assert!(s1.slow_misses > 0, "remote scan must miss");
        assert!(s1.fills > 0);
        let n1 = cluster.nic_stats(1);
        assert!(n1.sends > 0);
        let n0 = cluster.nic_stats(0);
        assert!(n0.writes > 0, "fills are one-sided WRITEs from the home");
    });
}

/// `Cluster::stats` fills in the rows the transport and the chunk store
/// own, not only the runtime atomics.
#[test]
fn stats_include_transport_and_store_rows() {
    let dir = std::env::temp_dir().join(format!("darray-stats-rows-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ClusterConfig::test_config(2);
    cfg.durability.policy = darray::DurabilityPolicy::Writeback;
    cfg.durability.dir = Some(dir.clone());
    with_cluster(cfg, |ctx, cluster| {
        let arr = cluster.alloc::<u64>(4096, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Dirty the other node's half, then read everything back: each
            // home recalls its chunks and persists them before the ack.
            let half = a.len() / 2;
            let start = if env.node == 0 { half } else { 0 };
            for i in start..start + half {
                a.set(ctx, i, i as u64 + 1);
            }
            env.barrier(ctx);
            for i in 0..a.len() {
                assert_eq!(a.get(ctx, i), i as u64 + 1);
            }
        });
        cluster.checkpoint_all().unwrap();
        for n in 0..2 {
            let s = cluster.stats(n);
            assert!(s.frames > 0, "node {n}: {s:?}");
            assert_eq!(
                s.frames,
                s.tx_flushes + s.frames_coalesced,
                "node {n}: {s:?}"
            );
            assert!(s.flush_persists > 0 && s.log_bytes > 0, "node {n}: {s:?}");
            assert!(
                s.checkpoint_bytes > 0 && s.compactions == 1,
                "node {n}: {s:?}"
            );
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prefetch_reduces_misses_on_sequential_scan() {
    fn scan_misses(prefetch: usize) -> u64 {
        let mut cfg = ClusterConfig::test_config(2);
        cfg.cache.prefetch_lines = prefetch;
        with_cluster(cfg, |ctx, cluster| {
            let arr = cluster.alloc::<u64>(64 * 512, ArrayOptions::default());
            cluster.run(ctx, 1, move |ctx, env| {
                if env.node == 1 {
                    let a = arr.on(env.node);
                    for i in 0..a.len() / 2 {
                        let _ = a.get(ctx, i); // node 0's half: all remote
                    }
                }
            });
            cluster.stats(1).slow_misses
        })
    }
    let without = scan_misses(0);
    let with = scan_misses(4);
    assert!(
        with < without,
        "prefetch should absorb misses: {with} >= {without}"
    );
}

/// One access by `node` of `arr`, alone in `cluster`: a set of `write`,
/// or a get that must read `want`. Returns its virtual ns.
fn timed_access(
    ctx: &mut Ctx,
    cluster: &Cluster,
    arr: &GlobalArray<u64>,
    node: usize,
    index: usize,
    write: Option<u64>,
    want: u64,
) -> u64 {
    let (took, arr) = (Arc::new(AtomicU64::new(0)), arr.clone());
    let out = took.clone();
    cluster.run(ctx, 1, move |ctx, env| {
        if env.node != node {
            return;
        }
        let a = arr.on(env.node);
        let t0 = ctx.now();
        match write {
            Some(v) => a.set(ctx, index, v),
            None => assert_eq!(a.get(ctx, index), want),
        }
        out.store(ctx.now() - t0, Ordering::Relaxed);
    });
    took.load(Ordering::Relaxed)
}

/// A 3-node cluster at the default network with two runtime threads and
/// an array of 12 chunks, of which node 0 homes chunks 0..4.
fn probe_cluster<R: Send + 'static>(
    fault: Option<FaultConfig>,
    f: impl FnOnce(&mut Ctx, &Cluster, GlobalArray<u64>) -> R + Send + 'static,
) -> R {
    let mut cfg = ClusterConfig::with_nodes(3);
    cfg.runtime_threads = 2;
    cfg.fault = fault;
    with_cluster(cfg, |ctx, cluster| {
        let arr = cluster.alloc::<u64>(12 * 512, ArrayOptions::default());
        f(ctx, cluster, arr)
    })
}

/// Node 2's misses on an element of node 0's chunk that node 1 holds
/// Dirty: the virtual ns of a read, then of a write, and of a plain remote
/// fill of an untouched chunk node 0 homes; and the bytes node 0 posted
/// during the write miss.
fn dirty_miss_probe(fault: Option<FaultConfig>) -> ([u64; 3], u64) {
    probe_cluster(fault, |ctx, cluster, arr| {
        let access = |ctx: &mut Ctx, node, index, write, want| {
            timed_access(ctx, cluster, &arr, node, index, write, want)
        };
        access(ctx, 1, 8, Some(42), 0);
        let read = access(ctx, 2, 8, None, 42);
        access(ctx, 1, 8, Some(43), 0);
        let before = cluster.stats(0).bytes_tx;
        let write = access(ctx, 2, 8, Some(44), 0);
        let home_bytes = cluster.stats(0).bytes_tx - before;
        let plain = access(ctx, 2, 512 + 8, None, 0);
        ([read, write, plain], home_bytes)
    })
}

/// Writes of chunks node 0 homes that other nodes read first: node 2
/// writes a chunk node 1 read, then a chunk nodes 1 and 2 read (node 2
/// upgrades its own copy), and node 0 writes a chunk node 1 read. The
/// virtual ns of each write, and the bytes node 0 posted during the first.
fn shared_write_probe(fault: Option<FaultConfig>) -> ([u64; 3], u64) {
    probe_cluster(fault, |ctx, cluster, arr| {
        let access = |ctx: &mut Ctx, node, index, write, want| {
            timed_access(ctx, cluster, &arr, node, index, write, want)
        };
        access(ctx, 1, 8, None, 0);
        let before = cluster.stats(0).bytes_tx;
        let write = access(ctx, 2, 8, Some(44), 0);
        let home_bytes = cluster.stats(0).bytes_tx - before;
        access(ctx, 1, 512 + 8, None, 0);
        access(ctx, 2, 512 + 8, None, 0);
        let upgrade = access(ctx, 2, 512 + 8, Some(45), 0);
        access(ctx, 1, 1024 + 8, None, 0);
        let home_write = access(ctx, 0, 1024 + 8, Some(46), 0);
        for (index, want) in [(8, 44), (512 + 8, 45), (1024 + 8, 46)] {
            access(ctx, 1, index, None, want);
        }
        ([write, upgrade, home_write], home_bytes)
    })
}

/// The three-leg recall (DESIGN.md §4.2): node 1 fills node 2 itself, so
/// a read or a write of node 1's Dirty copy takes 4,269 ns where the
/// four-leg recall took 5,764 and 5,804 (a plain remote fill takes 2,993).
/// For the write the home posts only the 48 bytes of its recall, no 4 KiB
/// fill. A cluster with a fault config, even a benign one, keeps the
/// four-leg recall and its timings.
#[test]
fn a_dirty_miss_takes_three_legs() {
    assert_eq!(dirty_miss_probe(None), ([4_269, 4_269, 2_993], 48));
    let benign = Some(FaultConfig::new(FaultPlan::new(1)));
    assert_eq!(dirty_miss_probe(benign), ([5_764, 5_804, 2_993], 4_304));
}

/// A remote write to a chunk other nodes read takes three legs (DESIGN.md
/// §4.2): the sharers ack the writer itself, and the home's fill tells it
/// how many acks to collect. Node 2's write of a chunk node 1 read takes
/// 3,826 ns where the four-leg path took 5,441, and its upgrade of a chunk
/// it and node 1 read takes 3,946 where it took 5,561; node 0 still posts
/// the 4,224 bytes of one invalidation and the fill. Node 0's own write of
/// a chunk node 1 read is home-local and keeps its 2,632. A cluster with a
/// fault config, even a benign one, keeps the four-leg path.
#[test]
fn a_write_to_a_shared_chunk_takes_three_legs() {
    assert_eq!(shared_write_probe(None), ([3_826, 3_946, 2_632], 4_224));
    let benign = Some(FaultConfig::new(FaultPlan::new(1)));
    assert_eq!(shared_write_probe(benign), ([5_441, 5_611, 2_632], 4_304));
}

/// Node 2's put-shaped critical section on element 8 of chunk 0, which
/// node 0 homes: `wlock_for_write`, a read, a set of 7 and the unlock,
/// after node 2, and node 1 too unless `sole`, read the chunk. The virtual
/// ns from the lock call to the set's return, and the bytes node 0 posted
/// during the section.
fn intent_grant_probe(fault: Option<FaultConfig>, sole: bool) -> (u64, u64) {
    probe_cluster(fault, move |ctx, cluster, arr| {
        if !sole {
            timed_access(ctx, cluster, &arr, 1, 8, None, 0);
        }
        timed_access(ctx, cluster, &arr, 2, 8, None, 0);
        let before = cluster.stats(0).bytes_tx;
        let (took, a) = (Arc::new(AtomicU64::new(0)), arr.clone());
        let out = took.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            if env.node != 2 {
                return;
            }
            let a = a.on(env.node);
            let t0 = ctx.now();
            a.wlock_for_write(ctx, 8);
            assert_eq!(a.get(ctx, 8), 0);
            a.set(ctx, 8, 7);
            out.store(ctx.now() - t0, Ordering::Relaxed);
            a.unlock(ctx, 8);
        });
        let home_bytes = cluster.stats(0).bytes_tx - before;
        timed_access(ctx, cluster, &arr, 1, 8, None, 7);
        (took.load(Ordering::Relaxed), home_bytes)
    })
}

/// A write-intent grant serves its grantee's write (DESIGN.md §4.5): node
/// 2 keeps the Shared copy it read, node 1's copy acks node 2, and node 2
/// writes once that ack is in. The section takes 3,784 ns where the grant,
/// the home's pull and node 2's own write miss took 5,711, and node 0
/// posts no 4 KiB fill: 96 bytes (the grant, the invalidation and the
/// lock traffic) where it posted 4,320. As the sole sharer node 2 waits for
/// no ack: 2,672 ns where its upgrade after the grant took 5,521, and 48
/// bytes where node 0 posted 4,224. A cluster with a fault config, even a
/// benign one, keeps the pull and the write miss, and their timings.
#[test]
fn a_write_intent_grant_carries_the_write() {
    assert_eq!(intent_grant_probe(None, false), (3_784, 96));
    assert_eq!(intent_grant_probe(None, true), (2_672, 48));
    let benign = || Some(FaultConfig::new(FaultPlan::new(1)));
    assert_eq!(intent_grant_probe(benign(), false), (6_021, 4_480));
    assert_eq!(intent_grant_probe(benign(), true), (5_571, 4_344));
}
