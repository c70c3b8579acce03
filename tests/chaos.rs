//! Chaos suite (gated behind the `chaos` feature): randomized fault
//! schedules must never change *what* the cluster computes, only *when*.
//!
//! A mixed workload — writer-disjoint `set`s, `wlock`-protected
//! read-modify-writes, and commutative `apply`s — has a timing-independent
//! final state, so its contents under any fault schedule must match the
//! fault-free run bit for bit. Run with:
//!
//! ```text
//! cargo test --features chaos --test chaos
//! ```
#![cfg(feature = "chaos")]

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use darray::{
    ArrayOptions, AsymmetricLoss, Cluster, ClusterConfig, DArrayError, DurabilityPolicy,
    FaultConfig, FaultPlan, NodeStatsSnapshot, Partition, Sim, SimConfig, UnavailableKind,
};

const LEN: usize = 3072;
const NODES: usize = 3;

/// Run the mixed workload; return the final contents plus every node's
/// statistics snapshot.
fn run_workload(cfg: ClusterConfig) -> (Vec<u64>, Vec<NodeStatsSnapshot>) {
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        let contents = Arc::new(Mutex::new(Vec::new()));
        let out = contents.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            let n = env.node;
            // Writer-disjoint sets: every index is written by exactly one
            // (node, k) pair, so the final value is timing-independent.
            for k in 0..96 {
                let idx = k * NODES + n;
                a.set(ctx, idx, (n * 10_000 + k) as u64);
            }
            // Lock-protected increments of shared hot elements: increments
            // commute, so only the count matters.
            for k in 0..12 {
                let idx = LEN - 1 - (k % 4);
                a.wlock(ctx, idx);
                let v = a.get(ctx, idx);
                a.set(ctx, idx, v + 1);
                a.unlock(ctx, idx);
            }
            // Commutative applies on a contended range.
            for k in 0..64 {
                a.apply(ctx, LEN / 2 + k, add, (n + 1) as u64);
            }
            env.barrier(ctx);
            if n == 0 {
                let mut v = Vec::with_capacity(LEN);
                for i in 0..LEN {
                    v.push(a.get(ctx, i));
                }
                *out.lock().unwrap() = v;
            }
            env.barrier(ctx);
        });
        let snaps = (0..NODES).map(|n| cluster.stats(n)).collect();
        cluster.shutdown(ctx);
        let v = contents.lock().unwrap().clone();
        (v, snaps)
    })
}

fn chaotic_config(seed: u64) -> ClusterConfig {
    let mut plan = FaultPlan::new(seed);
    plan.jitter_ns = 600;
    plan.drop_ppm = 30_000;
    plan.stall_ppm = 2_000;
    plan.stall_ns = (5_000, 25_000);
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.fault = Some(FaultConfig::new(plan));
    cfg
}

/// The expected final contents, independent of faults and timing.
fn expected_contents() -> Vec<u64> {
    let mut v = vec![0u64; LEN];
    for n in 0..NODES {
        for k in 0..96 {
            v[k * NODES + n] = (n * 10_000 + k) as u64;
        }
    }
    for e in v.iter_mut().skip(LEN - 4).take(4) {
        *e += (NODES * 3) as u64; // 12 increments cycling over 4 elements
    }
    for e in v.iter_mut().skip(LEN / 2).take(64) {
        *e += (1 + 2 + 3) as u64; // Σ (n+1) over the 3 nodes
    }
    v
}

#[test]
fn chaos_matches_fault_free_baseline_across_seeds() {
    let baseline = {
        let (contents, snaps) = run_workload(ClusterConfig::with_nodes(NODES));
        let timeouts: u64 = snaps.iter().map(|s| s.rpc_timeouts).sum();
        let retransmits: u64 = snaps.iter().map(|s| s.retransmits).sum();
        let dups: u64 = snaps.iter().map(|s| s.dup_rpcs).sum();
        assert_eq!(
            (timeouts, retransmits, dups),
            (0, 0, 0),
            "fault-free run must not exercise the reliability machinery"
        );
        assert_eq!(contents, expected_contents());
        contents
    };
    for seed in [3, 5, 11, 17, 23, 31, 47, 0xC0FFEE] {
        let (contents, snaps) = run_workload(chaotic_config(seed));
        let timeouts: u64 = snaps.iter().map(|s| s.rpc_timeouts).sum();
        let retransmits: u64 = snaps.iter().map(|s| s.retransmits).sum();
        assert_eq!(
            contents, baseline,
            "final contents diverged from the fault-free run under seed {seed}"
        );
        assert!(
            timeouts > 0 && retransmits > 0,
            "seed {seed} injected no observable faults (timeouts={timeouts}, \
             retransmits={retransmits}); the schedule is too tame to test recovery"
        );
        let confirmed: u64 = snaps.iter().map(|s| s.confirmed_deaths).sum();
        assert_eq!(
            confirmed, 0,
            "seed {seed}: packet loss alone must never confirm a death"
        );
    }
}

/// The multi-threaded runtime default must not weaken the chaos guarantee:
/// with `runtime_threads = 2` the protocol work for each node partitions
/// across two executors, and a seed subset of the fault schedules must
/// still converge to the same timing-independent contents.
#[test]
fn chaos_seed_subset_matches_baseline_with_multithreaded_runtime() {
    let rt2 = |mut cfg: ClusterConfig| {
        cfg.runtime_threads = 2;
        cfg
    };
    let (baseline, snaps) = run_workload(rt2(ClusterConfig::with_nodes(NODES)));
    let timeouts: u64 = snaps.iter().map(|s| s.rpc_timeouts).sum();
    assert_eq!(timeouts, 0, "fault-free rt=2 run must not time out");
    assert_eq!(baseline, expected_contents());
    for seed in [5, 17, 0xC0FFEE] {
        let (contents, snaps) = run_workload(rt2(chaotic_config(seed)));
        let retransmits: u64 = snaps.iter().map(|s| s.retransmits).sum();
        assert_eq!(
            contents, baseline,
            "rt=2 contents diverged from the fault-free run under seed {seed}"
        );
        assert!(
            retransmits > 0,
            "seed {seed} injected no observable faults under rt=2"
        );
        let confirmed: u64 = snaps.iter().map(|s| s.confirmed_deaths).sum();
        assert_eq!(
            confirmed, 0,
            "seed {seed}: packet loss alone must never confirm a death (rt=2)"
        );
    }
}

/// One chaos seed over the async TCP pump. Injected faults cannot be
/// imposed on OS sockets (validation rejects non-benign plans over TCP),
/// so the plan is benign — but `cfg.fault = Some(..)` still arms the
/// whole reliability channel (sequence numbers, timeout/retransmit
/// machinery, dedup), which now rides the event-loop pump's egress rings.
/// The mixed workload must converge to the fault-free contents over real
/// sockets, without any confirmed death, and the doorbell batching must
/// actually engage.
#[cfg(feature = "tcp-transport")]
#[test]
fn chaos_workload_over_tcp_async_pump_matches_baseline() {
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.transport = darray::TransportKind::Tcp;
    cfg.fault = Some(FaultConfig::new(FaultPlan::new(41)));
    let (contents, snaps) = run_workload(cfg);
    assert_eq!(
        contents,
        expected_contents(),
        "contents diverged from the fault-free baseline over TCP"
    );
    let confirmed: u64 = snaps.iter().map(|s| s.confirmed_deaths).sum();
    assert_eq!(confirmed, 0, "a benign plan must never confirm a death");
    let batches: u64 = snaps.iter().map(|s| s.doorbell_batches).sum();
    let coalesced: u64 = snaps.iter().map(|s| s.frames_coalesced).sum();
    assert!(
        batches > 0 && coalesced > 0,
        "reliability traffic never exercised the egress-ring batching \
         (batches={batches}, coalesced={coalesced})"
    );
    for (node, s) in snaps.iter().enumerate() {
        assert_eq!(
            s.frames,
            s.tx_flushes + s.frames_coalesced,
            "node {node}: flush identity must hold over TCP"
        );
    }
}

#[test]
fn crash_is_detected_and_degrades_gracefully() {
    Sim::new(SimConfig::default()).run(|ctx| {
        let mut plan = FaultPlan::new(7);
        plan.crash_at = vec![(1, 2_000_000)];
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
                // Pre-crash: a remote chunk homed on node 1 works normally
                // (and stays cached with Exclusive rights).
                a.set(ctx, 4096, 7);
                assert_eq!(a.get(ctx, 4096), 7);
                // Wait past the crash, then touch a chunk that was never
                // cached: the fill times out, retries, and fails over.
                ctx.sleep(3_000_000);
                // The error is stamped with the membership epoch of the
                // death declaration (first death => epoch 1) and records
                // that a quorum confirmed it, not a mere suspicion.
                assert_eq!(
                    a.try_set(ctx, 7000, 1),
                    Err(DArrayError::NodeUnavailable {
                        node: 1,
                        epoch: 1,
                        kind: UnavailableKind::ConfirmedDead,
                    })
                );
                // Locks homed on the dead node fail fast.
                assert_eq!(
                    a.try_wlock(ctx, 7000),
                    Err(DArrayError::NodeUnavailable {
                        node: 1,
                        epoch: 1,
                        kind: UnavailableKind::ConfirmedDead,
                    })
                );
                // Graceful degradation: local chunks and already-cached
                // remote chunks keep working.
                a.set(ctx, 10, 3);
                assert_eq!(a.get(ctx, 10), 3);
                assert_eq!(a.try_get(ctx, 4096), Ok(7));
            } else {
                // The "crashed" node's CPU is alive (fail-stop cuts only its
                // network); purely local work still succeeds.
                a.set(ctx, 5000, 5);
                assert_eq!(a.get(ctx, 5000), 5);
            }
        });
        let s0 = cluster.stats(0);
        assert!(s0.rpc_timeouts >= 1, "no timeout recorded: {s0:?}");
        assert!(
            s0.confirmed_deaths == 1,
            "node 0 should declare exactly node 1 down: {s0:?}"
        );
        cluster.shutdown(ctx);
    });
}

/// Kill a node in the middle of a PageRank-like workload: the crashed node
/// holds an Operate grant (its combined local operands die with it), the
/// home aborts the orphaned epoch on detection, and the survivors'
/// contributions all land. Blocking reads across the recall-from-a-corpse
/// path must complete (the dsim deadlock detector turns a hang into a
/// panic).
#[test]
fn kill_mid_operate_epoch_aborts_and_survivors_converge() {
    const ACC: usize = 4; // accumulator element, homed on node 0
    const FLAG: usize = 700; // completion flag, a different node-0 chunk
    const DEAD_CHUNK: usize = 2560; // homed on node 2, never cached pre-crash
    Sim::new(SimConfig::default()).run(|ctx| {
        let mut plan = FaultPlan::new(11);
        plan.crash_at = vec![(2, 1_000_000)];
        let mut fc = FaultConfig::new(plan);
        fc.rpc_timeout_ns = 50_000;
        fc.max_retries = 3;
        let mut cfg = ClusterConfig::with_nodes(NODES);
        cfg.fault = Some(fc);
        let cluster = Cluster::new(ctx, cfg);
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            match env.node {
                2 => {
                    // Rank contributions under an Operate grant; the node
                    // dies before any recall, so these combined operands are
                    // lost (fail-stop) and must NOT be required below.
                    for _ in 0..16 {
                        a.apply(ctx, ACC, add, 1);
                    }
                    ctx.sleep(2_000_000); // dead past this point
                }
                survivor => {
                    ctx.sleep(2_000_000);
                    if survivor == 0 {
                        // Forces the recall of the orphaned epoch while the
                        // home still believes node 2 is alive: the read
                        // blocks in AwaitFlushes until the recall times
                        // out, node 2 is declared down and the epoch
                        // aborts. This is the crash-mid-transient path.
                        let _ = a.get(ctx, ACC);
                    }
                    // An uncached chunk homed on the corpse: error, not hang.
                    assert!(matches!(
                        a.try_get(ctx, DEAD_CHUNK),
                        Err(DArrayError::NodeUnavailable {
                            node: 2,
                            kind: UnavailableKind::ConfirmedDead,
                            ..
                        })
                    ));
                    for _ in 0..32 {
                        a.apply(ctx, ACC, add, 1);
                    }
                    if survivor == 1 {
                        a.set(ctx, FLAG, 1);
                    } else {
                        while a.get(ctx, FLAG) != 1 {
                            ctx.sleep(50_000);
                        }
                        // A coherent read recalls node 1's combined
                        // operands: every survivor contribution is in.
                        let total = a.get(ctx, ACC);
                        assert!(
                            (64..=80).contains(&total),
                            "survivor contributions lost: acc={total}"
                        );
                    }
                }
            }
        });
        let s0 = cluster.stats(0);
        let s1 = cluster.stats(1);
        assert!(
            s0.epochs_aborted >= 1,
            "home never aborted the dead node's epoch: {s0:?}"
        );
        assert!(
            s0.sharers_pruned >= 1,
            "home never pruned the dead sharer: {s0:?}"
        );
        assert!(
            s0.confirmed_deaths >= 1,
            "node 0 never declared node 2 down"
        );
        assert!(
            s1.confirmed_deaths >= 1,
            "node 1 never declared node 2 down"
        );
        cluster.shutdown(ctx);
    });
}

/// Kill a node in the middle of a KVS-like workload while it HOLDS a write
/// lock: the home must reclaim the orphaned lock and grant it to the
/// waiting survivors, whose blocking `wlock` calls must not hang. The
/// crashed node's un-written-back Dirty increments may be lost (fail-stop)
/// but survivor increments may not.
#[test]
fn kill_mid_kvs_orphaned_lock_is_reclaimed() {
    const HOT: usize = 4; // contended element, homed on node 0
    const FLAG: usize = 700;
    const DEAD_CHUNK: usize = 2560;
    Sim::new(SimConfig::default()).run(|ctx| {
        let mut plan = FaultPlan::new(13);
        plan.crash_at = vec![(2, 1_000_000)];
        let mut fc = FaultConfig::new(plan);
        fc.rpc_timeout_ns = 50_000;
        fc.max_retries = 3;
        let mut cfg = ClusterConfig::with_nodes(NODES);
        cfg.fault = Some(fc);
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            match env.node {
                2 => {
                    // Completed pre-crash RMWs (their Dirty data may still
                    // die un-written-back), then die HOLDING the lock.
                    for _ in 0..4 {
                        a.wlock(ctx, HOT);
                        let v = a.get(ctx, HOT);
                        a.set(ctx, HOT, v + 1);
                        a.unlock(ctx, HOT);
                    }
                    a.wlock(ctx, HOT);
                    ctx.sleep(2_500_000); // dead while holding the lock
                }
                survivor => {
                    ctx.sleep(2_000_000);
                    // Detection trigger + contract check: the corpse's
                    // chunks fail fast instead of hanging.
                    assert!(matches!(
                        a.try_set(ctx, DEAD_CHUNK, 1),
                        Err(DArrayError::NodeUnavailable {
                            node: 2,
                            kind: UnavailableKind::ConfirmedDead,
                            ..
                        })
                    ));
                    // These block behind the dead holder until the home
                    // reclaims the orphan; a hang would trip the deadlock
                    // detector.
                    for _ in 0..8 {
                        a.wlock(ctx, HOT);
                        let v = a.get(ctx, HOT);
                        a.set(ctx, HOT, v + 1);
                        a.unlock(ctx, HOT);
                    }
                    if survivor == 1 {
                        a.set(ctx, FLAG, 1);
                    } else {
                        while a.get(ctx, FLAG) != 1 {
                            ctx.sleep(50_000);
                        }
                        a.wlock(ctx, HOT);
                        let total = a.get(ctx, HOT);
                        a.unlock(ctx, HOT);
                        assert!(
                            (16..=20).contains(&total),
                            "survivor increments lost: hot={total}"
                        );
                    }
                }
            }
        });
        let s0 = cluster.stats(0);
        assert!(
            s0.orphaned_locks_reclaimed >= 1,
            "home never reclaimed the dead holder's lock: {s0:?}"
        );
        assert!(
            s0.confirmed_deaths >= 1,
            "node 0 never declared node 2 down"
        );
        cluster.shutdown(ctx);
    });
}

/// A live peer behind a fully-severed asymmetric link is repeatedly
/// suspected, and every suspicion is refuted by the third node's fresh
/// lease — no quorum ever confirms a death. When the link heals, the
/// falsely-suspected peer still holds its write lock and its dirtied data
/// bit-identically, across 8 seeds.
#[test]
fn false_suspicion_under_asymmetric_loss_is_refuted() {
    const HOT: usize = 8; // chunk 0, homed on node 0; node 2 locks + dirties it
    const FLAG: usize = 700; // chunk 1, homed on node 0
    let mut golden: Option<Vec<u64>> = None;
    for seed in [1, 2, 3, 5, 8, 13, 21, 34] {
        let (chunk0, snaps) = Sim::new(SimConfig::default()).run(move |ctx| {
            let mut plan = FaultPlan::new(seed);
            plan.jitter_ns = 300;
            // Sever node 0 <-> node 2 in both directions for 1.6 ms; the
            // 0 <-> 1 and 1 <-> 2 links stay perfect, so node 1's lease on
            // node 2 never lapses and its vote refutes every suspicion.
            plan.asym_loss = vec![
                AsymmetricLoss {
                    from: 0,
                    to: 2,
                    drop_ppm: 1_000_000,
                    from_ns: 400_000,
                    until_ns: 2_000_000,
                },
                AsymmetricLoss {
                    from: 2,
                    to: 0,
                    drop_ppm: 1_000_000,
                    from_ns: 400_000,
                    until_ns: 2_000_000,
                },
            ];
            let mut fc = FaultConfig::new(plan);
            fc.rpc_timeout_ns = 20_000;
            fc.max_retries = 2;
            fc.lease_ns = 100_000;
            fc.heartbeat_ns = 25_000;
            fc.suspect_poll_ns = 10_000;
            fc.suspect_poll_rounds = 3;
            let mut cfg = ClusterConfig::with_nodes(NODES);
            cfg.fault = Some(fc);
            cfg.try_validate().expect("fault config should be valid");
            let cluster = Cluster::new(ctx, cfg);
            let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
            let contents = Arc::new(Mutex::new(Vec::new()));
            let out = contents.clone();
            cluster.run(ctx, 1, move |ctx, env| {
                let a = arr.on(env.node);
                match env.node {
                    2 => {
                        // Before the link drops: take the lock and dirty the
                        // chunk (both homed on node 0), then sit out the
                        // outage holding both.
                        a.wlock(ctx, HOT);
                        a.set(ctx, HOT, 42);
                        ctx.sleep(2_300_000);
                        // Refuted suspicion discarded nothing: the dirtied
                        // value survived and the lock is still ours.
                        assert_eq!(a.get(ctx, HOT), 42, "dirty data lost (seed {seed})");
                        a.set(ctx, HOT, 43);
                        a.unlock(ctx, HOT);
                        a.set(ctx, FLAG, 1);
                    }
                    0 => {
                        ctx.sleep(600_000); // mid-outage
                                            // Recalling node 2's dirty copy sends a reliable RPC
                                            // into the severed link: retries exhaust, node 2
                                            // becomes Suspected, node 1 votes alive, the parked
                                            // recall replays — over and over until the heal.
                        assert_eq!(a.get(ctx, HOT), 42);
                        while a.get(ctx, FLAG) != 1 {
                            ctx.sleep(25_000);
                        }
                        // The lock was released by its owner, never
                        // reclaimed as orphaned.
                        a.wlock(ctx, HOT);
                        assert_eq!(a.get(ctx, HOT), 43);
                        a.unlock(ctx, HOT);
                        let mut v = Vec::with_capacity(512);
                        for i in 0..512 {
                            v.push(a.get(ctx, i));
                        }
                        *out.lock().unwrap() = v;
                    }
                    _ => {}
                }
            });
            let snaps: Vec<NodeStatsSnapshot> = (0..NODES).map(|n| cluster.stats(n)).collect();
            cluster.shutdown(ctx);
            let v = contents.lock().unwrap().clone();
            (v, snaps)
        });
        let s0 = &snaps[0];
        assert!(
            s0.suspicions >= 1,
            "seed {seed}: the severed link never provoked a suspicion: {s0:?}"
        );
        assert_eq!(
            s0.refutations, s0.suspicions,
            "seed {seed}: a suspicion was not refuted: {s0:?}"
        );
        for (n, s) in snaps.iter().enumerate() {
            assert_eq!(
                (s.confirmed_deaths, s.membership_epoch),
                (0, 0),
                "seed {seed}: node {n} declared a live peer dead: {s:?}"
            );
        }
        match &golden {
            None => golden = Some(chunk0),
            Some(g) => assert_eq!(
                &chunk0, g,
                "seed {seed}: surviving chunk contents are not bit-identical"
            ),
        }
    }
}

/// A network partition shorter than the retry-exhaustion threshold is
/// ridden out by the reliable channel: retransmits recover every RPC, the
/// final contents match the fault-free baseline, and nobody is suspected,
/// let alone declared dead.
#[test]
fn short_partition_is_ridden_out_without_death() {
    let mut plan = FaultPlan::new(29);
    plan.partitions = vec![Partition {
        groups: vec![vec![0], vec![1, 2]],
        from_ns: 100_000,
        until_ns: 350_000,
    }];
    let mut fc = FaultConfig::new(plan);
    fc.rpc_timeout_ns = 100_000;
    fc.max_retries = 4; // exhaustion needs ~1.5 ms of silence >> 250 us window
    let mut cfg = ClusterConfig::with_nodes(NODES);
    cfg.fault = Some(fc);
    let (contents, snaps) = run_workload(cfg);
    assert_eq!(contents, expected_contents());
    let retransmits: u64 = snaps.iter().map(|s| s.retransmits).sum();
    assert!(
        retransmits > 0,
        "the partition window never bit: the workload ended too early"
    );
    for (n, s) in snaps.iter().enumerate() {
        assert_eq!(
            (s.suspicions, s.confirmed_deaths),
            (0, 0),
            "node {n}: a 250 us partition must be absorbed by retries: {s:?}"
        );
    }
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

/// A permanent partition splits {0} from {1, 2}: the majority side reaches
/// a 2-of-2 quorum and excommunicates node 0; the isolated minority, unable
/// to reach any voter (every lease lapses), converges on its own degraded
/// view instead of polling forever. Both sides keep serving their own data.
#[test]
fn partition_majority_excommunicates_minority() {
    Sim::new(SimConfig::default()).run(|ctx| {
        let mut plan = FaultPlan::new(31);
        plan.partitions = vec![Partition {
            groups: vec![vec![0], vec![1, 2]],
            from_ns: 500_000,
            until_ns: u64::MAX,
        }];
        let mut fc = FaultConfig::new(plan);
        fc.rpc_timeout_ns = 50_000;
        fc.max_retries = 3;
        let mut cfg = ClusterConfig::with_nodes(NODES);
        cfg.runtime_threads = 2;
        cfg.fault = Some(fc);
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            match env.node {
                0 => {
                    ctx.sleep(600_000);
                    // Minority side: both peers become unreachable. Neither
                    // can vote, so after the poll rounds the electorate
                    // degenerates and node 0 confirms on its local view —
                    // its declarations cannot propagate anywhere.
                    assert!(matches!(
                        a.try_set(ctx, 1500, 9), // chunk 2, homed on node 1
                        Err(DArrayError::NodeUnavailable { node: 1, .. })
                    ));
                    assert!(matches!(
                        a.try_get(ctx, 2560), // chunk 5, homed on node 2
                        Err(DArrayError::NodeUnavailable { node: 2, .. })
                    ));
                    // Its own partition keeps working.
                    a.set(ctx, 8, 1);
                    assert_eq!(a.get(ctx, 8), 1);
                }
                1 => {
                    ctx.sleep(600_000);
                    assert!(matches!(
                        a.try_get(ctx, 100), // chunk 0, homed on node 0
                        Err(DArrayError::NodeUnavailable {
                            node: 0,
                            epoch: 1,
                            kind: UnavailableKind::ConfirmedDead,
                        })
                    ));
                    // The majority pair keeps full coherence between them.
                    a.set(ctx, 2100, 5); // chunk 4, homed on node 2
                    assert_eq!(a.get(ctx, 2100), 5);
                }
                _ => {
                    ctx.sleep(600_000);
                    assert!(matches!(
                        a.try_get(ctx, 600), // chunk 1, homed on node 0
                        Err(DArrayError::NodeUnavailable { node: 0, .. })
                    ));
                    a.set(ctx, 1600, 6); // chunk 3, homed on node 1
                    assert_eq!(a.get(ctx, 1600), 6);
                }
            }
        });
        let (s0, s1, s2) = (cluster.stats(0), cluster.stats(1), cluster.stats(2));
        // Majority: each survivor confirmed exactly node 0, via quorum.
        assert_eq!(s1.confirmed_deaths, 1, "{s1:?}");
        assert_eq!(s2.confirmed_deaths, 1, "{s2:?}");
        assert_eq!(s1.membership_epoch, 1);
        assert_eq!(s2.membership_epoch, 1);
        // Minority: confirmed both peers through the degenerate electorate.
        assert_eq!(s0.confirmed_deaths, 2, "{s0:?}");
        assert!(s0.suspicions >= 2, "{s0:?}");
        assert_eq!(s0.membership_epoch, 2);
        cluster.shutdown(ctx);
        // Pinned at runtime_threads = 2.
        let pin = vec![
            [53, 8, 6, 0, 2, 0, 2, 2],
            [50, 4, 3, 0, 1, 0, 1, 1],
            [50, 4, 3, 0, 1, 0, 1, 1],
        ];
        assert_eq!((ctx.now(), fault_rows(&[s0, s1, s2])), (2_701_985, pin));
    });
}

/// A per-test scratch directory for durable chunk logs, removed on drop so
/// reruns start from empty logs.
struct TempStoreDir(PathBuf);

impl TempStoreDir {
    fn new(name: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("darray-chaos-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        Self(p)
    }
}

impl Drop for TempStoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kill-then-restart, cold: a node crashes mid-run; a brand-new cluster is
/// then brought up over the same durable store directory (the in-sim
/// equivalent of restarting the process on the same disks). Every write
/// that was acknowledged through the persist-before-ack path before the
/// kill must be recovered by log replay; the crashed node's un-written-back
/// dirty data must NOT reappear (it was never promised durable).
#[test]
fn kill_restart_recovers_exactly_the_acked_writes() {
    kill_restart_roundtrip(1, "kill-restart");
}

/// The same kill/restart round-trip with the multi-threaded runtime: the
/// persist-before-ack guarantee is per chunk, and the chunk→thread
/// placement must not change which writes survive.
#[test]
fn kill_restart_recovers_with_multithreaded_runtime() {
    kill_restart_roundtrip(2, "kill-restart-rt2");
}

fn kill_restart_roundtrip(runtime_threads: usize, dir_name: &str) {
    // 2 nodes, 512-element chunks, block-distributed homes: chunks 0..3
    // are homed on node 0 and chunks 3..6 on node 1.
    const COMMITTED0: usize = 0; // chunk 0 (home 0): written by 1, recalled by 0
    const COMMITTED1: usize = 1536; // chunk 3 (home 1): written by 0, recalled by 1
    const UNCOMMITTED: usize = 1024; // chunk 2 (home 0): dirtied by 1, never recalled
    const FLAG: usize = 512; // chunk 1 (home 0)
    const FLAG2: usize = 516; // same chunk; writer-disjoint with FLAG
    const CORPSE: usize = 2048; // chunk 4 (home 1): probed after the kill
    let dir = TempStoreDir::new(dir_name);
    let mk_cfg = |dir: &PathBuf| {
        let mut cfg = ClusterConfig::with_nodes(2);
        cfg.runtime_threads = runtime_threads;
        cfg.durability.policy = DurabilityPolicy::Writethrough;
        cfg.durability.dir = Some(dir.clone());
        cfg
    };

    // ---- Incarnation 1: write, persist-through-recall, then crash. ----
    let cfg = mk_cfg(&dir.0);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let mut plan = FaultPlan::new(17);
        plan.crash_at = vec![(1, 2_000_000)];
        let mut fc = FaultConfig::new(plan);
        fc.rpc_timeout_ns = 50_000;
        fc.max_retries = 3;
        let mut cfg = cfg;
        cfg.fault = Some(fc);
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 1 {
                // Dirty chunk 0 remotely, then publish: node 0's read-back
                // recalls the dirty image and persists it (acked => must
                // survive the kill).
                for k in 0..16 {
                    a.set(ctx, COMMITTED0 + k, 1_000 + k as u64);
                }
                a.set(ctx, FLAG, 1);
                // Read back node 0's writes to our homed chunk 1: the
                // recall lands here and WE persist it before acking.
                while a.get(ctx, FLAG2) != 1 {
                    ctx.sleep(20_000);
                }
                for k in 0..16 {
                    assert_eq!(a.get(ctx, COMMITTED1 + k), 2_000 + k as u64);
                }
                // Dirty chunk 2 and die with the only copy: never recalled,
                // never persisted, so the restart must NOT resurrect it.
                for k in 0..16 {
                    a.set(ctx, UNCOMMITTED + k, 3_000 + k as u64);
                }
                ctx.sleep(3_000_000); // dead at 2 ms
            } else {
                for k in 0..16 {
                    a.set(ctx, COMMITTED1 + k, 2_000 + k as u64);
                }
                a.set(ctx, FLAG2, 1);
                while a.get(ctx, FLAG) != 1 {
                    ctx.sleep(20_000);
                }
                for k in 0..16 {
                    assert_eq!(a.get(ctx, COMMITTED0 + k), 1_000 + k as u64);
                }
                // Outlive the crash and watch the death being confirmed.
                ctx.sleep(3_000_000);
                assert!(matches!(
                    a.try_set(ctx, CORPSE, 9),
                    Err(DArrayError::NodeUnavailable {
                        node: 1,
                        kind: UnavailableKind::ConfirmedDead,
                        ..
                    })
                ));
            }
        });
        let (s0, s1) = (cluster.stats(0), cluster.stats(1));
        assert!(
            s0.flush_persists >= 1,
            "node 0 never persisted the recalled chunk: {s0:?}"
        );
        assert!(
            s1.flush_persists >= 1,
            "node 1 never persisted the recalled chunk: {s1:?}"
        );
        assert!(
            s0.confirmed_deaths >= 1,
            "node 0 never declared node 1 down"
        );
        cluster.shutdown(ctx);
    });

    // ---- Incarnation 2: same store directory, fresh memory. ----
    let cfg = mk_cfg(&dir.0);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            if env.node == 0 {
                // Acked-before-kill writes came back from the logs...
                for k in 0..16 {
                    assert_eq!(
                        a.get(ctx, COMMITTED0 + k),
                        1_000 + k as u64,
                        "acked write lost across the restart"
                    );
                }
                // ...and the un-acked dirty data did not.
                for k in 0..16 {
                    assert_eq!(
                        a.get(ctx, UNCOMMITTED + k),
                        0,
                        "un-acked dirty data resurrected by replay"
                    );
                }
            } else {
                for k in 0..16 {
                    assert_eq!(
                        a.get(ctx, COMMITTED1 + k),
                        2_000 + k as u64,
                        "acked write lost across the restart"
                    );
                }
                // The restarted incarnation serves new coherent writes.
                a.set(ctx, CORPSE, 9);
                assert_eq!(a.get(ctx, CORPSE), 9);
            }
        });
        let (s0, s1) = (cluster.stats(0), cluster.stats(1));
        assert!(
            s0.log_replays >= 2 && s0.recovered_chunks >= 2,
            "node 0 replayed nothing: {s0:?}"
        );
        assert!(
            s1.log_replays >= 1 && s1.recovered_chunks >= 1,
            "node 1 replayed nothing: {s1:?}"
        );
        cluster.shutdown(ctx);
    });
}

/// Compaction knob set shared by the checkpoint chaos tests: checkpoint
/// after every persisted record (the most aggressive schedule the config
/// allows) and truncate the covered log prefix.
fn compaction_cfg(dir: &Path) -> ClusterConfig {
    let mut cfg = ClusterConfig::with_nodes(2);
    cfg.durability.policy = DurabilityPolicy::Writethrough;
    cfg.durability.dir = Some(dir.to_path_buf());
    cfg.durability.checkpoint_every_persists = Some(1);
    cfg.durability.compact = true;
    cfg
}

/// The kill instant for the compaction loop rounds: far past the commit
/// phase (the workload below settles within ~1 ms of virtual time even
/// under the chaotic schedules; node 0 asserts it).
const LOOP_KILL_NS: u64 = 4_000_000;

/// One incarnation of the compaction kill-restart loop: both nodes write
/// round-stamped slices into each other's homed chunks, read them back
/// (forcing the recall → persist-before-ack → checkpoint path on every
/// slice), then — under a fault plan — node 1 is killed and node 0 watches
/// the death being confirmed. Every value asserted below was *observed
/// read*, so by persist-before-ack it is durable before the kill; rounds
/// after the first also assert the previous round's committed values came
/// back from checkpoint-plus-suffix recovery.
fn compaction_round(dir: &Path, round: usize, seed: Option<u64>) -> Vec<NodeStatsSnapshot> {
    let cfg = compaction_cfg(dir);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let mut cfg = cfg;
        let faulty = seed.is_some();
        if let Some(seed) = seed {
            let mut plan = FaultPlan::new(seed.wrapping_add(round as u64));
            plan.jitter_ns = 300;
            plan.drop_ppm = 10_000;
            plan.crash_at = vec![(1, LOOP_KILL_NS)];
            let mut fc = FaultConfig::new(plan);
            fc.rpc_timeout_ns = 50_000;
            fc.max_retries = 3;
            cfg.fault = Some(fc);
        }
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        let r = round as u64;
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            // Per-round flags, each homed on the *other* node than its
            // writer (chunk 1 on node 0, chunk 5 on node 1): every flag
            // write is a remote dirty write, so the observing read recalls
            // it through the persist-before-ack path — a home-local write
            // would reach home memory without ever being acked durable.
            // Distinct indices each round, so a recovered flag from a
            // previous incarnation can never satisfy this round's wait.
            let flag_a = 512 + round * 8;
            let flag_b = 2560 + round * 8;
            if env.node == 1 {
                // Chunks 3 and 4 are this node's own homes: the previous
                // round's acked writes must have been recovered locally.
                if round > 0 {
                    for k in 0..16 {
                        assert_eq!(
                            a.get(ctx, 1536 + k),
                            r * 2_000 + k as u64,
                            "round {round}: acked write lost across the restart"
                        );
                        assert_eq!(a.get(ctx, 2048 + k), r * 2_000 + 500 + k as u64);
                    }
                }
                // Dirty two chunks homed on node 0, then publish.
                for k in 0..16 {
                    a.set(ctx, k, (r + 1) * 1_000 + k as u64);
                    a.set(ctx, 1024 + k, (r + 1) * 1_000 + 500 + k as u64);
                }
                a.set(ctx, flag_a, 1);
                while a.get(ctx, flag_b) != 1 {
                    ctx.sleep(20_000);
                }
                // Read back node 0's writes to our homed chunks: the
                // recalls land here and WE persist them before acking.
                for k in 0..16 {
                    assert_eq!(a.get(ctx, 1536 + k), (r + 1) * 2_000 + k as u64);
                    assert_eq!(a.get(ctx, 2048 + k), (r + 1) * 2_000 + 500 + k as u64);
                }
                if faulty {
                    ctx.sleep(LOOP_KILL_NS + 2_000_000); // dead at the kill instant
                }
            } else {
                if round > 0 {
                    for k in 0..16 {
                        assert_eq!(
                            a.get(ctx, k),
                            r * 1_000 + k as u64,
                            "round {round}: acked write lost across the restart"
                        );
                        assert_eq!(a.get(ctx, 1024 + k), r * 1_000 + 500 + k as u64);
                    }
                }
                for k in 0..16 {
                    a.set(ctx, 1536 + k, (r + 1) * 2_000 + k as u64);
                    a.set(ctx, 2048 + k, (r + 1) * 2_000 + 500 + k as u64);
                }
                a.set(ctx, flag_b, 1);
                while a.get(ctx, flag_a) != 1 {
                    ctx.sleep(20_000);
                }
                for k in 0..16 {
                    assert_eq!(a.get(ctx, k), (r + 1) * 1_000 + k as u64);
                    assert_eq!(a.get(ctx, 1024 + k), (r + 1) * 1_000 + 500 + k as u64);
                }
                if faulty {
                    assert!(
                        ctx.now() < LOOP_KILL_NS,
                        "round {round}: commit phase overran the kill instant ({})",
                        ctx.now()
                    );
                    // Outlive the crash and confirm the death: the probe
                    // targets a never-written index of chunk 5 (homed on
                    // the corpse; node 0's write rights on it were recalled
                    // when node 1 observed flag_b), so it can never commit
                    // and never perturbs contents.
                    ctx.sleep(LOOP_KILL_NS + 1_000_000 - ctx.now());
                    assert!(matches!(
                        a.try_set(ctx, 3000, 9),
                        Err(DArrayError::NodeUnavailable {
                            node: 1,
                            kind: UnavailableKind::ConfirmedDead,
                            ..
                        })
                    ));
                }
            }
        });
        // The between-phases barrier: every store writes one more
        // checkpoint generation before this incarnation ends.
        cluster.checkpoint_all().expect("checkpoint_all failed");
        let snaps = (0..2).map(|n| cluster.stats(n)).collect();
        cluster.shutdown(ctx);
        snaps
    })
}

/// A final fault-free incarnation over the same store directory that reads
/// the whole array out (recovery only — no new writes).
fn compaction_final_read(dir: &Path) -> (Vec<u64>, Vec<NodeStatsSnapshot>) {
    let cfg = compaction_cfg(dir);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        let contents = Arc::new(Mutex::new(Vec::new()));
        let out = contents.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            if env.node == 0 {
                let a = arr.on(env.node);
                let mut v = Vec::with_capacity(LEN);
                for i in 0..LEN {
                    v.push(a.get(ctx, i));
                }
                *out.lock().unwrap() = v;
            }
        });
        let snaps = (0..2).map(|n| cluster.stats(n)).collect();
        cluster.shutdown(ctx);
        let v = contents.lock().unwrap().clone();
        (v, snaps)
    })
}

/// What the loop must converge to: the last round's slice values plus one
/// raised flag pair per round. Everything else stays zero — in particular
/// the corpse-probe index.
fn expected_loop_contents(rounds: usize) -> Vec<u64> {
    let last = rounds as u64;
    let mut v = vec![0u64; LEN];
    for k in 0..16u64 {
        v[k as usize] = last * 1_000 + k;
        v[1024 + k as usize] = last * 1_000 + 500 + k;
        v[1536 + k as usize] = last * 2_000 + k;
        v[2048 + k as usize] = last * 2_000 + 500 + k;
    }
    for r in 0..rounds {
        v[512 + r * 8] = 1;
        v[2560 + r * 8] = 1;
    }
    v
}

/// Kill-restart *loop*: three crash-restart incarnations over one log
/// directory with aggressive compaction, then a fault-free read-out, across
/// 8 seeds. Contents must stay bit-identical to the fault-free baseline,
/// and the final reopen must replay O(live chunks) — not the store's full
/// persist history (the bounded-replay acceptance check).
#[test]
fn kill_restart_loop_with_compaction_matches_fault_free_baseline() {
    const ROUNDS: usize = 3;
    let baseline = {
        let dir = TempStoreDir::new("ckpt-loop-baseline");
        for round in 0..ROUNDS {
            compaction_round(&dir.0, round, None);
        }
        let (contents, _) = compaction_final_read(&dir.0);
        assert_eq!(contents, expected_loop_contents(ROUNDS));
        contents
    };
    for seed in [3, 5, 11, 17, 23, 31, 47, 0xC0FFEE] {
        let dir = TempStoreDir::new(&format!("ckpt-loop-{seed}"));
        // Acked (persist-before-ack) flushes and truncated log records per
        // node, accumulated across all incarnations.
        let mut acked = [0u64; 2];
        let mut truncated = [0u64; 2];
        for round in 0..ROUNDS {
            let snaps = compaction_round(&dir.0, round, Some(seed));
            assert!(
                snaps[0].confirmed_deaths >= 1,
                "seed {seed} round {round}: the kill was never confirmed: {:?}",
                snaps[0]
            );
            for (n, s) in snaps.iter().enumerate() {
                assert!(
                    s.compactions >= 1,
                    "seed {seed} round {round}: node {n} never checkpointed: {s:?}"
                );
                if round > 0 {
                    assert!(
                        s.recovered_chunks >= 1,
                        "seed {seed} round {round}: node {n} recovered nothing: {s:?}"
                    );
                }
                acked[n] += s.flush_persists;
                truncated[n] += s.truncated_records;
            }
        }
        let (contents, snaps) = compaction_final_read(&dir.0);
        assert_eq!(
            contents, baseline,
            "seed {seed}: contents diverged from the fault-free baseline"
        );
        for (n, s) in snaps.iter().enumerate() {
            assert!(
                truncated[n] >= 1,
                "seed {seed}: node {n}'s compactions never truncated anything"
            );
            // Bounded replay: the reopen scans the checkpoint image plus
            // the short uncompacted suffix — not every record ever
            // persisted. `recovered_chunks` is exactly the live-chunk
            // count; the slack covers the records appended since the
            // penultimate checkpoint of the previous incarnation.
            assert!(
                s.log_replays <= s.recovered_chunks + 4,
                "seed {seed}: node {n} replay is not bounded by live chunks: {s:?}"
            );
            assert!(
                acked[n] > s.log_replays,
                "seed {seed}: node {n} replayed its full persist history \
                 ({} acked persists, {} replayed) — compaction never bit",
                acked[n],
                s.log_replays
            );
        }
    }
}

/// Tear the newest checkpoint sidecar mid-frame (the torn-write crash
/// shape: a prefix of the file, its CRC frame now unverifiable) and reopen:
/// recovery must fall back to the previous checkpoint generation plus the
/// untruncated log suffix, losing no acked write. This is the lag-by-one
/// truncation invariant, end to end: compaction N only drops the log prefix
/// checkpoint N-1 covers, so `ckpt.prev` + log is always complete.
#[test]
fn torn_checkpoint_mid_frame_falls_back_to_previous_generation() {
    let dir = TempStoreDir::new("torn-ckpt");
    let cfg = compaction_cfg(&dir.0);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        // Three write→recall→checkpoint generations over the same chunk:
        // afterwards node 0 has a newest checkpoint, a previous generation,
        // and a log suffix — the full fallback setup.
        for gen in 1..=3u64 {
            let w = arr.clone();
            cluster.run(ctx, 1, move |ctx, env| {
                if env.node == 1 {
                    let a = w.on(env.node);
                    for k in 0..16 {
                        a.set(ctx, k, gen * 100 + k as u64);
                    }
                }
            });
            let rd = arr.clone();
            cluster.run(ctx, 1, move |ctx, env| {
                if env.node == 0 {
                    let a = rd.on(env.node);
                    for k in 0..16 {
                        assert_eq!(a.get(ctx, k), gen * 100 + k as u64);
                    }
                }
            });
            cluster.checkpoint_all().expect("checkpoint_all failed");
        }
        let s0 = cluster.stats(0);
        assert!(
            s0.compactions >= 3,
            "node 0 never rotated a checkpoint generation: {s0:?}"
        );
        cluster.shutdown(ctx);
    });

    let ckpt = dir.0.join("node0.ckpt");
    let prev = dir.0.join("node0.ckpt.prev");
    assert!(
        prev.exists(),
        "no previous checkpoint generation to fall back to"
    );
    let len = std::fs::metadata(&ckpt)
        .expect("newest checkpoint sidecar missing")
        .len();
    assert!(len > 128, "checkpoint too small to tear mid-frame: {len}");
    let f = std::fs::OpenOptions::new().write(true).open(&ckpt).unwrap();
    f.set_len(len - 64).unwrap();
    drop(f);

    let cfg = compaction_cfg(&dir.0);
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            if env.node == 0 {
                let a = arr.on(env.node);
                for k in 0..16 {
                    assert_eq!(
                        a.get(ctx, k),
                        300 + k as u64,
                        "acked write lost to the torn checkpoint"
                    );
                }
            }
        });
        let s0 = cluster.stats(0);
        assert!(
            s0.recovered_chunks >= 1,
            "node 0 recovered nothing from the fallback path: {s0:?}"
        );
        cluster.shutdown(ctx);
    });
}

/// Kill the *target* of a live chunk migration mid-transfer, across 8
/// seeds: the joiner is admitted, caches the chunk, and dies at a fixed
/// instant — exactly as the re-homing of that chunk begins. The source's
/// fence stalls against the corpse (the recall's invalidate and then the
/// transfer land on a dead link), the migration's own retries drive the
/// death confirmation, and the source must abort the move and re-assume
/// the chunk with byte-identical contents, still serving reads and writes.
#[test]
fn kill_migration_target_source_reassumes_bit_identical() {
    const KILL_NS: u64 = 5_000_000;
    const CHUNK0: usize = 0; // homed on node 0 under the 2-node prefix
    let mut golden: Option<Vec<u64>> = None;
    for seed in [3, 5, 11, 17, 23, 31, 47, 0xC0FFEE] {
        let (contents, snaps) = Sim::new(SimConfig::default()).run(move |ctx| {
            let mut plan = FaultPlan::new(seed);
            plan.jitter_ns = 600;
            plan.stall_ppm = 2_000;
            plan.stall_ns = (5_000, 25_000);
            plan.crash_at = vec![(2, KILL_NS)];
            let mut fc = FaultConfig::new(plan);
            fc.rpc_timeout_ns = 50_000;
            fc.max_retries = 3;
            let mut cfg = ClusterConfig::with_nodes(NODES);
            cfg.elastic = true;
            cfg.initial_nodes = Some(2);
            cfg.fault = Some(fc);
            let cluster = Cluster::new(ctx, cfg);
            let arr = cluster.alloc_with::<u64>(LEN, ArrayOptions::default(), |i| i as u64);

            // Phase 1: node 1 dirties the soon-to-migrate chunk remotely.
            let arr1 = arr.clone();
            cluster.run(ctx, 1, move |ctx, env| {
                if env.node == 1 {
                    let a = arr1.on(env.node);
                    for k in 0..16 {
                        a.set(ctx, CHUNK0 + k, 1_000 + k as u64);
                    }
                }
            });

            // Join the spare, then let it cache the chunk so the migration
            // fence has a right to recall from the (about to die) target.
            assert_eq!(cluster.join_peer(ctx, 2), NODES, "seed {seed}");
            let arr2 = arr.clone();
            cluster.run(ctx, 1, move |ctx, env| {
                if env.node == 2 {
                    let a = arr2.on(env.node);
                    for k in 0..16 {
                        assert_eq!(a.get(ctx, CHUNK0 + k), 1_000 + k as u64);
                    }
                }
            });
            assert!(
                ctx.now() < KILL_NS,
                "seed {seed}: setup overran the kill instant ({})",
                ctx.now()
            );

            // Start the re-homing at the kill instant: the target dies as
            // the transfer begins, before it can possibly ack, so the only
            // settled outcome is the abort. `migrate_chunk` observes it.
            ctx.sleep_until(KILL_NS);
            let moved = cluster.migrate_chunk(ctx, &arr, 0, 2);
            assert!(
                !moved,
                "seed {seed}: migration to a corpse must settle as aborted"
            );

            // Phase 2: the source serves the chunk again — byte-identical
            // contents, and fresh writes still coherent across survivors.
            let arr3 = arr.clone();
            let contents = Arc::new(Mutex::new(Vec::new()));
            let out = contents.clone();
            cluster.run(ctx, 1, move |ctx, env| {
                let a = arr3.on(env.node);
                match env.node {
                    0 => {
                        for k in 0..16 {
                            assert_eq!(
                                a.get(ctx, CHUNK0 + k),
                                1_000 + k as u64,
                                "seed {seed}: re-assumed chunk lost a write"
                            );
                        }
                        let mut v = Vec::with_capacity(512);
                        for i in 0..512 {
                            v.push(a.get(ctx, i));
                        }
                        *out.lock().unwrap() = v;
                        a.set(ctx, 20, 77); // write through the re-assumed home
                    }
                    1 => {
                        for k in 0..16 {
                            assert_eq!(a.get(ctx, CHUNK0 + k), 1_000 + k as u64);
                        }
                        while a.get(ctx, 20) != 77 {
                            ctx.sleep(20_000);
                        }
                    }
                    _ => {} // the corpse
                }
            });
            let snaps: Vec<NodeStatsSnapshot> = (0..NODES).map(|n| cluster.stats(n)).collect();
            cluster.shutdown(ctx);
            let v = contents.lock().unwrap().clone();
            (v, snaps)
        });
        let (s0, s1) = (&snaps[0], &snaps[1]);
        assert_eq!(
            s0.migrations_out, 0,
            "seed {seed}: an aborted move must not count as a migration: {s0:?}"
        );
        assert!(
            s0.confirmed_deaths >= 1,
            "seed {seed}: the stalled transfer never confirmed the death: {s0:?}"
        );
        // Node 1 only *votes* in the source's quorum poll; with no traffic
        // of its own into the corpse it may never declare the death — only
        // the source (node 0, where the fence stalled) must.
        let _ = s1;
        match &golden {
            None => golden = Some(contents),
            Some(g) => assert_eq!(
                &contents, g,
                "seed {seed}: re-assumed chunk contents are not bit-identical"
            ),
        }
    }
}

/// Kill-then-restart, warm: a partition gets node 0 excommunicated by the
/// majority (and the minority excommunicates everyone back); after the
/// partition heals, `Cluster::restart_peer` re-admits each side between run
/// phases. Every view bumps its membership epoch past the death epoch and
/// the re-admitted peers serve coherent traffic again.
#[test]
fn restart_peer_readmits_after_confirmed_death() {
    Sim::new(SimConfig::default()).run(|ctx| {
        let mut plan = FaultPlan::new(37);
        plan.partitions = vec![Partition {
            groups: vec![vec![0], vec![1, 2]],
            from_ns: 200_000,
            until_ns: 1_500_000,
        }];
        let mut fc = FaultConfig::new(plan);
        fc.rpc_timeout_ns = 50_000;
        fc.max_retries = 3;
        let mut cfg = ClusterConfig::with_nodes(NODES);
        cfg.fault = Some(fc);
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(LEN, ArrayOptions::default());

        // Phase 1: provoke confirmed deaths on both sides of the split,
        // then outlive the heal so the deaths are settled when it ends.
        let arr1 = arr.clone();
        cluster.run(ctx, 1, move |ctx, env| {
            let arr = &arr1;
            let a = arr.on(env.node);
            ctx.sleep(400_000); // mid-partition
            match env.node {
                0 => {
                    assert!(matches!(
                        a.try_set(ctx, 1500, 9), // chunk 2, homed on node 1
                        Err(DArrayError::NodeUnavailable { node: 1, .. })
                    ));
                }
                1 => {
                    assert!(matches!(
                        a.try_get(ctx, 100), // chunk 0, homed on node 0
                        Err(DArrayError::NodeUnavailable { node: 0, .. })
                    ));
                }
                _ => {
                    assert!(matches!(
                        a.try_get(ctx, 600), // chunk 1, homed on node 0
                        Err(DArrayError::NodeUnavailable { node: 0, .. })
                    ));
                }
            }
            ctx.sleep(2_000_000); // past the heal at 1.5 ms
        });
        let epoch_before: Vec<u64> = (0..NODES)
            .map(|n| cluster.stats(n).membership_epoch)
            .collect();
        assert!(epoch_before.iter().all(|&e| e >= 1), "{epoch_before:?}");

        // Between phases every death is settled: re-admit both sides.
        // The majority pair re-admits node 0; node 0 re-admits node 1
        // (the peer it probed and confirmed through its degenerate
        // electorate). Node 0 may or may not have confirmed node 2 —
        // restart_peer on a view that never declared the death is a no-op.
        assert_eq!(cluster.restart_peer(ctx, 0), 2, "views 1 and 2 re-admit 0");
        assert_eq!(cluster.restart_peer(ctx, 1), 1, "view 0 re-admits 1");
        let _ = cluster.restart_peer(ctx, 2);

        // Phase 2: cross-partition coherence works again in both
        // directions — the fills that failed fast above now succeed.
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            match env.node {
                0 => {
                    a.set(ctx, 1500, 11); // chunk 2, homed on node 1
                    assert_eq!(a.get(ctx, 1500), 11);
                }
                1 => {
                    a.set(ctx, 101, 12); // chunk 0, homed on node 0
                    assert_eq!(a.get(ctx, 101), 12);
                }
                _ => {
                    a.set(ctx, 600, 13); // chunk 1, homed on node 0
                    assert_eq!(a.get(ctx, 600), 13);
                }
            }
        });
        for (n, &before) in epoch_before.iter().enumerate() {
            let s = cluster.stats(n);
            assert!(
                s.membership_epoch > before,
                "node {n} re-admitted without burning a fresh epoch: {s:?}"
            );
        }
        cluster.shutdown(ctx);
    });
}
