//! Deterministic fault replay: the same `ClusterConfig` with the same
//! `FaultPlan` seed must reproduce the run *bit-identically* — every node's
//! final statistics snapshot and the final virtual time — because every
//! source of nondeterminism (jitter, drops, stalls, scheduling) is derived
//! from seeded streams inside the simulation.

use darray::{
    ArrayOptions, AsymmetricLoss, Cluster, ClusterConfig, FaultConfig, FaultPlan, NetConfig,
    NodeStatsSnapshot, Sim, SimConfig, VTime,
};

fn faulty_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    plan.jitter_ns = 400;
    plan.drop_ppm = 20_000;
    plan.stall_ppm = 1_000;
    plan.stall_ns = (5_000, 20_000);
    plan
}

/// The fault-layer counters of each node, in pin order: frames,
/// rpc_timeouts, retransmits, dup_rpcs, suspicions, refutations,
/// confirmed_deaths, membership_epoch. Every pinned run sets
/// `runtime_threads = 2`, so `DARRAY_RUNTIME_THREADS` cannot move a pin.
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

/// Run a mixed workload under faults: four rounds in which every node
/// writes, applies to and reads every chunk, so enough frames cross the
/// lossy links that drops and retransmissions happen. Return every node's
/// final stats and the final virtual time.
fn run_once(cfg: ClusterConfig) -> (Vec<NodeStatsSnapshot>, VTime) {
    let nodes = cfg.nodes;
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(16 * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            let peer = (env.node + 1) % env.nodes;
            for r in 0..4 {
                for c in 0..16 {
                    a.set(ctx, c * 512 + env.node, (r * 100 + env.node) as u64);
                }
                env.barrier(ctx);
                for c in 0..16 {
                    a.apply(ctx, c * 512 + 300, add, 1);
                }
                env.barrier(ctx);
                for c in 0..16 {
                    assert_eq!(a.get(ctx, c * 512 + peer), (r * 100 + peer) as u64);
                }
                env.barrier(ctx);
            }
        });
        let snaps: Vec<NodeStatsSnapshot> = (0..nodes).map(|n| cluster.stats(n)).collect();
        cluster.shutdown(ctx);
        (snaps, ctx.now())
    })
}

#[test]
fn same_seed_replays_bit_identically() {
    let configs: Vec<ClusterConfig> = vec![
        {
            let mut c = ClusterConfig::with_nodes(2);
            c.runtime_threads = 2;
            c.fault = Some(FaultConfig::new(faulty_plan(0xD15EA5E)));
            c
        },
        {
            let mut c = ClusterConfig::with_nodes(3);
            c.runtime_threads = 2;
            c.net = NetConfig::default();
            c.fault = Some(FaultConfig::new(faulty_plan(42)));
            c
        },
    ];
    let pins = [
        (
            3_405_282,
            vec![[686, 6, 6, 1, 0, 0, 0, 0], [690, 9, 9, 0, 0, 0, 0, 0]],
        ),
        (
            5_619_758,
            vec![
                [1116, 8, 8, 0, 0, 0, 0, 0],
                [1052, 11, 11, 2, 0, 0, 0, 0],
                [1102, 9, 9, 0, 0, 0, 0, 0],
            ],
        ),
    ];
    for (cfg, pin) in configs.into_iter().zip(pins) {
        let (snaps_a, t_a) = run_once(cfg.clone());
        let (snaps_b, t_b) = run_once(cfg.clone());
        assert_eq!(snaps_a, snaps_b, "stats diverged for {} nodes", cfg.nodes);
        assert_eq!(
            t_a, t_b,
            "final virtual time diverged for {} nodes",
            cfg.nodes
        );
        let retransmits: u64 = snaps_a.iter().map(|s| s.retransmits).sum();
        assert!(retransmits > 0, "no frame was dropped: {snaps_a:?}");
        assert_eq!((t_a, fault_rows(&snaps_a)), pin);
    }
}

/// Run a crash-tolerant workload: node 1 of 3 dies mid-run while every
/// node keeps issuing `try_*` operations against chunks spread over all
/// homes (tolerating `NodeUnavailable`), plus a round of lock-protected
/// updates so orphaned-lock reclamation runs too. No barriers after the
/// crash point — a dead node can never arrive.
fn run_crash_once(cfg: ClusterConfig) -> (Vec<NodeStatsSnapshot>, VTime) {
    let nodes = cfg.nodes;
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let add = cluster.ops().register_add_u64();
        let arr = cluster.alloc::<u64>(3 * 4096, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            let stride = a.len() / env.nodes;
            // Phase 1 (pre-crash): everyone writes its own stripe and
            // applies into the next node's stripe.
            for i in 0..48 {
                let _ = a.try_set(ctx, env.node * stride + i, (env.node * 100 + i) as u64);
                let _ = a.try_apply(ctx, ((env.node + 1) % env.nodes) * stride + i, add, 1);
            }
            // Straddle the crash instant.
            ctx.sleep(2_500_000);
            // Phase 2 (post-crash): survivors keep going; operations whose
            // home died surface NodeUnavailable instead of hanging, and a
            // lock round exercises reclamation of the dead node's locks.
            for i in 0..32 {
                let idx = (env.node * stride + 7 * i) % a.len();
                if a.try_wlock(ctx, idx).is_ok() {
                    let v = a.try_get(ctx, idx).unwrap_or(0);
                    let _ = a.try_set(ctx, idx, v + 1);
                    a.unlock(ctx, idx);
                }
                // An uncached chunk homed on node 1: survivors detect the
                // crash here; the error (not a hang) is the contract.
                let _ = a.try_get(ctx, stride + 2048 + 64 * i);
            }
        });
        let snaps: Vec<NodeStatsSnapshot> = (0..nodes).map(|n| cluster.stats(n)).collect();
        cluster.shutdown(ctx);
        (snaps, ctx.now())
    })
}

#[test]
fn mid_run_crash_replays_bit_identically() {
    let mk = || {
        let mut plan = faulty_plan(0xFA11);
        plan.crash_at = vec![(1, 1_500_000)];
        let mut fc = FaultConfig::new(plan);
        fc.rpc_timeout_ns = 50_000;
        fc.max_retries = 3;
        let mut c = ClusterConfig::with_nodes(3);
        c.runtime_threads = 2;
        c.fault = Some(fc);
        c
    };
    let (snaps_a, t_a) = run_crash_once(mk());
    let (snaps_b, t_b) = run_crash_once(mk());
    assert_eq!(snaps_a, snaps_b, "stats diverged across same-seed replays");
    assert_eq!(t_a, t_b, "final virtual time diverged");
    let pin = vec![
        [89, 4, 3, 0, 1, 0, 1, 1],
        [90, 5, 4, 0, 1, 0, 1, 1],
        [92, 5, 4, 0, 1, 0, 1, 1],
    ];
    assert_eq!((t_a, fault_rows(&snaps_a)), (3_571_584, pin));
    // The run must actually have exercised the recovery path: survivors
    // declared the crashed node dead (it cannot declare anyone itself —
    // fail-stop cuts its network, so count only nodes 0 and 2).
    let survivors_confirmed: u64 = snaps_a[0].confirmed_deaths + snaps_a[2].confirmed_deaths;
    assert!(
        survivors_confirmed >= 2,
        "both survivors should declare node 1 down: {snaps_a:?}"
    );
}

/// A temporarily-severed link drives node 2 through the full
/// suspect -> refute -> re-admit cycle (node 1's fresh lease vetoes every
/// death declaration, and the parked traffic replays on re-admission). The
/// whole dance — suspicion timing, quorum polls, ballots, replayed
/// sequence numbers — must come out of the seeded streams, so two runs are
/// bit-identical.
fn run_refute_once(seed: u64) -> (Vec<NodeStatsSnapshot>, VTime) {
    let mut plan = FaultPlan::new(seed);
    plan.jitter_ns = 300;
    plan.asym_loss = vec![
        AsymmetricLoss {
            from: 0,
            to: 2,
            drop_ppm: 1_000_000,
            from_ns: 300_000,
            until_ns: 1_500_000,
        },
        AsymmetricLoss {
            from: 2,
            to: 0,
            drop_ppm: 1_000_000,
            from_ns: 300_000,
            until_ns: 1_500_000,
        },
    ];
    let mut fc = FaultConfig::new(plan);
    fc.rpc_timeout_ns = 20_000;
    fc.max_retries = 2;
    fc.lease_ns = 100_000;
    fc.heartbeat_ns = 25_000;
    fc.suspect_poll_ns = 10_000;
    fc.suspect_poll_rounds = 3;
    let mut cfg = ClusterConfig::with_nodes(3);
    cfg.runtime_threads = 2;
    cfg.fault = Some(fc);
    let nodes = cfg.nodes;
    Sim::new(SimConfig::default()).run(move |ctx| {
        let cluster = Cluster::new(ctx, cfg);
        let arr = cluster.alloc::<u64>(3 * 512, ArrayOptions::default());
        cluster.run(ctx, 1, move |ctx, env| {
            let a = arr.on(env.node);
            match env.node {
                2 => {
                    // Dirty a node-0-homed chunk, then go quiet behind the
                    // severed link.
                    a.set(ctx, 8, 42);
                    ctx.sleep(1_800_000);
                    assert_eq!(a.get(ctx, 8), 42);
                }
                0 => {
                    ctx.sleep(500_000);
                    // The recall of node 2's dirty copy parks on suspicion
                    // and replays on refutation until the link heals.
                    assert_eq!(a.get(ctx, 8), 42);
                }
                _ => {}
            }
        });
        let snaps: Vec<NodeStatsSnapshot> = (0..nodes).map(|n| cluster.stats(n)).collect();
        cluster.shutdown(ctx);
        (snaps, ctx.now())
    })
}

#[test]
fn suspect_refute_readmit_replays_bit_identically() {
    let (snaps_a, t_a) = run_refute_once(0x5EED);
    let (snaps_b, t_b) = run_refute_once(0x5EED);
    assert_eq!(snaps_a, snaps_b, "stats diverged across same-seed replays");
    assert_eq!(t_a, t_b, "final virtual time diverged");
    let pin = vec![
        [159, 22, 22, 0, 7, 7, 0, 0],
        [146, 0, 0, 0, 0, 0, 0, 0],
        [148, 0, 0, 0, 0, 0, 0, 0],
    ];
    assert_eq!((t_a, fault_rows(&snaps_a)), (1_804_572, pin));
    // The run must actually have traversed the cycle: at least one
    // suspicion, every one of them refuted, and nobody declared dead.
    assert!(
        snaps_a[0].suspicions >= 1,
        "node 0 never suspected node 2: {snaps_a:?}"
    );
    assert_eq!(
        snaps_a[0].refutations, snaps_a[0].suspicions,
        "an unrefuted suspicion remained: {snaps_a:?}"
    );
    for s in &snaps_a {
        assert_eq!(s.confirmed_deaths, 0, "{s:?}");
    }
}

#[test]
fn different_seeds_diverge() {
    let mut c1 = ClusterConfig::with_nodes(2);
    c1.fault = Some(FaultConfig::new(faulty_plan(1)));
    let mut c2 = c1.clone();
    c2.fault = Some(FaultConfig::new(faulty_plan(2)));
    let (_, t1) = run_once(c1);
    let (_, t2) = run_once(c2);
    // Virtually certain with jitter on every message; equality would mean
    // the seed is being ignored somewhere.
    assert_ne!(t1, t2, "fault seeds 1 and 2 produced identical timing");
}
