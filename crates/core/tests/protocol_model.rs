//! Thread-free model test of the sans-I/O coherence protocol
//! (`darray::protocol`).
//!
//! No simulator, no channels, no runtime threads: a tiny *world model*
//! plays the role of a faithful 3-node cluster around a [`HomeMachine`].
//! Every action the machine emits is turned into the reply a correct cache
//! would send (invalidate -> ack, recall -> writeback, recall-operated ->
//! flush, drain -> drained), and the world tracks the access rights each
//! grant conveys. Replies travel as [`Msg`]s and reach the machine through
//! [`Msg::deliver`], the mapping the runtime runs. After every delivered event the world checks the protocol
//! invariants:
//!
//! * **single writer** — at most one node holds write rights, and while one
//!   does, nobody else holds any rights;
//! * **sharer sets** — when the directory is stable, its sharer list agrees
//!   exactly with the rights the world has observed being granted;
//! * **progress** — a stable directory never sits on queued requests.
//!
//! Two drivers exercise the machine: an exhaustive pass over every stable
//! state x request kind x requester (with all 3-node sharer sets, and
//! Operated sharers whose lines were evicted with their rights kept), and
//! a randomized interleaving pass that mixes requests, voluntary
//! evictions, keep flushes, local re-acquires, grace-window retries and
//! stale messages over hundreds of steps.
//! A third test sweeps the requester-side [`CacheMachine`] over its full
//! view x event cross-product.

use std::collections::BTreeSet;

use darray::protocol::{
    AfterDrain, CacheAction, CacheEvent, CacheMachine, CacheView, Counter, Delivery, HomeAction,
    HomeEvent, HomeMachine, Kind, Msg, Request, Requester, LINE_NONE, NOTAG,
};
use darray::{DirState, LocalState};

const HOME: usize = 0;
const REMOTES: [usize; 2] = [1, 2];

/// Rights a remote node currently holds, as implied by the grants and
/// revocations the world has delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum R {
    None,
    Read,
    Write,
    Op(u32),
    /// Operate rights kept across an eviction: still a sharer, no line.
    Idle(u32),
}

/// A reply the modelled cluster owes the home machine: a message from a
/// remote node, or the completion of a drain, retry or persist.
#[derive(Debug, Clone)]
enum Reply {
    Msg(usize, Msg),
    /// A recalled `owner`'s fill of `requester`'s line landing.
    DirectFill {
        owner: usize,
        requester: usize,
        keep: bool,
    },
    /// A sharer's ack of a directed write reaching its `requester`.
    DirectedAck {
        sharer: usize,
        requester: usize,
    },
    Drained,
    Retry(u64),
    PersistDone(u64),
}

/// The operands a modelled flush carries (any non-empty payload).
fn operands() -> Vec<u64> {
    vec![1]
}

/// Coverage label of a home event.
fn event_name(ev: &HomeEvent<u32>) -> &'static str {
    match ev {
        HomeEvent::Request(_) => "Request",
        HomeEvent::InvAck { .. } => "InvAck",
        HomeEvent::EvictNotice { .. } => "EvictNotice",
        HomeEvent::Writeback { .. } => "Writeback",
        HomeEvent::FillAck { .. } => "FillAck",
        HomeEvent::Flush { .. } => "Flush",
        HomeEvent::Drained => "Drained",
        HomeEvent::RetryExpired => "RetryExpired",
        HomeEvent::PersistDone { .. } => "PersistDone",
        other => panic!("{other:?} is not modelled"),
    }
}

/// Deterministic splitmix-style PRNG (no external deps).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct World {
    m: HomeMachine<u32>,
    grace: u64,
    now: u64,
    rights: [R; 3],
    home_local: LocalState,
    drain_target: Option<LocalState>,
    inflight: Vec<Reply>,
    issued_waiters: BTreeSet<u32>,
    woken: BTreeSet<u32>,
    next_waiter: u32,
    /// (stable-state name, "Request:<kind>:<source>") pairs serviced.
    request_coverage: BTreeSet<(String, String)>,
    /// (transient name at delivery, event name) pairs observed.
    transient_coverage: BTreeSet<(String, String)>,
    /// Recalls that reached an idle holder, answered with an empty flush.
    idle_recalls: usize,
    /// (stable-state name, keep) of every three-leg recall sent.
    direct_recalls: BTreeSet<(String, bool)>,
    /// Each node's directed-write ack count (`CacheView::acks`), and
    /// whether its fill landed.
    directed: [(i64, bool); 3],
    /// Directed writes the home served.
    directed_writes: usize,
}

impl World {
    fn new(grace: u64) -> Self {
        Self::build(grace, false, false)
    }

    /// A world whose home machine persists dirty data before acking
    /// (the `AwaitPersist` transient between writeback and wake).
    fn new_durable(grace: u64) -> Self {
        Self::build(grace, true, false)
    }

    /// A world whose home machine recalls a Dirty chunk for a remote read
    /// or write in three legs (the `AwaitDirectFill` transient).
    fn new_direct(grace: u64) -> Self {
        Self::build(grace, false, true)
    }

    fn build(grace: u64, durable: bool, direct: bool) -> Self {
        let mut m = HomeMachine::new();
        m.set_durable(durable);
        m.set_direct_fill(direct);
        Self {
            m,
            grace,
            now: 0,
            rights: [R::None; 3],
            home_local: LocalState::Exclusive,
            drain_target: None,
            inflight: Vec::new(),
            issued_waiters: BTreeSet::new(),
            woken: BTreeSet::new(),
            next_waiter: 0,
            request_coverage: BTreeSet::new(),
            transient_coverage: BTreeSet::new(),
            idle_recalls: 0,
            direct_recalls: BTreeSet::new(),
            directed: [(0, false); 3],
            directed_writes: 0,
        }
    }

    /// Deliver `msg` from remote `from` to the home machine.
    fn feed_msg(&mut self, from: usize, msg: Msg) {
        match msg.deliver(from, true) {
            Delivery::Home(ev) => self.feed(ev),
            Delivery::Cache(ev) => panic!("cache event {ev:?} delivered to the home"),
        }
    }

    fn feed(&mut self, ev: HomeEvent<u32>) {
        self.transient_coverage.insert((
            self.m.transient().name().to_string(),
            event_name(&ev).to_string(),
        ));
        if let HomeEvent::Request(req) = &ev {
            if self.m.transient().is_none() && !self.m.has_current() {
                let kind = match req.kind {
                    Kind::Read => "Read",
                    Kind::Write => "Write",
                    Kind::Operate(_) => "Operate",
                };
                let src = match req.source {
                    Requester::Local(_) => "Local",
                    Requester::Remote { .. } => "Remote",
                    Requester::Migration { .. } => "Migration",
                };
                self.request_coverage
                    .insert((self.m.state().name().to_string(), format!("{kind}:{src}")));
            }
        }
        let actions = self.m.on_event(self.now, self.grace, ev);
        self.apply(&actions);
        self.check_invariants();
    }

    fn apply(&mut self, actions: &[HomeAction<u32>]) {
        for a in actions {
            match a {
                HomeAction::Count(Counter::DirectWrites) => self.directed_writes += 1,
                HomeAction::ChargeDirUpdate
                | HomeAction::ApplyFlushData { .. }
                | HomeAction::Trace(_)
                | HomeAction::Count(_) => {}
                HomeAction::Wake(w) => {
                    assert!(self.woken.insert(*w), "waiter {w} woken twice");
                }
                // A directed write's fill: the requester writes once its
                // acks are in too.
                &HomeAction::SendFill { to, acks, .. } if acks > 0 => {
                    self.directed[to].0 += i64::from(acks);
                    self.directed[to].1 = true;
                    self.collect(to);
                }
                HomeAction::SendFill { to, exclusive, .. } => {
                    self.rights[*to] = if *exclusive { R::Write } else { R::Read };
                }
                HomeAction::Send { to, msg } => self.receive(*to, msg),
                HomeAction::SetHomeLocal { state, .. } => self.home_local = *state,
                HomeAction::StartHomeDrain { target, .. } => {
                    self.drain_target = Some(*target);
                    self.inflight.push(Reply::Drained);
                }
                HomeAction::ScheduleRetry { at } => self.inflight.push(Reply::Retry(*at)),
                HomeAction::PersistChunk { seq } => {
                    self.inflight.push(Reply::PersistDone(*seq));
                }
                // This harness never issues BeginMigration; the migration
                // family has its own explicit-state search
                // (protocol_check.rs::migration).
                HomeAction::TransferChunk { .. }
                | HomeAction::DepartChunk { .. }
                | HomeAction::AdoptChunk { .. } => {
                    panic!("migration action in a migration-free harness: {a:?}")
                }
                // This harness takes no locks; `protocol_check.rs` serves
                // write-intent grants directed.
                HomeAction::SendGrant { .. } => {
                    panic!("lock grant in a lock-free harness: {a:?}")
                }
            }
        }
    }

    /// What a correct cache at `node` does with `msg` from the home: take
    /// the rights a grant conveys, or owe the reply a revocation asks for.
    fn receive(&mut self, node: usize, msg: &Msg) {
        let reply = match msg {
            Msg::GrantOperated { op } => {
                self.rights[node] = R::Op(*op);
                return;
            }
            Msg::Invalidate => Msg::InvalidateAck,
            // A directed write's: the sharer acks the writer, not the home.
            &Msg::DirectedInvalidate { requester } => {
                self.inflight.push(Reply::DirectedAck {
                    sharer: node,
                    requester,
                });
                return;
            }
            Msg::RecallDirty => Msg::WritebackNotice {
                downgrade: false,
                direct: false,
            },
            Msg::DowngradeDirty => Msg::WritebackNotice {
                downgrade: true,
                direct: false,
            },
            // The three-leg recall: the owner fills the requester, which
            // acks; a read's owner also writes back and keeps a copy.
            &Msg::RecallTo {
                requester, keep, ..
            } => {
                self.direct_recalls
                    .insert((self.m.state().name().to_string(), keep));
                self.inflight.push(Reply::DirectFill {
                    owner: node,
                    requester,
                    keep,
                });
                return;
            }
            // An idle holder's operands already went home in keep
            // flushes: it answers at once with an empty one.
            Msg::RecallOperated { op } if self.rights[node] == R::Idle(*op) => {
                self.idle_recalls += 1;
                Msg::OperandFlush {
                    op: *op,
                    data: Vec::new(),
                    keep: false,
                }
            }
            Msg::RecallOperated { op } => Msg::OperandFlush {
                op: *op,
                data: operands(),
                keep: false,
            },
            other => panic!("migration message in a migration-free harness: {other:?}"),
        };
        self.inflight.push(Reply::Msg(node, reply));
    }

    /// Deliver the `i`-th in-flight reply, mimicking what a correct cache
    /// does to its own rights before replying.
    fn deliver(&mut self, i: usize) {
        let reply = self.inflight.swap_remove(i);
        self.now += 1;
        match reply {
            Reply::Msg(n, msg) => {
                // The cache gave up what it replies for; a downgrade keeps
                // a Shared copy, and an ack keeps the fill it acknowledges.
                match msg {
                    Msg::FillAck => {}
                    Msg::WritebackNotice {
                        downgrade: true, ..
                    } => self.rights[n] = R::Read,
                    _ => self.rights[n] = R::None,
                }
                self.feed_msg(n, msg);
            }
            Reply::DirectFill {
                owner,
                requester,
                keep,
            } => {
                self.rights[owner] = if keep { R::Read } else { R::None };
                self.rights[requester] = if keep { R::Read } else { R::Write };
                self.check_invariants();
                self.inflight.push(Reply::Msg(requester, Msg::FillAck));
                if keep {
                    let wb = Msg::WritebackNotice {
                        downgrade: true,
                        direct: true,
                    };
                    self.inflight.push(Reply::Msg(owner, wb));
                }
            }
            Reply::DirectedAck { sharer, requester } => {
                self.rights[sharer] = R::None;
                self.directed[requester].0 -= 1;
                self.collect(requester);
            }
            Reply::Drained => {
                if let Some(t) = self.drain_target.take() {
                    self.home_local = t;
                }
                self.feed(HomeEvent::Drained);
            }
            Reply::Retry(at) => {
                self.now = self.now.max(at);
                self.feed(HomeEvent::RetryExpired);
            }
            Reply::PersistDone(seq) => self.feed(HomeEvent::PersistDone { seq }),
        }
    }

    /// A directed write's requester holds the chunk once its fill and every
    /// sharer's ack are in, and then acks to the home.
    fn collect(&mut self, node: usize) {
        if self.directed[node] == (0, true) {
            self.directed[node] = (0, false);
            self.rights[node] = R::Write;
            self.check_invariants();
            self.inflight.push(Reply::Msg(node, Msg::FillAck));
        }
    }

    fn local_request(&mut self, kind: Kind) {
        let w = self.next_waiter;
        self.next_waiter += 1;
        self.issued_waiters.insert(w);
        self.feed(HomeEvent::Request(Request {
            source: Requester::Local(w),
            kind,
        }));
    }

    fn remote_request(&mut self, node: usize, kind: Kind) {
        if let R::Idle(op) = self.rights[node] {
            self.idle_request(node, op, kind);
            return;
        }
        assert_eq!(
            self.rights[node],
            R::None,
            "model only issues requests from nodes without rights"
        );
        self.feed_msg(node, Msg::request(kind, 0));
    }

    /// An Operated holder evicts its line and keeps its rights.
    fn keep_flush(&mut self, node: usize) {
        let R::Op(op) = self.rights[node] else {
            panic!("only an Operated holder evicts to idle: {:?}", self.rights);
        };
        self.rights[node] = R::Idle(op);
        self.feed_msg(
            node,
            Msg::OperandFlush {
                op,
                data: operands(),
                keep: true,
            },
        );
    }

    /// A request from an idle holder: the same operator re-acquires with no
    /// message; anything else leaves the epoch with an empty flush and then
    /// asks as a node without rights.
    fn idle_request(&mut self, node: usize, op: u32, kind: Kind) {
        if kind == Kind::Operate(op) {
            self.rights[node] = R::Op(op);
            self.check_invariants();
            return;
        }
        self.rights[node] = R::None;
        self.feed_msg(
            node,
            Msg::OperandFlush {
                op,
                data: Vec::new(),
                keep: false,
            },
        );
        self.feed_msg(node, Msg::request(kind, 0));
    }

    fn check_invariants(&self) {
        // Single writer: at most one node writes, and then nobody else
        // holds anything.
        let writers: Vec<usize> = REMOTES
            .iter()
            .copied()
            .filter(|&n| self.rights[n] == R::Write)
            .collect();
        assert!(writers.len() <= 1, "two writers: {:?}", self.rights);
        if let [w] = writers[..] {
            for n in REMOTES {
                if n != w {
                    assert_eq!(
                        self.rights[n],
                        R::None,
                        "node {n} holds rights alongside writer {w}: {:?}",
                        self.rights
                    );
                }
            }
        }
        // All concurrent operators agree, idle holders included.
        let ops: BTreeSet<u32> = REMOTES
            .iter()
            .filter_map(|&n| match self.rights[n] {
                R::Op(o) | R::Idle(o) => Some(o),
                _ => None,
            })
            .collect();
        assert!(ops.len() <= 1, "mixed operators live: {:?}", self.rights);

        // Stable directory: sharer sets match granted rights exactly, the
        // home dentry matches the Table-1 row, and no request is parked.
        if self.m.transient().is_none() {
            assert_eq!(self.m.pending_len(), 0, "stable state with queued work");
            assert!(!self.m.has_current(), "stable state with a parked request");
            match self.m.state() {
                DirState::Unshared => {
                    for n in REMOTES {
                        assert_eq!(self.rights[n], R::None, "Unshared but {:?}", self.rights);
                    }
                }
                DirState::Shared { sharers } => {
                    let set: BTreeSet<usize> = sharers.iter().copied().collect();
                    assert_eq!(set.len(), sharers.len(), "duplicate sharers: {sharers:?}");
                    assert!(!set.contains(&HOME), "home listed as its own sharer");
                    for n in REMOTES {
                        let expect = if set.contains(&n) { R::Read } else { R::None };
                        assert_eq!(self.rights[n], expect, "Shared{sharers:?}");
                    }
                }
                DirState::Dirty { owner } => {
                    assert_ne!(*owner, HOME, "home cannot be the Dirty owner");
                    for n in REMOTES {
                        let expect = if n == *owner { R::Write } else { R::None };
                        assert_eq!(self.rights[n], expect, "Dirty{{owner: {owner}}}");
                    }
                }
                DirState::Operated { op, sharers } => {
                    let set: BTreeSet<usize> = sharers.iter().copied().collect();
                    assert_eq!(set.len(), sharers.len(), "duplicate sharers: {sharers:?}");
                    for n in REMOTES {
                        // A sharer holds the rights with a line or idle.
                        if set.contains(&n) {
                            let held = [R::Op(op.0), R::Idle(op.0)];
                            assert!(held.contains(&self.rights[n]), "Operated{sharers:?}");
                        } else {
                            assert_eq!(self.rights[n], R::None, "Operated{sharers:?}");
                        }
                    }
                }
            }
            assert_eq!(
                self.home_local,
                self.m.state().home_local(),
                "home dentry out of sync with directory {:?}",
                self.m.state()
            );
        }
    }

    /// Deliver every outstanding reply until the protocol is fully stable.
    fn quiesce(&mut self) {
        let mut steps = 0;
        while !self.inflight.is_empty() {
            self.deliver(0);
            steps += 1;
            assert!(steps < 10_000, "protocol failed to quiesce");
        }
        assert!(self.m.transient().is_none(), "quiesced with a transient");
        assert_eq!(
            self.issued_waiters, self.woken,
            "local requests left sleeping at quiescence"
        );
    }
}

// ---------------------------------------------------------------------
// Builders: drive a fresh machine into each stable state.
// ---------------------------------------------------------------------

fn shared(world: &mut World, sharers: &[usize]) {
    for &n in sharers {
        world.remote_request(n, Kind::Read);
        world.quiesce();
    }
    assert_eq!(world.m.state().name(), "Shared");
}

fn dirty(world: &mut World, owner: usize) {
    world.remote_request(owner, Kind::Write);
    world.quiesce();
    assert_eq!(world.m.state(), &DirState::Dirty { owner });
}

fn operated(world: &mut World, op: u32, sharers: &[usize]) {
    for &n in sharers {
        world.remote_request(n, Kind::Operate(op));
        world.quiesce();
    }
    assert_eq!(world.m.state().name(), "Operated");
}

/// Dirty, then the owner's voluntary downgrade (an intent unlock that keeps
/// its copy, DESIGN.md §4.5): Shared with the former owner alone.
fn downgraded(world: &mut World, owner: usize) {
    dirty(world, owner);
    world.rights[owner] = R::Read;
    world.feed_msg(
        owner,
        Msg::WritebackNotice {
            downgrade: true,
            direct: false,
        },
    );
    world.quiesce();
    assert_eq!(
        world.m.state(),
        &DirState::Shared {
            sharers: vec![owner]
        }
    );
}

/// Operated, with the `idle` sharers' lines evicted and their rights kept.
fn operated_idle(world: &mut World, op: u32, sharers: &[usize], idle: &[usize]) {
    operated(world, op, sharers);
    for &n in idle {
        world.keep_flush(n);
        world.quiesce();
    }
    assert_eq!(world.m.state().name(), "Operated");
}

#[test]
fn exhaustive_state_by_request_matrix() {
    const OP: u32 = 5;
    let sharer_sets: [&[usize]; 3] = [&[1], &[2], &[1, 2]];
    let kinds = [Kind::Read, Kind::Write, Kind::Operate(OP), Kind::Operate(9)];
    let mut coverage = BTreeSet::new();

    // Every stable configuration of a 3-node cluster...
    type Config = Box<dyn Fn(&mut World)>;
    let mut configs: Vec<Config> = vec![Box::new(|_| {})];
    for s in sharer_sets {
        configs.push(Box::new(move |w| shared(w, s)));
        configs.push(Box::new(move |w| operated(w, OP, s)));
    }
    // The idle row: some or all Operated sharers evicted to idle.
    let idle_sets: [(&[usize], &[usize]); 4] = [
        (&[1], &[1]),
        (&[1, 2], &[1]),
        (&[1, 2], &[2]),
        (&[1, 2], &[1, 2]),
    ];
    for (s, idle) in idle_sets {
        configs.push(Box::new(move |w| operated_idle(w, OP, s, idle)));
    }
    for owner in REMOTES {
        configs.push(Box::new(move |w| dirty(w, owner)));
        configs.push(Box::new(move |w| downgraded(w, owner)));
    }

    // ...crossed with every request kind from every requester.
    let mut idle_recalls = 0;
    let mut idle_requests = 0;
    for build in &configs {
        for kind in kinds {
            // Local requester.
            let mut w = World::new(0);
            build(&mut w);
            w.local_request(kind);
            w.quiesce();
            coverage.extend(w.request_coverage);
            idle_recalls += w.idle_recalls;

            // Every remote requester that holds no rights, or only idle
            // ones.
            for node in REMOTES {
                let mut w = World::new(0);
                build(&mut w);
                match w.rights[node] {
                    R::None => {}
                    R::Idle(_) => idle_requests += 1,
                    _ => continue,
                }
                w.remote_request(node, kind);
                w.quiesce();
                coverage.extend(w.request_coverage);
                idle_recalls += w.idle_recalls;
            }
        }
    }
    assert!(idle_recalls > 0, "no recall ever reached an idle holder");
    assert!(idle_requests > 0, "no idle holder ever requested");

    // The three-leg cells: a remote read or write of a Dirty chunk by the
    // node that does not own it, with the short path on. The owner fills
    // the requester, and the directory must come out as the four-leg
    // recall leaves it.
    let mut direct = BTreeSet::new();
    for owner in REMOTES {
        let requester = 3 - owner;
        for (kind, keep) in [(Kind::Read, true), (Kind::Write, false)] {
            let mut w = World::new_direct(0);
            dirty(&mut w, owner);
            w.remote_request(requester, kind);
            w.quiesce();
            let want = if keep {
                DirState::Shared {
                    sharers: vec![owner, requester],
                }
            } else {
                DirState::Dirty { owner: requester }
            };
            assert_eq!(w.m.state(), &want, "{kind:?} of r{owner}'s Dirty chunk");
            direct.extend(w.direct_recalls);
        }
    }
    for keep in [false, true] {
        assert!(
            direct.contains(&("Dirty".to_string(), keep)),
            "no three-leg recall with keep={keep}: {direct:?}"
        );
    }

    // The directed-write cells: Shared with remote sharers x remote Write,
    // switch on. Each sharer other than the writer acks the writer, whose
    // own copy an upgrade dropped first; the directory names the writer.
    let mut directed = 0;
    for s in sharer_sets {
        for requester in REMOTES {
            if s == [requester] {
                continue; // no other sharer
            }
            let mut w = World::new_direct(0);
            shared(&mut w, s);
            if w.rights[requester] == R::Read {
                w.rights[requester] = R::None;
                w.feed_msg(requester, Msg::EvictNotice);
            }
            w.remote_request(requester, Kind::Write);
            w.quiesce();
            let want = DirState::Dirty { owner: requester };
            assert_eq!(w.m.state(), &want, "r{requester} writes Shared{s:?}");
            assert!(w
                .request_coverage
                .contains(&("Shared".into(), "Write:Remote".into())));
            directed += w.directed_writes;
        }
    }
    assert_eq!(directed, 4, "one directed write per cell");

    // Every stable state saw every request kind from both requester sides.
    for state in ["Unshared", "Shared", "Dirty", "Operated"] {
        for kind in ["Read", "Write", "Operate"] {
            for src in ["Local", "Remote"] {
                assert!(
                    coverage.contains(&(state.to_string(), format!("{kind}:{src}"))),
                    "state x request pair never serviced: {state} x {kind}:{src}"
                );
            }
        }
    }
}

#[test]
fn random_interleavings_preserve_invariants() {
    let mut transient_coverage = BTreeSet::new();
    let mut downgrades = 0;
    for seed in 0..48u64 {
        let grace = if seed % 2 == 0 { 0 } else { 40 };
        // A third of the seeds run with persist-before-ack enabled so the
        // interleavings also cross the `AwaitPersist` transient.
        let mut w = if seed % 3 == 0 {
            World::new_durable(grace)
        } else {
            World::new(grace)
        };
        let mut rng = Rng(seed.wrapping_mul(0x5851f42d4c957f2d) + 1);
        for _ in 0..300 {
            w.now += 1;
            // Prefer delivering outstanding replies; otherwise inject load.
            if !w.inflight.is_empty() && rng.below(3) != 0 {
                let i = rng.below(w.inflight.len());
                w.deliver(i);
                continue;
            }
            match rng.below(10) {
                // New work from a random requester.
                0..=4 => {
                    let kind = match rng.below(4) {
                        0 => Kind::Read,
                        1 => Kind::Write,
                        2 => Kind::Operate(5),
                        _ => Kind::Operate(9),
                    };
                    if rng.below(3) == 0 {
                        w.local_request(kind);
                    } else {
                        let node = REMOTES[rng.below(2)];
                        if w.rights[node] == R::None {
                            w.remote_request(node, kind);
                        }
                    }
                }
                // Voluntary eviction of a shared copy.
                5 => {
                    if w.m.transient().is_none() {
                        if let Some(&n) = REMOTES.iter().find(|&&n| w.rights[n] == R::Read) {
                            w.rights[n] = R::None;
                            w.feed_msg(n, Msg::EvictNotice);
                        }
                    }
                }
                // Voluntary writeback by the Dirty owner: an eviction, or
                // an intent unlock's downgrade that keeps a Shared copy.
                6 => {
                    if w.m.transient().is_none() {
                        if let Some(&n) = REMOTES.iter().find(|&&n| w.rights[n] == R::Write) {
                            let downgrade = rng.below(2) == 0;
                            w.rights[n] = if downgrade { R::Read } else { R::None };
                            let direct = false;
                            w.feed_msg(n, Msg::WritebackNotice { downgrade, direct });
                            downgrades += usize::from(downgrade);
                        }
                    }
                }
                // Voluntary flush by an Operated sharer: an eviction that
                // keeps the rights (any time, even while the home recalls
                // them), or one that leaves the epoch. An idle holder may
                // instead re-acquire, with no message.
                7 => {
                    let holder = REMOTES.iter().find_map(|&n| match w.rights[n] {
                        R::Op(o) => Some((n, o)),
                        _ => None,
                    });
                    let idle = REMOTES.iter().find_map(|&n| match w.rights[n] {
                        R::Idle(o) => Some((n, o)),
                        _ => None,
                    });
                    match (holder, idle, rng.below(3)) {
                        (Some((n, _)), _, 0) => w.keep_flush(n),
                        (_, Some((n, o)), 1) => w.idle_request(n, o, Kind::Operate(o)),
                        (Some((n, o)), _, _) if w.m.transient().is_none() => {
                            w.rights[n] = R::None;
                            w.feed_msg(
                                n,
                                Msg::OperandFlush {
                                    op: o,
                                    data: operands(),
                                    keep: false,
                                },
                            );
                        }
                        _ => {}
                    }
                }
                // Stale ack noise: must be ignored outside an epoch.
                _ => {
                    if w.m.transient().is_none() {
                        let before = w.m.state().clone();
                        w.feed_msg(REMOTES[rng.below(2)], Msg::InvalidateAck);
                        assert_eq!(w.m.state(), &before, "stale InvAck changed state");
                    }
                }
            }
        }
        w.quiesce();
        transient_coverage.extend(w.transient_coverage);
    }

    assert!(downgrades > 0, "no owner ever downgraded voluntarily");
    // The interleavings reached every multi-message transition phase.
    for (transient, event) in [
        ("AwaitInvAcks", "InvAck"),
        ("AwaitWriteback", "Writeback"),
        ("AwaitFlushes", "Flush"),
        ("HomeDrain", "Drained"),
        ("GraceWait", "RetryExpired"),
        ("AwaitPersist", "PersistDone"),
    ] {
        assert!(
            transient_coverage.contains(&(transient.to_string(), event.to_string())),
            "transient x event pair never exercised: {transient} x {event}"
        );
    }
}

// ---------------------------------------------------------------------
// Requester-side machine: full view x event sweep.
// ---------------------------------------------------------------------

fn all_cache_events() -> Vec<CacheEvent> {
    use CacheEvent::*;
    let mut v = Vec::new();
    for kind in [Kind::Read, Kind::Write, Kind::Operate(5)] {
        for home_down in [false, true] {
            for drain_pending in [false, true] {
                v.push(Request {
                    kind,
                    home_down,
                    drain_pending,
                });
            }
        }
        v.push(LineAllocated { line: 3, kind });
    }
    for granted in [LocalState::Shared, LocalState::Exclusive] {
        // From the home, and from a recalled owner.
        for direct in [false, true] {
            v.push(FillDone { granted, direct });
        }
    }
    for op in [5, 9] {
        v.push(GrantDone { op });
        v.push(RecallOperated { op });
    }
    v.push(Invalidate { from: 0 });
    v.push(DirectedInvalidate { requester: 2 });
    v.push(DirectedFill { acks: 2 });
    for data in [false, true] {
        v.push(DirectedGrant { acks: 2, data });
    }
    v.push(InvAck);
    v.push(RecallDirty);
    v.push(DowngradeDirty);
    for keep in [false, true] {
        v.push(RecallTo {
            requester: 2,
            dst_off: 64,
            keep,
        });
    }
    v.push(Evict);
    v.push(Downgrade);
    let afters = [
        AfterDrain::Invalidate {
            line: 3,
            reply_to: 0,
        },
        AfterDrain::WritebackInvalidate { line: 3 },
        AfterDrain::Downgrade { line: 3 },
        AfterDrain::FlushInvalidate { line: 3, op: 5 },
        AfterDrain::EvictShared { line: 3 },
        AfterDrain::Upgrade {
            line: 3,
            kind: Kind::Write,
        },
        AfterDrain::FlushThenUpgrade {
            line: 3,
            old_op: 5,
            kind: Kind::Operate(9),
        },
        AfterDrain::FillRequester {
            line: 3,
            requester: 2,
            dst_off: 64,
            keep: false,
        },
        AfterDrain::FillRequester {
            line: 3,
            requester: 2,
            dst_off: 64,
            keep: true,
        },
    ];
    for after in afters {
        for home_down in [false, true] {
            v.push(Drained { after, home_down });
        }
    }
    v.push(HomeDown);
    v.push(HomeRestarted);
    v.push(HomeMoved);
    v
}

#[test]
fn cache_machine_total_over_view_event_product() {
    let states = [
        LocalState::Invalid,
        LocalState::Shared,
        LocalState::Exclusive,
        LocalState::Operated,
        LocalState::FillingShared,
        LocalState::FillingExclusive,
        LocalState::FillingOperated,
        LocalState::OperatedIdle,
    ];
    let mut pairs = 0usize;
    for state in states {
        for line in [LINE_NONE, 3] {
            for draining in [false, true] {
                for (op_tag, acks, granted) in [
                    (NOTAG, -1, false),
                    (NOTAG, 0, false),
                    (NOTAG, 1, false),
                    (NOTAG, 1, true),
                    (5, 0, false),
                ] {
                    let view = CacheView {
                        state,
                        op_tag,
                        line,
                        draining,
                        home: HOME,
                        acks,
                        granted,
                    };
                    for ev in all_cache_events() {
                        let is_request = matches!(ev, CacheEvent::Request { .. });
                        let acts = CacheMachine::on_event(&view, ev);
                        pairs += 1;
                        // The requester wait-cell is consumed exactly once
                        // on Request events and never otherwise — the
                        // executor relies on this to hand off the waiter.
                        let consumes = acts
                            .iter()
                            .filter(|a| {
                                matches!(a, CacheAction::QueueWaiter | CacheAction::WakeRequester)
                            })
                            .count();
                        if is_request {
                            assert_eq!(
                                consumes, 1,
                                "Request must queue or wake exactly once: {view:?} -> {acts:?}"
                            );
                        } else {
                            assert_eq!(
                                consumes, 0,
                                "non-Request event consumed a requester: {view:?} -> {acts:?}"
                            );
                        }
                        // A single event starts at most one drain and
                        // allocates at most one line.
                        for pat in [
                            acts.iter()
                                .filter(|a| matches!(a, CacheAction::BeginDrain { .. }))
                                .count(),
                            acts.iter()
                                .filter(|a| matches!(a, CacheAction::AllocLine { .. }))
                                .count(),
                        ] {
                            assert!(pat <= 1, "duplicated structural action: {acts:?}");
                        }
                    }
                }
            }
        }
    }
    // 8 states x 2 lines x 2 drain flags x 5 (tag, acks, granted) x
    // |events|.
    assert!(pairs > 1_500, "sweep unexpectedly small: {pairs} pairs");
}
